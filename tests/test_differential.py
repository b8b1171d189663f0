"""Q against F_p on the benchmark corpus (ROADMAP item 11a).

Every seed-1 ladder and pairs item of ``perfbench/corpus.py`` is reduced
over Q and, with the same document, over F_p for each admissible prime p:
p > deg f, and p divides no numerator or denominator of a coefficient of f
or of the arc.  The two fields take different translation routes (Q the
char-0 Tschirnhausen step, F_p the best-approximation ladder), and both
runs end every macro-step in a Taylor shift, so the reductions must agree
on the status, the r sequence, each A1's d, each strict transform's
exponents, lambda, r_after and term count, and on the final f, read mod p.
"""

import copy
import importlib.util
from fractions import Fraction
from pathlib import Path

import pytest

from perronval.oracle import oracle_from_document
from perronval.poly import Polynomial, VariableFrame, parse_polynomial
from perronval.reduce import run_reduction, trace_document
from perronval.scalars import FieldSpec, parse_series

ROOT = Path(__file__).resolve().parent.parent
PRIMES = (10007, 1000003)
Q = FieldSpec(0)


def _items():
    spec = importlib.util.spec_from_file_location(
        "perronval_bench_corpus", ROOT / "perfbench" / "corpus.py")
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    return [item for workload in ("ladder", "pairs") for item in corpus.generate(workload, 1)]


ITEMS = _items()


def _admissible(doc, p) -> bool:
    f = parse_polynomial(VariableFrame(doc["ring"]["m"], doc["ring"]["n"]), Q, doc["f"])
    values = list(f.terms.values())
    for text in doc["arc"].values():
        values += parse_series(Q, text).terms.values()
    return p > max(map(sum, f.terms)) and all(
        Fraction(v).numerator % p and Fraction(v).denominator % p for v in values)


def _reduce(doc, p):
    doc = copy.deepcopy(doc)
    doc["ring"]["char"] = p
    return trace_document(run_reduction(oracle_from_document(doc)), doc)


def _polynomial(trace, text, generation, field):
    ring = trace["oracle"]["ring"]
    frame = VariableFrame(ring["m"], ring["n"], generation)
    return parse_polynomial(frame, field, text)


def _summary(trace, field):
    """The facts both fields must agree on, term counts read in ``field``."""
    steps = trace["steps"]
    return {
        "status": trace["status"],
        "r": [trace["r_initial"]] + [s["r_after"] for s in steps if "r_after" in s]
             + [trace["r_final"]],
        "a1_d": [s["sigma"]["d"] for s in steps if s["kind"] == "A1"],
        "strict": [(s["exponents"], s["lambda"], s["r_after"],
                    len(_polynomial(trace, s["f_after"], s["generation"], field).terms))
                   for s in steps if s["kind"] == "STRICT-TRANSFORM"],
    }


def test_every_item_has_an_admissible_prime():
    assert len(ITEMS) == 136
    assert all(_admissible(item["doc"], p) for item in ITEMS for p in PRIMES)


@pytest.mark.parametrize("item", ITEMS, ids=lambda item: item["id"])
def test_q_and_f_p_reduce_alike(item):
    doc = item["doc"]
    over_q = _reduce(doc, 0)
    assert over_q["status"] == item["expect"]["status"]
    for p in PRIMES:
        if not _admissible(doc, p):
            continue
        fp = FieldSpec(p)
        over_p = _reduce(doc, p)
        assert _summary(over_p, fp) == _summary(over_q, Q), p
        final_q = _polynomial(over_q, over_q["final_f"], over_q["final_generation"], Q)
        final_p = _polynomial(over_p, over_p["final_f"], over_p["final_generation"], fp)
        assert over_p["final_generation"] == over_q["final_generation"]
        assert Polynomial(final_q.frame, fp, dict(final_q.terms)) == final_p, p
