"""Same outputs on the benchmark corpus: one sha256 per workload.

Every ladder, pairs and charp item of ``perfbench/corpus.py`` at seeds 1-3,
plus the pairs workload's known-defect probes, is reduced, written out and
replayed; each monomialize item is monomialized and divided.  The digests in
``tests/golden/corpus_digest.json`` were recorded from this file.  A change
that alters outputs on purpose re-records them with

    PYTHONPATH=src python tests/test_corpus_digest.py --record

and says why.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

from perronval.errors import PerronvalError
from perronval.oracle import oracle_from_document
from perronval.perron import build_a6_divide, monomialize
from perronval.poly import parse_polynomial
from perronval.reduce import replay_trace, run_reduction, trace_document

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "corpus_digest.json"
SEEDS = (1, 2, 3)
WORKLOADS = ("ladder", "pairs", "charp", "monomialize")


def _corpus():
    spec = importlib.util.spec_from_file_location(
        "perronval_bench_corpus", ROOT / "perfbench" / "corpus.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _error(exc) -> str:
    return f"{type(exc).__name__}: {exc}"


def _reduction_text(doc) -> str:
    try:
        trace = trace_document(run_reduction(oracle_from_document(doc)), doc)
        return json.dumps(trace, sort_keys=True) + repr(replay_trace(trace))
    except PerronvalError as exc:
        return _error(exc)


def _monomialize_text(item) -> str:
    try:
        oracle = oracle_from_document(item["doc"])
        g = parse_polynomial(oracle.frame, oracle.field, item["poly"])
        res = monomialize(g, oracle.weights, oracle.frame)
        m1, m2 = item["divide"]
        a6 = build_a6_divide(m1, m2, oracle.weights, oracle.frame)
        return json.dumps({
            "transforms": [t.document() for t in res.transforms],
            "exponents": list(res.exponents),
            "unit": str(res.unit),
            "divide": [list(r) for r in a6.matrix],
        }, sort_keys=True)
    except PerronvalError as exc:
        return _error(exc)


def workload_digest(corpus, workload) -> str:
    h = hashlib.sha256()
    for seed in SEEDS:
        items = corpus.generate(workload, seed)
        if workload == "monomialize":
            texts = [_monomialize_text(item) for item in items]
        else:
            docs = [item["doc"] for item in items]
            if workload == "pairs":
                docs += [probe["doc"] for probe in corpus.known_defect_probe(seed)]
            texts = [_reduction_text(doc) for doc in docs]
        for text in texts:
            h.update(text.encode())
            h.update(b"\n")
    return h.hexdigest()


def corpus_digests() -> dict:
    corpus = _corpus()
    return {workload: workload_digest(corpus, workload) for workload in WORKLOADS}


def test_corpus_outputs_match_the_recorded_digests():
    recorded = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert corpus_digests() == recorded


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_corpus_digest.py --record")
    GOLDEN.write_text(json.dumps(corpus_digests(), indent=2, sort_keys=True) + "\n",
                      encoding="utf-8")
