"""Output checks for the perronval benchmark.

Every expected value comes from the item as built in ``corpus``: the status
and multiplicities, the translation polynomial, the approximation ladder of
the Artin-Schreier curves, and the lowest-value monomial of a polynomial to
monomialize.  Polynomials in the program's output are read back with the
small parser below, and monomial images are recomputed from the recorded
matrices with integer arithmetic, so a check never trusts the program to
grade itself.  The two exceptions are deliberate: ``replay_trace`` must
reproduce the trace (that is the trace contract), and the defect exponent is
read through ``lattice_index`` and ``ostrowski`` as the acceptance criteria
do; both are compared with values fixed by the construction.
"""

from __future__ import annotations

import hashlib
import json
import re
from fractions import Fraction

_VAR = re.compile(r"^x(\d+)(?:\(\d+\))?(?:\^(\d+))?$")
_NUM = re.compile(r"^\d+(?:/\d+)?$")


def parse_poly(text, m=2):
    """Read a polynomial printed by perronval (any generation) into
    {exponent tuple: Fraction}."""
    text = text.strip()
    if text == "0":
        return {}
    sign = 1
    if text.startswith("-"):
        sign, text = -1, text[1:]
    out = {}
    for k, chunk in enumerate(re.split(r" ([+-]) ", text)):
        if k % 2:
            sign = 1 if chunk == "+" else -1
            continue
        coeff = Fraction(sign)
        mono = [0] * m
        for factor in chunk.split("*"):
            if _NUM.match(factor):
                coeff *= Fraction(factor)
                continue
            v = _VAR.match(factor)
            if not v:
                raise ValueError(f"bad factor {factor!r} in {text!r}")
            mono[int(v.group(1)) - 1] += int(v.group(2) or 1)
        mono = tuple(mono)
        out[mono] = out.get(mono, 0) + coeff
    return {mono: c for mono, c in out.items() if c}


def reduce_mod(f, p):
    if not p:
        return f
    out = {}
    for mono, c in f.items():
        v = c.numerator * pow(c.denominator, -1, p) % p
        if v:
            out[mono] = Fraction(v)
    return out


def order_last(f):
    """ord f(0,..,0,x_m), or None when that restriction vanishes."""
    pure = [mono[-1] for mono in f if not any(mono[:-1])]
    return min(pure) if pure else None


def det(matrix):
    """Integer determinant by cofactor expansion (matrices are tiny)."""
    if len(matrix) == 1:
        return matrix[0][0]
    return sum(
        (-1) ** j * matrix[0][j] * det([row[:j] + row[j + 1:] for row in matrix[1:]])
        for j in range(len(matrix))
    )


def monomial_image(mono, matrix):
    """Exponents of x^mono after the monomial substitution
    x_i -> prod_j x_j'^matrix[i][j]."""
    return tuple(
        sum(mono[i] * matrix[i][j] for i in range(len(mono)))
        for j in range(len(matrix[0]))
    )


def doc_digest(doc):
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def terms_count(text):
    """Number of terms of a printed polynomial."""
    return 0 if text.strip() == "0" else len(re.split(r" [+-] ", text.strip()))


def coeff_bits(text):
    """Largest numerator or denominator bit length in a printed polynomial."""
    bits = 0
    for c in parse_poly(text).values():
        bits = max(bits, abs(c.numerator).bit_length(), c.denominator.bit_length())
    return bits


def _matrix_problems(steps):
    problems = []
    for step in steps:
        if "transform" not in step:
            continue
        mat = step["transform"]["matrix"]
        if any(e < 0 for row in mat for e in row):
            problems.append(f"{step['kind']} matrix has a negative entry")
        if det(mat) != 1:
            problems.append(f"{step['kind']} matrix has determinant {det(mat)}")
    return problems


def check_reduction(item, outcome, digest=None, delta=None):
    """Problems with one reduction item; an empty list means verified.

    ``outcome`` holds the API trace document (``trace``), the replayed
    final polynomial (``replayed``), any error code (``error``), the CLI
    exit code (``cli_exit``) and the CLI trace document (``cli_trace``).
    ``delta`` is the defect exponent read back for DEFECT-SUSPECTED items.
    """
    expect = item["expect"]
    if outcome.get("error"):
        return [f"error {outcome['error']}"]
    doc = outcome["trace"]
    problems = []
    for key in ("status", "r_initial", "r_final"):
        if doc[key] != expect[key]:
            problems.append(f"{key} {doc[key]!r}, expected {expect[key]!r}")
    if outcome["replayed"] != doc["final_f"]:
        problems.append("replay does not reproduce final_f")
    p = item["doc"]["ring"]["char"]
    if expect["status"] == "REDUCED-TO-SMOOTH":
        if order_last(parse_poly(doc["final_f"])) != 1:
            problems.append("final_f is not smooth along x_m")
    kinds = [s["kind"] for s in doc["steps"]]
    translations = [s for s in doc["steps"] if s["kind"].startswith("TRANSLATE")]
    want = [expect["translate"]] if "translate" in expect else []
    if [s["kind"] for s in translations] != want:
        problems.append(f"translation steps {kinds}, expected {want}")
    elif want:
        got = reduce_mod(parse_poly(translations[0]["h"]), p)
        if got != reduce_mod(parse_poly(expect["h"]), p):
            problems.append(f"translation h {translations[0]['h']!r}, expected {expect['h']!r}")
        if "gamma" in expect and translations[0].get("gamma") != expect["gamma"]:
            problems.append(f"gamma {translations[0].get('gamma')!r}, expected {expect['gamma']!r}")
    if "ladder" in expect:
        if doc["diagnostics"].get("ladder") != expect["ladder"]:
            problems.append(f"ladder {doc['diagnostics'].get('ladder')}, expected {expect['ladder']}")
        if delta != expect["delta"]:
            problems.append(f"defect exponent {delta}, expected {expect['delta']}")
    problems += _matrix_problems(doc["steps"])
    if outcome["cli_exit"] != expect["exit"]:
        problems.append(f"CLI exit {outcome['cli_exit']}, expected {expect['exit']}")
    elif outcome["cli_trace"] != doc:
        problems.append("CLI trace differs from the API trace")
    if digest is not None and doc_digest(doc) != digest:
        problems.append("trace digest differs from the recorded one")
    return problems


def check_monomialize(item, outcome, digest=None):
    """Problems with one monomialize item; an empty list means verified.

    ``outcome`` holds the CLI-shaped result document (``doc``: transforms,
    exponents, unit), the substituted polynomial rebuilt from the transform
    documents (``image``), the A6 divide matrix with the images of its two
    monomials (``divide``), and the CLI exit code and document.
    """
    if outcome.get("error"):
        return [f"error {outcome['error']}"]
    expect = item["expect"]
    doc = outcome["doc"]
    problems = _matrix_problems([{"kind": t["kind"], "transform": t} for t in doc["transforms"]])
    image = {}
    for mono, c in item["terms"]:
        mono = tuple(mono)
        for t in doc["transforms"]:
            mono = monomial_image(mono, t["matrix"])
        image[mono] = image.get(mono, 0) + Fraction(c)
    if image != parse_poly(outcome["image"]):
        problems.append("rebuilt transforms do not give the independent image")
    exps = tuple(doc["exponents"])
    unit = parse_poly(doc["unit"])
    shifted = {tuple(a + b for a, b in zip(mono, exps)): c for mono, c in unit.items()}
    if shifted != image:
        problems.append("image is not x^exponents * unit")
    if unit.get((0, 0), 0) != Fraction(expect["lowest_coeff"]):
        problems.append("unit(0) is not the coefficient of the lowest-value monomial")
    lowest = tuple(expect["lowest"])
    for t in doc["transforms"]:
        lowest = monomial_image(lowest, t["matrix"])
    if lowest != exps:
        problems.append("the lowest-value monomial does not map to x^exponents")
    mat = outcome["divide"]["matrix"]
    m1, m2 = (monomial_image(tuple(m), mat) for m in item["divide"])
    problems += _matrix_problems([{"kind": "A6", "transform": {"matrix": mat}}])
    if any(a > b for a, b in zip(m1, m2)):
        problems.append("A6 divide: the image of M1 does not divide the image of M2")
    if [parse_poly(outcome["divide"][k]) for k in ("m1", "m2")] != [{m1: 1}, {m2: 1}]:
        problems.append("A6 divide: substituted monomials differ from the matrix images")
    if outcome["cli_exit"] != expect["exit"]:
        problems.append(f"CLI exit {outcome['cli_exit']}, expected {expect['exit']}")
    elif outcome["cli_doc"] != {"version": 1, **doc}:
        problems.append("CLI result differs from the API result")
    if digest is not None and doc_digest(doc) != digest:
        problems.append("result digest differs from the recorded one")
    return problems
