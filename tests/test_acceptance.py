"""Acceptance suite: one test per criterion, exact arithmetic throughout
(tolerance zero everywhere; there are no floating-point quantities).

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.
"""

import json
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from perronval.cli import main
from perronval.defect import ExtensionData, FamilyDecomposition, SimpleFamily, consistency, jump_total, ostrowski
from perronval.errors import BinomialObstruction, InputError
from perronval.oracle import AugmentedChain, BestApprox, ValueResult, oracle_from_document
from perronval.perron import (
    DEFAULT_STEP_BOUND,
    MonomializeResult,
    PerronTransform,
    build_a1,
    build_a6_divide,
    verify_cramer,
)
from perronval.poly import Polynomial, VariableFrame, parse_polynomial
from perronval.reduce import (
    Bounds,
    ReductionResult,
    char0_translate,
    replay_trace,
    run_reduction,
    trace_document,
)
from perronval.scalars import INFINITE, FieldSpec, Scalar, parse_series
from perronval.valgroup import (
    RATIONAL,
    GeneratorContext,
    ValueLattice,
    lattice_index,
    parse_value,
    quadratic,
    unimodular_inverse,
)
from replay_check import replay_matches

GOLDEN = Path(__file__).parent / "golden"

Q = FieldSpec(0)
FR = VariableFrame(m=2, n=1)


def arcdoc(char, f, arc, trunc=40):
    return {
        "version": 1,
        "kind": "arc",
        "ring": {"m": 2, "char": char, "n": 1},
        "f": f,
        "arc": arc,
        "trunc": trunc,
    }


CUSP = arcdoc(0, "x2^2 - x1^3", {"x1": "t^2", "x2": "t^3"})
CUSP_CHAR2 = arcdoc(2, "x2^2 + x1^3", {"x1": "t^2", "x2": "t^3"})
TACNODE = arcdoc(0, "x2^2 - 2*x1*x2 + x1^2 - x1^5", {"x1": "t", "x2": "t + t^(5/2)"})
CHAR2_CURVE = arcdoc(2, "x2^2 + x1^2 + x1^4 + x1^5",
                     {"x1": "t", "x2": "t + t^2 + t^(5/2)"})


def defect_doc(p, depth=6):
    if p == 2:
        f = "x2^2 + x1*x2 + x1^3"
        coeff = ""
    else:
        f = f"x2^{p} + {p - 1}*x1^{p - 1}*x2 + {p - 1}*x1^{p + 1}"
        coeff = f"*{p - 1}"
    terms = " + ".join(f"t^{1 + p**i}{coeff}" for i in range(depth))
    return arcdoc(p, f, {"x1": "t", "x2": terms})


# traces of the named runs, shared by criteria 6 and 9
_TRACES = {}


def _run(name, doc):
    if name not in _TRACES:
        res = run_reduction(oracle_from_document(doc))
        _TRACES[name] = (res, trace_document(res, doc))
    return _TRACES[name]


def _report(n, text):
    print(f"ACCEPTANCE {n} PASS: {text}")


def test_criterion_1_cusp_reduction():
    res, trace = _run("cusp", CUSP)
    assert res.status == "REDUCED-TO-SMOOTH"
    a1_steps = [s for s in res.trace if s["kind"] == "A1"]
    assert len(a1_steps) == 1, "exactly one Perron macro-step"
    matrix = a1_steps[0]["transform"]["matrix"]
    assert matrix == [[2, 1], [3, 2]]
    assert matrix[0][0] * matrix[1][1] - matrix[0][1] * matrix[1][0] == 1
    # strict-transform reconstruction is exact
    frame1 = FR.bumped()
    g = parse_polynomial(frame1, Q, a1_steps[0]["f_after"])
    strict = [s for s in res.trace if s["kind"] == "STRICT-TRANSFORM"][0]
    f1 = parse_polynomial(frame1, Q, strict["f_after"])
    unit = Polynomial.variable(frame1, Q, 1) + Q.scalar(F(strict["c"]))
    back = f1 * Polynomial.monomial(frame1, Q, strict["exponents"]) * unit ** strict["lambda"]
    assert back == g
    # golden file, byte for byte
    golden = (GOLDEN / "cusp_trace.json").read_text()
    assert json.dumps(trace, indent=2, sort_keys=True) + "\n" == golden
    _report(1, "cusp reduced to smooth in one step with matrix [[2,1],[3,2]]")


def test_criterion_2_char2_defectless(capsys):
    res, _ = _run("cusp2", CUSP_CHAR2)
    assert res.status == "REDUCED-TO-SMOOTH"
    a1 = [s for s in res.trace if s["kind"] == "A1"][0]
    assert a1["transform"]["matrix"] == [[2, 1], [3, 2]]
    strict = [s for s in res.trace if s["kind"] == "STRICT-TRANSFORM"][0]
    assert strict["exponents"] == [6, 0] and strict["lambda"] == 3
    # e computed from the arc's realized value lattices
    oracle = oracle_from_document(CUSP_CHAR2)
    e = lattice_index(oracle.full_lattice(), oracle.base_lattice())
    assert e == 2
    assert main(["defect", "--degree", "2", "--e", str(e), "--f", "1", "--p", "2"]) == 0
    assert capsys.readouterr().out.strip() == "delta=0"
    assert ostrowski(ExtensionData(degree=2, e=e, fres=1, p=2)) == 0
    _report(2, "char-2 cusp reduces identically and Ostrowski gives delta=0 with e=2")


def test_criterion_3_binomial_failure_path():
    # characteristic 2: the a_{r-1} route is obstructed, the approximation
    # route finds h' = x1 + x1^2 with value 5/2 outside ZZ
    with pytest.raises(BinomialObstruction):
        char0_translate(oracle_from_document(CHAR2_CURVE))
    res, _ = _run("char2curve", CHAR2_CURVE)
    assert res.status == "REDUCED-TO-SMOOTH" and res.r_final == 1
    tstep = [s for s in res.trace if s["kind"] == "TRANSLATE-DEFECTLESS"][0]
    h = parse_polynomial(FR, FieldSpec(2), tstep["h"])
    assert h == parse_polynomial(FR, FieldSpec(2), "x1 + x1^2")
    assert tstep["gamma"] == "5/2"
    gamma = parse_value(RATIONAL, tstep["gamma"])
    from perronval.valgroup import member
    assert member(gamma, ValueLattice(RATIONAL, (RATIONAL.value(1),))) is None
    # analogous characteristic-0 run records sigma_{t-1} = r - 1 exactly
    res0, _ = _run("tacnode", TACNODE)
    assert res0.status == "REDUCED-TO-SMOOTH"
    c0 = [s for s in res0.trace if s["kind"] == "TRANSLATE-CHAR0"][0]
    sigmas = c0["sigma"]["sigmas"]
    r = res0.r_initial
    assert c0["sigma_t_minus_1_eq_r_minus_1"] is True
    assert sigmas[-2] == r - 1
    _report(3, "binomial obstruction routes to h'=x1+x1^2 (gamma 5/2); "
               "char-0 run satisfies sigma_{t-1}=r-1")


def test_criterion_4_defect_detection(tmp_path, capsys):
    for p in (2, 3):
        doc = defect_doc(p)
        res, _ = _run(f"defect{p}", doc)
        assert res.status == "DEFECT-SUSPECTED"
        ladder = res.diagnostics["ladder"]
        expect = ["2", str(1 + p), str(1 + p * p)]
        assert ladder[:3] == expect
        values = [parse_value(RATIONAL, v) for v in ladder]
        assert all(a < b for a, b in zip(values, values[1:]))
        Z = ValueLattice(RATIONAL, (RATIONAL.value(1),))
        from perronval.valgroup import member
        assert all(member(v, Z) is not None for v in values)
        # the CLI contract: exit code 3
        path = tmp_path / f"defect{p}.json"
        path.write_text(json.dumps(doc))
        assert main(["reduce", "--oracle", str(path), "--out",
                     str(tmp_path / f"trace{p}.json")]) == 3
        # e from the realized lattices, then Ostrowski and the jump identity
        oracle = oracle_from_document(doc)
        e = lattice_index(oracle.full_lattice(), oracle.base_lattice())
        assert e == 1
        data = ExtensionData(degree=p, e=e, fres=1, p=p)
        assert ostrowski(data) == 1
        assert main(["defect", "--degree", str(p), "--e", str(e),
                     "--f", "1", "--p", str(p)]) == 0
        assert capsys.readouterr().out.strip() == "delta=1"
        # two-family decomposition read off the approximation ladder: every
        # key x2 - h' has degree 1, the limit key is f itself of degree p
        keys_degree = 1
        decomposition = FamilyDecomposition((
            SimpleFamily(keys_degree, keys_degree),
            SimpleFamily(p, p),
        ))
        assert jump_total(decomposition) == p
        assert consistency(data, decomposition)
    _report(4, "defect curves exit 3 with ladder 2, 1+p, 1+p^2, ...; "
               "delta=1 and the jump identity check out for p in {2,3}")


def test_criterion_5_lemma11_suite():
    rng = random.Random(20240817)
    contexts = [quadratic(2), quadratic(3)]
    frame2 = VariableFrame(m=2, n=2)
    frame1 = VariableFrame(m=2, n=1)
    passed = 0
    attempts = 0
    while passed < 200 and attempts < 4000:
        attempts += 1
        ctx = rng.choice(contexts)
        n = rng.choice([1, 2, 2, 2])
        if n == 1:
            w = [ctx.value(F(rng.randint(1, 8), rng.randint(1, 3)), 0)]
            frame = frame1
            m1 = (rng.randint(0, 8), 0)
            m2 = (rng.randint(0, 8), 0)
        else:
            w = [
                ctx.value(F(rng.randint(0, 5), rng.randint(1, 3)),
                          F(rng.randint(0, 5), rng.randint(1, 3)))
                for _ in range(2)
            ]
            if any(x.sign() <= 0 for x in w):
                continue
            a1, b1 = w[0].coords
            a2, b2 = w[1].coords
            if a1 * b2 - a2 * b1 == 0:
                continue
            frame = frame2
            m1 = (rng.randint(0, 8), rng.randint(0, 8))
            m2 = (rng.randint(0, 8), rng.randint(0, 8))

        def val(mono):
            total = ctx.zero()
            for e, wt in zip(mono, w):
                total = total + wt.scale(e)
            return total

        if not val(m1) < val(m2):
            m1, m2 = m2, m1
        if not val(m1) < val(m2):
            continue
        tau = build_a6_divide(m1, m2, w, frame)
        p1 = Polynomial.monomial(frame, Q, m1)
        p2 = Polynomial.monomial(frame, Q, m2)
        assert tau.substitute(p2).divisible_by(tau.substitute(p1))
        new_w = tau.transformed_weights(w[: frame.n])
        assert all(x.sign() > 0 for x in new_w)
        passed += 1
    assert passed >= 200
    _report(5, f"Lemma-11 divisibility verified on {passed} random instances")


def _equal_value_pairs(rng, tau, count):
    size = tau.size
    inv = unimodular_inverse([list(r) for r in tau.matrix])
    kernel = inv[size - 1]
    out = []
    guard = 0
    while len(out) < count and guard < 50 * count:
        guard += 1
        base = [rng.randint(0, 12) for _ in range(size)]
        k = rng.randint(-2, 2)
        other = [b + k * kv for b, kv in zip(base, kernel)]
        shift = max(0, -min(other))
        d = [b + shift * abs(kv) for b, kv in zip(base, kernel)]
        e = [o + shift * abs(kv) for o, kv in zip(other, kernel)]
        if min(d) < 0 or min(e) < 0:
            continue
        out.append((tuple(d), tuple(e)))
    return out


def test_criterion_6_cramer_suite():
    rng = random.Random(6021023)
    checked = 0
    # transforms emitted across the named runs
    for name, doc in [("cusp", CUSP), ("cusp2", CUSP_CHAR2),
                      ("tacnode", TACNODE), ("char2curve", CHAR2_CURVE),
                      ("defect2", defect_doc(2)), ("defect3", defect_doc(3))]:
        res, trace = _run(name, doc)
        frame = FR
        for step in trace["steps"]:
            if step["kind"] != "A1":
                continue
            field = FieldSpec(trace["oracle"]["ring"]["char"])
            tau = PerronTransform.from_document(step["transform"], frame, field)
            values = [parse_value(RATIONAL, v) for v in step["old_values"]]
            pairs = _equal_value_pairs(rng, tau, 20)
            assert len(pairs) >= 20
            for d, e in pairs:
                assert verify_cramer(tau, d, e, values)
                checked += 1
    # plus 100 random A1 transforms
    for _ in range(100):
        w = RATIONAL.value(F(rng.randint(1, 9), rng.randint(1, 5)))
        gamma = w.scale(F(rng.randint(1, 9), rng.randint(1, 9)))
        tau = build_a1([w], gamma, FR, residue=lambda _: Q.one)
        values = [w, gamma]
        pairs = _equal_value_pairs(rng, tau, 20)
        assert len(pairs) >= 20
        for d, e in pairs:
            assert verify_cramer(tau, d, e, values)
            checked += 1
    _report(6, f"Cramer identity exact on {checked} equal-value pairs")


def test_criterion_7_homomorphism_and_conservation():
    rng = random.Random(424242)
    ctx = quadratic(2)
    frame2 = VariableFrame(m=2, n=2)
    weights = [ctx.value(1, 0), ctx.value(0, 1)]

    def random_poly(frame, max_terms=4):
        terms = {}
        for _ in range(rng.randint(0, max_terms)):
            mono = tuple(rng.randint(0, 4) for _ in range(frame.m))
            terms[mono] = Q.scalar(F(rng.randint(-5, 5), rng.randint(1, 3)))
        return Polynomial(frame, Q, terms)

    def random_transform():
        if rng.random() < 0.5:
            m1 = (rng.randint(0, 4), rng.randint(0, 4))
            m2 = (m1[0] + rng.randint(0, 3), m1[1] + rng.randint(1, 3))
            return build_a6_divide(m1, m2, weights, frame2), frame2, weights
        w = RATIONAL.value(F(rng.randint(1, 7), rng.randint(1, 4)))
        gamma = w.scale(F(rng.randint(1, 7), rng.randint(1, 7)))
        c = Q.scalar(rng.randint(1, 4))
        tau = build_a1([w], gamma, FR, residue=lambda _: c)
        return tau, FR, [w, gamma]

    hom_checked = 0
    for _ in range(200):
        tau, frame, _vals = random_transform()
        f = random_poly(frame)
        g = random_poly(frame)
        assert tau.substitute(f * g) == tau.substitute(f) * tau.substitute(g)
        assert tau.substitute(f + g) == tau.substitute(f) + tau.substitute(g)
        hom_checked += 1

    # transformed-weights conserves the value of every monomial on the
    # active variables, with the (x_m(1)+c) slot contributing zero
    conserved = 0
    for _ in range(100):
        tau, frame, vals = random_transform()
        new_vals = tau.transformed_weights(vals)
        zero = vals[0].context.zero()
        size = tau.size
        for _ in range(5):
            mono = tuple(rng.randint(0, 6) for _ in range(size))
            old = zero
            for e, wv in zip(mono, vals):
                old = old + wv.scale(e)
            new_exps = [
                sum(tau.matrix[i][j] * mono[i] for i in range(size))
                for j in range(size)
            ]
            new = zero
            for e, wv in zip(new_exps, new_vals):
                new = new + wv.scale(e)
            assert old == new
            conserved += 1
    # strict-transform reconstruction is exact
    strict_checked = 0
    for _ in range(100):
        f = random_poly(FR, max_terms=5)
        if f.is_zero:
            continue
        c = Q.scalar(rng.choice([0, 1, -1, 2]))
        exps, lam, f1 = f.strict_transform(c)
        unit = Polynomial.variable(FR, Q, 1) + c
        back = f1 * Polynomial.monomial(FR, Q, exps) * unit**lam
        assert back == f.translate_last(c)
        strict_checked += 1
    # ord-last matches the order along the vertical arc where finite
    vertical = (parse_series(Q, "0"), parse_series(Q, "t"))
    ord_checked = 0
    for _ in range(100):
        f = random_poly(FR, max_terms=5)
        r = f.ord_last()
        series = f.evaluate_at_arc(vertical)
        if r is INFINITE:
            assert series.is_zero
        else:
            assert series.order() == r
        ord_checked += 1
    _report(7, f"homomorphism on {hom_checked} triples, conservation on "
               f"{conserved} monomials, {strict_checked} strict reconstructions, "
               f"{ord_checked} order checks")


def test_criterion_8_cross_oracle_consistency():
    # the arc is normalized so value(x1) = 1 matches the chain's Gauss base
    arc = oracle_from_document({
        **CUSP, "normalization": "1/2",
    })
    chain = AugmentedChain(FR, Q, RATIONAL.value(1),
                           [(parse_polynomial(FR, Q, "x2"), RATIONAL.value(F(3, 2)))])
    rng = random.Random(88)
    checked = 0
    # systematic monomial combinations a(x1) + b(x1) x2 of x2-degree <= 1
    coeffs = [F(c) for c in (-2, -1, 1, 2)]
    for i in range(0, 6):
        for j in range(0, 6):
            for ca in coeffs:
                for cb in coeffs:
                    a = Polynomial.monomial(FR, Q, (i, 0), Q.scalar(ca))
                    b = Polynomial.monomial(FR, Q, (j, 0), Q.scalar(cb))
                    g = a + b * Polynomial.variable(FR, Q, 1)
                    va, vc = arc.value(g), chain.value(g)
                    assert va.is_finite and vc.is_finite
                    assert va.value == vc.value
                    checked += 1
    # random dense degree <= 1 polynomials
    for _ in range(300):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            terms[(rng.randint(0, 6), rng.randint(0, 1))] = Q.scalar(rng.randint(-4, 4))
        g = Polynomial(FR, Q, terms)
        if g.is_zero:
            continue
        va, vc = arc.value(g), chain.value(g)
        assert va.is_finite and vc.is_finite
        assert va.value == vc.value
        checked += 1
    # documented difference on f itself: finite chain value 3 vs INFINITE
    f = parse_polynomial(FR, Q, "x2^2 - x1^3")
    assert str(chain.value(f)) == "3"
    assert arc.value(f).is_infinite
    _report(8, f"chain and arc agree on {checked} degree-<=1 polynomials; "
               "3 vs INFINITE on f as documented")


def test_criterion_9_trace_replay():
    replayed = 0
    for name, doc in [("cusp", CUSP), ("cusp2", CUSP_CHAR2),
                      ("tacnode", TACNODE), ("char2curve", CHAR2_CURVE),
                      ("defect2", defect_doc(2)), ("defect3", defect_doc(3))]:
        res, trace = _run(name, doc)
        assert replay_matches(trace)
        round_trip = json.loads(json.dumps(trace, indent=2, sort_keys=True))
        assert replay_trace(round_trip) == trace["final_f"]
        replayed += 1
    _report(9, f"{replayed} traces replay byte-identically")


def test_fibonacci_13_21_reduction():
    # one A1 step whose strict transform splits off (x2(1) + c)^168: two
    # Taylor shifts, where repeated long division took 169 divisions
    doc = arcdoc(0, "x2^13 - x1^21", {"x1": "t^13", "x2": "t^21"}, trunc=600)
    res = run_reduction(oracle_from_document(doc))
    assert res.status == "REDUCED-TO-SMOOTH"
    assert (res.r_initial, res.r_final) == (13, 1)
    assert replay_matches(trace_document(res, doc))
    _report("13/21", "x2^13 - x1^21 reduced from r 13 to 1; replay matches")


def test_two_pair_quartic_reduction():
    # the branch (t^4, t^6 + t^7) with two Puiseux pairs: transform_arc
    # inverts and powers dense ramified series at truncation 80
    doc = arcdoc(0, "x2^4 - 2*x1^3*x2^2 - 4*x1^5*x2 + x1^6 - x1^7",
                 {"x1": "t^4", "x2": "t^6 + t^7"}, trunc=80)
    res = run_reduction(oracle_from_document(doc))
    assert res.status == "REDUCED-TO-SMOOTH"
    assert (res.r_initial, res.r_final) == (4, 1)
    assert replay_matches(trace_document(res, doc))
    _report("quartic", "two-pair quartic reduced from r 4 to 1 at trunc 80; replay matches")


# ---------------------------------------------------------------------------
# Value types: plain __slots__ classes with written-out methods

def test_import_loads_neither_dataclasses_nor_inspect():
    # a fresh interpreter without site-packages, so only perronval's own
    # imports count
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import perronval.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", code, str(src)],
                         capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"


_POLY = Polynomial.variable(FR, Q, 0)
_VALUE = RATIONAL.value(1)
_FAMILY = SimpleFamily(first_degree=1, stable_degree=2)
_A6 = {"kind": "A6", "matrix": ((2, 1), (1, 1)), "frame": VariableFrame(2, 2)}

# class, every field by keyword, the required fields by keyword and the
# defaults they leave, a bad field set and the error it raises (None: no
# validation), and whether instances compare by fields, hash by fields and
# refuse assignment
VALUE_TYPES = [
    (FieldSpec, {"characteristic": 3}, {}, {"characteristic": 0},
     ({"characteristic": 4}, "characteristic must be 0 or prime"), True, True, True),
    (Scalar, {"field": Q, "value": F(1, 2)}, None, {}, None, True, False, False),
    (VariableFrame, {"m": 2, "n": 1, "generation": 1}, {"m": 2, "n": 1}, {"generation": 0},
     ({"m": 2, "n": 3}, "need 1 <= n <= m"), True, True, True),
    (GeneratorContext, {"kind": "quadratic", "d": 2}, {"kind": "rational"}, {"d": None},
     ({"kind": "quadratic", "d": 4}, "positive nonsquare d"), True, True, True),
    (ValueLattice, {"context": RATIONAL, "generators": (_VALUE,)}, None, {},
     ({"context": RATIONAL, "generators": ()}, "at least one generator"), False, False, False),
    (ValueResult, {"kind": "finite", "value": _VALUE}, {"kind": "infinite"}, {"value": None},
     None, True, False, False),
    (BestApprox, {"h": _POLY, "gamma": ValueResult.infinite(), "ladder": (), "reason": "TRUNCATION"},
     {"h": _POLY, "gamma": ValueResult.infinite(), "ladder": ()}, {"reason": None},
     None, False, False, False),
    (PerronTransform, {"kind": "A1", "matrix": ((2, 1), (3, 2)), "frame": FR, "c": Q.one},
     _A6, {"c": None}, (dict(_A6, matrix=((1, 1), (1, 1))), "determinant 1"), True, False, False),
    (MonomializeResult, {"transforms": (), "exponents": (1, 0), "unit": _POLY}, None, {}, None,
     True, False, False),
    (Bounds, {"max_translations": 1, "max_perron_steps": 2, "max_approx_steps": 3}, {},
     {"max_translations": 64, "max_perron_steps": DEFAULT_STEP_BOUND, "max_approx_steps": 64},
     None, False, False, False),
    (ReductionResult, {"status": "REDUCED-TO-SMOOTH", "oracle": None, "trace": [], "r_initial": 2,
                       "r_final": 1, "initial_ring": "ring", "diagnostics": {"a": 1}},
     {"status": "BOUND-EXHAUSTED", "oracle": None, "trace": [], "r_initial": 2, "r_final": 2},
     {"initial_ring": "", "diagnostics": {}}, None, False, False, False),
    (ExtensionData, {"degree": 4, "e": 2, "fres": 1, "p": 2}, {"degree": 4, "e": 4},
     {"fres": 1, "p": 1}, ({"degree": 0, "e": 1}, "must be positive"), False, False, False),
    (SimpleFamily, {"first_degree": 2, "stable_degree": 3}, None, {},
     ({"first_degree": 3, "stable_degree": 2}, "cannot decrease"), False, False, False),
    (FamilyDecomposition, {"families": (_FAMILY,)}, None, {},
     ({"families": ()}, "at least one family"), False, False, False),
]


@pytest.mark.parametrize("cls, fields, required, defaults, bad, compared, hashed, frozen",
                         VALUE_TYPES, ids=[case[0].__name__ for case in VALUE_TYPES])
def test_value_type(cls, fields, required, defaults, bad, compared, hashed, frozen):
    obj = cls(**fields)
    assert not hasattr(obj, "__dict__")
    assert {name: getattr(obj, name) for name in fields} == fields
    if required is not None:
        lean = cls(**required)
        assert {name: getattr(lean, name) for name in defaults} == defaults
        if cls is ReductionResult:  # a fresh diagnostics dict per instance
            assert lean.diagnostics is not cls(**required).diagnostics
    if bad is not None:
        with pytest.raises(InputError, match=bad[1]):
            cls(**bad[0])
    twin = cls(**fields)
    assert (obj == twin) is compared and (obj != twin) is not compared
    if hashed:
        assert hash(obj) == hash(twin) == hash(tuple(fields.values()))
    elif cls is ReductionResult:  # a mutable record
        with pytest.raises(TypeError):
            hash(obj)
    # another class with the same fields: a subclass, and an unrelated one
    sub = type("Sub", (cls,), {"__slots__": ()})(**fields)
    other = type("Other", (), {})()
    other.__dict__.update(fields)
    for stranger in (sub, other):
        assert obj != stranger and stranger != obj and not obj == stranger
    if frozen:
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(obj, name, getattr(obj, name))
            with pytest.raises(AttributeError):
                delattr(obj, name)
        assert {name: getattr(obj, name) for name in fields} == fields
