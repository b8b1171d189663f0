import json
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from perronval.errors import (
    DivisionByZero, FrameMismatch, InputError, PerronvalError, Unsupported, ValueMismatch,
)
from perronval.oracle import (
    ArcValuation,
    AugmentedChain,
    MonomialValuation,
    oracle_from_document,
)
from perronval.poly import Polynomial, VariableFrame, parse_polynomial
from perronval.reduce import run_reduction, trace_document
from perronval.scalars import FieldSpec, PuiseuxSeries, parse_series
from perronval.valgroup import RATIONAL, member, quadratic

Q = FieldSpec(0)
F2 = FieldSpec(2)
FR = VariableFrame(m=2, n=1)

CUSP = {
    "version": 1,
    "kind": "arc",
    "ring": {"m": 2, "char": 0, "n": 1},
    "f": "x2^2 - x1^3",
    "arc": {"x1": "t^2", "x2": "t^3"},
    "trunc": 40,
}

CHAIN = {
    "version": 1,
    "kind": "chain",
    "ring": {"m": 2, "char": 0, "n": 1},
    "x1_value": "1",
    "steps": [{"phi": "x2", "gamma": "3/2"}],
}

QUADRATIC_KEY_CHAIN = dict(CHAIN, steps=[{"phi": "x2^2 + 1", "gamma": "1"}])


def P(text, frame=FR, field=Q):
    return parse_polynomial(frame, field, text)


def arc_oracle(char, f, arc, trunc=40, normalization=None):
    doc = {
        "version": 1,
        "kind": "arc",
        "ring": {"m": 2, "char": char, "n": 1},
        "f": f,
        "arc": arc,
        "trunc": trunc,
    }
    if normalization is not None:
        doc["normalization"] = normalization
    return oracle_from_document(doc)


class TestValue:
    def test_arc_variable(self):
        o = oracle_from_document(CUSP)
        assert str(o.value(P("x2"))) == "3"

    def test_arc_hypersurface_infinite(self):
        o = oracle_from_document(CUSP)
        assert o.value(P("x2^2 - x1^3")).is_infinite
        assert o.value(P("x1*x2^2 - x1^4")).is_infinite  # multiple of f

    def test_chain_value(self):
        ch = oracle_from_document(CHAIN)
        assert str(ch.value(P("x2^2 - x1^3"))) == "3"  # min(2*3/2, 3)
        assert str(ch.value(P("x2"))) == "3/2"
        assert str(ch.value(P("x1^2"))) == "2"

    def test_above_truncation(self):
        o = arc_oracle(0, "x2^2 - x1^3", {"x1": "t^2", "x2": "t^3"}, trunc=10)
        # f plus a perturbation beyond the window: not a multiple of f
        g = P("x2^2 - x1^3 + x1^10")
        res = o.value(g)
        assert res.is_above

    def test_frame_mismatch(self):
        o = oracle_from_document(CUSP)
        other = parse_polynomial(VariableFrame(m=3, n=1), Q, "x3")
        with pytest.raises(FrameMismatch):
            o.value(other)

    def test_monomial_value(self):
        ctx = quadratic(2)
        frame = VariableFrame(m=2, n=2)
        o = MonomialValuation(frame, [ctx.value(1, 0), ctx.value(0, 1)])
        got = o.value(parse_polynomial(frame, Q, "x1^3 + x1*x2"))
        assert str(got.value) == "1 + 1*sqrt(2)"

    def test_valuation_axioms_on_products(self):
        o = oracle_from_document(CUSP)
        rng = random.Random(4)
        for _ in range(40):
            f = _random_poly(rng)
            g = _random_poly(rng)
            vf, vg, vfg = o.value(f), o.value(g), o.value(f * g)
            if vf.is_finite and vg.is_finite and vfg.is_finite:
                assert vfg.value == vf.value + vg.value
            vsum = o.value(f + g)
            if vf.is_finite and vg.is_finite and vf.value != vg.value and vsum.is_finite:
                assert vsum.value == min(vf.value, vg.value)


class TestResidue:
    def test_leading_ratio(self):
        o = oracle_from_document(CUSP)
        assert str(o.residue(P("x2^2"), P("x1^3"))) == "1"
        assert str(o.residue(P("2*x1^3"), P("x2^2"))) == "2"

    def test_shifted_arc(self):
        o = arc_oracle(0, "x2^2 - 2*x1*x2 + x1^2 - x1^3",
                       {"x1": "t^2", "x2": "t^2 + t^3"})
        assert o.arc_consistency()
        assert str(o.residue(P("x2"), P("x1"))) == "1"

    def test_value_mismatch(self):
        o = oracle_from_document(CUSP)
        with pytest.raises(ValueMismatch):
            o.residue(P("x2"), P("x1"))


    def test_monomial_oracle_ratio_of_leading_coefficients(self):
        frame = VariableFrame(m=2, n=2)
        ctx = quadratic(2)
        for field, want in ((Q, "3/2"), (FieldSpec(5), "4")):
            o = MonomialValuation(frame, [ctx.value(1, 0), ctx.value(0, 1)], field)
            g = parse_polynomial(frame, field, "3*x1*x2 + x1^2*x2 + x2^2")
            u = parse_polynomial(frame, field, "2*x1*x2 + x1^5")
            assert str(o.residue(g, u)) == want

    def test_monomial_oracle_value_mismatch(self):
        frame = VariableFrame(m=2, n=2)
        ctx = quadratic(2)
        o = MonomialValuation(frame, [ctx.value(1, 0), ctx.value(0, 1)])
        x1, x2 = parse_polynomial(frame, Q, "x1"), parse_polynomial(frame, Q, "x2")
        for g, u in ((x1, x2), (x1, Polynomial.zero(frame, Q)), (Polynomial.zero(frame, Q), x1)):
            with pytest.raises(ValueMismatch):
                o.residue(g, u)

    @pytest.mark.parametrize("g, u", [("x1 + x2", "x1"), ("x1", "x1 + x2"), ("x1", "x2")],
                             ids=["two-leading-in-g", "two-leading-in-u", "distinct-leading"])
    def test_monomial_oracle_without_a_shared_leading_monomial(self, g, u):
        # x2 is dependent: its weight equals that of x1
        o = MonomialValuation(FR, [RATIONAL.value(1), RATIONAL.value(1)])
        with pytest.raises(Unsupported):
            o.residue(P(g), P(u))

    def test_monomial_residue_matches_series_products(self):
        rng = random.Random(41)
        for field in (Q, F2, FieldSpec(3), FieldSpec(5), FieldSpec(7)):
            f = P("x2^2 - x1^3", field=field)
            for _ in range(60):
                arc = (_random_arc_series(rng, field), _random_arc_series(rng, field))
                oracle = ArcValuation(FR, field, f, arc)
                exps = (rng.randint(-9, 9), rng.randint(-9, 9))
                assert oracle.monomial_residue(exps) == _series_monomial_residue(oracle, exps)

    @pytest.mark.parametrize("field", [Q, FieldSpec(5)], ids=["char0", "char5"])
    def test_residues_follow_the_leading_coefficient_rule(self, field):
        # fractional leading coefficients on both sides; the rule is the
        # quotient of the leading coefficients, taken here in Fractions
        arc = (parse_series(field, "t^(2/3)*-3/4 + t^(5/3)*3/7 | trunc 6"),
               parse_series(field, "t^2*7/9 + t^(7/3)*-1/2 | trunc 6"))
        oracle = ArcValuation(FR, field, P("x2^2 - x1^3", field=field), arc)

        def lc(s):
            return F(s.leading_coeff().value)

        got = []
        for g, u in (("x2", "x1^3"), ("3/2*x2^2 + x1^7", "-2/3*x1^6"),
                     ("5/3*x1^3 + 2*x2", "4/7*x2"), ("x1*x2", "x1^4*11/13")):
            g, u = P(g, field=field), P(u, field=field)
            want = field.scalar(lc(oracle.series_of(g)) / lc(oracle.series_of(u)))
            got.append(oracle.residue(g, u))
            assert got[-1] == want, (g, u)
        assert field.modular or all(type(r.value) is F for r in got)
        for exps in ((3, -1), (-2, 1), (-1, -2), (4, 0), (0, -3), (2, 1), (0, 0)):
            want = F(1)
            for e, s in zip(exps, arc):
                want *= lc(s) ** e
            assert oracle.monomial_residue(exps) == field.scalar(want), exps
        x1, x2 = P("x1", field=field), P("x2", field=field)
        for g, u in ((x2, x1), (Polynomial.zero(FR, field), x1), (x1, Polynomial.zero(FR, field))):
            with pytest.raises(ValueMismatch):
                oracle.residue(g, u)

    def test_monomial_residue_zero_component(self):
        x1 = PuiseuxSeries(Q, {F(2): 3, F(5, 2): -1}, trunc=7)
        zero = PuiseuxSeries(Q, {}, trunc=5)
        oracle = ArcValuation(FR, Q, P("x2^2 - x1^3"), (x1, zero))
        for exps in ((1, 2), (0, -1)):
            with pytest.raises(DivisionByZero):
                oracle.monomial_residue(exps)
            with pytest.raises(DivisionByZero):
                _series_monomial_residue(oracle, exps)
        assert oracle.monomial_residue((3, 0)) == _series_monomial_residue(oracle, (3, 0))


def _random_arc_series(rng, field):
    """A truncated series of positive order with a nonzero leading term."""
    ram = rng.choice((1, 2, 3))
    order = F(rng.randint(1, 4 * ram), ram)
    terms = {order: rng.randint(1, 6) * rng.choice((-1, 1))}
    if field.raw(terms[order]) == 0:
        terms[order] = 1
    for _ in range(rng.randint(0, 4)):
        terms[order + F(rng.randint(1, 6 * ram), ram)] = rng.randint(-6, 6)
    return PuiseuxSeries(field, terms, trunc=order + F(rng.randint(1, 8 * ram), ram))


def _series_monomial_residue(oracle, exps):
    """Reference: leading coefficients of the products of the arc powers with
    positive and with negative exponents, divided."""
    field = oracle.field
    num = PuiseuxSeries(field, {F(0): field.one})
    den = PuiseuxSeries(field, {F(0): field.one})
    for e, s in zip(exps, oracle.arc):
        if e > 0:
            num = num * s**e
        elif e < 0:
            den = den * s ** (-e)
    if num.is_zero or den.is_zero:
        raise DivisionByZero("monomial residue over a vanishing window")
    return num.leading_coeff() / den.leading_coeff()


# arcs of the memo property test; f = x2^2 - x1^3 lies on the first one
MEMO_ARCS = (("t^2", "t^3"), ("t^2", "t^3 + t^4"), ("t", "t + t^(5/2)"))


@st.composite
def memo_case(draw):
    """An arc oracle document over Q or F_2..F_7, exact or truncated, a pool
    of polynomials (random ones, multiples of f, and ones valued above a
    truncated window) and queries of value, residue, series and base
    coordinates (of pool values and of drawn rationals), each asked twice."""
    char = draw(st.sampled_from((0, 2, 3, 5, 7)))
    x1, x2 = draw(st.sampled_from(MEMO_ARCS))
    doc = {"version": 1, "kind": "arc", "ring": {"m": 2, "char": char, "n": 1},
           "f": "x2^2 - x1^3", "arc": {"x1": x1, "x2": x2}}
    trunc = draw(st.sampled_from((None, 9, 16)))
    if trunc is not None:
        doc["trunc"] = trunc
    if draw(st.booleans()):
        doc["normalization"] = "2/3"
    field = FieldSpec(char)
    f = P(doc["f"], field=field)
    x1_poly = P("x1", field=field)
    pool = []
    for _ in range(draw(st.integers(1, 4))):
        terms = draw(st.dictionaries(st.tuples(st.integers(0, 4), st.integers(0, 3)),
                                     st.integers(-3, 3), max_size=4))
        g = Polynomial(FR, field, terms)
        kind = draw(st.sampled_from(("random", "multiple", "above")))
        if kind == "multiple":
            g = g * f
        elif kind == "above":
            g = f + x1_poly**10 * (g + 1)
        pool.append(g)
    fresh = oracle_from_document(doc)
    values = [r.value for r in map(fresh.value, pool) if r.is_finite]
    values += [RATIONAL.value(q) for q in draw(st.lists(
        st.fractions(min_value=0, max_value=12, max_denominator=6), min_size=1, max_size=3))]
    index = st.integers(0, len(pool) - 1)
    queries = draw(st.lists(st.one_of(
        st.tuples(st.sampled_from(("value", "series")), index),
        st.tuples(st.just("residue"), index, index),
        st.tuples(st.just("coords"), st.sampled_from(values)),
    ), min_size=1, max_size=10))
    repeats = draw(st.permutations(queries))
    return doc, pool, queries + repeats


def _memo_answer(oracle, query, pool):
    op, *args = query
    try:
        if op == "value":
            return oracle.value(pool[args[0]])
        if op == "series":
            return oracle.series_of(pool[args[0]])
        if op == "residue":
            return oracle.residue(pool[args[0]], pool[args[1]])
        return oracle.base_coords(args[0])
    except PerronvalError as exc:
        return type(exc), str(exc)


class TestMemo:
    @settings(max_examples=80, deadline=None)
    @given(memo_case())
    def test_memoised_answers_equal_fresh_ones(self, case):
        doc, pool, queries = case
        oracle = oracle_from_document(doc)
        for query in queries:
            expected = _memo_answer(oracle_from_document(doc), query, pool)
            assert _memo_answer(oracle, query, pool) == expected, query

    def test_cases_reach_infinite_and_above(self):
        # the property test draws both: a multiple of f is INFINITE through
        # divisibility even on a truncated arc, and on the arc of f,
        # f + x1^10 * g is above a window of 9 or 16
        field = FieldSpec(3)
        o = arc_oracle(3, "x2^2 - x1^3", {"x1": "t^2", "x2": "t^3"}, trunc=16)
        f = P("x2^2 - x1^3", field=field)
        assert o.value(f * P("x1 + x2", field=field)).is_infinite
        assert o.value(f + P("x1^10", field=field)).is_above


def _composed_branch_doc(p, a, b, c, trunc):
    """(x2 - c*x1)^a - x1^b over F_p on the arc (t^a, t^b + c*t^a), with the
    window ``trunc`` (None: exact)."""
    field = FieldSpec(p)
    x1, x2 = (Polynomial.variable(FR, field, i) for i in range(2))
    f = (x2 - x1 * c) ** a - x1**b
    doc = {"version": 1, "kind": "arc", "ring": {"m": 2, "char": p, "n": 1}, "f": str(f),
           "arc": {"x1": f"t^{a}", "x2": f"t^{b} + t^{a}*{c}"}}
    if trunc is not None:
        doc["trunc"] = trunc
    return doc


def _fractional_doc(trunc):
    """A Q arc whose ladder matches the residues 15/14 and -27/16:
    x2 = 15/14 x1 - 27/16 x1^2 + t^5/3 on x1 = 2/3 t^2, the curve
    (x2 - 15/14 x1 + 27/16 x1^2)^2 = 27/32 x1^5."""
    x1, x2 = (Polynomial.variable(FR, Q, i) for i in range(2))
    f = (x2 - x1 * F(15, 14) + x1**2 * F(27, 16)) ** 2 - x1**5 * F(27, 32)
    doc = {"version": 1, "kind": "arc", "ring": {"m": 2, "char": 0, "n": 1}, "f": str(f),
           "arc": {"x1": "t^2*2/3", "x2": "t^2*5/7 + t^4*-3/4 + t^5*1/3"}}
    if trunc is not None:
        doc["trunc"] = trunc
    return doc


class TestBestApprox:
    def test_first_value_already_outside(self):
        o = oracle_from_document(CUSP)
        got = o.best_approx(10)
        assert got.reason is None  # MAX-OUTSIDE
        assert got.h.is_zero
        assert str(got.gamma) == "3"
        assert member(got.gamma.value, o.base_lattice()) is None

    def test_one_residue_matching_step(self):
        o = arc_oracle(0, "x2^2 - 2*x1*x2 + x1^2 - x1^3",
                       {"x1": "t^2", "x2": "t^2 + t^3"})
        got = o.best_approx(10)
        assert got.reason is None  # MAX-OUTSIDE
        assert got.h == P("x1")
        assert str(got.gamma) == "3"

    def test_defect_ladder_never_leaves_group(self):
        # f = x2^p - x1^{a(p-1)} x2 - x1^{ap+1} for p=2, a=1 with the
        # Artin-Schreier arc x2 = sum t^{1+2^i}
        terms = " + ".join(f"t^{1 + 2**i}" for i in range(6))
        o = arc_oracle(2, "x2^2 + x1*x2 + x1^3", {"x1": "t", "x2": terms})
        assert o.arc_consistency()
        got = o.best_approx(64)
        assert got.reason == "TRUNCATION"
        assert [str(v) for v in got.ladder] == ["2", "3", "5", "9", "17", "33"]

    def test_step_bound(self):
        terms = " + ".join(f"t^{1 + 2**i}" for i in range(6))
        o = arc_oracle(2, "x2^2 + x1*x2 + x1^3", {"x1": "t", "x2": terms})
        got = o.best_approx(2)
        assert got.reason == "STEP-BOUND"
        assert [str(v) for v in got.ladder] == ["2", "3", "5"]

    def test_strictly_increasing_ladder(self):
        terms = " + ".join(f"t^{1 + 2**i}" for i in range(6))
        o = arc_oracle(2, "x2^2 + x1*x2 + x1^3", {"x1": "t", "x2": terms})
        ladder = o.best_approx(64).ladder
        assert all(a < b for a, b in zip(ladder, ladder[1:]))

    @pytest.mark.parametrize("p", (2, 3, 5, 7))
    def test_rungs_match_fresh_evaluations(self, p):
        # each rung's series is the previous one less rho * series(witness);
        # the reference values each x_m - h on a fresh oracle, which
        # evaluates it, and must give the same ladder, h, gamma and reason
        for depth in (2, 3):
            for trunc in (None, 1 + p**depth, 2 + p ** (depth - 1)):
                doc = _artin_schreier_doc(p, depth, trunc)
                for bound in (0, 1, 2, 64):
                    got = oracle_from_document(doc).best_approx(bound)
                    assert (got.h, got.gamma, list(got.ladder), got.reason) == \
                        _reference_best_approx(doc, bound), (p, depth, trunc, bound)

    @pytest.mark.parametrize("doc, h", [
        *[(_composed_branch_doc(p, a, b, c, trunc), f"{c % p}*x1")
          for p, a, b, c in ((2, 2, 3, 1), (3, 2, 5, 2), (5, 3, 4, -1), (7, 2, 9, 3))
          for trunc in (None, 40)],
        *[(_fractional_doc(trunc), "15/14*x1 - 27/16*x1^2") for trunc in (None, 12)],
        (_fractional_doc(5), None),
    ], ids=lambda x: f"char{x['ring']['char']}-{x['arc']['x2']}-trunc{x.get('trunc')}"
       if isinstance(x, dict) else None)
    def test_composed_and_fractional_ladders_match_the_reference(self, doc, h, monkeypatch):
        # a composed branch over F_p climbs one rung, c*x1, to MAX-OUTSIDE;
        # the Q arc's residues 15/14 and -27/16 are not integers
        for bound in (0, 1, 2, 64):
            oracle = oracle_from_document(doc)
            got = oracle.best_approx(bound)
            assert (got.h, got.gamma, list(got.ladder), got.reason) == \
                _reference_best_approx(doc, bound), bound
            # the series of x_m - h is left in the memo for the translation
            evaluated = []
            monkeypatch.setattr(Polynomial, "evaluate_at_arc",
                                lambda g, arc: evaluated.append(g))
            xm = Polynomial.variable(oracle.frame, oracle.field, 1)
            series = oracle.series_of(xm - got.h)
            monkeypatch.undo()
            assert not evaluated
            assert series == (xm - got.h).evaluate_at_arc(oracle.arc)
        # at the bound 64: MAX-OUTSIDE after the last rung, or, in the
        # window 5 of the Q arc, TRUNCATION there
        want = (None, h) if h is not None else ("TRUNCATION", "15/14*x1 - 27/16*x1^2")
        assert (got.reason, got.h) == (want[0], P(want[1], field=oracle.field))

    def test_the_family_reaches_every_stop(self):
        reasons = {oracle_from_document(_artin_schreier_doc(2, 3, trunc)).best_approx(bound).reason
                   for trunc in (None, 9, 4) for bound in (1, 64)}
        assert reasons == {"EXACT-MATCH", "TRUNCATION", "STEP-BOUND"}


def _artin_schreier_doc(p, depth, trunc):
    """The family of tests/test_reduce.py::defect_doc, f = x2^p -
    x1^(p-1) x2 - x1^(p+1) on the arc x2 = sum (p-1) t^(1+p^i), i < depth,
    with the window ``trunc`` (None: the finite arc is exact)."""
    if p == 2:
        f, coeff = "x2^2 + x1*x2 + x1^3", ""
    else:
        f, coeff = f"x2^{p} + {p - 1}*x1^{p - 1}*x2 + {p - 1}*x1^{p + 1}", f"*{p - 1}"
    doc = {"version": 1, "kind": "arc", "ring": {"m": 2, "char": p, "n": 1}, "f": f,
           "arc": {"x1": "t", "x2": " + ".join(f"t^{1 + p**i}{coeff}" for i in range(depth))}}
    if trunc is not None:
        doc["trunc"] = trunc
    return doc


def _reference_best_approx(doc, bound):
    """(h, gamma, ladder, reason) of ``best_approx`` as it read before each
    rung carried its series: every x_m - h is valued on a fresh oracle."""
    oracle = oracle_from_document(doc)
    frame, field = oracle.frame, oracle.field
    h = Polynomial.zero(frame, field)
    xm = Polynomial.variable(frame, field, frame.m - 1)
    ladder = []
    while True:
        fresh = oracle_from_document(doc)
        gamma = fresh.value(xm - h)
        if gamma.is_infinite:
            return h, gamma, ladder, "EXACT-MATCH"
        if gamma.is_above:
            return h, gamma, ladder, "TRUNCATION"
        ladder.append(gamma.value)
        coords = fresh.base_coords(gamma.value)
        if coords is None:
            return h, gamma, ladder, None
        if len(ladder) - 1 >= bound:
            return h, gamma, ladder, "STEP-BOUND"
        witness = Polynomial.monomial(frame, field, list(coords) + [0])
        h = h + witness * fresh.residue(xm - h, witness)


class _Evaluating(ArcValuation):
    """The reference for the variable shortcut: every series is evaluated."""

    def series_of(self, g):
        return g.evaluate_at_arc(self.arc)


def _check_variables(frame, field, arc, trunc, normalization):
    """series_of(x_i) is the arc component itself and equals x_i's
    evaluation at the arc; value(x_i) equals the evaluated one.  -x_i and
    x_i^2, one term but not a variable, are evaluated."""
    m = frame.m
    f = Polynomial.variable(frame, field, m - 1) ** 2 - Polynomial.variable(frame, field, 0) ** 3
    oracle = ArcValuation(frame, field, f, arc, trunc=trunc, normalization=normalization)
    reference = _Evaluating(frame, field, f, arc, trunc=trunc, normalization=normalization)
    for i in range(m):
        x = Polynomial.variable(frame, field, i)
        assert oracle.series_of(x) is oracle.arc[i]
        assert oracle.series_of(x) == x.evaluate_at_arc(oracle.arc)
        assert oracle.value(x) == reference.value(x)
        for g in (-x, x**2):
            assert oracle.series_of(g) == g.evaluate_at_arc(oracle.arc)
            assert oracle.value(g) == reference.value(g)


NORMALIZATIONS = (None, RATIONAL.value(F(2, 3)), quadratic(2).value(-1, 1),
                  quadratic(3).value(2, -1))


@st.composite
def variable_case(draw):
    """Two or three arc components over Q or F_2..F_7 on grids 1, 1/2 or
    1/3, each exact or with its own truncation, now and then zero (exactly
    or below its truncation), under an oracle window or none and a rational
    or quadratic normalization."""
    field = FieldSpec(draw(st.sampled_from((0, 2, 3, 5, 7))))
    m = draw(st.integers(2, 3))
    arc = []
    for _ in range(m):
        ram = draw(st.sampled_from((1, 2, 3)))
        low = 1 if draw(st.integers(0, 4)) else 12 * ram  # 12: at or past any truncation
        terms = draw(st.dictionaries(st.integers(low, 12 * ram).map(lambda k: F(k, ram)),
                                     st.integers(-4, 4), max_size=4))
        arc.append(PuiseuxSeries(field, terms, trunc=draw(st.sampled_from((None, 5, F(17, 2))))))
    trunc = draw(st.sampled_from((None, 7, F(19, 2), F(25, 3))))
    return VariableFrame(m=m, n=m - 1), field, tuple(arc), trunc, draw(st.sampled_from(NORMALIZATIONS))


class TestVariableSeries:
    @settings(max_examples=150, deadline=None)
    @given(variable_case())
    def test_a_variable_is_its_arc_component(self, case):
        _check_variables(*case)

    @pytest.mark.parametrize("char", (0, 2, 3, 5, 7))
    @pytest.mark.parametrize("normalization", NORMALIZATIONS, ids=str)
    def test_ramified_truncated_and_vanishing_components(self, char, normalization):
        field = FieldSpec(char)
        arc = (PuiseuxSeries(field, {F(1, 2): 1, F(7, 3): 2}, trunc=F(17, 2)),
               PuiseuxSeries(field, {F(9): 1}, trunc=5),  # zero to its truncation
               PuiseuxSeries(field, {F(3, 2): -1, F(5): 3}))
        for trunc in (None, F(25, 3)):
            _check_variables(VariableFrame(m=3, n=2), field, arc, trunc, normalization)
        _check_variables(FR, field, arc[:2], None, normalization)


class TestArcConsistency:
    def test_cusp(self):
        assert oracle_from_document(CUSP).arc_consistency()

    def test_wrong_exponent(self):
        o = arc_oracle(0, "x2^2 - x1^5", {"x1": "t^2", "x2": "t^3"})
        assert not o.arc_consistency()

    def test_defect_arc(self):
        terms = " + ".join(f"t^{1 + 2**i}" for i in range(6))
        o = arc_oracle(2, "x2^2 + x1*x2 + x1^3", {"x1": "t", "x2": terms})
        assert o.arc_consistency()


class TestAugmentedChain:
    def test_degree_must_increase(self):
        frame = FR
        with pytest.raises(InputError):
            AugmentedChain(frame, Q, RATIONAL.value(1), [
                (P("x2"), RATIONAL.value(F(3, 2))),
                (P("x2 + x1"), RATIONAL.value(2)),
            ])

    def test_gamma_must_increase(self):
        with pytest.raises(InputError):
            AugmentedChain(FR, Q, RATIONAL.value(1), [
                (P("x2"), RATIONAL.value(F(3, 2))),
                (P("x2^2 - x1^3"), RATIONAL.value(1)),
            ])

    def test_two_step_chain(self):
        ch = AugmentedChain(FR, Q, RATIONAL.value(1), [
            (P("x2"), RATIONAL.value(F(3, 2))),
            (P("x2^2 - x1^3"), RATIONAL.value(4)),
        ])
        assert str(ch.value(P("x2^2 - x1^3"))) == "4"
        assert str(ch.value(P("x2"))) == "3/2"
        assert str(ch.value(P("x2^2"))) == "3"

    @pytest.mark.parametrize("poly, expected", [
        ("x2", "0"), ("x2^3 + x2", "1"), ("x1*x2", "1"), ("x2^2 + 1", "1"),
    ])
    def test_first_key_of_degree_two(self, poly, expected):
        # the Gauss base values x2 at 0, so x2^2 + 1 is a key over it, and
        # every expansion coefficient, x2 included, has a base value
        ch = oracle_from_document(QUADRATIC_KEY_CHAIN)
        assert str(ch.value(P(poly))) == expected

    def test_residue_unsupported(self):
        ch = oracle_from_document(CHAIN)
        with pytest.raises(Unsupported):
            ch.residue(P("x2"), P("x1"))


class TestCrossOracle:
    def test_chain_agrees_with_normalized_arc(self):
        # arc normalized so that value(x1) = 1 matches the chain's Gauss base
        arc = arc_oracle(0, "x2^2 - x1^3", {"x1": "t^2", "x2": "t^3"},
                         normalization="1/2")
        chain = oracle_from_document(CHAIN)
        rng = random.Random(13)
        for _ in range(60):
            a = _random_base_poly(rng)
            b = _random_base_poly(rng)
            g = a + b * P("x2")
            if g.is_zero:
                continue
            va, vc = arc.value(g), chain.value(g)
            assert va.kind == vc.kind == "finite"
            assert va.value == vc.value, str(g)
        # on f itself the finite chain sees 3, the arc sees infinity
        f = P("x2^2 - x1^3")
        assert str(chain.value(f)) == "3"
        assert arc.value(f).is_infinite


class TestDocuments:
    def test_arc_document_roundtrip(self):
        # a trace records the arc document its run read, and that record
        # rebuilds the same oracle
        o = oracle_from_document(CUSP)
        doc = json.loads(json.dumps(trace_document(run_reduction(o), CUSP)))["oracle"]
        o2 = oracle_from_document(doc)
        assert o2.f == o.f and o2.arc == o.arc

    def test_monomial_document(self):
        doc = {
            "version": 1,
            "kind": "monomial",
            "ring": {"m": 2, "n": 2, "char": 0},
            "generators": {"kind": "quadratic", "d": 2},
            "weights": ["1", "sqrt(2)"],
        }
        o = oracle_from_document(doc)
        assert isinstance(o, MonomialValuation)
        assert str(o.weights[1]) == "1*sqrt(2)"

    def test_unknown_kind(self):
        with pytest.raises(InputError):
            oracle_from_document({"version": 1, "kind": "mystery"})

    def test_arc_must_vanish_at_origin(self):
        doc = dict(CUSP)
        doc["arc"] = {"x1": "1 + t", "x2": "t^3"}
        with pytest.raises(InputError):
            oracle_from_document(doc)


def _random_poly(rng, max_terms=4, max_exp=4):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        mono = (rng.randint(0, max_exp), rng.randint(0, max_exp))
        terms[mono] = Q.scalar(F(rng.randint(-5, 5)))
    return Polynomial(FR, Q, terms)


def _random_base_poly(rng):
    terms = {}
    for _ in range(rng.randint(0, 3)):
        terms[(rng.randint(0, 5), 0)] = Q.scalar(F(rng.randint(-5, 5)))
    return Polynomial(FR, Q, terms)
