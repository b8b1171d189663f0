import math
import random
from fractions import Fraction as F

import pytest

from perronval.errors import (
    ContextMismatch,
    InputError,
    NoRelation,
    PerronvalError,
    PreconditionError,
    StepBoundExceeded,
    Unsupported,
    ValueMismatch,
)
from perronval import perron
from perronval.oracle import oracle_from_document
from perronval.perron import (
    DEFAULT_STEP_BOUND,
    MonomializeResult,
    PerronTransform,
    build_a1,
    build_a6_divide,
    monomialize,
    verify_cramer,
)
from perronval.poly import Polynomial, VariableFrame, parse_polynomial
from perronval.scalars import FieldSpec
from perronval.valgroup import (
    RATIONAL,
    det_int,
    identity_matrix,
    pairing,
    quadratic,
    rational_relation,
    unimodular_inverse,
)

Q = FieldSpec(0)
FR1 = VariableFrame(m=2, n=1)
FR2 = VariableFrame(m=2, n=2)
Q2 = quadratic(2)
Q3 = quadratic(3)
CONTEXTS = (RATIONAL, Q2, Q3, quadratic(5))

CUSP_ORACLE = oracle_from_document({
    "version": 1, "kind": "arc", "ring": {"m": 2, "char": 0, "n": 1},
    "f": "x2^2 - x1^3", "arc": {"x1": "t^2", "x2": "t^3"}, "trunc": 40,
})


class TestTransformValidation:
    def test_det_must_be_one(self):
        with pytest.raises(InputError):
            PerronTransform("A6", ((1, 1), (1, 1)), FR2)

    def test_entries_nonnegative(self):
        with pytest.raises(InputError):
            PerronTransform("A6", ((1, -1), (0, 1)), FR2)

    def test_a1_needs_nonzero_c(self):
        with pytest.raises(InputError):
            PerronTransform("A1", ((2, 1), (3, 2)), FR1, c=Q.zero)
        PerronTransform("A1", ((2, 1), (3, 2)), FR1, c=Q.one)  # fine

    def test_a1_refuses_a_polynomial_over_another_field(self):
        # c lives in Q; an F_5 polynomial is refused at the substitution,
        # not at the strict transform that reads c next
        tau = PerronTransform("A1", ((2, 1), (3, 2)), FR1, c=Q.scalar(3))
        f = parse_polynomial(FR1, FieldSpec(5), "x2^2 - x1^3")
        with pytest.raises(InputError, match="field"):
            tau.substitute(f)
        assert tau.substitute(parse_polynomial(FR1, Q, "x2^2 - x1^3")).field == Q

    def test_a1_needs_dependent_last_variable(self):
        with pytest.raises(InputError):
            PerronTransform("A1", ((1, 0, 0), (0, 1, 0), (0, 0, 1)), FR2, c=Q.one)

    def test_a1_substitutes_the_unit(self):
        tau = PerronTransform("A1", ((2, 1), (3, 2)), FR1, c=Q.one)
        frame1 = FR1.bumped()
        unit = Polynomial.variable(frame1, Q, 1) + Q.one
        x1 = Polynomial.variable(FR1, Q, 0)
        x2 = Polynomial.variable(FR1, Q, 1)
        # the last new variable stands for the unit u = x2(1) + 1
        assert tau.substitute(x1) == Polynomial.monomial(frame1, Q, (2, 1))
        assert tau.substitute(x2) == Polynomial.monomial(frame1, Q, (3, 2))
        # shifted by c, the images are those in x2(1)
        in_x2 = lambda x: tau.substitute(x).translate_last(tau.c)
        assert in_x2(x1) == Polynomial.monomial(frame1, Q, (2, 0)) * unit
        assert in_x2(x2) == Polynomial.monomial(frame1, Q, (3, 0)) * unit**2


    @pytest.mark.parametrize("doc, frame, message", [
        ({"kind": "A1", "matrix": [[2, 1], [3, 2]], "c": "abc"}, FR1, "rational literal"),
        ({"kind": "A1", "matrix": [[2, 1], [3, 2]], "c": "1e3"}, FR1, "rational literal"),
        ({"kind": "A6", "matrix": [[1, 1], [1.9, 2]]}, FR2, "must be an integer"),
        ({"kind": "A6", "matrix": [[1, 1], 5]}, FR2, "matrix row"),
        ({"matrix": [[2, 1], [3, 2]], "c": "1"}, FR1, "missing 'kind'"),
        ({"kind": "A1", "c": "1"}, FR1, "missing 'matrix'"),
    ], ids=["c-text", "c-exponent", "matrix-float", "matrix-row-number",
            "no-kind", "no-matrix"])
    def test_from_document_rejects(self, doc, frame, message):
        with pytest.raises(InputError, match=message):
            PerronTransform.from_document(doc, frame, Q)

    def test_from_document_round_trip(self):
        tau = PerronTransform(kind="A1", matrix=((2, 1), (3, 2)), frame=FR1, c=Q.scalar(F(-3, 2)))
        assert PerronTransform.from_document(tau.document(), FR1, Q) == tau

    @pytest.mark.parametrize("kind, matrix, frame, c, fields", [
        ("A1", ((2, 1), (3, 2)), FR1, Q.scalar(F(-3, 2)), (Q,)),
        ("A6", ((2, 1), (1, 1)), FR2, None, (Q, FieldSpec(5))),
        ("A6", ((1, 0), (1, 1)), VariableFrame(m=3, n=2), None, (FieldSpec(2), Q)),
    ], ids=["A1", "A6", "A6-passive-x3"])
    def test_images_and_frame_are_built_once(self, kind, matrix, frame, c, fields):
        tau = PerronTransform(kind, matrix, frame, c)
        assert tau.new_frame() is tau.new_frame()
        assert tau.new_frame() == frame.bumped()
        rebuilt = PerronTransform.from_document(tau.document(), frame, fields[0])
        names = [frame.var_name(i) for i in range(frame.m)]
        texts = [f"{names[-1]}^2 - {names[0]}^3", f"3*{names[0]}*{names[-1]} + 1",
                 " + ".join(names)]
        # twice through one transform, fields interleaved, then once through
        # a rebuilt and a fresh transform each
        lists = []
        for text in texts * 2:
            for field in fields:
                f = parse_polynomial(frame, field, text)
                fresh = PerronTransform(kind, matrix, frame, c)
                got = tau.substitute(f)
                lists.append(tau._images)
                assert got.frame is tau.new_frame()
                assert got == rebuilt.substitute(f) == fresh.substitute(f)
        # one list of image exponent vectors per transform, whatever the field
        assert all(images is lists[0] for images in lists)
        assert len(lists[0]) == frame.m and all(len(e) == frame.m for e in lists[0])


class TestBuildA6Divide:
    def test_single_step(self):
        tau = build_a6_divide((1, 0), (0, 1), [Q2.value(1, 0), Q2.value(0, 1)], FR2)
        assert tau.matrix == ((1, 0), (1, 1))
        m1 = Polynomial.monomial(FR2, Q, (1, 0))
        m2 = Polynomial.monomial(FR2, Q, (0, 1))
        assert tau.substitute(m2).divisible_by(tau.substitute(m1))

    def test_empty_monomial_is_identity(self):
        tau = build_a6_divide((0, 0), (2, 1), [Q2.value(1, 0), Q2.value(0, 1)], FR2)
        assert tau.matrix == ((1, 0), (0, 1))

    def test_continued_fraction_instance(self):
        # value(x2) = sqrt(2) < 2 = value(x1^2)
        tau = build_a6_divide((0, 1), (2, 0), [Q2.value(1, 0), Q2.value(0, 1)], FR2)
        m1 = Polynomial.monomial(FR2, Q, (0, 1))
        m2 = Polynomial.monomial(FR2, Q, (2, 0))
        assert tau.substitute(m2).divisible_by(tau.substitute(m1))
        new_w = tau.transformed_weights([Q2.value(1, 0), Q2.value(0, 1)])
        assert all(w.sign() > 0 for w in new_w)

    def test_value_order_precondition(self):
        with pytest.raises(PreconditionError):
            build_a6_divide((2, 0), (0, 1), [Q2.value(1, 0), Q2.value(0, 1)], FR2)

    def test_lemma11_random_quadratic(self):
        rng = random.Random(2024)
        checked = 0
        for _ in range(400):
            inst = _random_lemma11_instance(rng)
            if inst is None:
                continue
            ctx, weights, m1, m2 = inst
            tau = build_a6_divide(m1, m2, weights, FR2)
            p1 = Polynomial.monomial(FR2, Q, m1)
            p2 = Polynomial.monomial(FR2, Q, m2)
            assert tau.substitute(p2).divisible_by(tau.substitute(p1))
            new_w = tau.transformed_weights(weights)
            assert all(w.sign() > 0 for w in new_w)
            checked += 1
        assert checked >= 100


class TestBuildA1:
    def test_cusp_matrix(self):
        tau = build_a1([RATIONAL.value(2)], RATIONAL.value(3), FR1,
                       residue=CUSP_ORACLE.monomial_residue)
        assert tau.matrix == ((2, 1), (3, 2))
        assert str(tau.c) == "1"

    def test_equal_values_single_step(self):
        tau = build_a1([RATIONAL.value(1)], RATIONAL.value(1), FR1, residue=lambda _: Q.one)
        assert tau.matrix == ((1, 0), (1, 1))

    def test_matrix_is_inverted_once_per_transform(self, monkeypatch):
        # the residue row, transform_arc and transformed_weights share one
        # inverse, and it is the inverse of the matrix
        calls = []

        def counted(m):
            calls.append(m)
            return unimodular_inverse(m)

        monkeypatch.setattr(perron, "unimodular_inverse", counted)
        rows = []
        tau = build_a1([RATIONAL.value(2)], RATIONAL.value(3), FR1,
                       residue=lambda row: rows.append(row) or Q.one)
        for _ in range(2):
            tau.transform_arc(CUSP_ORACLE.arc)
            tau.transformed_weights([RATIONAL.value(2), RATIONAL.value(3)])
        assert len(calls) == 1
        assert rows == [tuple(unimodular_inverse(tau.matrix)[-1])]

    def test_zero_residue_is_refused(self):
        with pytest.raises(InputError, match="nonzero constant"):
            build_a1([RATIONAL.value(2)], RATIONAL.value(3), FR1, residue=lambda _: Q.zero)

    def test_half_integer(self):
        tau = build_a1([RATIONAL.value(2)], RATIONAL.value(F(5, 2)), FR1, residue=lambda _: Q.one)
        new = tau.transformed_weights([RATIONAL.value(2), RATIONAL.value(F(5, 2))])
        assert str(new[0]) == "1/2" and new[1].is_zero

    def test_no_relation(self):
        with pytest.raises(NoRelation):
            build_a1([Q2.value(1, 0)], Q2.value(0, 1), FR1, residue=lambda _: Q.one)

    def test_new_values_positive_random(self):
        rng = random.Random(77)
        for _ in range(100):
            w = RATIONAL.value(F(rng.randint(1, 9), rng.randint(1, 5)))
            gamma = w.scale(F(rng.randint(1, 9), rng.randint(1, 9)))
            tau = build_a1([w], gamma, FR1, residue=lambda _: Q.one)
            new = tau.transformed_weights([w, gamma])
            assert new[0].sign() > 0 and new[1].is_zero

    def test_division_walk_returns_the_subtractive_matrix_without_its_steps(self, monkeypatch):
        # 200001/2 = [100000; 2]: three divisions stand for 100002 steps, and
        # the one exact sign read is that of w (a subtractive walk compares
        # two value rows at every step)
        signs = []
        sign = perron._sign

        def counted(row, d):
            signs.append(row)
            return sign(row, d)

        monkeypatch.setattr(perron, "_sign", counted)
        tau = build_a1([RATIONAL.value(2)], RATIONAL.value(200001), FR1,
                       residue=lambda _: Q.one, bound=10**6)
        assert tau.matrix == ((2, 1), (200001, 100001))
        assert signs == [[2]]

    @pytest.mark.parametrize("w, gamma", [
        (RATIONAL.value(2), RATIONAL.value(2001)),
        (RATIONAL.value(1000), RATIONAL.value(1)),
        (RATIONAL.value(F(1, 7)), RATIONAL.value(F(3001, 5))),
        (RATIONAL.value(F(113, 2)), RATIONAL.value(F(40000, 3))),
        (Q2.value(0, 3), Q2.value(0, F(1501, 2))),
        (Q3.value(-2, 3), Q3.value(F(-6002, 3), 3001)),
    ], ids=str)
    def test_the_bound_counts_subtractive_steps(self, w, gamma):
        # S, the sum of the partial quotients of gamma / w, is the step
        # count of the subtractive walk: bound S builds the same transform,
        # bound S - 1 raises the same error
        ratio = _ratio(gamma, w)
        s = sum(_partial_quotients(ratio.numerator, ratio.denominator))
        assert s >= 200
        outcomes = {}
        for bound in (s, s - 1):
            got, want = [], []
            outcomes[bound] = _outcome(build_a1, [w], gamma, FR1, bound=bound,
                                       residue=lambda row: got.append(row) or Q.one)
            assert outcomes[bound] == _outcome(_reference_build_a1, [w], gamma, FR1, bound=bound,
                                               residue=lambda row: want.append(row) or Q.one)
            assert got == want
        assert isinstance(outcomes[s], PerronTransform)
        assert outcomes[s - 1] == ("StepBoundExceeded", "STEP-BOUND-EXCEEDED",
                                   "A1 construction exceeded the step bound")

    def test_rank_two_simple_relation(self):
        # A1 transforms are built for n = 1 only: even the simple relation
        # gamma = w1 + w2 is refused before any walk or residue
        with pytest.raises(Unsupported, match="got n = 2"):
            build_a1([Q2.value(1, 0), Q2.value(0, 1)], Q2.value(1, 1),
                     VariableFrame(m=3, n=2), residue=_no_residue)

    def test_rank_two_step_bound(self):
        # a hard rank-2 relation is refused at once, not walked to the bound
        with pytest.raises(Unsupported, match="got n = 2"):
            build_a1([Q2.value(1, 0), Q2.value(0, 1)], Q2.value(2, 3),
                     VariableFrame(m=3, n=2), residue=_no_residue, bound=500)


def _no_residue(row):
    raise AssertionError("build_a1 read a residue for n = 2")


class TestTransformedWeights:
    def test_cusp(self):
        tau = PerronTransform("A1", ((2, 1), (3, 2)), FR1, c=Q.one)
        new = tau.transformed_weights([RATIONAL.value(2), RATIONAL.value(3)])
        assert str(new[0]) == "1" and new[1].is_zero

    def test_identity(self):
        tau = PerronTransform("A6", ((1, 0), (0, 1)), FR2)
        vals = [Q2.value(1, 0), Q2.value(0, 1)]
        assert tau.transformed_weights(vals) == vals

    def test_subtraction(self):
        tau = PerronTransform("A6", ((1, 0), (1, 1)), FR2)
        new = tau.transformed_weights([Q2.value(1, 0), Q2.value(0, 1)])
        assert str(new[0]) == "1" and str(new[1]) == "-1 + 1*sqrt(2)"

    def test_value_conservation(self):
        rng = random.Random(6)
        weights = [Q2.value(1, 0), Q2.value(0, 1)]
        for _ in range(50):
            m1 = (rng.randint(0, 5), rng.randint(0, 5))
            m2 = (rng.randint(0, 5), rng.randint(0, 5))
            try:
                tau = build_a6_divide(m1, m2, weights, FR2)
            except PreconditionError:
                continue
            new_w = tau.transformed_weights(weights)
            for mono in [(1, 0), (0, 1), (3, 2), m1, m2]:
                old = Q2.zero()
                for e, w in zip(mono, weights):
                    old = old + w.scale(e)
                image = tau.substitute(Polynomial.monomial(FR2, Q, mono))
                (new_mono,) = image.terms
                new = Q2.zero()
                for e, w in zip(new_mono, new_w):
                    new = new + w.scale(e)
                assert old == new


class TestVerifyCramer:
    def test_cusp_pair(self):
        tau = PerronTransform("A1", ((2, 1), (3, 2)), FR1, c=Q.one)
        vals = [RATIONAL.value(2), RATIONAL.value(3)]
        assert verify_cramer(tau, (3, 0), (0, 2), vals)

    def test_equal_vectors(self):
        tau = PerronTransform("A1", ((2, 1), (3, 2)), FR1, c=Q.one)
        vals = [RATIONAL.value(2), RATIONAL.value(3)]
        assert verify_cramer(tau, (1, 1), (1, 1), vals)

    def test_value_mismatch_rejected(self):
        tau = PerronTransform("A1", ((2, 1), (3, 2)), FR1, c=Q.one)
        vals = [RATIONAL.value(2), RATIONAL.value(3)]
        with pytest.raises(ValueMismatch):
            verify_cramer(tau, (1, 0), (0, 1), vals)

    def test_random_equal_value_pairs(self):
        rng = random.Random(99)
        for _ in range(50):
            tau, values = random_a1_with_values(rng, n=rng.choice([1, 1, 2]))
            for d, e in equal_value_pairs(rng, tau, 10):
                assert verify_cramer(tau, d, e, values)


class TestMonomialize:
    def test_power_extraction(self):
        g = parse_polynomial(FR1, Q, "x1^2 + x1^3")
        got = monomialize(g, [RATIONAL.value(1)], FR1)
        assert got.transforms == ()
        assert got.exponents == (2, 0)
        assert got.unit == parse_polynomial(FR1, Q, "1 + x1")

    def test_one_a6_step(self):
        g = parse_polynomial(FR2, Q, "x1 + x2")
        got = monomialize(g, [Q2.value(1, 0), Q2.value(0, 1)], FR2)
        assert len(got.transforms) == 1
        assert got.transforms[0].matrix == ((1, 0), (1, 1))
        assert got.exponents == (1, 0)
        frame1 = FR2.bumped()
        assert got.unit == parse_polynomial(frame1, Q, "1 + x2(1)")

    def test_unit_input(self):
        g = parse_polynomial(FR2, Q, "2 + x1")
        got = monomialize(g, [Q2.value(1, 0), Q2.value(0, 1)], FR2)
        assert got.transforms == () and got.exponents == (0, 0) and got.unit == g

    def test_reconstruction(self):
        rng = random.Random(31)
        weights = [Q2.value(1, 0), Q2.value(0, 1)]
        for _ in range(40):
            terms = {}
            for _ in range(rng.randint(1, 4)):
                mono = (rng.randint(0, 4), rng.randint(0, 4))
                terms[mono] = Q.scalar(rng.randint(1, 5))
            g = Polynomial(FR2, Q, terms)
            got = monomialize(g, weights, FR2)
            image = g
            for tau in got.transforms:
                image = tau.substitute(image)
            assert image == got.unit * Polynomial.monomial(
                got.unit.frame, Q, got.exponents
            )
            assert not got.unit.constant_term().is_zero

    @pytest.mark.parametrize("text, weights", [
        ("x1 + x2", []),
        ("x2", [Q2.value(1, 0)]),
        ("x2 + x2^2", [Q2.value(1, 0)]),
    ], ids=["no-weights", "one-term", "two-terms"])
    def test_a_missing_weight_is_refused(self, text, weights):
        # before the first round, as build_a6_divide refuses it
        with pytest.raises(InputError, match="need a weight per active variable"):
            monomialize(parse_polynomial(FR2, Q, text), weights, FR2)

    def test_walk_rows_are_the_transformed_weights(self, monkeypatch):
        # each round's walk leaves the rows of transformed_weights(old) over
        # the weights' common denominator, and the next round starts from
        # them: so monomialize needs no inverse matrix
        walks = []
        walk = perron._a6_walk

        def recorded(delta, rows, d, bound):
            before = [list(r) for r in rows]
            matrix = walk(delta, rows, d, bound)
            walks.append((before, matrix, [list(r) for r in rows]))
            return matrix

        monkeypatch.setattr(perron, "_a6_walk", recorded)
        rng = random.Random(2026)
        checked = 0
        for ctx in CONTEXTS:
            for _ in range(40):
                weights = [_draw_positive(rng, ctx) for _ in range(2)]
                walks.clear()
                try:
                    got = monomialize(_draw_polynomial(rng, FR2, 2), weights, FR2)
                except PerronvalError:
                    continue
                den = math.lcm(*(v.den for v in weights))

                def numerators(values):
                    return [[x * (den // v.den) for x in v.nums] for v in values]

                old = weights
                assert len(walks) == len(got.transforms)
                for (before, matrix, after), tau in zip(walks, got.transforms):
                    new = tau.transformed_weights(old)
                    assert matrix == tau.matrix
                    assert before == numerators(old)
                    assert after == numerators(new)
                    old = new
                    checked += 1
        assert checked >= 50


class TestMonomializeOnExponents:
    """The rounds relabel g's term map by each walk's matrix, x^e -> x'^(e M),
    and build the unit once; ``_reference_monomialize`` substitutes the
    whole polynomial through each transform instead."""

    FRAME = VariableFrame(m=3, n=2)

    @pytest.mark.parametrize("p", (0, 2, 3, 5, 7), ids=lambda p: f"F{p}" if p else "Q")
    def test_rounds_match_a_substitution_per_round(self, p):
        field = FieldSpec(p)
        rng = random.Random(f"exponents/{p}")
        # two polynomials that take two rounds, then seeded draws
        cases = [([Q2.value(1, 0), Q2.value(0, 1)], parse_polynomial(self.FRAME, field, text))
                 for text in ("x1^5 + x2^3 + x1*x2", "x1^2*x2 + x2^5 + x1^7")]
        for _ in range(300):
            weights = [_draw_positive(rng, rng.choice(CONTEXTS)) for _ in range(2)]
            if weights[0].context != weights[1].context:
                weights[1] = _draw_positive(rng, weights[0].context)
            cases.append((weights, _draw_polynomial(rng, self.FRAME, 2, field)))
        transforms, multi = 0, 0
        for weights, g in cases:
            got = _outcome(monomialize, g, weights, self.FRAME)
            assert got == _outcome(_reference_monomialize, g, weights, self.FRAME)
            if isinstance(got, MonomializeResult):
                assert got.unit.field == field
                if got.transforms:
                    assert got.unit.frame is got.transforms[-1].new_frame()
                    assert got.unit.frame.generation == len(got.transforms)
                else:
                    assert got.unit.frame is g.frame
                transforms += len(got.transforms)
                multi += len(got.transforms) > 1
        assert transforms >= 60 and multi >= 2

    def test_the_polynomial_frame_is_checked_before_any_round(self):
        # one outcome whether a round would run or not, and at bound 0
        other = VariableFrame(m=2, n=2, generation=1)
        weights = [Q2.value(1, 0), Q2.value(0, 1)]
        for text, bound in [("x1(1) + x1(1)^2", DEFAULT_STEP_BOUND),
                            ("x1(1) + x2(1)", DEFAULT_STEP_BOUND),
                            ("x1(1) + x2(1)", 0), ("1 + x1(1)", 0)]:
            with pytest.raises(InputError, match="^polynomial frame does not match the transform$"):
                monomialize(parse_polynomial(other, Q, text), weights, FR2, bound=bound)
        got = monomialize(parse_polynomial(FR2, Q, "1 + x1"), weights, FR2, bound=0)
        assert got.transforms == () and got.unit.frame is FR2


class TestMemos:
    """A transform bumps its frame once, when it is built, and inverts its
    matrix once, on first use; no ``cached_property`` is involved."""

    def test_bumped_runs_once_per_transform(self, monkeypatch):
        calls = []
        bumped = VariableFrame.bumped

        def counted(frame):
            calls.append(frame)
            return bumped(frame)

        monkeypatch.setattr(VariableFrame, "bumped", counted)
        weights = [Q2.value(1, 0), Q2.value(0, 1)]
        g = parse_polynomial(FR2, Q, "x1^5 + x2^3 + x1*x2")
        taus = list(monomialize(g, weights, FR2).transforms)
        assert len(taus) == 2 and len(calls) == 2
        taus.append(build_a6_divide((0, 1), (2, 0), weights, FR2))
        taus.append(build_a1([RATIONAL.value(2)], RATIONAL.value(3), FR1, residue=lambda _: Q.one))
        taus.append(PerronTransform("A6", ((2, 1), (1, 1)), FR2))
        taus.append(PerronTransform.from_document(taus[-1].document(), FR2, Q))
        assert len(calls) == len(taus)
        for tau in taus:
            x1 = Polynomial.variable(tau.frame, Q, 0)
            for _ in range(2):
                assert tau.substitute(x1).frame is tau.new_frame()
        assert len(calls) == len(taus)
        for frame, tau in zip(calls, taus):
            assert frame is tau.frame
            assert tau.new_frame() == VariableFrame(frame.m, frame.n, frame.generation + 1)

    def test_a_built_transform_inverts_its_matrix_once(self, monkeypatch):
        calls = []

        def counted(m):
            calls.append(m)
            return unimodular_inverse(m)

        monkeypatch.setattr(perron, "unimodular_inverse", counted)
        tau = PerronTransform("A1", ((2, 1), (3, 2)), FR1, c=Q.one)
        assert calls == []
        for _ in range(2):
            tau.transform_arc(CUSP_ORACLE.arc)
            tau.transformed_weights([RATIONAL.value(2), RATIONAL.value(3)])
        assert calls == [tau.matrix]


class TestWalksMatchReference:
    """The integer walks against the former bodies on `Value`s (kept below
    as ``_reference_*``), on seeded draws over Q and Q(sqrt d), d = 2, 3, 5:
    the same transforms (matrix, frame, constant), residue rows, exponents
    and units, and the same error code and message.  The draws hold equal
    weights, ties between terms, step bounds 0-3, exponent differences
    without a negative entry and weights of two contexts; the A1 draws
    have n = 1, the only rank ``build_a1`` builds."""

    @pytest.mark.parametrize("ctx", CONTEXTS, ids=lambda c: f"d={c.d}")
    def test_build_a6_divide(self, ctx):
        for args, bound in _a6_draws(ctx):
            assert _outcome(build_a6_divide, *args, bound=bound) == \
                _outcome(_reference_build_a6_divide, *args, bound=bound)

    @pytest.mark.parametrize("ctx", CONTEXTS, ids=lambda c: f"d={c.d}")
    def test_build_a1(self, ctx):
        for args, bound in _a1_draws(ctx):
            got, want = [], []
            assert _outcome(build_a1, *args, bound=bound,
                            residue=lambda row: got.append(row) or Q.one) == \
                _outcome(_reference_build_a1, *args, bound=bound,
                         residue=lambda row: want.append(row) or Q.one)
            assert got == want

    @pytest.mark.parametrize("ctx", CONTEXTS, ids=lambda c: f"d={c.d}")
    def test_monomialize(self, ctx):
        for args, bound in _monomialize_draws(ctx):
            assert _outcome(monomialize, *args, bound=bound) == \
                _outcome(_reference_monomialize, *args, bound=bound)

    def test_the_draws_reach_every_outcome(self):
        # a change to the draws that loses one of these fails here
        seen = set()
        for ctx in CONTEXTS:
            for args, bound in _a6_draws(ctx):
                got = _outcome(build_a6_divide, *args, bound=bound)
                seen.add(("A6", got[2] if isinstance(got, tuple) else
                          got.matrix == tuple(map(tuple, identity_matrix(len(got.matrix))))))
            for args, bound in _a1_draws(ctx):
                got = _outcome(build_a1, *args, bound=bound, residue=lambda _: Q.one)
                seen.add(("A1", got[2] if isinstance(got, tuple) else got.size))
            for args, bound in _monomialize_draws(ctx):
                got = _outcome(monomialize, *args, bound=bound)
                seen.add(("M", got[2] if isinstance(got, tuple) else min(len(got.transforms), 2)))
        assert seen >= {
            ("A6", True), ("A6", False), ("A6", "A6 divisibility loop exceeded the bound"),
            ("A6", "no legal subtractive step remains"), ("A6", "values from different contexts"),
            ("A6", "need value(M1) < value(M2)"),
            ("A1", 2), ("A1", "A1 construction exceeded the step bound"),
            ("A1", "values from different contexts"), ("A1", "gamma must be positive"),
            ("M", 0), ("M", 1), ("M", 2), ("M", "minimal-value monomial is not unique"),
            ("M", "A6 divisibility loop exceeded the bound"),
            ("M", "no legal subtractive step remains"), ("M", "values from different contexts"),
        }


class TestWalkMatrices:
    def test_walk_matrices_are_nonnegative_with_det_one(self):
        # the walks build their transforms without the entry scan and
        # det_int of PerronTransform's constructor; this is that check, over
        # the draws of TestWalksMatchReference
        checked = 0
        for ctx in CONTEXTS:
            taus = []
            for args, bound in _a6_draws(ctx):
                taus.append(_outcome(build_a6_divide, *args, bound=bound))
            for args, bound in _a1_draws(ctx):
                taus.append(_outcome(build_a1, *args, bound=bound, residue=lambda _: Q.one))
            for args, bound in _monomialize_draws(ctx):
                got = _outcome(monomialize, *args, bound=bound)
                taus += got.transforms if isinstance(got, MonomializeResult) else []
            for tau in taus:
                if isinstance(tau, PerronTransform):
                    assert len(tau.matrix) == tau.size == len(tau.active_indices())
                    assert all(type(e) is int and e >= 0 for row in tau.matrix for e in row)
                    assert det_int(tau.matrix) == 1
                    checked += 1
        assert checked >= 1000


def _ratio(gamma, w):
    """gamma / w for proportional values, as a Fraction."""
    k = next(k for k, x in enumerate(w.nums) if x)
    return F(gamma.nums[k] * w.den, w.nums[k] * gamma.den)


def _partial_quotients(p, q):
    """The partial quotients of the continued fraction of p / q > 0, the
    last one at least 2 unless p / q is an integer."""
    out = []
    while q:
        a, r = divmod(p, q)
        out.append(a)
        p, q = q, r
    return out


def _a6_draws(ctx):
    """(m1, m2, weights, frame), bound: mostly in value order, now and then
    with m2 - m1 >= 0 or an exponent on a passive variable."""
    rng = random.Random(f"a6/{ctx.d}")
    for _ in range(250):
        n = rng.choice((1, 2, 2, 3, 3))
        frame = VariableFrame(m=n + rng.randint(0, 1), n=n)
        weights = _draw_weights(rng, ctx, n)
        m1 = [rng.randint(0, 6) for _ in range(n)] + [0] * (frame.m - n)
        if rng.random() < 0.15:
            m2 = [e + rng.randint(0, 3) for e in m1[:n]] + m1[n:]
        else:
            m2 = [rng.randint(0, 6) for _ in range(n)] + [0] * (frame.m - n)
        v1, v2 = _outcome(pairing, m1, weights), _outcome(pairing, m2, weights)
        if rng.random() < 0.8 and not isinstance(v1, tuple) and not isinstance(v2, tuple) \
                and v2 < v1:
            m1, m2 = m2, m1
        if frame.m > n and rng.random() < 0.05:
            m2[-1] += 1
        yield (m1, m2, weights, frame), _draw_bound(rng)


def _a1_draws(ctx):
    """(weights, gamma, frame), bound, for one independent variable: gamma
    mostly a positive rational multiple of the weight, now and then equal
    to it, of any sign or of another context."""
    rng = random.Random(f"a1/{ctx.d}")
    for _ in range(250):
        weights = _draw_weights(rng, ctx, 1)
        r = rng.random()
        if r < 0.15:
            gamma = rng.choice(weights)
        elif r < 0.25:
            gamma = _draw_value(rng, rng.choice(CONTEXTS))
        else:
            gamma = _outcome(pairing, [rng.randint(0, 4) for _ in weights], weights)
            if isinstance(gamma, tuple):
                gamma = _draw_positive(rng, ctx)
            else:
                gamma = gamma.scale(F(1, rng.randint(1, 4)))
        yield (weights, gamma, FR1), _draw_bound(rng)


def _monomialize_draws(ctx):
    rng = random.Random(f"monomialize/{ctx.d}")
    for _ in range(120):
        n = rng.choice((1, 2, 2, 3))
        frame = VariableFrame(m=n + rng.randint(0, 1), n=n)
        weights = _draw_weights(rng, ctx, n)
        yield (_draw_polynomial(rng, frame, n), weights, frame), _draw_bound(rng)


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except PerronvalError as exc:
        return type(exc).__name__, exc.code, str(exc)


def _draw_value(rng, ctx, size=6):
    return ctx.value(*(F(rng.randint(-size, size), rng.choice((1, 1, 2, 3, 5)))
                       for _ in range(ctx.dim)))


def _draw_positive(rng, ctx):
    while True:
        v = _draw_value(rng, ctx)
        if v.sign() > 0:
            return v


def _draw_weights(rng, ctx, n):
    """n weights of ctx, mostly positive; one in four repeats an earlier
    weight, and one draw in ten has a weight of another context."""
    weights = []
    for _ in range(n):
        if weights and rng.random() < 0.25:
            weights.append(rng.choice(weights))
        elif rng.random() < 0.05:
            weights.append(_draw_value(rng, ctx))
        else:
            weights.append(_draw_positive(rng, ctx))
    if rng.random() < 0.1:
        other = rng.choice([c for c in CONTEXTS if c != ctx])
        weights[rng.randrange(n)] = _draw_positive(rng, other)
    return weights


def _draw_bound(rng):
    return rng.choice((0, 1, 2, 3, 50, 300))


def _draw_polynomial(rng, frame, n, field=Q):
    """One to six terms in x_1..x_n, now and then one in a passive variable
    or the zero polynomial; over F_p a coefficient may vanish."""
    if rng.random() < 0.02:
        return Polynomial(frame, field, {})
    coeffs = (-3, -1, 1, 2, F(1, 2)) if field.characteristic != 2 else (-3, -1, 1, 2, 5)
    terms = {}
    for _ in range(rng.randint(1, 6)):
        mono = [rng.randint(0, 5) for _ in range(n)] + [0] * (frame.m - n)
        if frame.m > n and rng.random() < 0.03:
            mono[-1] = 1
        terms[tuple(mono)] = field.scalar(rng.choice(coeffs))
    return Polynomial(frame, field, terms)


# The bodies of build_a6_divide, build_a1 and monomialize on `Value`s, from
# before the walks ran on integer rows.

def _reference_step(matrix, values, i_sub, j_from):
    values[j_from] = values[j_from] - values[i_sub]
    for r in range(len(matrix)):
        matrix[r][i_sub] += matrix[r][j_from]


def _reference_one_context(values):
    if any(v.context != values[0].context for v in values):
        raise ContextMismatch("values from different contexts")


def _reference_build_a6_divide(m1, m2, weights, frame, bound=DEFAULT_STEP_BOUND):
    n = frame.n
    m1 = tuple(m1)
    m2 = tuple(m2)
    if len(m1) < n or len(m2) < n:
        raise InputError("exponent vectors shorter than the active block")
    if any(e for e in m1[n:]) or any(e for e in m2[n:]):
        raise PreconditionError("monomials must be supported on x_1..x_n")
    if len(weights) < n:
        raise InputError("need a weight per active variable")
    w = list(weights[:n])
    _reference_one_context(w)
    if not pairing(m1, w) < pairing(m2, w):
        raise PreconditionError("need value(M1) < value(M2)")
    delta = [m2[j] - m1[j] for j in range(n)]
    matrix = identity_matrix(n)
    steps = 0
    while any(d < 0 for d in delta):
        if steps >= bound:
            raise StepBoundExceeded("A6 divisibility loop exceeded the bound")
        i_sub = min(range(n), key=lambda i: (w[i], i))
        candidates = [j for j in range(n) if j != i_sub and w[j] > w[i_sub]]
        if not candidates:
            raise StepBoundExceeded("no legal subtractive step remains")
        j_from = max(candidates, key=lambda j: (w[j], -j))
        _reference_step(matrix, w, i_sub, j_from)
        delta[i_sub] += delta[j_from]
        steps += 1
    return PerronTransform(kind="A6", matrix=tuple(tuple(r) for r in matrix), frame=frame)


def _reference_build_a1(weights, gamma, frame, *, residue, bound=DEFAULT_STEP_BOUND):
    n = frame.n
    if len(weights) < n:
        raise InputError("need a weight per active variable")
    w = list(weights[:n])
    _reference_one_context(w + [gamma])
    if gamma.sign() <= 0:
        raise PreconditionError("gamma must be positive")
    rational_relation(w + [gamma])
    values = w + [gamma]
    matrix = identity_matrix(n + 1)
    last = n
    steps = 0
    while values[last].sign() > 0:
        if steps >= bound:
            raise StepBoundExceeded("A1 construction exceeded the step bound")
        below = [i for i in range(n) if values[i] <= values[last]]
        if below:
            i_sub = max(below, key=lambda i: (values[i], -i))
            _reference_step(matrix, values, i_sub, last)
        else:
            j_from = max(range(n), key=lambda j: (values[j], -j))
            _reference_step(matrix, values, last, j_from)
        steps += 1
    for i in range(n):
        if values[i].sign() <= 0:
            raise StepBoundExceeded("subtractive loop lost positivity")
    matrix = tuple(tuple(r) for r in matrix)
    inverse = unimodular_inverse(matrix)
    return PerronTransform(kind="A1", matrix=matrix, frame=frame, c=residue(tuple(inverse[last])))


def _reference_monomialize(g, weights, frame, bound=DEFAULT_STEP_BOUND):
    if g.is_zero:
        raise PreconditionError("cannot monomialize zero")
    n = frame.n
    for mono in g.terms:
        if any(mono[j] for j in range(n, frame.m)):
            raise Unsupported("monomialization needs support in the independent block")
    w = list(weights[:n])
    _reference_one_context(w)
    transforms = []
    current = g
    rounds = 0
    while True:
        if rounds > bound:
            raise StepBoundExceeded("monomialization exceeded the step bound")
        rounds += 1
        support = sorted(current.terms)
        values = [pairing(mono, w) for mono in support]
        best = min(range(len(support)), key=lambda i: values[i])
        ties = [i for i in range(len(support)) if values[i] == values[best]]
        if len(ties) > 1:
            raise Unsupported("minimal-value monomial is not unique")
        mmin = support[best]
        offender = None
        for mono in support:
            if any(a < b for a, b in zip(mono, mmin)):
                offender = mono
                break
        if offender is None:
            unit = current.divide_by_monomial(mmin)
            if unit.constant_term().is_zero:
                raise Unsupported("residual factor is not a unit at the origin")
            return MonomializeResult(tuple(transforms), mmin, unit)
        tau = _reference_build_a6_divide(mmin, offender, w, frame, bound=bound)
        transforms.append(tau)
        new_active = tau.transformed_weights(w)
        current = tau.substitute(current)
        frame = tau.new_frame()
        w = new_active[:n]


def _random_lemma11_instance(rng):
    ctx = rng.choice([Q2, Q3])
    w1 = ctx.value(F(rng.randint(0, 5), rng.randint(1, 3)), F(rng.randint(0, 5), rng.randint(1, 3)))
    w2 = ctx.value(F(rng.randint(0, 5), rng.randint(1, 3)), F(rng.randint(0, 5), rng.randint(1, 3)))
    if w1.sign() <= 0 or w2.sign() <= 0:
        return None
    # require Q-independence: a + b sqrt(d) pairs independent unless cross
    # ratios are rational; test by solving
    a1, b1 = w1.coords
    a2, b2 = w2.coords
    if a1 * b2 - a2 * b1 == 0:
        return None
    m1 = (rng.randint(0, 8), rng.randint(0, 8))
    m2 = (rng.randint(0, 8), rng.randint(0, 8))
    v1 = w1.scale(m1[0]) + w2.scale(m1[1])
    v2 = w1.scale(m2[0]) + w2.scale(m2[1])
    if v1 == v2:
        return None
    if v2 < v1:
        m1, m2 = m2, m1
    return ctx, [w1, w2], m1, m2


def random_a1_with_values(rng, n=1):
    """Random valid A1 transform plus matching old active values, built by
    composing elementary column steps and assigning new values afterwards."""
    frame = VariableFrame(m=n + 1, n=n)
    size = n + 1
    matrix = [[1 if i == j else 0 for j in range(size)] for i in range(size)]
    for _ in range(rng.randint(1, 6)):
        i = rng.randrange(size)
        j = rng.randrange(size)
        if i == j:
            continue
        for r in range(size):
            matrix[r][i] += matrix[r][j]
    if n == 1:
        new_vals = [RATIONAL.value(F(rng.randint(1, 7), rng.randint(1, 4))), RATIONAL.zero()]
    else:
        ctx = Q2
        new_vals = [ctx.value(rng.randint(1, 5), 0), ctx.value(0, rng.randint(1, 5)), ctx.zero()]
    context = new_vals[0].context
    values = []
    for i in range(size):
        total = context.zero()
        for j in range(size):
            if matrix[i][j]:
                total = total + new_vals[j].scale(matrix[i][j])
        values.append(total)
    tau = PerronTransform("A1", tuple(tuple(r) for r in matrix), frame, c=Q.one)
    return tau, values


def equal_value_pairs(rng, tau, count):
    """Pairs of distinct nonnegative exponent vectors of equal value under
    the values attached to tau: differences live in the kernel, which is
    spanned by the last row of the inverse matrix."""
    size = tau.size
    inv = unimodular_inverse([list(r) for r in tau.matrix])
    kernel = inv[size - 1]
    out = []
    for _ in range(count):
        base = [rng.randint(0, 12) for _ in range(size)]
        k = rng.randint(-2, 2)
        other = [b + k * kv for b, kv in zip(base, kernel)]
        shift = max(0, -min(other))
        # shifting by the kernel keeps equality; shifting both keeps nonneg
        d = [b + shift * abs(kv) for b, kv in zip(base, kernel)]
        e = [o + shift * abs(kv) for o, kv in zip(other, kernel)]
        if min(d) < 0 or min(e) < 0:
            continue
        out.append((tuple(d), tuple(e)))
    return out
