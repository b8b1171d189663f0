import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from perronval.errors import (
    AmbiguousRelation,
    ContextMismatch,
    InputError,
    NoRelation,
    NotASubgroup,
)
from perronval.scalars import INFINITE
from perronval.valgroup import (
    RATIONAL,
    ValueLattice,
    pairing,
    det_int,
    format_value,
    identity_matrix,
    lattice_index,
    member,
    parse_value,
    quadratic,
    rational_relation,
    smith_normal_form,
    unimodular_inverse,
)

Q2 = quadratic(2)
Q3 = quadratic(3)

# Q(sqrt(2)) lattices with more generators than coordinates whose diagonal
# form is (2, 1) and (2, 3); a pass enforcing Smith's divisibility condition
# turns them into (1, 2) and (1, 6) and changes U.  The coordinates and
# indices pinned below must not depend on which of the two forms is used.
LATTICE_A = ValueLattice(Q2, (Q2.value(4, 2), Q2.value(-6, 0), Q2.value(4, -3)))
LATTICE_B = ValueLattice(Q2, (Q2.value(0, -2), Q2.value(3, -6), Q2.value(-3, 2), Q2.value(0, -4)))
LATTICE_C = ValueLattice(Q2, tuple(g.scale(F(1, 3)) for g in LATTICE_B.generators))
THIRDS = ValueLattice(Q2, (Q2.value(F(1, 3), 0), Q2.value(0, F(1, 3))))


def rat(x):
    return RATIONAL.value(F(x))


class TestCmp:
    def test_sqrt2_gt_one(self):
        assert Q2.value(0, 1) > Q2.value(1, 0)

    def test_squaring_rule(self):
        # 3 vs 2*sqrt(2): 9 > 8
        assert Q2.value(3, 0) > Q2.value(0, 2)
        assert Q2.value(0, 2) < Q2.value(3, 0)

    def test_reflexive(self):
        v = Q2.value(F(5, 7), F(-2, 3))
        assert v == Q2.value(F(5, 7), F(-2, 3))
        assert not v < v and not v > v

    def test_context_mismatch(self):
        with pytest.raises(ContextMismatch):
            rat(1) < Q2.value(1, 0)
        with pytest.raises(ContextMismatch):
            rat(1) > Q2.value(1, 0)

    def test_nonsquare_required(self):
        with pytest.raises(InputError):
            quadratic(4)

    @settings(max_examples=80, deadline=None)
    @given(
        st.fractions(min_value=-9, max_value=9, max_denominator=6),
        st.fractions(min_value=-9, max_value=9, max_denominator=6),
        st.fractions(min_value=-9, max_value=9, max_denominator=6),
        st.fractions(min_value=-9, max_value=9, max_denominator=6),
        st.fractions(min_value=-9, max_value=9, max_denominator=6),
        st.fractions(min_value=-9, max_value=9, max_denominator=6),
    )
    def test_order_compatible_with_addition(self, a1, b1, a2, b2, a3, b3):
        v, w, u = Q2.value(a1, b1), Q2.value(a2, b2), Q2.value(a3, b3)
        if v < w:
            assert v + u < w + u

    @settings(max_examples=80, deadline=None)
    @given(
        st.fractions(min_value=-9, max_value=9, max_denominator=6),
        st.fractions(min_value=-9, max_value=9, max_denominator=6),
    )
    def test_sign_matches_float(self, a, b):
        v = Q2.value(a, b)
        approx = float(a) + float(b) * 2 ** 0.5
        if abs(approx) > 1e-9:
            assert v.sign() == (1 if approx > 0 else -1)


class TestMember:
    def test_half_not_integer(self):
        assert member(rat(F(3, 2)), ValueLattice(RATIONAL, (rat(1),))) is None

    def test_integer(self):
        assert member(rat(3), ValueLattice(RATIONAL, (rat(1),))) == (3,)

    def test_two_generators(self):
        L = ValueLattice(RATIONAL, (rat(1), rat(F(5, 2))))
        assert member(rat(F(5, 2)), L) == (0, 1)

    def test_quadratic_lattice(self):
        L = ValueLattice(Q2, (Q2.value(1, 0), Q2.value(0, 1)))
        assert member(Q2.value(3, -2), L) == (3, -2)
        assert member(Q2.value(F(1, 2), 0), L) is None

    @pytest.mark.parametrize("lattice, coords, expected", [
        (LATTICE_A, (0, 1), (2, 2, 1)),
        (LATTICE_A, (2, 0), (3, 3, 2)),
        (LATTICE_A, (6, 0), (0, -1, 0)),
        (LATTICE_A, (8, -1), (1, 0, 1)),
        (LATTICE_A, (0, 2), (4, 4, 2)),
        (LATTICE_A, (3, 2), None),
        (LATTICE_A, (1, 0), None),
        (LATTICE_B, (-6, 0), (0, 0, 2, 1)),
        (LATTICE_B, (0, 2), (-1, 0, 0, 0)),
        (LATTICE_B, (3, 2), (0, -1, -2, 0)),
        (LATTICE_B, (2, 0), None),
        (LATTICE_C, (4, 2), (-1, 0, -4, -3)),
        (LATTICE_C, (0, 2), (-1, -1, -1, 0)),
        (LATTICE_C, (1, 0), (-1, 0, -1, 0)),
        (LATTICE_C, (2, F(2, 3)), (-1, -1, -3, 0)),
        (LATTICE_C, (1, F(-4, 3)), (-1, 1, 0, 0)),
        (LATTICE_C, (F(1, 2), 0), None),
    ])
    def test_quadratic_more_generators_than_coordinates(self, lattice, coords, expected):
        assert member(Q2.value(*coords), lattice) == expected

    def test_exactness_random(self):
        rng = random.Random(9)
        for _ in range(200):
            gens = tuple(rat(F(rng.randint(-6, 6), rng.randint(1, 6))) for _ in range(rng.randint(1, 3)))
            L = ValueLattice(RATIONAL, gens)
            coeffs = [rng.randint(-5, 5) for _ in gens]
            v = RATIONAL.zero()
            for c, g in zip(coeffs, gens):
                v = v + g.scale(c)
            got = member(v, L)
            assert got is not None
            total = RATIONAL.zero()
            for c, g in zip(got, gens):
                total = total + g.scale(c)
            assert total == v


class TestLatticeIndex:
    def test_half_over_one(self):
        assert lattice_index(ValueLattice(RATIONAL, (rat(F(1, 2)),)),
                             ValueLattice(RATIONAL, (rat(1),))) == 2

    def test_equal(self):
        L = ValueLattice(RATIONAL, (rat(1),))
        assert lattice_index(L, L) == 1

    def test_sixths(self):
        big = ValueLattice(RATIONAL, (rat(F(1, 6)),))
        small = ValueLattice(RATIONAL, (rat(F(1, 2)), rat(F(1, 3))))
        assert lattice_index(big, small) == 1

    def test_not_a_subgroup(self):
        with pytest.raises(NotASubgroup):
            lattice_index(ValueLattice(RATIONAL, (rat(1),)),
                          ValueLattice(RATIONAL, (rat(F(1, 2)),)))

    def test_rank_drop_is_infinite(self):
        big = ValueLattice(Q2, (Q2.value(1, 0), Q2.value(0, 1)))
        small = ValueLattice(Q2, (Q2.value(2, 0),))
        assert lattice_index(big, small) is INFINITE

    def test_multiplicative_on_chains(self):
        rng = random.Random(21)
        for _ in range(100):
            a = F(1, rng.randint(1, 8))
            k1, k2 = rng.randint(1, 5), rng.randint(1, 5)
            L0 = ValueLattice(RATIONAL, (rat(a),))
            L1 = ValueLattice(RATIONAL, (rat(a * k1),))
            L2 = ValueLattice(RATIONAL, (rat(a * k1 * k2),))
            assert lattice_index(L0, L2) == lattice_index(L0, L1) * lattice_index(L1, L2)

    def test_multiplicative_rank2(self):
        rng = random.Random(34)
        for _ in range(40):
            k1, k2 = rng.randint(1, 4), rng.randint(1, 4)
            L0 = ValueLattice(Q2, (Q2.value(1, 0), Q2.value(0, 1)))
            L1 = ValueLattice(Q2, (Q2.value(k1, 0), Q2.value(0, 1)))
            L2 = ValueLattice(Q2, (Q2.value(k1, 0), Q2.value(0, k2)))
            assert lattice_index(L0, L1) == k1
            assert lattice_index(L0, L2) == k1 * k2


    @pytest.mark.parametrize("big, small, expected", [
        (THIRDS, LATTICE_A, 18),
        (THIRDS, LATTICE_B, 54),
        (THIRDS, LATTICE_C, 6),
        (LATTICE_C, LATTICE_B, 9),
        (LATTICE_A, (Q2.value(6, 0), Q2.value(0, 3)), 9),
        (LATTICE_B, (Q2.value(6, 0), Q2.value(0, 12)), 12),
        (LATTICE_B, (Q2.value(0, 2), Q2.value(0, 4)), INFINITE),
    ])
    def test_quadratic_more_generators_than_coordinates(self, big, small, expected):
        if not isinstance(small, ValueLattice):
            small = ValueLattice(Q2, small)
        assert lattice_index(big, small) == expected

    def test_quadratic_not_a_subgroup(self):
        with pytest.raises(NotASubgroup):
            lattice_index(LATTICE_C, LATTICE_A)

    @pytest.mark.parametrize("context", [RATIONAL, Q2], ids=["Q", "Q(sqrt2)"])
    def test_index_is_the_determinant(self, context):
        # small is spanned by M * basis for an integer matrix M, so
        # [big : small] = |det M|, infinite when M is singular
        rng = random.Random(context.dim)
        k = context.dim

        def rational():
            return F(rng.randint(-9, 9), rng.choice((1, 2, 3, 6)))

        for _ in range(150):
            basis = [context.value(*(rational() for _ in range(k))) for _ in range(k)]
            if det_int([[int(c * 6) for c in b.coords] for b in basis]) == 0:
                continue
            m = [[rng.randint(-4, 4) for _ in range(k)] for _ in range(k)]
            if rng.random() < 0.2:
                m[-1] = [rng.randint(-2, 2) * x for x in m[0]]
            small = [pairing(row, basis) for row in m]
            expected = abs(det_int(m)) or INFINITE
            assert lattice_index(ValueLattice(context, tuple(basis)),
                                 ValueLattice(context, tuple(small))) == expected

    def test_zero_lattice_has_index_one_in_itself(self):
        zero = ValueLattice(Q2, (Q2.zero(), Q2.zero()))
        assert lattice_index(zero, zero) == 1

    def test_zero_big_lattice(self):
        zero = ValueLattice(Q2, (Q2.zero(), Q2.zero()))
        with pytest.raises(NotASubgroup):
            lattice_index(zero, ValueLattice(Q2, (Q2.zero(), Q2.value(1, 0))))


class TestSmithNormalForm:
    def test_contract_random(self):
        rng = random.Random(17)
        for _ in range(600):
            rows, cols = rng.randint(1, 4), rng.randint(1, 3)
            m = [[rng.randint(-12, 12) for _ in range(cols)] for _ in range(rows)]
            for i in range(rows):
                if rng.random() < 0.2:
                    m[i] = [0] * cols
            for j in range(cols):
                if rng.random() < 0.2:
                    for row in m:
                        row[j] = 0
            u, s, v = smith_normal_form(m)
            assert _matmul(_matmul(u, m), v) == s
            for i in range(rows):
                for j in range(cols):
                    assert s[i][j] == 0 if i != j else s[i][j] >= 0
            assert det_int(u) in (1, -1) and det_int(v) in (1, -1)
            um = _matmul(u, m)
            for i in range(rows):
                if i >= cols or s[i][i] == 0:
                    assert um[i] == [0] * cols


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


class TestRationalRelation:
    def test_three_halves(self):
        assert rational_relation([rat(1), rat(F(3, 2))]) == (3, -2)

    def test_quadratic_pair(self):
        got = rational_relation([Q2.value(1, 0), Q2.value(0, 1), Q2.value(2, 3)])
        assert got == (2, 3, -1)

    def test_independent(self):
        with pytest.raises(NoRelation):
            rational_relation([Q2.value(1, 0), Q2.value(0, 1)])

    def test_ambiguous(self):
        with pytest.raises(AmbiguousRelation):
            rational_relation([rat(1), rat(2), rat(3)])

    def test_relation_holds(self):
        rng = random.Random(8)
        for _ in range(100):
            w = rat(F(rng.randint(1, 9), rng.randint(1, 6)))
            num, den = rng.randint(1, 9), rng.randint(1, 9)
            gamma = w.scale(F(num, den))
            rel = rational_relation([w, gamma])
            q1, mq = rel
            assert mq < 0
            assert gamma.scale(-mq) == w.scale(q1)


    @staticmethod
    def _independent(rng, ctx, n, digits=1):
        """n rationally independent values of ctx (n <= ctx.dim), some with
        zero coordinates."""
        while True:
            coords = [[F(rng.randint(-10 ** digits, 10 ** digits), rng.randint(1, 5))
                       for _ in range(ctx.dim)] for _ in range(n)]
            if n == 1 and any(coords[0]) or n == 2 and (
                    coords[0][0] * coords[1][1] != coords[0][1] * coords[1][0]):
                return [ctx.value(*c) for c in coords]

    @staticmethod
    def _planted(rng, lead, bound):
        """v_last = sum q_i v_i / q for a primitive (q_1..q_n, q), q > 0, with
        zero q_i (and a zero v_last) included; returns (values, relation)."""
        qs = [rng.randint(-bound, bound) if rng.random() < 0.8 else 0 for _ in lead]
        q = rng.randint(1, bound)
        g = math.gcd(*qs, q)
        qs, q = [x // g for x in qs], q // g
        return lead + [pairing(qs, lead).scale(F(1, q))], tuple(qs) + (-q,)

    @pytest.mark.parametrize("ctx", [RATIONAL, Q2, Q3], ids=["Q", "Q(sqrt2)", "Q(sqrt3)"])
    def test_returns_the_planted_primitive_relation(self, ctx):
        rng = random.Random(f"relation/{ctx.d}")
        for n in (1, 2, 3):
            for _ in range(150):
                if n > ctx.dim:
                    # n values in a dim-dimensional space are dependent
                    lead = [self._independent(rng, ctx, 1)[0] for _ in range(n)]
                    with pytest.raises(AmbiguousRelation):
                        rational_relation(self._planted(rng, lead, 6)[0])
                    continue
                values, relation = self._planted(rng, self._independent(rng, ctx, n), 6)
                assert rational_relation(values) == relation

    def test_independent_last_value_and_dependent_leading_values(self):
        rng = random.Random(5)
        for _ in range(100):
            v, w = self._independent(rng, Q2, 2)
            with pytest.raises(NoRelation):
                rational_relation([v, w])
            with pytest.raises(AmbiguousRelation):
                rational_relation([v, v.scale(F(rng.randint(-4, 4), 3)), w])

    def test_large_coordinates(self):
        rng = random.Random(4000)
        a, b, c, d = (rng.randrange(10 ** 3999, 10 ** 4000) for _ in range(4))
        assert a * d != b * c
        with pytest.raises(NoRelation):
            rational_relation([Q2.value(a, b), Q2.value(c, d)])
        lead = [Q2.value(rng.randrange(10 ** 2000), rng.randrange(10 ** 2000)) for _ in range(2)]
        values, relation = self._planted(rng, lead, 10 ** 2000)
        assert rational_relation(values) == relation


class TestUnimodularInverse:
    def test_inverts_products_of_elementary_matrices(self):
        rng = random.Random(29)
        for _ in range(300):
            n = rng.randint(1, 4)
            m = identity_matrix(n)
            for _ in range(rng.randint(0, 10)):
                i, j = rng.randrange(n), rng.randrange(n)
                if i == j:  # determinant -1
                    m[i] = [-x for x in m[i]]
                else:
                    k = rng.randint(-5, 5)
                    m[i] = [x + k * y for x, y in zip(m[i], m[j])]
            assert _matmul(m, unimodular_inverse(m)) == identity_matrix(n)


class TestValueLiterals:
    def test_roundtrip(self):
        for text, ctx in [("3", RATIONAL), ("-5/7", RATIONAL),
                          ("1 + 2*sqrt(2)", Q2), ("sqrt(3)", Q3),
                          ("-1 + 1*sqrt(2)", Q2), ("1/2 - 3/4*sqrt(2)", Q2)]:
            v = parse_value(ctx, text)
            assert parse_value(ctx, format_value(v)) == v

    def test_wrong_d(self):
        with pytest.raises(InputError):
            parse_value(Q2, "sqrt(3)")
