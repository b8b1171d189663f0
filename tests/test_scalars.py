from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from perronval.errors import DivisionByZero, InputError
from perronval.scalars import (
    FieldSpec,
    PuiseuxSeries,
    format_series,
    is_prime,
    parse_rational,
    parse_series,
)

Q = FieldSpec(0)
F5 = FieldSpec(5)
F2 = FieldSpec(2)


class TestScalar:
    def test_rational_add(self):
        assert Q.scalar("1/2") + Q.scalar("1/3") == Q.scalar("5/6")

    def test_mod5_mul(self):
        assert F5.scalar(3) * F5.scalar(2) == F5.scalar(1)

    def test_division_by_zero(self):
        with pytest.raises(DivisionByZero):
            Q.one / Q.zero

    def test_characteristic_must_be_prime(self):
        with pytest.raises(InputError):
            FieldSpec(6)

    def test_large_characteristics(self):
        assert FieldSpec(2**61 - 1).characteristic == 2**61 - 1
        with pytest.raises(InputError):
            FieldSpec((2**31 - 1) * (2**29 - 3))  # 60-bit semiprime
        with pytest.raises(InputError, match="2\\^64"):
            FieldSpec(2**80)

    def test_is_prime_matches_trial_division(self):
        def trial(n):
            return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))

        assert [n for n in range(-3, 5000) if is_prime(n)] == [
            n for n in range(-3, 5000) if trial(n)
        ]
        # composites that pass Miller-Rabin for the first 4 to 9 prime bases
        assert not any(is_prime(n) for n in (3215031751, 2152302898747, 3474749660383,
                                             341550071728321, 3825123056546413051))

    def test_canonical_modular_form(self):
        assert F5.scalar(-3).value == 2
        assert F5.scalar(F(1, 2)).value == 3  # 2 * 3 = 6 = 1 mod 5

    def test_mixed_fields_rejected(self):
        with pytest.raises(InputError):
            Q.one + F5.one

    def test_pow_negative(self):
        assert Q.scalar(2) ** -2 == Q.scalar("1/4")
        assert F5.scalar(2) ** -1 == F5.scalar(3)


rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)


class TestFieldAxioms:
    @given(rationals, rationals, rationals)
    def test_rational_axioms(self, a, b, c):
        x, y, z = Q.scalar(a), Q.scalar(b), Q.scalar(c)
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x + (-x) == Q.zero
        if not x.is_zero:
            assert x * x.inverse() == Q.one

    @given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4))
    def test_mod5_axioms(self, a, b, c):
        x, y, z = F5.scalar(a), F5.scalar(b), F5.scalar(c)
        assert (x + y) + z == x + (y + z)
        assert x * (y + z) == x * y + x * z
        if not x.is_zero:
            assert x * x.inverse() == F5.one


class TestSeriesOrder:
    def test_plain(self):
        assert parse_series(Q, "t^3 + t^5*2").order() == 3

    def test_fractional(self):
        s = parse_series(Q, "t^(3/2)")
        assert s.order() == F(3, 2)
        assert s.ram == 2

    def test_empty_above_truncation(self):
        s = parse_series(Q, "0 | trunc 7")
        assert s.order() is None
        assert s.trunc == 7


class TestSeriesArith:
    def test_mul(self):
        got = parse_series(Q, "t + t^2") * parse_series(Q, "t")
        assert got == parse_series(Q, "t^2 + t^3")

    def test_pow_reduces_ramification(self):
        got = parse_series(Q, "t^(1/2)") ** 2
        assert got == parse_series(Q, "t") and got.ram == 1

    def test_add_truncation_propagation(self):
        got = parse_series(Q, "t^3 | trunc 5") + parse_series(Q, "t^4 | trunc 4")
        assert got.trunc == 4
        assert list(got.terms) == [F(3)]

    def test_mul_truncation_rule(self):
        a = parse_series(Q, "t^2 + t^3 | trunc 10")
        b = parse_series(Q, "t^5 | trunc 8")
        got = a * b
        # min(Ta + ord b, Tb + ord a) = min(10+5, 8+2) = 10
        assert got.trunc == 10

    def test_zero_series_order_counts_as_truncation(self):
        a = parse_series(Q, "0 | trunc 6")
        b = parse_series(Q, "t^2 | trunc 9")
        got = a * b
        assert got.is_zero and got.trunc == 8  # 6 + ord(b) = 8

    def test_inverse(self):
        s = parse_series(Q, "t^2 + t^3 | trunc 10")
        inv = s.inverse()
        one = s * inv
        assert one.order() == 0 and one.leading_coeff() == Q.one
        assert all(c.is_zero for q, c in one.terms.items() if q != 0)

    def test_char2_frobenius(self):
        s = parse_series(F2, "t + t^2 + t^(5/2)")
        sq = s * s
        assert sq == parse_series(F2, "t^2 + t^4 + t^5")


@st.composite
def small_series(draw):
    n = draw(st.integers(0, 3))
    terms = {}
    for _ in range(n):
        q = F(draw(st.integers(0, 6)), draw(st.integers(1, 3)))
        c = draw(st.fractions(min_value=-9, max_value=9, max_denominator=5))
        terms[q] = Q.scalar(c)
    return PuiseuxSeries(Q, terms)


class TestSeriesProperties:
    @settings(max_examples=60, deadline=None)
    @given(small_series(), small_series(), small_series())
    def test_ring_identities(self, a, b, c):
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)

    @settings(max_examples=60, deadline=None)
    @given(small_series(), small_series())
    def test_order_of_product_adds(self, a, b):
        if a.order() is None or b.order() is None:
            return
        assert (a * b).order() == a.order() + b.order()

    @settings(max_examples=60, deadline=None)
    @given(small_series())
    def test_parse_format_roundtrip(self, s):
        text = format_series(s, with_annotations=True)
        assert parse_series(Q, text) == s

    @settings(max_examples=60, deadline=None)
    @given(small_series(), small_series(), small_series(), st.integers(1, 8))
    def test_evaluate_then_truncate_commutes(self, a, b, c, w):
        # computing with exact inputs and truncating afterwards agrees with
        # computing on truncated inputs, below the propagated truncation
        full = a * b + c * c + a
        ta, tb, tc = (s.truncated(w) for s in (a, b, c))
        windowed = ta * tb + tc * tc + ta
        if windowed.trunc is None:
            assert windowed == full
        else:
            assert windowed == full.truncated(windowed.trunc)


class TestSeriesLiterals:
    def test_spec_literal(self):
        s = parse_series(Q, "t^(3/2)*1 + t^2*-1 | trunc 5 | N 2")
        assert s.terms[F(3, 2)] == Q.one
        assert s.terms[F(2)] == Q.scalar(-1)
        assert s.trunc == 5 and s.ram == 2

    def test_bad_literal(self):
        with pytest.raises(InputError):
            parse_series(Q, "u^2")


class TestRationalLiterals:
    @pytest.mark.parametrize("text, value", [
        ("3", F(3)), ("-3/4", F(-3, 4)), (" 6/4 ", F(3, 2)), ("0/5", F(0)),
    ])
    def test_grammar(self, text, value):
        assert parse_rational(text) == value

    @pytest.mark.parametrize("text", [
        "1e5", "1.5", "1/0", "abc", "", "3/-4", "+3", "1_000", "٣",
        "1" * 5000, 5,
    ])
    def test_rejected(self, text):
        with pytest.raises(InputError):
            parse_rational(text)
