import math
import random
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from perronval.errors import DivisionByZero, InputError
from perronval.perron import PerronTransform
from perronval.poly import Polynomial, VariableFrame
from perronval.scalars import (
    MAX_GRID_SLOTS,
    FieldSpec,
    PuiseuxSeries,
    binary_power,
    evaluate_monomials,
    format_series,
    is_prime,
    parse_rational,
    parse_series,
)

Q = FieldSpec(0)
F5 = FieldSpec(5)
F2 = FieldSpec(2)
FIELDS = [Q, F2, FieldSpec(3), F5, FieldSpec(7)]


class TestScalar:
    def test_rational_add(self):
        assert Q.scalar("1/2") + Q.scalar("1/3") == Q.scalar("5/6")

    def test_mod5_mul(self):
        assert F5.scalar(3) * F5.scalar(2) == F5.scalar(1)

    def test_division_by_zero(self):
        with pytest.raises(DivisionByZero):
            Q.one / Q.zero
        for field in FIELDS:
            with pytest.raises(DivisionByZero):
                field.zero.inverse()
            with pytest.raises(DivisionByZero):
                field.zero ** -1

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

    @pytest.mark.parametrize("k", [True, False])
    @pytest.mark.parametrize("base", [
        Q.scalar(2),
        PuiseuxSeries(Q, {1: 1, 2: 1}, trunc=5),
        Polynomial.variable(VariableFrame(2, 1), Q, 0) + 1,
    ], ids=["Scalar", "PuiseuxSeries", "Polynomial"])
    def test_bool_exponent_refused(self, base, k):
        # a bool is not an int exponent, as it is no other integer input
        with pytest.raises(InputError, match="powers must be"):
            base ** k

    def test_pow_negative(self):
        assert Q.scalar(2) ** -2 == Q.scalar("1/4")
        assert F5.scalar(2) ** -1 == F5.scalar(3)

    def test_value_is_the_canonical_raw_value(self):
        assert type(Q.scalar(F(6, 3)).value) is int
        assert type((Q.scalar(F(1, 2)) * 4).value) is int
        assert type(Q.scalar(F(1, 2)).inverse().value) is int
        assert Q.scalar("3/6").value == F(1, 2)
        for field in FIELDS:
            for x in (field.zero, field.one, field.scalar(5) ** 3, -field.one):
                assert x.value == field.raw(x.value) and type(x.value) is type(field.raw(x.value))


def _reduced(x: F, p: int):
    """x as a canonical raw value, computed apart from ``FieldSpec.raw``:
    over Q an int when integral, else x; mod p an int in 0..p-1."""
    if p:
        return x.numerator * pow(x.denominator, -1, p) % p
    return x.numerator if x.denominator == 1 else x


def _agrees(s, x: F, p: int):
    want = _reduced(x, p)
    assert s.value == want and type(s.value) is type(want), (s, x, p)


class TestScalarArithmetic:
    """+, -, *, / and ** on Scalars agree with Fraction arithmetic reduced mod p."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(-60, 60), st.integers(1, 12), st.integers(-60, 60), st.integers(1, 12),
           st.integers(-7, 7))
    def test_matches_fraction_arithmetic(self, an, ad, bn, bd, k):
        a, b = F(an, ad), F(bn, bd)
        for field in FIELDS:
            p = field.characteristic
            if p and (ad % p == 0 or bd % p == 0):
                continue
            x, y = field.scalar(a), field.scalar(b)
            _agrees(x + y, a + b, p)
            _agrees(x - y, a - b, p)
            _agrees(-x, -a, p)
            _agrees(x * y, a * b, p)
            _agrees(2 - x, 2 - a, p)
            if y.is_zero:
                with pytest.raises(DivisionByZero):
                    x / y
            else:
                _agrees(x / y, a / b, p)
            if x.is_zero and k < 0:
                with pytest.raises(DivisionByZero):
                    x ** k
            else:
                _agrees(x ** k, a ** k, p)


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
        # the truncation, and the advisory grid N, follow the body
        trunc = "" if s.trunc is None else f" | trunc {s.trunc}"
        text = f"{format_series(s)}{trunc} | N {s.ram}"
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
    @pytest.mark.parametrize("value", [10**5000, F(-1, 10**5000)],
                             ids=["5000-digits", "5000-digit-denominator"])
    def test_value_beyond_the_digit_limit_raises_input_error(self, value):
        for q in (F(0), F(3, 2)):
            with pytest.raises(InputError, match="too long to print"):
                format_series(PuiseuxSeries(Q, {q: value, F(1): 1}, 4))

    def test_spec_literal(self):
        s = parse_series(Q, "t^(3/2)*1 + t^2*-1 | trunc 5 | N 2")
        assert Q.scalar(s.terms[F(3, 2)]) == Q.one
        assert Q.scalar(s.terms[F(2)]) == Q.scalar(-1)
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

    @pytest.mark.parametrize("text", ["1.5", "1e5", "1_0", "٣", "+3", "2/0"])
    def test_field_values_read_the_same_grammar(self, text):
        with pytest.raises(InputError):
            Q.scalar(text)
        with pytest.raises(InputError):
            F5.raw(text)
        with pytest.raises(InputError):
            Polynomial(VariableFrame(2, 1), Q, {(1, 0): text})
        assert Q.scalar(" -6/4 ") == Q.scalar(F(-3, 2))


# References for the grid kernel: the product over Fraction-keyed dicts of
# Scalars and the geometric-series inverse it replaced, built through the
# normalising constructor.

def _ref_tmin(a, b):
    return b if a is None else a if b is None else min(a, b)


def _ref_tadd(a, b):
    return None if a is None or b is None else a + b


def _ref_mul(a, b):
    def eff_order(s):  # a zero series counts as its truncation
        return s.trunc if s.order() is None else s.order()

    trunc = _ref_tmin(_ref_tadd(a.trunc, eff_order(b)), _ref_tadd(b.trunc, eff_order(a)))
    terms = {}
    for q1, c1 in a.terms.items():
        for q2, c2 in b.terms.items():
            terms[q1 + q2] = terms.get(q1 + q2, a.field.zero) + c1 * c2
    return PuiseuxSeries(a.field, terms, trunc)


def _ref_inverse(s):
    field = s.field
    q = s.order()
    head = PuiseuxSeries(field, {-q: field.scalar(s.terms[q]).inverse()})
    if len(s.terms) == 1 and s.trunc is None:
        return head
    u = _ref_mul(s, head) - field.one
    if u.trunc is None:
        raise InputError("an exact multi-term series has no finite inverse")
    acc = PuiseuxSeries(field, {F(0): field.one}, u.trunc)
    power = acc
    if u.order() is not None:
        k = 1
        while k * u.order() < u.trunc:
            power = _ref_mul(power, -u)
            acc = acc + power
            k += 1
    return _ref_mul(acc, head)


def _ref_pow(s, k):
    if k < 0:
        return _ref_pow(_ref_inverse(s), -k)
    result = PuiseuxSeries(s.field, {F(0): s.field.one})
    for _ in range(k):
        result = _ref_mul(result, s)
    return result


def _ref_evaluate(f, arc):
    result = PuiseuxSeries(f.field)
    for mono, c in f.terms.items():
        piece = PuiseuxSeries(f.field, {F(0): c})
        for s, e in zip(arc, mono):
            if e:
                piece = _ref_mul(piece, _ref_pow(s, e))
        result = result + piece
    return result


def _same(got, want):
    assert (got.terms, got.trunc, got.ram) == (want.terms, want.trunc, want.ram)


KERNEL_CASES = [
    # ramified exponents (N up to 6) and negative orders
    ("t^(1/2) + t^(5/3)*2 + t^(11/6)*-1 | trunc 7", "t^(1/3)*3 + t^(3/2) | trunc 9/2", None),
    ("t^(-3/2) + t^(1/6)*2 + t^2 | trunc 5", "t^(-1) + t^(4/3)*-2 | trunc 4", None),
    ("t^(5/6)*4 + t^(7/6) + t^(13/6)*-3 | trunc 31/6", "t^(-1/2)*2 + t | trunc 3", None),
    # exact single-term series
    ("t^(7/6)*3", "t^(-5/4)*2", None),
    # exact multi-term series, whose inverse is refused; the third entry W
    # cuts them at ord + W, on and off the grid, and the cut series invert
    ("t^(1/2) + t^(3/2)*-1 + t^3*2", "t^(1/3)*2 + t^(4/3)", 6),
    ("t^(-1/3) + t^(2/3)*3 + t^(5/3)", "t + t^2*-1", F(17, 5)),
    ("t^(2/3) + t^(5/3)*-1", "t^2", F(0)),
    # zero series with a finite truncation
    ("0 | trunc 13/2", "t^(1/2) + t^2*3 | trunc 8", None),
    # non-integral leading coefficient
    ("t^(3/4)*13/11 + t^(5/4)*-1/13 + t^3 | trunc 9", "t^(1/2)*-17/19 + t | trunc 6", None),
    # truncated single-term series, whose powers are taken in closed form:
    # a non-integral coefficient and a negative order
    ("t^(-2/3)*13/11 | trunc 3", "t^(5/4)*-17/19 | trunc 7/2", None),
    ("t^(1/3)*-5/11 | trunc 1/2", "t^(-1)*4/13 | trunc 0", None),  # truncation index 0
]
KERNEL_IDS = ["ramified", "negative-orders", "ramified-negative", "single-term", "window",
              "window-off-grid", "window-zero", "zero-truncated", "fractional-lead",
              "single-term-truncated", "single-term-zero-top"]


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f"char{f.characteristic}")
@pytest.mark.parametrize("left, right, width", KERNEL_CASES, ids=KERNEL_IDS)
def test_grid_kernel_matches_reference(field, left, right, width):
    a, b = parse_series(field, left), parse_series(field, right)
    _same(a * b, _ref_mul(a, b))
    _same(b * a, _ref_mul(b, a))
    for k in (0, 1, 2, 3, 5):
        _same(a ** k, _ref_pow(a, k))
        _same(b ** k, _ref_pow(b, k))
    for s in (a, b):
        if s.trunc is None and len(s.terms) > 1:
            with pytest.raises(InputError):
                s.inverse()
            if width is None:
                continue
            s = s.truncated(s.order() + width)
        if s.is_zero:  # a zero series, or one cut at its order (W = 0)
            with pytest.raises(DivisionByZero):
                s.inverse()
            continue
        _same(s.inverse(), _ref_inverse(s))
        _same(s ** -2, _ref_pow(s, -2))


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f"char{f.characteristic}")
def test_grid_kernel_matches_reference_on_random_series(field):
    rng = random.Random(f"grid-kernel/{field.characteristic}")

    def draw():
        n = rng.choice((1, 2, 3, 4, 6))
        terms = {}
        for _ in range(rng.randint(1, 5)):
            c = F(rng.randint(-6, 6), rng.choice((1, 1, 2, 3)))
            if field.characteristic and c.denominator % field.characteristic == 0:
                c = F(c.numerator)
            terms[F(rng.randint(-4, 14), n)] = c
        trunc = F(rng.randint(1, 24), rng.choice((1, 2, 3, 6)))
        return PuiseuxSeries(field, terms, trunc)

    frame = VariableFrame(2, 1)
    for _ in range(40):
        a, b = draw(), draw()
        _same(a * b, _ref_mul(a, b))
        _same(a ** 3, _ref_pow(a, 3))
        if not a.is_zero:
            _same(a.inverse(), _ref_inverse(a))
        f = Polynomial(frame, field, {(rng.randint(0, 3), rng.randint(0, 3)): rng.randint(-3, 3)
                                      for _ in range(4)})
        _same(f.evaluate_at_arc((a, b)), _ref_evaluate(f, (a, b)))



# Naive reference for the series kernel, independent of PuiseuxSeries: a
# series is ({Fraction exponent: Fraction coefficient}, truncation), every
# sum and product is taken term by term in Fraction arithmetic, and over F_p
# each coefficient is reduced to its residue.

def _naive_cut(terms, trunc, p):
    out = {}
    for q, c in terms.items():
        if p:
            c = F(c.numerator * pow(c.denominator, -1, p) % p)
        if c and (trunc is None or q < trunc):
            out[q] = c
    return out, trunc


def _naive_mul(a, b, p):
    (ta, trunc_a), (tb, trunc_b) = a, b
    order_a = min(ta) if ta else trunc_a
    order_b = min(tb) if tb else trunc_b
    trunc = _ref_tmin(_ref_tadd(trunc_a, order_b), _ref_tadd(trunc_b, order_a))
    acc = {}
    for q1, c1 in ta.items():
        for q2, c2 in tb.items():
            acc[q1 + q2] = acc.get(q1 + q2, 0) + c1 * c2
    return _naive_cut(acc, trunc, p)


def _naive_add(a, b, p):
    (ta, trunc_a), (tb, trunc_b) = a, b
    acc = dict(ta)
    for q, c in tb.items():
        acc[q] = acc.get(q, 0) + c
    return _naive_cut(acc, _ref_tmin(trunc_a, trunc_b), p)


def _naive_neg(a, p):
    terms, trunc = a
    return _naive_cut({q: -c for q, c in terms.items()}, trunc, p)


def _naive_inverse(a, p):
    terms, trunc = a
    q = min(terms)
    lead_inv = F(pow(terms[q].numerator, -1, p)) if p else 1 / terms[q]
    head = ({-q: lead_inv}, None)
    if trunc is None and len(terms) == 1:
        return head
    width = trunc - q
    minus_u = ({e - q: -c * lead_inv for e, c in terms.items() if e != q}, width)
    acc, power = {F(0): F(1)}, ({F(0): F(1)}, width)
    while power[0]:
        power = _naive_cut(_naive_mul(power, minus_u, p)[0], width, p)
        for e, c in power[0].items():
            acc[e] = acc.get(e, 0) + c
    return _naive_mul(_naive_cut(acc, width, p), head, p)


def _naive_pow(a, k, p):
    if k < 0:
        return _naive_pow(_naive_inverse(a, p), -k, p)
    result = ({F(0): F(1)}, None)
    for _ in range(k):
        result = _naive_mul(result, a, p)
    return result


def _naive_evaluate(terms, arc, p):
    acc, trunc = {}, None
    for mono, c in terms.items():
        piece = ({F(0): F(c)}, None)
        for s, e in zip(arc, mono):
            piece = _naive_mul(piece, _naive_pow(s, e, p), p)
        trunc = _ref_tmin(trunc, piece[1])
        for q, v in piece[0].items():
            acc[q] = acc.get(q, 0) + v
    return _naive_cut(acc, trunc, p)


def _stored_form_is_canonical(s):
    """The stored form: ascending indices with nonzero int numerators over
    one positive denominator, in lowest terms, 1 over F_p (where each
    numerator is the raw value in 1..p-1)."""
    p = s.field.characteristic
    nums = [v for _, v in s.pairs]
    assert type(s.pairs) is tuple
    assert [k for k, _ in s.pairs] == sorted({k for k, _ in s.pairs})
    assert type(s.den) is int and s.den >= 1 and math.gcd(s.den, *nums) == 1
    assert all(type(v) is int and v != 0 for v in nums)
    if p:
        assert s.den == 1 and all(0 < v < p for v in nums)


def _same_as_naive(got, want, p):
    terms, trunc = want
    ram = math.lcm(*(q.denominator for q in terms), trunc.denominator if trunc is not None else 1)
    assert (got.terms, got.trunc, got.ram) == (terms, trunc, ram)
    # the stored grid form is what the views say: each numerator over den is
    # the reference term, and the canonical form makes the pairs unique
    _stored_form_is_canonical(got)
    assert [(k, F(v, got.den)) for k, v in got.pairs] == [
        (int(q * ram), terms[q]) for q in sorted(terms)]
    assert got.top == (None if trunc is None else trunc * ram)
    for v in got.terms.values():  # canonical raw values
        if p:
            assert type(v) is int and 0 < v < p
        elif v.denominator == 1:
            assert type(v) is int
        else:
            assert type(v) is F and v.denominator > 1


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f"char{f.characteristic}")
def test_series_kernel_matches_naive_reference(field):
    p = field.characteristic
    rng = random.Random(f"naive-kernel/{p}")
    dens = [d for d in (1, 1, 2, 3, 5, 12, 2**20, 3 * 2**20) if not p or d % p]

    def draw():
        n = rng.randint(1, 6)
        terms = {F(rng.randint(-3, 9), n): F(rng.randint(-9, 9), rng.choice(dens))
                 for _ in range(rng.randint(0, 4))}
        trunc = None if rng.random() < 0.3 else F(rng.randint(1, 10), rng.choice((1, n)))
        return PuiseuxSeries(field, terms, trunc)

    def naive(s):
        return {q: F(c) for q, c in s.terms.items()}, s.trunc

    for _ in range(60):
        a, b = draw(), draw()
        _same_as_naive(a + b, _naive_add(naive(a), naive(b), p), p)
        _same_as_naive(a - b, _naive_add(naive(a), _naive_neg(naive(b), p), p), p)
        _same_as_naive(a - a, _naive_add(naive(a), _naive_neg(naive(a), p), p), p)
        _same_as_naive(a * b, _naive_mul(naive(a), naive(b), p), p)
        for k in range(-3, 7):
            if k < 0 and a.is_zero:
                with pytest.raises(DivisionByZero):
                    a ** k
            elif k < 0 and a.trunc is None and len(a.terms) > 1:
                with pytest.raises(InputError):
                    a ** k
            else:
                _same_as_naive(a ** k, _naive_pow(naive(a), k, p), p)
        if not a.is_zero:
            # a cut at ord a + W, W on and off the grid; W = 0 leaves no term
            cut = a.truncated(a.order() + F(rng.randint(0, 8), rng.choice((1, 2, 3))))
            if cut.is_zero:
                with pytest.raises(DivisionByZero):
                    cut.inverse()
            else:
                _same_as_naive(cut.inverse(), _naive_inverse(naive(cut), p), p)
        terms = {(rng.randint(0, 3), rng.randint(0, 3)): F(rng.randint(1, 9), rng.choice(dens))
                 for _ in range(rng.randint(1, 4))}
        terms = {mono: c for mono, c0 in terms.items() if (c := field.raw(c0))}
        _same_as_naive(evaluate_monomials(field, terms, (a, b)),
                       _naive_evaluate(terms, (naive(a), naive(b)), p), p)


def _naive_of(s):
    return {q: F(c) for q, c in s.terms.items()}, s.trunc


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f"char{f.characteristic}")
def test_packed_evaluation_matches_naive_reference(field):
    # the packed kernel against the term-by-term Fraction reference on arcs
    # of two or three components: ramified grids, exact, truncated and zero
    # components, sparse ones with wide gaps, coefficients over several
    # denominators and of both signs, x_m-degree up to 12, the zero
    # polynomial; trunc, ram and every value must agree
    p = field.characteristic
    rng = random.Random(f"packed-evaluation/{p}")
    dens = [d for d in (1, 1, 1, 2, 3, 4, 7, 12, 2**20) if not p or d % p]

    def coeff():
        return F(rng.choice((-1, 1)) * rng.randint(1, 40), rng.choice(dens))

    def component():
        kind = rng.choice(("dense", "dense", "sparse", "monomial", "zero"))
        n = rng.choice((1, 1, 2, 3, 6))
        exact = rng.random() < 0.3
        if kind == "zero":
            return PuiseuxSeries(field, {}, None if exact else F(rng.randint(1, 12), n))
        order = F(rng.randint(0, 4), n)
        if kind == "monomial":
            exps = [order]
        elif kind == "sparse":
            exps = [order] + [order + F(rng.randint(5, 30), n) for _ in range(rng.randint(1, 2))]
        else:
            exps = [order + F(k, n) for k in range(rng.randint(2, 7))]
        terms = {q: coeff() for q in exps}
        trunc = None if exact else max(exps) + F(rng.randint(1, 6), rng.choice((1, n)))
        return PuiseuxSeries(field, terms, trunc)

    for _ in range(40):
        m = rng.choice((2, 2, 3))
        arc = tuple(component() for _ in range(m))
        terms = {}
        for _ in range(rng.choice((0, 1, 2, 4, 6))):
            mono = tuple(rng.randint(0, 3) for _ in range(m - 1)) + (rng.randint(0, 12),)
            terms[mono] = field.raw(coeff())
        terms = {mono: c for mono, c in terms.items() if c}
        _same_as_naive(evaluate_monomials(field, terms, arc),
                       _naive_evaluate(terms, tuple(_naive_of(s) for s in arc), p), p)


@pytest.mark.parametrize("field", [f for f in FIELDS if f.characteristic != 2],
                         ids=lambda f: f"char{f.characteristic}")
def test_packed_evaluation_at_the_digit_bound(field):
    # one term with a single-digit component of value +-2 makes the largest
    # coefficient reach the digit bound: 2^e needs e + 2 bits signed, and the
    # widths round to 8, 16, 32, 64 and whole bytes above, so a width one bit
    # short of the bound is wrong at e = 7, 15, 31, 63, 71, ...
    p = field.characteristic
    frame = VariableFrame(2, 1)
    for lead in (2, -2):
        arc = (parse_series(field, f"t*{lead}"), parse_series(field, f"t^(1/2)*{lead} | trunc 9"))
        for e in range(1, 140):
            got = Polynomial(frame, field, {(e, 0): 1}).evaluate_at_arc(arc)
            assert got == PuiseuxSeries(field, {F(e): lead ** e})
        for e in (1, 2, 7, 15, 16, 31, 63):
            got = Polynomial(frame, field, {(0, e): 1, (1, 0): -1}).evaluate_at_arc(arc)
            want = _naive_evaluate({(0, e): 1, (1, 0): field.raw(-1)},
                                   tuple(_naive_of(s) for s in arc), p)
            _same_as_naive(got, want, p)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f"char{f.characteristic}")
def test_integer_inverse_matches_naive_reference(field):
    # leads 1, -1, 16 and 3/4 (where the field has them), ramified grids,
    # one-term truncated series, which take no recurrence, and tails over
    # several denominators
    p = field.characteristic
    rng = random.Random(f"integer-inverse/{p}")
    leads = [c for c in (F(1), F(-1), F(16), F(3, 4)) if not p or c.numerator % p and c.denominator % p]
    dens = [d for d in (1, 1, 2, 5, 9) if not p or d % p]
    for _ in range(60):
        n = rng.choice((1, 2, 3, 4))
        q = F(rng.randint(-3, 5), n)
        terms = {q: rng.choice(leads)}
        for _ in range(rng.choice((0, 1, 3, 8))):
            terms[q + F(rng.randint(1, 24), n)] = F(rng.randint(-9, 9), rng.choice(dens))
        s = PuiseuxSeries(field, terms, q + F(rng.randint(1, 30), rng.choice((1, n))))
        _same_as_naive(s.inverse(), _naive_inverse(_naive_of(s), p), p)
    single = PuiseuxSeries(field, {F(3, 2): leads[-1]}, F(9))
    _same_as_naive(single.inverse(), _naive_inverse(_naive_of(single), p), p)


class TestStoredGridForm:
    def test_cancellation_returns_to_the_least_grid(self):
        s = parse_series(Q, "t^(1/2) + t | trunc 5") - parse_series(Q, "t^(1/2)")
        plain = parse_series(Q, "t | trunc 5")
        assert s.ram == 1 and s.pairs == ((1, 1),) and s.top == 5
        assert s == plain and hash(s) == hash(plain)

    def test_views_are_read_only(self):
        s = parse_series(Q, "t^(1/2) | trunc 3")
        with pytest.raises(AttributeError):
            s.terms = {}
        with pytest.raises(AttributeError):
            s.trunc = F(1)
        assert s.terms == {F(1, 2): 1} and s.trunc == 3 and s.ram == 2

    def test_values_are_numerators_over_one_denominator(self):
        s = parse_series(Q, "t*1/6 + t^2*-3/4 + t^3*2 | trunc 5")
        assert (s.pairs, s.den) == (((1, 2), (2, -9), (3, 24)), 12)
        assert s.terms == {F(1): F(1, 6), F(2): F(-3, 4), F(3): 2}
        assert s.leading_coeff() == Q.scalar("1/6")
        assert format_series(s) == "t*1/6 + t^2*-3/4 + t^3*2"
        s = parse_series(F5, "t*1/2 + t^2*3")
        assert (s.pairs, s.den) == (((1, 3), (2, 3)), 1)

    @pytest.mark.parametrize("field", FIELDS, ids=lambda f: f"char{f.characteristic}")
    def test_every_operation_stores_the_canonical_form(self, field):
        # after each operation the stored form is in lowest terms, and the
        # series equals, and hashes as, the one built afresh from its views;
        # the numerators and denominators are primes above 7 and their
        # products, so no term vanishes over F_2..F_7
        def check(s):
            _stored_form_is_canonical(s)
            again = PuiseuxSeries(field, s.terms, s.trunc)
            assert (s.pairs, s.den, s.top, s.ram) == (again.pairs, again.den, again.top, again.ram)
            assert s == again and hash(s) == hash(again)

        def series(terms, trunc):
            return PuiseuxSeries(field, {q: F(c) for q, c in terms.items()}, trunc)

        a = series({F(1, 2): F(-11, 13), F(1): F(17, 143), F(2): 19}, 9)
        b = series({F(1): F(1, 11), F(3, 2): F(-13, 17)}, 6)
        c = series({F(1, 2): F(11, 13), F(1): F(1, 13)}, 9)  # a + c: the lead cancels
        for s in (a, b, c, a + b, a + c, a - b, a - a, -a, a * b, a * c):
            check(s)
        for k in (-3, -2, -1, 0, 1, 2, 5):
            check(a ** k)
            check(b ** k)
        # negative leads: over Q the inverse hands over the denominator
        # v_0^len(b), negative for an odd length (3 here, and 1)
        check(a.inverse())
        check(series({F(1): F(-13, 11), F(2): 1}, 4).inverse())
        check(series({F(1): F(-13, 11)}, 4).inverse())
        for cut in (F(1, 2), F(1), F(4, 3), F(3), 12):
            check(a.truncated(cut))
            check(b.truncated(cut))
        terms = {(2, 0): 1, (1, 1): field.raw(F(-1, 11)), (0, 3): field.raw(F(17, 13))}
        check(evaluate_monomials(field, terms, (a, b)))
        check(evaluate_monomials(field, {(1, 0): 1, (0, 1): 1}, (c, -c)))
        a1 = PerronTransform("A1", ((1, 1), (1, 2)), VariableFrame(2, 1), field.scalar(1))
        for s in a1.transform_arc((b, a)):
            check(s)


class TestExponentTypes:
    @pytest.mark.parametrize("bad", [1.5, 2.0, "1/2", True, None])
    def test_exponents_and_truncations_are_ints_or_fractions(self, bad):
        # Fraction(1.5) would take a float in as a binary fraction
        with pytest.raises(InputError, match="exponents"):
            PuiseuxSeries(Q, {bad: 1})
        if bad is not None:
            with pytest.raises(InputError, match="exponents"):
                PuiseuxSeries(Q, {F(1): 1}, trunc=bad)
            with pytest.raises(InputError, match="exponents"):
                parse_series(Q, "t + t^2").truncated(bad)

    def test_int_and_fraction_exponents_are_kept(self):
        s = PuiseuxSeries(Q, {2: 1, F(5, 2): -1}, trunc=4)
        assert s == parse_series(Q, "t^2 + t^(5/2)*-1 | trunc 4")
        assert s.truncated(F(5, 2)) == PuiseuxSeries(Q, {F(2): 1}, trunc=F(5, 2))


class TestGridSize:
    def test_truncation_above_the_cap_is_refused_when_built(self):
        # 10^8 slots: refused before any coefficient is laid on the grid
        with pytest.raises(InputError, match="slots"):
            parse_series(Q, "t^(1/1000003)*1 + t | trunc 100")
        assert parse_series(Q, f"t | trunc {MAX_GRID_SLOTS}").trunc == MAX_GRID_SLOTS
        with pytest.raises(InputError, match="slots"):
            parse_series(Q, f"t | trunc {MAX_GRID_SLOTS + 1}")

    def test_sum_above_the_cap_is_refused(self):
        fine = PuiseuxSeries(Q, {F(1, 1000003): 1})
        with pytest.raises(InputError, match="slots"):
            fine + parse_series(Q, "t | trunc 100")
        with pytest.raises(InputError, match="slots"):
            parse_series(Q, "t | trunc 100") - fine

    def test_product_and_power_above_the_cap_are_refused(self):
        # 60,000 and 60,060 slots each; their product would be stored on the
        # grid 1/1001000 with a truncation spanning 6.0 * 10^7 slots
        a = parse_series(Q, "t^(1/1000) | trunc 60")
        b = parse_series(Q, "t^(1/1001) | trunc 60")
        with pytest.raises(InputError, match="slots"):
            a * b
        with pytest.raises(InputError, match="slots"):
            (a * b) ** 2
        assert (a * a).trunc == F(60001, 1000)
        # a base within the cap whose square, trusted below 110, is not
        s = parse_series(Q, "t^50 + t^(50001/1000) | trunc 60")
        with pytest.raises(InputError, match="slots"):
            s ** 2

    @pytest.mark.parametrize("base, k, match", [
        ("t + t^2", 70000, "slots"),  # 70,001 slots
        ("t + t^2", 3000, "bits"),  # 3,001 slots of up to 3,000 bits each
        ("t*3", 2**21 + 1, "bits"),  # one slot, 3^k has more than 2^22 bits
        ("t*1/3", -(2**21 + 1), "bits"),  # its inverse t^-1*3, then the power
        ("t^(1/2) + t^(3/2)*2", 40000, "slots"),  # a span of 2 slots on the grid 1/2
        ("t + t^40000", 2, "slots"),  # three terms, but 79,999 slots
    ])
    def test_exact_power_above_the_budget_is_refused_before_any_product(self, base, k, match):
        for field in (Q, F5):
            s = parse_series(field, base)
            t0 = time.perf_counter()
            with pytest.raises(InputError, match=match):
                s ** k
            assert time.perf_counter() - t0 < 1.0

    @pytest.mark.parametrize("field", FIELDS, ids=lambda f: f"char{f.characteristic}")
    def test_exact_power_within_the_budget_is_unchanged(self, field):
        s = parse_series(field, "t + t^2")
        _same(s ** 100, _ref_pow(s, 100))
        # a single term costs no product at any exponent, and t^k no bits
        assert (s ** 0, parse_series(field, "t") ** 10**9) == (
            PuiseuxSeries(field, {0: 1}), PuiseuxSeries(field, {10**9: 1}))
        t3 = parse_series(field, "t*3")
        assert t3 ** 2**16 == PuiseuxSeries(field, {2**16: pow(3, 2**16, field.characteristic or None)})

    def test_exact_product_above_the_budget_is_refused_before_the_convolution(self):
        # (t + t^2)^2000 squared: 4,001 slots of up to 4,000 bits each by the
        # power's rule, about 16 Mbit; the convolution would take about 14 s
        a = PuiseuxSeries(Q, {2000 + k: math.comb(2000, k) for k in range(2001)})
        t0 = time.perf_counter()
        with pytest.raises(InputError, match="series product needs more than 4194304 bits"):
            a * a
        assert time.perf_counter() - t0 < 1.0
        # slots: two spans plus one, on the common grid; 1 + t^32768 squared
        # spans 65,537 slots, one more than the cap
        for field in (Q, F5):
            wide, narrow = parse_series(field, "1 + t^32768"), parse_series(field, "1 + t^32767")
            t0 = time.perf_counter()
            with pytest.raises(InputError, match="series product spans 65537 slots"):
                wide * wide
            with pytest.raises(InputError, match="slots"):
                parse_series(field, "1 + t^(65535/2)") * parse_series(field, "1 + t^(1/2)")
            assert time.perf_counter() - t0 < 1.0
            assert (wide * narrow).pairs == ((0, 1), (32767, 1), (32768, 1), (65535, 1))
            assert len((narrow * narrow).pairs) == 3

    @pytest.mark.parametrize("field", FIELDS, ids=lambda f: f"char{f.characteristic}")
    def test_exact_product_within_the_budget_is_unchanged(self, field):
        # exact by exact (the budget applies), exact by truncated and a
        # constant operand (it does not), each equal to the reference product
        # and stored alike
        a = parse_series(field, "t + t^2") ** 40
        b = parse_series(field, "t^(1/2)*3 + t^(7/3)*-1 + t^5")
        c = parse_series(field, "t^(-1/2)*2 + t^(1/3) | trunc 4")
        for x, y in ((a, a), (a, b), (b, c), (a, c)):
            got, want = x * y, _ref_mul(x, y)
            _same(got, want)
            assert got == want and hash(got) == hash(want)
        assert 3 * b == _ref_mul(PuiseuxSeries(field, {0: 3}), b)

    def test_truncated_power_window_is_refused_before_any_product(self):
        # 3,000 terms on the grid 1/1000 trusted below 60: the seventh power
        # is trusted below 7 + 59 = 66, that is 66,000 slots of its grid; its
        # products would take about 40 s over Q, and 20 s over F_7, where the
        # seventh power's second term sits at 7 + 7/1000
        s = "t + " + " + ".join(f"t^({1000 + i}/1000)" for i in range(1, 3000)) + " | trunc 60"
        for field in (Q, F5, FieldSpec(7)):
            base = parse_series(field, s)
            t0 = time.perf_counter()
            with pytest.raises(InputError, match="truncation 66 on the grid 1/1000 spans more than"):
                base ** 7
            assert time.perf_counter() - t0 < 1.0
        # the least grid of a power can be coarser than its base's:
        # (t^(1/1000) (1 + t))^10000 lies on the integers, trusted below 70,
        # 70,000 slots of the base's grid but 70 of its own, so it is kept
        for field in (Q, F5, FieldSpec(7)):
            power = parse_series(field, "t^(1/1000) + t^(1001/1000) | trunc 60001/1000") ** 10000
            assert (power.ram, power.trunc, power.order()) == (1, 70, 10)

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(FIELDS), st.integers(1, 4),
           st.lists(st.integers(-3, 3), min_size=2, max_size=4, unique=True),
           st.integers(1, 6), st.integers(1, 30))
    def test_truncated_power_has_the_sure_terms_its_window_check_reads(
            self, field, ram, raw_exps, width, k):
        # the window check before the products reads the grid from two terms
        # the power surely has: v_0^k t^(ko), and the term at
        # ko + q (q_1 - o), q the largest power of p dividing k, when it lies
        # below the window ko + (T - o)
        p = field.characteristic
        exps = sorted(F(e, ram) for e in raw_exps)
        o, q1 = exps[0], exps[1]
        trunc = exps[-1] + F(width, ram)
        s = PuiseuxSeries(field, {e: 1 + i % (p - 1 if p else 5) for i, e in enumerate(exps)},
                          trunc=trunc)
        power = s ** k
        q = 1
        while p and k % (q * p) == 0:
            q *= p
        assert power.trunc == k * o + trunc - o
        assert k * o in power.terms
        if k * o + q * (q1 - o) < power.trunc:
            assert k * o + q * (q1 - o) in power.terms

    def test_inverse_window_above_the_cap_is_refused(self):
        # the inverse spans the truncation less the order: 40,000 slots
        # hold this series, and the 80,000 of its inverse are refused
        s = parse_series(Q, "t^(-40000) + t | trunc 40000")
        with pytest.raises(InputError, match="slots"):
            s.inverse()


def test_binary_power_counts_its_products():
    # floor(log2 k) squarings and popcount(k) - 1 products into the result,
    # which starts from the first factor: k = 1 returns the argument itself
    products = []

    def mul(x, y):
        products.append(None)
        return x + y

    one, a = object(), object()
    assert binary_power(a, 0, mul, one) is one
    assert binary_power(a, 1, mul, one) is a
    assert not products
    for k in range(1, 65):
        del products[:]
        assert binary_power(1, k, mul, 0) == k
        assert len(products) == k.bit_length() - 1 + bin(k).count("1") - 1, k


class TestConstantOperands:
    """A constant operand (an int, a Fraction, a literal or a Scalar) acts as
    the constant polynomial or series the validating constructors build, and
    a value that is none of these raises as those constructors do."""

    CONSTANTS = [3, -2, F(5, 13), "-7/11", "4", None]  # None: a Scalar of the field
    BAD = [(True, "cannot build scalar from True"), (1.5, "cannot build scalar from 1.5"),
           ("1.5", "bad rational literal '1.5'"),
           (FieldSpec(11).scalar(2), "scalar from a different field")]

    @staticmethod
    def _operands(field):
        frame = VariableFrame(2, 1)
        f = Polynomial(frame, field, {(1, 2): 3, (0, 1): 1, (2, 0): -1, (0, 0): 2})
        s = parse_series(field, "t^(1/2)*3/11 + t^2 + 1 | trunc 5")
        return frame, f, s

    @pytest.mark.parametrize("field", FIELDS, ids=lambda f: f"char{f.characteristic}")
    def test_constant_operands_equal_constructed_constants(self, field):
        frame, f, s = self._operands(field)
        for c in self.CONSTANTS:
            if c is None:
                c = field.scalar(F(4, 13))
            poly_c = Polynomial(frame, field, {(0, 0): c})
            series_c = PuiseuxSeries(field, {0: c})
            assert f * c == f * poly_c, c
            assert f + c == f + poly_c, c
            assert f.translate_last(c) == f.translate_last(poly_c), c
            assert s * c == s * series_c, c
            assert s - c == s - series_c, c
            assert Polynomial.constant(frame, field, c) == poly_c, c

    @pytest.mark.parametrize("field", FIELDS, ids=lambda f: f"char{f.characteristic}")
    def test_other_operands_raise_as_the_constructors_do(self, field):
        _, f, s = self._operands(field)
        ops = [lambda c: f * c, lambda c: f + c, lambda c: f.translate_last(c),
               lambda c: s * c, lambda c: s - c]
        for bad, message in self.BAD:
            for op in ops:
                with pytest.raises(InputError) as exc:
                    op(bad)
                assert str(exc.value) == message
