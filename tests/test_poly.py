import importlib.util
import itertools
import json
import random
from pathlib import Path
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from perronval.errors import InputError
from perronval.oracle import oracle_from_document
from perronval.perron import PerronTransform
from perronval.poly import (
    Polynomial,
    VariableFrame,
    format_polynomial,
    format_ring_header,
    parse_polynomial,
    parse_ring_header,
    _raw_addmul,
    _rows,
    _shift_columns,
    _unrows,
)
from perronval.reduce import run_reduction, trace_document
from perronval.scalars import INFINITE, FieldSpec, format_raw, parse_series

Q = FieldSpec(0)
F2 = FieldSpec(2)
F5 = FieldSpec(5)
FR = VariableFrame(m=2, n=1)
FIELDS = (Q, F2, FieldSpec(3), F5, FieldSpec(7))


def P(text, frame=FR, field=Q):
    return parse_polynomial(frame, field, text)


class TestOrdLast:
    def test_cusp(self):
        assert P("x2^2 - x1^3").ord_last() == 2

    def test_no_pure_term(self):
        assert P("x1*x2").ord_last() is INFINITE

    def test_artin_schreier(self):
        assert P("x2^5 - x2 - x1", field=F5).ord_last() == 1


class TestExpandLast:
    def test_cusp(self):
        f = P("x2^2 - x1^3")
        coeffs = f.coeffs_last()
        assert len(coeffs) - 1 == 2 and f.lead_constant_last() == Q.one
        assert coeffs[2] == P("1")
        assert coeffs[1].is_zero
        assert coeffs[0] == P("-x1^3")

    def test_identity_case(self):
        f = P("x2")
        coeffs = f.coeffs_last()
        assert len(coeffs) - 1 == 1 and f.lead_constant_last() == Q.one
        assert coeffs[0].is_zero

    def test_tacnode_by_hand(self):
        f = P("x2^2 - 2*x1*x2 + x1^2 - x1^5")
        coeffs = f.coeffs_last()
        assert len(coeffs) - 1 == 2
        assert coeffs[1] == P("-2*x1")
        assert coeffs[0] == P("x1^2 - x1^5")
        assert _sum_in_last(coeffs, FR, Q) == f

    def test_reconstruct_is_identity(self):
        rng = random.Random(11)
        for _ in range(50):
            f = _random_poly(rng, FR, Q)
            assert _sum_in_last(f.coeffs_last(), FR, Q) == f


def _sum_in_last(coeffs, frame, field):
    """sum_i a_i x_m^i for the coefficient list a_0..a_e."""
    xm = Polynomial.variable(frame, field, frame.m - 1)
    total = Polynomial.zero(frame, field)
    for i, a in enumerate(coeffs):
        total = total + a * xm**i
    return total


class TestSubstitute:
    def test_monomial_image(self):
        frame1 = FR.bumped()
        got = P("x1").substitute_map(frame1, [(1, 1), (0, 1)])
        assert got == Polynomial.monomial(frame1, Q, (1, 1)) and got.frame is frame1

    def test_identity(self):
        f = P("x2^2 - x1^3 + 1/2*x1*x2")
        assert f.substitute_map(FR, [(1, 0), (0, 1)]) == f

    def test_cusp_full_substitution(self):
        # x1 -> x1(1)^2 u, x2 -> x1(1)^3 u^2 in the unit u = x2(1) + 1, read
        # in x2(1) by the shift u -> x2(1) + 1
        frame1 = FR.bumped()
        unit = Polynomial.variable(frame1, Q, 1) + Q.one
        got = P("x2^2 - x1^3").substitute_map(frame1, [(2, 1), (3, 2)]).translate_last(Q.one)
        assert got == Polynomial.monomial(frame1, Q, (6, 0)) * unit**3 * Polynomial.variable(frame1, Q, 1)

    def test_homomorphism_random(self):
        # x2 is passive: its image is itself
        rng = random.Random(5)
        frame = VariableFrame(m=3, n=1)
        frame1 = frame.bumped()
        images = [(2, 0, 1), (0, 1, 0), (3, 0, 2)]
        for field in FIELDS:
            for _ in range(10):
                f = _random_poly(rng, frame, field)
                g = _random_poly(rng, frame, field)
                sub = lambda h: h.substitute_map(frame1, images)
                assert sub(f * g) == sub(f) * sub(g)
                assert sub(f + g) == sub(f) + sub(g)
                assert sub(f) == _naive_image(f, frame1, images)

    @pytest.mark.parametrize("images", [
        [(1, 0)], [(1, 0), (0, 1), (0, 0)], [(1, 0), (0, 1, 0)], [(1,), (0, 1)],
        [(1, -1), (0, 1)], [(1, 0), (True, 1)], [(1, 0), (0, 1.0)],
    ], ids=["too-few", "too-many", "long-vector", "short-vector", "negative", "bool", "float"])
    def test_refuses_bad_images(self, images):
        with pytest.raises(InputError):
            P("x2^2 - x1^3").substitute_map(FR.bumped(), images)


def _naive_image(f: Polynomial, frame1, images) -> Polynomial:
    """sum of c * prod (x^images[i]) ** e_i over the terms c x^e of f, from
    the ring operations alone"""
    images = [Polynomial.monomial(frame1, f.field, img) for img in images]
    total = Polynomial.zero(frame1, f.field)
    for mono, c in f.terms.items():
        piece = Polynomial.constant(frame1, f.field, c)
        for img, e in zip(images, mono):
            piece = piece * img**e
        total = total + piece
    return total


def _nonzero(field):
    return st.sampled_from(range(1, field.characteristic) if field.modular
                           else [1, -1, 2, 3, F(-3, 2), F(5, 4)]).map(field.scalar)


@st.composite
def _one_term_map(draw):
    """(f, frame1, images, cancelling): exponent images x_i -> x^{E_i},
    drawn from at most two exponent vectors E so that the map is often not
    injective, a polynomial f, and a polynomial whose terms all land on one
    exponent vector with coefficients summing to zero there."""
    field = draw(st.sampled_from(FIELDS))
    m, m1 = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    frame, frame1 = VariableFrame(m=m, n=1), VariableFrame(m=m1, n=1, generation=1)
    exps = draw(st.lists(st.tuples(*[st.integers(0, 2)] * m1), min_size=1, max_size=2))
    images = [draw(st.sampled_from(exps)) for _ in range(m)]
    small = st.tuples(*[st.integers(0, 3)] * m)
    f = Polynomial(frame, field, draw(st.dictionaries(small, st.integers(-4, 4), max_size=6)))
    # every exponent vector of the box 0..3 sharing the image of a drawn one
    columns = list(zip(*images))
    image = lambda mono: tuple(sum(e * E for e, E in zip(mono, col)) for col in columns)
    base = draw(small)
    group = [mono for mono in itertools.product(range(4), repeat=m) if image(mono) == image(base)]
    group = draw(st.permutations(group))[:4]
    terms, total = {}, field.zero
    for mono in group[:-1]:
        terms[mono] = c = draw(_nonzero(field))
        total = total + c
    terms[group[-1]] = -total
    return f, frame1, images, Polynomial(frame, field, terms)


@st.composite
def _perron_case(draw):
    """(f, tau, images): a Perron transform with a random nonnegative
    det-1 matrix, a product of elementary steps I + E_ij, A6 with n = 2, 3
    or A1, and the image exponent vectors read from its rows."""
    field = draw(st.sampled_from(FIELDS))
    kind, n = draw(st.sampled_from([("A6", 2), ("A6", 3), ("A1", 1), ("A1", 2)]))
    m = n + draw(st.integers(0, 1)) if kind == "A6" else n + 1 + draw(st.integers(0, 1))
    size = n if kind == "A6" else n + 1
    matrix = [[int(i == j) for j in range(size)] for i in range(size)]
    for i, j in draw(st.lists(st.tuples(st.integers(0, size - 1), st.integers(0, size - 1))
                              .filter(lambda ij: ij[0] != ij[1]), max_size=5)):
        for row in matrix:
            row[i] += row[j]
    frame = VariableFrame(m=m, n=n)
    c = field.scalar(draw(st.integers(1, field.characteristic - 1 if field.modular else 5)))
    tau = PerronTransform(kind, tuple(map(tuple, matrix)), frame, c if kind == "A1" else None)
    active = list(range(n)) + ([m - 1] if kind == "A1" else [])
    images = []
    for i in range(m):
        mono = [0] * m
        if i in active:
            row = matrix[active.index(i)]
            for k, j in enumerate(active):
                mono[j] = row[k]
        else:
            mono[i] = 1
        images.append(tuple(mono))
    small = st.tuples(*[st.integers(0, 3)] * m)
    f = Polynomial(frame, field, draw(st.dictionaries(small, st.integers(-4, 4), max_size=6)))
    return f, tau, images


@settings(max_examples=200, deadline=None)
@given(_one_term_map(), _perron_case())
def test_exponent_map_matches_products(case, perron):
    f, frame1, images, cancelling = case
    assert f.substitute_map(frame1, images) == _naive_image(f, frame1, images)
    assert cancelling.substitute_map(frame1, images).is_zero
    assert ((f + cancelling).substitute_map(frame1, images)
            == _naive_image(f + cancelling, frame1, images))
    f, tau, images = perron
    assert tau.substitute(f) == _naive_image(f, tau.new_frame(), images)


class TestStrictTransform:
    def test_cusp_image(self):
        # the cusp image x1^6 (x2 + 1)^3 x2 written in the unit u = x2 + 1
        frame1 = FR.bumped()
        u = Polynomial.variable(frame1, Q, 1)
        h = Polynomial.monomial(frame1, Q, (6, 0)) * u**3 * (u - Q.one)
        exps, lam, f1 = h.strict_transform(Q.one)
        assert exps == (6, 0) and lam == 3
        assert f1 == Polynomial.variable(frame1, Q, 1)

    def test_unit_at_origin(self):
        f = P("1 + x1*x2")
        exps, lam, f1 = f.strict_transform(Q.zero)
        assert exps == (0, 0) and lam == 0 and f1 == f

    def test_pure_monomial(self):
        exps, lam, f1 = P("x1*x2").strict_transform(Q.zero)
        assert exps == (1, 0) and lam == 1 and f1 == P("1")

    def test_reconstruction_random(self):
        rng = random.Random(17)
        for _ in range(40):
            f = _random_poly(rng, FR, Q)
            if f.is_zero:
                continue
            c = Q.scalar(rng.choice([0, 1, -1, 2]))
            exps, lam, f1 = f.strict_transform(c)
            unit = Polynomial.variable(FR, Q, 1) + c
            back = f1 * Polynomial.monomial(FR, Q, exps) * unit**lam
            assert back == f.translate_last(c) == f1.times_unit_power(exps, lam, c)

    def test_matches_division_reference(self):
        # g = x^e * (x_m + c)^lam * f1 with lam up to p + 2, so lam >= p occurs
        rng = random.Random(29)
        frame = VariableFrame(m=3, n=2)
        for field in FIELDS:
            for _ in range(12):
                f1 = _random_poly(rng, frame, field, max_terms=4, max_exp=3)
                if f1.is_zero:
                    continue
                c = field.scalar(rng.randint(1, 6))
                if c.is_zero:
                    c = field.one
                lam = rng.randint(0, field.characteristic + 2 if field.modular else 6)
                e = tuple(rng.randint(0, 3) for _ in range(2)) + (0,)
                unit = Polynomial.variable(frame, field, 2) + c
                g = Polynomial.monomial(frame, field, e) * unit**lam * f1
                got = g.translate_last(-c).strict_transform(c)
                assert got == _strict_by_division(g, c)
                assert got[1] >= lam

    def test_times_unit_power_matches_taylor_shift(self):
        # reference: x^e * (x_m + c)^lam * f is (x^e * x_m^lam * f(x, x_m - c))
        # shifted back by c; lam runs past p, so C(lam, k) meets p | k + 1
        rng = random.Random(53)
        frame = VariableFrame(m=3, n=2)
        for field in FIELDS:
            top = 3 * field.characteristic + 2 if field.modular else 12
            for trial in range(40):
                f1 = _random_poly(rng, frame, field, max_terms=4, max_exp=3)
                lam = (0, top)[trial] if trial < 2 else rng.randint(0, top)
                if trial == 2 or rng.random() < 0.2:
                    c = field.zero
                elif field.modular:
                    c = field.scalar(rng.randint(1, field.characteristic - 1))
                else:
                    c = field.scalar(F(rng.choice([-1, 1]) * rng.randint(1, 5),
                                       rng.choice([1, 1, 2, 3])))
                e = (rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3))
                shifted = f1.translate_last(-c) * Polynomial.monomial(frame, field, e[:2] + (lam,))
                got = f1.times_unit_power(e, lam, c)
                assert got == shifted.translate_last(c), (field, f1, e, lam, c)
                unit = Polynomial.variable(frame, field, 2) + c
                assert got == Polynomial.monomial(frame, field, e[:2] + (0,)) * unit**lam * f1


def _strict_by_division(g, c):
    """Reference strict transform: repeated division by (x_m + c)."""
    exps = list(g.min_exponents())
    exps[-1] = 0
    f1 = g.divide_by_monomial(tuple(exps))
    unit = Polynomial.variable(g.frame, g.field, g.frame.m - 1) + c
    lam = 0
    while True:
        q, r = f1.divmod_last(unit)
        if not r.is_zero or q.is_zero:
            return tuple(exps), lam, f1
        f1 = q
        lam += 1


class TestDivmodLast:
    def test_matches_reference_random(self):
        # divisors c*x3^d + (terms of x3-degree < d) with c != 1 where the
        # field has such a constant; some dividends have x3-degree below d
        rng = random.Random(37)
        frame = VariableFrame(m=3, n=2)
        for field in FIELDS:
            for d in (1, 2, 3):
                for _ in range(8):
                    c = rng.randint(2, 9)
                    if not field.modular:
                        c = F(c, rng.randint(1, 3))
                    elif c % field.characteristic == 0:
                        c = 1
                    lower = _random_poly(rng, frame, field, max_terms=4, max_exp=3)
                    lower = Polynomial(frame, field, {
                        mono[:-1] + (mono[-1] % d,): v for mono, v in lower.terms.items()
                    })
                    divisor = Polynomial.monomial(frame, field, (0, 0, d), c) + lower
                    max_exp = rng.choice([d - 1, 7])
                    f = _random_poly(rng, frame, field, max_terms=6, max_exp=max_exp)
                    q, r = f.divmod_last(divisor)
                    assert (q, r) == _divmod_by_terms(f, divisor)
                    assert q * divisor + r == f and r.degree_in_last() < d


def _divmod_by_terms(f, divisor):
    """Reference division in x_m: one Polynomial product and difference per
    leading x_m-coefficient of the remainder."""
    d = divisor.degree_in_last()
    lc = divisor.lead_constant_last()
    q = Polynomial.zero(f.frame, f.field)
    r = f
    while not r.is_zero and r.degree_in_last() >= d:
        k = r.degree_in_last()
        top = r.coeffs_last()[k]
        shift = [0] * f.frame.m
        shift[-1] = k - d
        piece = top * Polynomial.monomial(f.frame, f.field, shift, lc.inverse())
        q = q + piece
        r = r - piece * divisor
    return q, r


class TestArcEvaluation:
    def test_cusp_parametrization(self):
        arc = (parse_series(Q, "t^2 | trunc 40"), parse_series(Q, "t^3 | trunc 40"))
        assert P("x2^2 - x1^3").evaluate_at_arc(arc).is_zero

    def test_single_variable(self):
        arc = (parse_series(Q, "t^2"), parse_series(Q, "t^3"))
        assert P("x2").evaluate_at_arc(arc).order() == 3

    def test_difference(self):
        arc = (parse_series(Q, "t^2"), parse_series(Q, "t^2 + t^3"))
        assert P("x2 - x1").evaluate_at_arc(arc).order() == 3

    def test_ord_last_matches_vertical_arc(self):
        rng = random.Random(23)
        vertical = (parse_series(Q, "0"), parse_series(Q, "t"))
        for _ in range(40):
            f = _random_poly(rng, FR, Q)
            r = f.ord_last()
            if r is INFINITE:
                assert f.evaluate_at_arc(vertical).is_zero
            else:
                assert f.evaluate_at_arc(vertical).order() == r


class TestTranslateAndDerivative:
    def test_translate_keeps_ord(self):
        # rewrite f in x2' with x2 = x2' + x1: h is the added polynomial
        f = P("x2^2 - 2*x1*x2 + x1^2 - x1^5")
        g = f.translate_last(P("x1"))
        assert g == P("x2^2 - x1^5")
        assert g.ord_last() == f.ord_last() == 2

    def test_taylor_shift_random(self):
        # x_m-degree up to 9 exceeds every p below, so some binomials vanish mod p
        rng = random.Random(31)
        frame = VariableFrame(m=3, n=2)
        for field in FIELDS:
            xm = Polynomial.variable(frame, field, 2)
            for _ in range(15):
                f = _random_poly(rng, frame, field, max_terms=6, max_exp=9)
                h = _random_poly(rng, frame, field, max_terms=3, max_exp=2)
                h = Polynomial(frame, field, {m[:-1] + (0,): c for m, c in h.terms.items()})
                g = f.translate_last(h)
                assert g.translate_last(-h) == f
                ref = Polynomial.zero(frame, field)
                for mono, c in f.terms.items():
                    base = Polynomial.monomial(frame, field, mono[:-1] + (0,), c)
                    ref = ref + base * (xm + h) ** mono[-1]
                assert g == ref

    def test_partial_last(self):
        assert P("x2^2 - x1^3").partial_last() == P("2*x2")
        assert P("x2^2 + x1^3", field=F2).partial_last().is_zero


# ---------------------------------------------------------------------------
# The x_m-column kernels against their references

def _reference_translate_last(self, h):
    """x_m -> x_m + h by the row-based Taylor shift ``translate_last`` ran
    before the column kernels, copied verbatim: a_j += h * a_(j+1) on the
    x_m-coefficient rows, one term-map product per row pair."""
    h = self._coerce(h)
    if h.degree_in_last() > 0:
        raise InputError("translation polynomial must not involve x_m")
    p = self.field.characteristic
    d = self.degree_in_last()
    rows = _rows(self, d)
    (step,) = _rows(h, 0)
    for i in range(d):
        for j in range(d - 1, i - 1, -1):
            _raw_addmul(rows[j], rows[j + 1], step, p)
    return Polynomial._from_raw(self.frame, self.field, _unrows(rows))


@st.composite
def _column_case(draw):
    """(f, h): f over Q or F_2..F_7 in m = 2 or 3 variables with x_m-degree
    up to 9 (above every p drawn, so some binomials vanish mod p), and h free
    of x_m that is zero, a nonzero constant, a monomial or several terms."""
    field = draw(st.sampled_from(FIELDS))
    p = field.characteristic
    m = draw(st.sampled_from((2, 3)))
    frame = VariableFrame(m, m - 1)
    coeff = st.integers(-6, 6) | st.fractions(max_denominator=4).filter(
        lambda c: not p or c.denominator % p)
    mono = st.tuples(*[st.integers(0, 3)] * (m - 1), st.integers(0, 9))
    f = Polynomial(frame, field, draw(st.dictionaries(mono, coeff, max_size=8)))
    base = st.tuples(*[st.integers(0, 2)] * (m - 1)).map(lambda b: b + (0,))
    shape = draw(st.sampled_from(("zero", "constant", "monomial", "several")))
    if shape == "constant":
        base = st.just((0,) * m)
    elif shape == "monomial":
        base = base.filter(any)
    size = {"zero": 0, "constant": 1, "monomial": 1, "several": 3}[shape]
    terms = draw(st.dictionaries(base, _nonzero(field), min_size=min(size, 2), max_size=size))
    return f, Polynomial(frame, field, terms)


class TestColumnKernels:
    @settings(max_examples=200, deadline=None)
    @given(_column_case())
    def test_translate_last_matches_the_row_shift(self, case):
        f, h = case
        got = f.translate_last(h)
        want = _reference_translate_last(f, h)
        assert got == want and str(got) == str(want)
        p = f.field.characteristic
        if p:  # the kernel reduces as it goes: each value it leaves is in 1..p-1
            for b, c in h.terms.items():
                shifted = _shift_columns(f.terms, b[:-1], c, p, f.degree_in_last())
                assert all(0 < v < p for v in shifted.values())

    @settings(max_examples=200, deadline=None)
    @given(_column_case(), st.data())
    def test_times_unit_power_matches_the_ring_product(self, case, data):
        f1, h = case
        field, frame = f1.field, f1.frame
        p = field.characteristic
        # lam up to 3p + 2 makes p | C(lam, k) for some k < lam
        lam = data.draw(st.integers(0, 3 * p + 2 if p else 12))
        c = data.draw(st.just(field.zero) | _nonzero(field))
        e = data.draw(st.tuples(*[st.integers(0, 3)] * frame.m))
        unit = Polynomial.variable(frame, field, frame.m - 1) + c
        want = Polynomial.monomial(frame, field, e[:-1] + (0,)) * unit**lam * f1
        got = f1.times_unit_power(e, lam, c)
        assert got == want and str(got) == str(want)


class TestExponentTypes:
    @pytest.mark.parametrize("mono", [(1.5, 0), (1.0, 0), ("2", True), (True, 0), (F(1), 0),
                                      (-1, 0)])
    def test_exponents_other_than_nonnegative_ints_are_refused(self, mono):
        # int() would read (1.5, 0) as x1 and ("2", True) as x1^2*x2
        with pytest.raises(InputError, match="exponents"):
            Polynomial(FR, Q, {mono: 1})


class TestCanonicalForm:
    def test_graded_lex_last_least(self):
        f = P("x2^2 - x1^3 + x1*x2")
        assert format_polynomial(f) == "-x1^3 + x1*x2 + x2^2"

    def test_roundtrip(self):
        rng = random.Random(3)
        for field in (Q, F5):
            for _ in range(40):
                f = _random_poly(rng, FR, field)
                assert parse_polynomial(FR, field, format_polynomial(f)) == f

    def test_generation_suffix(self):
        frame1 = FR.bumped()
        f = parse_polynomial(frame1, Q, "x2(1)^2 - x1(1)^3")
        assert format_polynomial(f) == "-x1(1)^3 + x2(1)^2"
        with pytest.raises(InputError):
            parse_polynomial(FR, Q, "x1(2)")

    def test_rational_coefficients(self):
        assert format_polynomial(P("1/2*x1*x2^3")) == "1/2*x1*x2^3"

    @pytest.mark.parametrize("value", [10**5000, -(10**5000), F(1, 10**5000)],
                             ids=["5000-digits", "negative", "5000-digit-denominator"])
    def test_value_beyond_the_digit_limit_raises_input_error(self, value):
        # str() raises ValueError above 4300 digits; the printer turns it
        # into InputError, inside the exit-code contract
        for mono in ((1, 2), (0, 0)):
            with pytest.raises(InputError, match="too long to print"):
                format_polynomial(Polynomial(FR, Q, {mono: value, (0, 1): 1}))

    def test_ring_header(self):
        frame, field = parse_ring_header("ring m=2 char=0 n=1")
        assert frame == FR and field == Q
        assert format_ring_header(frame, field) == "ring m=2 char=0 n=1"
        frame5, field5 = parse_ring_header("ring m=3 char=5")
        assert frame5.m == 3 and field5.characteristic == 5

    # README's grammar has ASCII digits only; int() and the regex class \d
    # would also take other Unicode digits
    @pytest.mark.parametrize("header", [
        "ring m=\u0662 char=0",
        "ring m=2 char=\uff10",
        "ring m=2 char=0 n=\u0661",
        "ring m=2 char=0 n=1 gen=\u0661",
        "ring m=" + "9" * 5000 + " char=0",
    ], ids=["arabic-m", "fullwidth-char", "arabic-n", "arabic-gen", "m-5000-digits"])
    def test_ring_header_refuses(self, header):
        with pytest.raises(InputError):
            parse_ring_header(header)

    @pytest.mark.parametrize("text", [
        "x\u0662^\u0663 - x1",
        "x2^\u0663 - x1",
        "x2(\u0660) - x1",
        "\uff13*x2 - x1",
    ], ids=["arabic-index", "arabic-exponent", "arabic-generation", "fullwidth-coefficient"])
    def test_polynomial_refuses_non_ascii_digits(self, text):
        with pytest.raises(InputError):
            P(text)


def _reference_key(mono):
    # graded lexicographic, x_1 most significant, x_m last
    return (sum(mono), mono)


def _reference_format(f):
    """The printer before its one-pass form, kept as the reference: a
    Python sort key per term, and the names and numbers formatted per
    factor."""
    if f.is_zero:
        return "0"
    frame = f.frame
    chunks = []
    for mono in sorted(f.terms, key=_reference_key, reverse=True):
        c = f.terms[mono]
        factors = []
        for i, e in enumerate(mono):
            if e == 1:
                factors.append(frame.var_name(i))
            elif e > 1:
                factors.append(f"{frame.var_name(i)}^{format_raw(e)}")
        body = "*".join(factors)
        sign, mag = ("+", c) if f.field.modular or c > 0 else ("-", -c)
        if body and mag == 1:
            text = body
        elif body:
            text = f"{format_raw(mag)}*{body}"
        else:
            text = format_raw(mag)
        chunks.append((sign, text))
    first_sign, first = chunks[0]
    out = first if first_sign == "+" else f"-{first}"
    for sign, text in chunks[1:]:
        out += f" {sign} {text}"
    return out


@st.composite
def _printable(draw):
    """A polynomial over Q or F_2..F_7 in m = 1..3 variables of generation
    0, 1 or 12, with coefficients +-1, other ints and Fractions; zero and
    constant polynomials included."""
    field = draw(st.sampled_from(FIELDS))
    p = field.characteristic
    m = draw(st.integers(1, 3))
    frame = VariableFrame(m, draw(st.integers(1, m)), draw(st.sampled_from((0, 1, 12))))
    coeff = st.one_of(
        st.sampled_from((1, -1)),
        st.integers(-10**12, 10**12),
        st.fractions(max_denominator=10**4).filter(lambda c: not p or c.denominator % p),
    )
    shape = draw(st.sampled_from(("general", "general", "constant", "zero")))
    if shape == "zero":
        return Polynomial.zero(frame, field)
    if shape == "constant":
        return Polynomial.constant(frame, field, draw(coeff))
    mono = st.tuples(*[st.one_of(st.integers(0, 3), st.integers(0, 120))] * m)
    return Polynomial(frame, field, draw(st.dictionaries(mono, coeff, min_size=1, max_size=12)))


class TestPrinterMatchesReference:
    @settings(max_examples=250, deadline=None)
    @given(_printable())
    def test_drawn_polynomials(self, f):
        assert format_polynomial(f) == _reference_format(f)

    def test_a1_images_of_the_benchmark_traces(self):
        # every A1 image g printed in the seed-1 ladder and pairs traces,
        # up to 64 terms, read back and printed by both printers
        spec = importlib.util.spec_from_file_location(
            "perronval_bench_corpus", Path(__file__).resolve().parent.parent / "perfbench" / "corpus.py")
        corpus = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(corpus)
        sizes = set()
        for workload in ("ladder", "pairs"):
            docs = {json.dumps(item["doc"], sort_keys=True): item["doc"]
                    for item in corpus.generate(workload, 1)}
            for doc in docs.values():
                oracle = oracle_from_document(doc)
                trace = trace_document(run_reduction(oracle), doc)
                for step in trace["steps"]:
                    if step["kind"] == "A1":
                        frame = VariableFrame(2, 1, step["generation"])
                        g = parse_polynomial(frame, oracle.field, step["f_after"])
                        assert format_polynomial(g) == _reference_format(g) == step["f_after"]
                        sizes.add(len(g.terms))
        assert {16, 23} <= sizes


def _random_poly(rng, frame, field, max_terms=5, max_exp=4):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        mono = tuple(rng.randint(0, max_exp) for _ in range(frame.m))
        if field.modular:
            c = rng.randint(0, field.characteristic - 1)
        else:
            c = F(rng.randint(-6, 6), rng.randint(1, 4))
        terms[mono] = field.scalar(c) + terms.get(mono, field.zero)
    return Polynomial(frame, field, terms)


# ---------------------------------------------------------------------------
# Memoized facts

_FACTS = (hash, Polynomial.degree_in_last, Polynomial.ord_last,
          Polynomial.lead_constant_last, str)


def _reference_facts(f):
    """The memoized facts of f, read off its term map directly."""
    terms = f.terms
    degree = max((mono[-1] for mono in terms), default=-1)
    pure = [mono[-1] for mono in terms if not any(mono[:-1])]
    top = [mono for mono in terms if mono[-1] == degree]
    lead = None
    if top == [(0,) * (f.frame.m - 1) + (degree,)]:
        lead = f.field.scalar(terms[top[0]])
    return (hash((f.frame, f.field, frozenset(terms.items()))), degree,
            min(pure, default=INFINITE), lead, _reference_format(f))


@st.composite
def _memo_case(draw):
    """(f, order of the facts to read): f over Q or F_2..F_7 in m = 2 or 3
    variables, zero and constants included, made by the validating
    constructor, a ring operation, the parser or ``divmod_last``."""
    field = draw(st.sampled_from(FIELDS))
    p = field.characteristic
    m = draw(st.sampled_from((2, 3)))
    frame = VariableFrame(m, draw(st.integers(1, m)), draw(st.sampled_from((0, 1))))
    coeff = st.integers(-4, 4) | st.fractions(max_denominator=6).filter(
        lambda c: not p or c.denominator % p)
    mono = st.tuples(*[st.integers(0, 3)] * m)
    a, b = (Polynomial(frame, field, draw(st.dictionaries(mono, coeff, max_size=5)))
            for _ in range(2))
    xm = Polynomial.variable(frame, field, m - 1)
    divisor = xm ** draw(st.integers(1, 3)) + b.coeffs_last()[0]
    route = draw(st.sampled_from(("init", "constant", "zero", "product", "difference",
                                  "parsed", "quotient", "remainder")))
    f = {
        "init": lambda: a,
        "constant": lambda: Polynomial.constant(frame, field, draw(coeff)),
        "zero": lambda: a - a,
        "product": lambda: a * b,
        "difference": lambda: a - b,
        "parsed": lambda: parse_polynomial(frame, field, format_polynomial(a)),
        "quotient": lambda: a.divmod_last(divisor)[0],
        "remainder": lambda: a.divmod_last(divisor)[1],
    }[route]()
    return f, draw(st.permutations(range(len(_FACTS))))


class TestMemoizedFacts:
    @settings(max_examples=300, deadline=None)
    @given(_memo_case())
    def test_facts_read_twice_equal_a_fresh_polynomials(self, case):
        f, order = case
        fresh = Polynomial(f.frame, f.field, dict(f.terms))
        first = {k: _FACTS[k](f) for k in order}
        second = {k: _FACTS[k](f) for k in order}
        want = tuple(fact(fresh) for fact in _FACTS)
        assert tuple(first[k] for k in range(len(_FACTS))) == want
        assert tuple(second[k] for k in range(len(_FACTS))) == want
        assert want == _reference_facts(f)
        assert repr(f) == f"Polynomial({want[-1]!r})"

    def test_the_early_exit_quotient_is_a_fresh_zero(self):
        f = P("x1^2*x2 + 3")
        q, r = f.divmod_last(P("x2^2 + x1"))
        assert r is f and q == Polynomial.zero(FR, Q)
        assert (q.degree_in_last(), q.ord_last(), q.lead_constant_last(), str(q)) == (
            -1, INFINITE, None, "0")
