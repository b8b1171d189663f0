"""Exact coefficient arithmetic and truncated Puiseux series.

Field elements live in QQ (arbitrary-precision rationals) or in a prime
field F_p.  Polynomials and series store them as canonical raw values (see
``FieldSpec.raw``): ints 0..p-1, or over QQ an int when integral, else a
reduced Fraction.  ``Scalar`` pairs one such value with its field where a
single element is handed out.

Puiseux series are finite sums of terms c * t^q with q rational, together
with a truncation order below which the series is trusted.  A truncation of
``None`` means the series is exact (all omitted coefficients are zero);
declared arc data normally carries a finite truncation.  A series is stored
on its integer grid 1/N as (index, int numerator) pairs over one
denominator, and a truncation index; Fraction exponents and values appear
only when a series is printed, or read through its views.
"""

from __future__ import annotations

import array
import math
import operator
import re
import sys
from fractions import Fraction
from itertools import compress, repeat

from .errors import DivisionByZero, InputError


class Infinite:
    """Singleton for infinite orders, indices and pseudo-values."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INFINITE"

    def __gt__(self, other):
        return not isinstance(other, Infinite)

    def __lt__(self, other):
        return False

    def __ge__(self, other):
        return True

    def __le__(self, other):
        return isinstance(other, Infinite)


INFINITE = Infinite()


# Miller-Rabin with the first 12 primes as bases is exact for every
# n < 3.18 * 10^23 (the least strong pseudoprime to all of them; Sorenson and
# Webster, 2015), so below PRIME_BOUND no probabilistic step decides anything.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
PRIME_BOUND = 2**64


def is_prime(p: int) -> bool:
    """Deterministic primality for p < PRIME_BOUND; larger p raise
    InputError rather than be decided (or searched) at all."""
    if p >= PRIME_BOUND:
        raise InputError(f"characteristic {p} is not below 2^64")
    if p < 2:
        return False
    for q in _MR_BASES:
        if p % q == 0:
            return p == q
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _frozen(self, name, value=None):
    """``__setattr__`` and ``__delattr__`` of the dict and memo key types
    (FieldSpec, VariableFrame, GeneratorContext): ``__init__`` sets each field once."""
    raise AttributeError(f"cannot assign to field {name!r}")


class FieldSpec:
    """Ground field: QQ for characteristic 0, F_p for prime p."""

    __slots__ = ("characteristic",)
    __setattr__ = __delattr__ = _frozen

    def __init__(self, characteristic: int = 0):
        check_ints("the characteristic", characteristic)
        if characteristic != 0 and not is_prime(characteristic):
            raise InputError(f"characteristic must be 0 or prime, got {characteristic}")
        object.__setattr__(self, "characteristic", characteristic)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.characteristic == other.characteristic

    def __hash__(self):
        return hash((self.characteristic,))

    @property
    def modular(self) -> bool:
        return self.characteristic != 0

    def raw(self, value):
        """Canonical raw value of a Scalar, int (not a bool), Fraction or
        rational literal (``parse_rational``): an int in 0..p-1 in
        characteristic p; over Q an int when integral, else a Fraction.
        Polynomials, series and Scalars store these values."""
        if isinstance(value, Scalar):
            if value.field != self:
                raise InputError("scalar from a different field")
            value = value.value
        elif isinstance(value, str):
            value = parse_rational(value)
        if isinstance(value, int):
            if type(value) is bool:
                raise InputError(f"cannot build scalar from {value!r}")
            return value % self.characteristic if self.modular else value
        if not isinstance(value, Fraction):
            raise InputError(f"cannot build scalar from {value!r}")
        if not self.modular:
            return value.numerator if value.denominator == 1 else value
        p = self.characteristic
        den = value.denominator % p
        if den == 0:
            raise DivisionByZero(f"denominator divisible by {p}")
        return value.numerator * pow(den, -1, p) % p

    def scalar(self, value) -> "Scalar":
        return Scalar(self, self.raw(value))

    def div(self, a, b):
        """a / b on raw values, itself a raw value; b = 0 raises
        DivisionByZero.  Over Q an int / int would be a float."""
        if not b:
            raise DivisionByZero("inverse of zero")
        p = self.characteristic
        return a * pow(b, -1, p) % p if p else self.raw(Fraction(a, b))

    @property
    def zero(self) -> "Scalar":
        return self.scalar(0)

    @property
    def one(self) -> "Scalar":
        return self.scalar(1)


class Scalar:
    """Field element holding the canonical raw value of ``FieldSpec.raw``,
    as polynomials and series store it; arithmetic is exact, never rounded."""

    __slots__ = ("field", "value")

    def __init__(self, field: FieldSpec, value):
        # value: an int in 0..p-1 (char p); over Q an int or a reduced Fraction
        self.field, self.value = field, value

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.field, self.value) == (other.field, other.value)

    def _coerce(self, other) -> "Scalar":
        if isinstance(other, Scalar):
            if other.field != self.field:
                raise InputError("mixed-field scalar arithmetic")
            return other
        return self.field.scalar(other)

    @property
    def is_zero(self) -> bool:
        return self.value == 0

    def __add__(self, other):
        return self.field.scalar(self.value + self._coerce(other).value)

    __radd__ = __add__

    def __neg__(self):
        return self.field.scalar(-self.value)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        return self.field.scalar(self.value * self._coerce(other).value)

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        return Scalar(self.field, self.field.div(1, self.value))

    def __truediv__(self, other):
        return Scalar(self.field, self.field.div(self.value, self._coerce(other).value))

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, k: int):
        if type(k) is not int:
            raise InputError("scalar powers must be integers")
        if k < 0:
            return self.inverse() ** (-k)
        # the modulus None makes it a plain power over Q
        return self.field.scalar(pow(self.value, k, self.field.characteristic or None))

    def __str__(self):
        return format_raw(self.value)


# ASCII digits only: ``\d`` would also match digits int() reads in other scripts
_RATIONAL = r"-?[0-9]+(?:/[0-9]+)?"
_RATIONAL_RE = re.compile(_RATIONAL)


def _ratio(digits: str, text: str) -> tuple:
    """(numerator, denominator > 0) of ``digits``, which a grammar matched
    as ``-?d+(/d+)?`` in ASCII digits, not in lowest terms.  A zero
    denominator, or more digits than the interpreter converts, raise
    InputError naming the literal ``text``."""
    num, _, den = digits.partition("/")
    try:
        num, den = int(num), int(den or 1)
    except ValueError as exc:
        raise InputError(f"rational literal too long: {exc}") from exc
    if den == 0:
        raise InputError(f"zero denominator in {text!r}")
    return num, den


def parse_ratio(text: str) -> tuple:
    """``_ratio`` of a rational literal ``-?d+(/d+)?`` in ASCII digits,
    surrounding blanks allowed; other text raises InputError."""
    m = _RATIONAL_RE.fullmatch(text.strip()) if isinstance(text, str) else None
    if m is None:
        raise InputError(f"bad rational literal {text!r}")
    return _ratio(m.group(), text)


def parse_rational(text: str) -> Fraction:
    """The Fraction of a rational literal, read by ``parse_ratio``."""
    return Fraction(*parse_ratio(text))


def format_raw(value) -> str:
    """Decimal text of an int or Fraction value.  A value with more digits
    than the interpreter converts to text raises InputError, not ValueError,
    so printing stays inside the exit-code contract."""
    try:
        return str(value)
    except ValueError as exc:
        raise InputError(f"value too long to print: {exc}") from exc


def check_ints(what: str, *values):
    """InputError unless every value is an int; a bool or a float is not."""
    for v in values:
        if type(v) is not int:
            raise InputError(f"expected an int for {what}, got {v!r}")


_INTEGER_RE = re.compile(r"\s*-?[0-9]+\s*")


def parse_integer(value, what: str) -> int:
    """A JSON integer (not a bool) or an integer literal ``-?d+``; floats,
    bools and other text raise InputError rather than be rounded."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str) and _INTEGER_RE.fullmatch(value):
        try:
            return int(value)
        except ValueError as exc:  # more digits than int() converts
            raise InputError(f"{what} has too many digits") from exc
    raise InputError(f"{what} must be an integer, got {value!r}")


def _exponent(q) -> Fraction:
    """A series exponent or truncation: a Fraction or an int (not a bool)."""
    if isinstance(q, Fraction):
        return q
    if type(q) is not int:
        raise InputError(f"series exponents are ints or Fractions, got {q!r}")
    return Fraction(q)


def _tmin(a, b):
    # min of truncations where None means +infinity
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def _tadd(a, b):
    if a is None or b is None:
        return None
    return a + b


# Grid slots a truncated series may span: a truncation T on the grid 1/N
# covers T * N of them, and ``PuiseuxSeries.inverse`` allocates one
# coefficient per slot.  A larger truncation raises InputError before
# anything is allocated, so a literal such as ``t^(1/1000003) + t | trunc
# 100`` (10^8 slots) is refused; so does any series a sum, product, power
# or inverse would build beyond it.
MAX_GRID_SLOTS = 2**16

# The size an exact result may reach before it is built: the bits of an
# exact series in all its slots (``_check_budget``, ``evaluate_monomials``),
# the slots of an x_m-division's quotient and the row steps of a phi-adic
# expansion.
MAX_BUDGET = 64 * MAX_GRID_SLOTS


def _check_slots(top, n: int):
    """Refuse a truncation index ``top`` on the grid 1/n (None: exact) that
    spans more than MAX_GRID_SLOTS slots."""
    if top is not None and top > MAX_GRID_SLOTS:
        raise InputError(
            f"truncation {format_raw(Fraction(top, n))} on the grid "
            f"1/{format_raw(n)} spans more than {MAX_GRID_SLOTS} slots"
        )


def reduce_raw(items, p: int) -> dict:
    """{key: value} of the (key, raw value) pairs whose value is nonzero once
    reduced: mod p in characteristic p, over Q with integral values stored
    as ints.  Every stored polynomial term map comes out of it."""
    if p:
        return {key: r for key, v in items if (r := v % p)}
    return {key: v.numerator if v.denominator == 1 else v for key, v in items if v}


# A series is stored on its least integer grid (see ``PuiseuxSeries``), and
# the kernels lift it to a common grid 1/n with ``_grid``: a kernel triple
# (pairs, top, den) of ascending (index k, nonzero int numerator v) pairs,
# standing for the terms (v / den) t^(k/n), the truncation index top and
# one common denominator den.  That is the stored form with its indices
# scaled, so lifting costs no gcd and no value is rescaled.  Over F_p, den
# is 1 and the numerators are the raw values, so both fields run the same
# int arithmetic; ``PuiseuxSeries._from_grid`` brings a result to lowest
# terms with one gcd.

def _grid(s: "PuiseuxSeries", n: int):
    """Kernel triple of s on the grid 1/n; n must be a multiple of s.ram."""
    f = n // s.ram
    if f == 1:
        return s.pairs, s.top, s.den
    return [(k * f, v) for k, v in s.pairs], None if s.top is None else s.top * f, s.den


def _raw(v: int, den: int):
    """The canonical raw value of the stored numerator v over den: v when
    den = 1 (always over F_p), else a reduced Fraction, or an int when
    integral."""
    if den == 1:
        return v
    c = Fraction(v, den)
    return c.numerator if c.denominator == 1 else c


def _grid_mul(a, b, p: int):
    """Truncated convolution of two grid series.  The product is trusted
    below min(Ta + ord b, Tb + ord a), a zero series counting its truncation
    as its order, and no index at or beyond that is computed."""
    (pa, ta, da), (pb, tb, db) = a, b
    top = _tmin(_tadd(ta, pb[0][0] if pb else tb), _tadd(tb, pa[0][0] if pa else ta))
    limit = math.inf if top is None else top
    acc = {}
    for i, x in pa:
        for j, y in pb:
            k = i + j
            if k >= limit:
                break
            acc[k] = acc.get(k, 0) + x * y
    return _nonzero(acc, p), top, da * db


def binary_power(a, k: int, mul, one):
    """a**k for k >= 0 by binary powering, with the product ``mul`` and its
    identity ``one``; series and polynomial powers both run on it.  The
    result starts from its first factor, not from ``one``: k > 0 takes
    floor(log2 k) + popcount(k) - 1 products, and k = 1 returns ``a``
    itself, which callers only read."""
    result = None
    while k:
        if k & 1:
            result = a if result is None else mul(result, a)
        k >>= 1
        if k:
            a = mul(a, a)
    return one if result is None else result


def _check_budget(what: str, slots: int, bits: int):
    """Refuse an exact result of ``slots`` grid slots, each coefficient of
    at most ``bits`` bits, before it is computed: beyond MAX_GRID_SLOTS
    slots, or beyond MAX_BUDGET bits in all of them, as
    ``evaluate_monomials`` refuses."""
    if slots > MAX_GRID_SLOTS:
        raise InputError(f"{what} spans {format_raw(slots)} slots, more than {MAX_GRID_SLOTS}")
    if slots * bits > MAX_BUDGET:
        raise InputError(f"{what} needs more than {MAX_BUDGET} bits")


def _coefficient_bits(pairs, den) -> int:
    """clog2 of the sum of |numerators| plus clog2 den (``_clog2`` written
    out, as every exact product runs it): a bound on the bits of a
    coefficient of an exact series, which add up over the factors of a
    product or power.  A one-term series, as monomial arcs have, sums no
    list."""
    total = abs(pairs[0][1]) if len(pairs) == 1 else sum([abs(v) for _, v in pairs])
    return (total - 1).bit_length() + (den - 1).bit_length()


def _check_window(pairs, top, n: int, k: int, p: int) -> int:
    """The truncation index ko + (T - o) of the k-th power of a truncated
    nonzero series (its grid pairs on 1/n, order o, truncation index T), as
    the products' windows are (see ``_grid_mul``), refused before any
    product where ``_from_grid`` would refuse it: on the power's least grid,
    which is no coarser than two terms it surely has allow.  With k = q k',
    q the largest power of p dividing k (1 over Q), the power of
    s = v_0 t^o (1 + u) is v_0^k t^(ko) (1 + u^q)^k', and over F_p u^q is u
    with its indices times q, so the terms at ko and, below the window, at
    ko + q (q_1 - o) survive."""
    o = pairs[0][0]
    top = k * o + top - o
    sure = [k * o]
    if len(pairs) > 1:
        q = 1
        while p and k % (q * p) == 0:
            q *= p
        sure.append(k * o + q * (pairs[1][0] - o))
    g = math.gcd(n, top, *[i for i in sure if i < top])
    _check_slots(top // g, n // g)
    return top


def _grid_sum(grids, p: int):
    """Sum of grid series on one grid, cut at their least truncation; the
    numerators are added over the lcm of the denominators."""
    top = None
    for _, t, _ in grids:
        top = _tmin(top, t)
    den = math.lcm(*(d for _, _, d in grids))
    limit = math.inf if top is None else top
    acc = {}
    for pairs, _, d in grids:
        scale = den // d
        for k, v in pairs:
            if k < limit:
                acc[k] = acc.get(k, 0) + v * scale
    return _nonzero(acc, p), top, den


def _nonzero(acc: dict, p: int) -> list:
    """Ascending (index, numerator) pairs of the nonzero sums in ``acc``,
    reduced mod p when p != 0."""
    if p:
        return sorted((k, r) for k, v in acc.items() if (r := v % p))
    return sorted((k, v) for k, v in acc.items() if v)


def _from_literals(field: FieldSpec, trunc, literals) -> "PuiseuxSeries":
    """The series of the literals ((k, d), num, den), each the term
    (num / den) t^(k/d) with d, den > 0 (den = 1 over F_p, num a raw
    value), trusted below trunc = (num, den) (None: exact).  Each becomes an
    (index, numerator) pair on the lcm grid of the exponents and the
    truncation, over the lcm of the denominators, a pair at or beyond the
    truncation is dropped, and ``PuiseuxSeries._from_grid`` brings the sum
    to lowest terms and its least grid, where the slot bound applies."""
    n = math.lcm(1 if trunc is None else trunc[1], *[q[1] for q, _, _ in literals])
    top = None if trunc is None else trunc[0] * (n // trunc[1])
    den = math.lcm(*[d for _, _, d in literals])
    acc = {}
    for (k, d), num, c in literals:
        k *= n // d
        if top is None or k < top:
            acc[k] = acc.get(k, 0) + num * (den // c)
    return PuiseuxSeries._from_grid(field, n, (_nonzero(acc, field.characteristic), top, den))


class PuiseuxSeries:
    """Finite sum of terms c * t^q with rational q, trusted below ``trunc``.

    Stored on the grid 1/``ram`` as a ``Value`` is stored: ``pairs`` holds
    the ascending (index k, nonzero int numerator v) pairs of the terms
    (v / den) t^(k/ram), ``den`` is one positive denominator with
    gcd(den, every v) = 1 (1 over F_p, where each v is the raw value in
    1..p-1), and ``top`` is the truncation index trunc * ram, None when the
    series is exact.  ``ram`` is always the least such grid, the lcm of the
    exponent denominators and the truncation's, so equal series compare
    equal.  ``terms`` and ``trunc`` are read-only views in Fraction
    exponents and canonical raw values, built on each read.  Exponents may
    be negative in intermediate computations; declared arc components are
    checked elsewhere.
    """

    # _packing: (n, its ``_component`` on the grid 1/n), set on first use
    __slots__ = ("field", "ram", "pairs", "den", "top", "_packing")

    def __init__(self, field: FieldSpec, terms=None, trunc=None):
        if trunc is not None:
            trunc = _exponent(trunc)
            trunc = trunc.numerator, trunc.denominator
        literals = []
        for q, c in (terms or {}).items():
            q, c = _exponent(q), field.raw(c)
            literals.append(((q.numerator, q.denominator), c.numerator, c.denominator))
        s = _from_literals(field, trunc, literals)
        self.field, self.ram, self.pairs, self.den, self.top = s.field, s.ram, s.pairs, s.den, s.top

    @property
    def terms(self) -> dict:
        """{Fraction exponent: raw value}, built on each call."""
        den = self.den
        return {Fraction(k, self.ram): _raw(v, den) for k, v in self.pairs}

    @property
    def trunc(self):
        """Truncation order as a Fraction, None when exact."""
        return None if self.top is None else Fraction(self.top, self.ram)

    @property
    def is_zero(self) -> bool:
        """True when no term survives below the truncation."""
        return not self.pairs

    def order(self):
        """Minimum exponent with nonzero coefficient, or None if empty."""
        return Fraction(self.pairs[0][0], self.ram) if self.pairs else None

    def leading_coeff(self) -> Scalar:
        if not self.pairs:
            raise DivisionByZero("leading coefficient of a zero series")
        return self.field.scalar(_raw(self.pairs[0][1], self.den))

    def _coerce(self, other):
        if isinstance(other, PuiseuxSeries):
            if other.field is not self.field and other.field != self.field:
                raise InputError("mixed-field series arithmetic")
            return other
        c = self.field.raw(other)  # an exact constant: one pair over its denominator
        pairs = [(0, c.numerator)] if c else []
        return PuiseuxSeries._from_grid(self.field, 1, (pairs, None, c.denominator))

    def __add__(self, other):
        other = self._coerce(other)
        n = math.lcm(self.ram, other.ram)
        grid = _grid_sum([_grid(self, n), _grid(other, n)], self.field.characteristic)
        return PuiseuxSeries._from_grid(self.field, n, grid)

    __radd__ = __add__

    def __neg__(self):
        p = self.field.characteristic
        pairs = [(k, -v % p if p else -v) for k, v in self.pairs]
        return PuiseuxSeries._from_grid(self.field, self.ram, (pairs, self.top, self.den))

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        n = math.lcm(self.ram, other.ram)
        (pa, ta, da), (pb, tb, db) = a, b = _grid(self, n), _grid(other, n)
        if ta is None and tb is None and pa and pb:
            # two exact series keep to an exact power's budgets before the
            # convolution: the two spans plus one slots, each of the two
            # factors' coefficient bits
            _check_budget("series product", pa[-1][0] - pa[0][0] + pb[-1][0] - pb[0][0] + 1,
                          _coefficient_bits(pa, da) + _coefficient_bits(pb, db))
        return PuiseuxSeries._from_grid(self.field, n, _grid_mul(a, b, self.field.characteristic))

    __rmul__ = __mul__

    def inverse(self) -> "PuiseuxSeries":
        """Multiplicative inverse.

        For an exact single-term series the inverse is exact, and an exact
        series of more terms raises InputError.  Otherwise write the series
        on its grid 1/N as t^q V / d, where V = v_0 + v_1 t^(1/N) + ... has
        int numerators over one denominator d (1 over F_p), trusted over the
        W = U N slots below U, the truncation less q.  The inverse is
        d t^-q / V, and V^-1 = sum_k B_k t^(k/N) / v_0^(k+1) below U, where
        B_0 = 1 and B_k = -sum_{j>=1} v_j v_0^(j-1) B_(k-j): these are
        v_0^k b_k for the b_k of the recurrence b_k = -sum_j (v_j/v_0)
        b_(k-j) that inverts 1 + (V - v_0)/v_0.  The recurrence runs on ints,
        mod p in characteristic p, and builds no Fraction; a series of one
        term has every B_k = 0 for k >= 1 and runs no recurrence.  Only sums
        and products occur, so it is exact in every characteristic.
        """
        if not self.pairs:
            raise DivisionByZero("inverse of a zero series")
        if self.top is None and len(self.pairs) > 1:
            raise InputError("inverse of an exact multi-term series needs a truncation")
        n, p = self.ram, self.field.characteristic
        ((q0, v0), *rest), width, den = _grid(self, n)
        if width is not None:
            width -= q0  # W > 0: every term lies below the truncation
            _check_slots(width, n)
        b = [1]
        if rest:
            unit = [(k - q0, v * pow(v0, k - q0 - 1, p or None)) for k, v in rest]
            for k in range(1, width):
                acc = 0
                for j, a in unit:
                    if j > k:
                        break
                    acc -= a * b[k - j]
                b.append(acc % p if p else acc)
        top = None if width is None else width - q0
        pairs = []
        if p:
            inv0 = scale = pow(v0, -1, p)
            for k, bk in enumerate(b):
                if bk:
                    pairs.append((k - q0, bk * scale % p))
                scale = scale * inv0 % p
            grid = (pairs, top, 1)
        else:
            # den B_k / v_0^(k+1), all over v_0^len(b)
            scale = den
            for k in range(len(b) - 1, -1, -1):
                if b[k]:
                    pairs.append((k - q0, b[k] * scale))
                scale *= v0
            pairs.reverse()
            grid = (pairs, top, v0 ** len(b))
        return PuiseuxSeries._from_grid(self.field, n, grid)

    def __pow__(self, k: int):
        if type(k) is not int:
            raise InputError("series powers must be integers")
        if k < 0:
            return self.inverse() ** (-k)
        pairs, top, p = self.pairs, self.top, self.field.characteristic
        if k and pairs:
            if top is None:
                # refused before any product: k times the span, plus one,
                # slots, each of k times the coefficient bits
                _check_budget("series power", k * (pairs[-1][0] - pairs[0][0]) + 1,
                              k * _coefficient_bits(pairs, self.den))
            else:
                top = _check_window(pairs, top, self.ram, k, p)
        if k and len(pairs) == 1:
            # (v/den) t^(q/N) to the k is (v^k/den^k) t^(kq/N)
            ((q, v),) = pairs
            grid = ([(k * q, pow(v, k, p or None))], top, self.den**k)
        else:
            grid = binary_power(_grid(self, self.ram), k, lambda x, y: _grid_mul(x, y, p),
                                ([(0, 1)], None, 1))
        return PuiseuxSeries._from_grid(self.field, self.ram, grid)

    @classmethod
    def _from_grid(cls, field, n, grid) -> "PuiseuxSeries":
        """Series of a kernel triple (pairs, top, den) on 1/n: ascending
        (index, nonzero int numerator) pairs over the common denominator
        den != 0, all below the truncation index top (None when exact).  Over
        F_p, den must be 1 and the numerators raw values.  One gcd of den
        and the numerators, its sign that of den, brings the values to
        lowest terms over a positive denominator, and one gcd over n, top
        and the indices moves the series to its least grid; a truncation
        beyond MAX_GRID_SLOTS there is refused, as the constructor refuses
        it: every series the kernels build keeps to that bound."""
        pairs, top, den = grid
        if den != 1:
            g = math.gcd(den, *[v for _, v in pairs])
            if den < 0:
                g = -g
            if g != 1:
                den //= g
                pairs = [(k, v // g) for k, v in pairs]
        g = math.gcd(n, top or 0, *[k for k, _ in pairs])
        if g != 1:
            n //= g
            pairs = [(k // g, v) for k, v in pairs]
            top = None if top is None else top // g
        _check_slots(top, n)
        s = cls.__new__(cls)
        s.field, s.ram, s.pairs, s.den, s.top = field, n, tuple(pairs), den, top
        return s

    def truncated(self, trunc) -> "PuiseuxSeries":
        """The series trusted below the lesser of its truncation and
        ``trunc``: its pairs cut on the grid that holds both."""
        trunc = _exponent(trunc)
        n = math.lcm(self.ram, trunc.denominator)
        pairs, top, den = _grid(self, n)
        cut = trunc.numerator * (n // trunc.denominator)
        if top is None or cut < top:
            pairs, top = [kv for kv in pairs if kv[0] < cut], cut
        return PuiseuxSeries._from_grid(self.field, n, (pairs, top, den))

    def __eq__(self, other):
        if not isinstance(other, PuiseuxSeries):
            return NotImplemented
        return (
            self.field == other.field
            and self.ram == other.ram
            and self.top == other.top
            and self.den == other.den
            and self.pairs == other.pairs
        )

    def __hash__(self):
        return hash((self.field, self.ram, self.pairs, self.den, self.top))

    def __str__(self):
        return format_series(self)

    def __repr__(self):
        return f"PuiseuxSeries({format_series(self)!r})"


def _clog2(x: int) -> int:
    """The least b >= 0 with x <= 2^b, for an int x >= 1."""
    return (x - 1).bit_length()


# array type codes by item size, for reading 1-, 2-, 4- and 8-byte digits
_DIGIT_CODES = {array.array(code).itemsize: code for code in "qlihb"}


def _twos_digits(x: int, size: int, nbytes: int) -> list:
    """The ``size`` digits of 0 <= x < 256^(nbytes size) in base
    256^nbytes, low digit first, each read as a two's-complement number."""
    raw = x.to_bytes(nbytes * size, "little")
    code = _DIGIT_CODES.get(nbytes)
    if code is None:
        return [int.from_bytes(raw[i:i + nbytes], "little", signed=True)
                for i in range(0, nbytes * size, nbytes)]
    digits = array.array(code, raw)
    if sys.byteorder == "big":
        digits.byteswap()
    return digits.tolist()


def evaluate_monomials(field: FieldSpec, terms: dict, arc) -> PuiseuxSeries:
    """Sum of c * arc[0]^e_0 * ... * arc[m-1]^e_{m-1} over the items (e, c)
    of ``terms``, on the grid 1/n, n the lcm of the arc's ramifications, as
    one evaluation on packed integers (Kronecker substitution; Harvey,
    J. Symb. Comput. 2009).  It returns what the series product, power and
    sum return term by term, value for value, with the same ``trunc`` and
    ``ram``.

    Window.  Component i has order o_i on 1/n and truncation index T_i
    (None when exact); a zero component counts T_i as its order.  A product
    a b is trusted below min(T_a + ord b, T_b + ord a), so by induction a^e
    has order e o and truncation e o + (T - o), and a term c prod a_i^e_i
    has order O = sum e_i o_i and truncation O + min (T_i - o_i) over the
    truncated components it uses (exact if none).  A term that uses an
    exactly zero component is exactly 0 and sets no truncation.  The sum is
    cut at ``top``, the least truncation of a term, so ``trunc`` comes from
    orders and truncations alone.  A nonzero term has no index below O nor
    at or past O + sum e_i s_i + 1, s_i the span from o_i to the last index
    of component i, so the ``size`` slots from the least O of a nonzero
    term below ``top`` up to ``top`` or the greatest such reach, whichever
    is lower, hold the whole result.

    Digits.  Each component a_i = t^(o_i/n) P_i(t^(1/n)) / d_i that a
    nonzero term uses is packed once, the int numerators of P_i below
    ``size`` as the digits of P_i(2^w).  Over the common denominator
    D = C prod d_i^E_i, C the lcm of the coefficients' denominators and E_i
    the greatest exponent of component i, a term's numerators are those of
    u prod P_i^e_i with u = c D / prod d_i^e_i, shifted by O less the
    window's start.  Powers and products are taken mod 2^(w size): each
    power once, a component's exponents in ascending order, each from the
    one below it times a binary power of their difference.  No coefficient
    of the packed sum exceeds sum |u| prod |a_i|_1^e_i, |a|_1 the sum of the
    |numerators| of a (at least that of its packed digits), which is below
    2^(w-1) once w >= max over the terms of clog2 |u| + sum e_i clog2
    |a_i|_1, plus clog2 of the term count, plus 2 (clog2 x the least b with
    x <= 2^b); w is that rounded up to 8, 16, 32 or 64 bits, or above 64 to
    whole bytes, so that each digit is whole bytes.  Hence the digits read
    back in one borrow pass are the exact numerators (over F_p none is
    negative and none borrows); mod p they are reduced only then.  Before
    any of these integers is built, an evaluation of more than
    MAX_GRID_SLOTS slots, or of more than MAX_BUDGET bits in w size
    or in D, raises InputError: an exact power such as (t + t^2)^(10^9) is
    refused rather than computed.
    """
    for s in arc:
        if s.field is not field and s.field != field:
            raise InputError("mixed-field series arithmetic")
    n = math.lcm(*[s.ram for s in arc])
    p = field.characteristic
    comps = [None] * len(arc)
    top = None
    cden = 1  # lcm of the coefficients' denominators
    live = []  # (order, reach, coefficient, {component: exponent}) of each nonzero term
    for mono, c in terms.items():
        order = reach = 0
        width = None
        used = {}
        for i, e in enumerate(mono):
            if e:
                comp = comps[i]
                if comp is None:
                    comp = comps[i] = _component(arc[i], n)
                _, _, _, o, span, wide, _ = comp
                if o is None:
                    break
                order += e * o
                if wide is not None and (width is None or wide < width):
                    width = wide
                reach = None if span is None or reach is None else reach + e * span
                used[i] = e
        else:
            if width is not None and (top is None or order + width < top):
                top = order + width
            if reach is not None:
                live.append((order, order + reach + 1, c, used))
                if type(c) is not int:
                    cden = math.lcm(cden, c.denominator)
    if top is not None:
        live = [term for term in live if term[0] < top]
    if not live:
        return PuiseuxSeries._from_grid(field, n, ([], top, 1))
    low = min([term[0] for term in live])
    size = max([term[1] for term in live])
    size = (size if top is None or size < top else top) - low
    if size > MAX_GRID_SLOTS:
        raise InputError(f"arc evaluation spans {format_raw(size)} slots, more than {MAX_GRID_SLOTS}")
    exps = {}  # component -> the exponents nonzero terms give it
    for term in live:
        for i, e in term[3].items():
            if i in exps:
                exps[i].add(e)
            else:
                exps[i] = {e}
    most = {i: max(es) for i, es in exps.items() if comps[i][2] != 1}  # E_i where d_i != 1
    den = cden
    if most:
        if _clog2(cden) + sum([e * _clog2(comps[i][2]) for i, e in most.items()]) > MAX_BUDGET:
            raise InputError(f"arc evaluation needs a denominator of more than {MAX_BUDGET} bits")
        den *= math.prod([comps[i][2] ** e for i, e in most.items()])
    mults, bits = [], 0
    for _, _, c, used in live:
        u = c * cden if type(c) is int else c.numerator * (cden // c.denominator)
        b = 0
        for i, e in used.items():
            b += e * comps[i][6]
        for i, e in most.items():
            if e != used.get(i, 0):
                u *= comps[i][2] ** (e - used.get(i, 0))
        mults.append(u)
        b += _clog2(abs(u))
        if b > bits:
            bits = b
    # digits of whole bytes, 1, 2, 4 or 8 of them up to 64 bits
    w = bits + _clog2(len(live)) + 2
    w = 8 << _clog2(-(-w // 8)) if w <= 64 else -(-w // 8) * 8
    if w * size > MAX_BUDGET:
        raise InputError(f"arc evaluation needs more than {MAX_BUDGET} packed bits")
    mask = (1 << w * size) - 1
    powers = {}
    for i, es in exps.items():
        pairs, _, _, o, _, _, _ = comps[i]
        if pairs[-1][0] >= o + size:
            pairs = [kv for kv in pairs if kv[0] < o + size]
        x, prev = 0, pairs[-1][0]
        for k, v in reversed(pairs):
            x = (x << w * (prev - k)) + v
            prev = k
        x &= mask
        steps, prev, acc = {1: x}, 0, 1
        for e in sorted(es):
            step = steps.get(e - prev)
            if step is None:
                step = steps[e - prev] = binary_power(x, e - prev, lambda a, b: a * b & mask, 1)
            acc = powers[i, e] = acc * step & mask
            prev = e
    total = 0
    for (order, _, _, used), u in zip(live, mults):
        for f in used.items():
            u = u * powers[f] & mask
        total += u << w * (order - low)
    digits = _twos_digits(total & mask, size, w >> 3)
    if min(digits) < 0:  # the borrow pass: a negative digit took 1 from the next one
        digits = list(map(operator.add, digits, map(operator.lt, [0] + digits, repeat(0))))
    pairs = list(zip(compress(range(low, low + size), digits), filter(None, digits)))
    if p:
        pairs = [(k, r) for k, v in pairs if (r := v % p)]
    return PuiseuxSeries._from_grid(field, n, (pairs, top, den))


def _component(s: PuiseuxSeries, n: int) -> tuple:
    """The kernel triple (pairs, top, den) of s on the grid 1/n, followed by
    its order, the span from its order to its last index, its trusted width
    top - order and clog2 of the sum of |numerators|.  A zero series has no
    span and counts its truncation as its order; an exactly zero one has no
    order either.  Kept on s for the next evaluation on the same grid, as an
    arc oracle evaluates many polynomials on one arc."""
    packing = getattr(s, "_packing", None)
    if packing is not None and packing[0] == n:
        return packing[1]
    pairs, top, den = _grid(s, n)
    if pairs:
        o = pairs[0][0]
        comp = (pairs, top, den, o, pairs[-1][0] - o, None if top is None else top - o,
                _clog2(sum([abs(v) for _, v in pairs])))
    else:
        comp = (pairs, top, den, top, None, None if top is None else 0, 0)
    s._packing = (n, comp)
    return comp


_TERM_RE = re.compile(
    rf"t(?:\^(?:\((?P<paren>{_RATIONAL})\)|(?P<plain>{_RATIONAL})))?(?:\*(?P<coeff>{_RATIONAL}))?"
)


def parse_series(field: FieldSpec, text: str) -> PuiseuxSeries:
    """Parse the series literal grammar: ``t^(3/2)*1 + t^2*-1 | trunc 5 | N 2``.

    The coefficient suffix ``*c`` defaults to 1, the exponent to 1 (bare
    ``t``); a bare rational is a constant term.  The ``N`` part is advisory:
    the ramification index is recomputed from the content.  The literals
    are summed by ``_from_literals``, as the constructor sums its terms.
    """
    if not isinstance(text, str):
        raise InputError(f"series literal must be a string, got {text!r}")
    parts = [p.strip() for p in text.split("|")]
    trunc = None
    for extra in parts[1:]:
        if extra.startswith("trunc"):
            trunc = parse_ratio(extra[len("trunc"):])
        elif extra.startswith("N"):
            # validated, then recomputed
            num, den = parse_ratio(extra[1:])
            if num % den:
                raise InputError(f"ramification index {extra!r} is not an integer")
        elif extra:
            raise InputError(f"unknown series annotation {extra!r}")
    body = parts[0]
    p = field.characteristic
    literals = []
    if body not in ("", "0"):
        for chunk in body.split("+"):
            chunk = chunk.strip()
            if _RATIONAL_RE.fullmatch(chunk):
                q, (num, den) = (0, 1), _ratio(chunk, chunk)
            else:
                m = _TERM_RE.fullmatch(chunk)
                if not m:
                    raise InputError(f"bad series term {chunk!r}")
                exp = m.group("paren") or m.group("plain")
                q = _ratio(exp, exp) if exp is not None else (1, 1)
                coeff = m.group("coeff")
                num, den = _ratio(coeff, coeff) if coeff else (1, 1)
            # each literal is reduced by itself: a denominator divisible
            # by p is refused even where two terms would cancel
            if p:
                g = math.gcd(num, den)
                if den // g % p == 0:
                    raise DivisionByZero(f"denominator divisible by {p}")
                num, den = num // g * pow(den // g, -1, p), 1
            literals.append((q, num, den))
    return _from_literals(field, trunc, literals)


def format_series(s: PuiseuxSeries) -> str:
    """Canonical form: ascending exponents, explicit ``*c`` coefficients."""
    chunks = []
    for k, v in s.pairs:
        text = format_raw(_raw(v, s.den))
        if k == 0:
            chunks.append(text)
            continue
        q = Fraction(k, s.ram)
        if q.denominator == 1 and q > 0:
            head = "t" if q == 1 else f"t^{format_raw(q)}"
        else:
            head = f"t^({format_raw(q)})"
        chunks.append(f"{head}*{text}")
    return " + ".join(chunks) or "0"
