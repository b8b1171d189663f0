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
on its integer grid 1/N as (index, raw value) pairs and a truncation index;
Fraction exponents appear only when a series is parsed or printed.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

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


@dataclass(frozen=True)
class FieldSpec:
    """Ground field: QQ for characteristic 0, F_p for prime p."""

    characteristic: int = 0

    def __post_init__(self):
        p = self.characteristic
        check_ints("the characteristic", p)
        if p != 0 and not is_prime(p):
            raise InputError(f"characteristic must be 0 or prime, got {p}")

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

    @property
    def zero(self) -> "Scalar":
        return self.scalar(0)

    @property
    def one(self) -> "Scalar":
        return self.scalar(1)


@dataclass(frozen=True)
class Scalar:
    """Field element holding the canonical raw value of ``FieldSpec.raw``,
    as polynomials and series store it; arithmetic is exact, never rounded."""

    field: FieldSpec
    value: object  # int in 0..p-1 (char p); over Q an int or a reduced Fraction

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
        if self.is_zero:
            raise DivisionByZero("inverse of zero")
        return self.field.scalar(Fraction(1, self.value))

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, k: int):
        if not isinstance(k, int):
            raise InputError("scalar powers must be integers")
        if k < 0:
            return self.inverse() ** (-k)
        # the modulus None makes it a plain power over Q
        return self.field.scalar(pow(self.value, k, self.field.characteristic or None))

    def __str__(self):
        return format_raw(self.value)

    def __repr__(self):
        return f"Scalar({self.value}, char={self.field.characteristic})"


_RATIONAL_RE = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def parse_rational(text: str) -> Fraction:
    """Read a rational literal ``-?d+(/d+)?`` in ASCII digits, surrounding
    blanks allowed.  Other text, a zero denominator, or more digits than the
    interpreter converts raise InputError."""
    m = _RATIONAL_RE.fullmatch(text.strip()) if isinstance(text, str) else None
    if m is None:
        raise InputError(f"bad rational literal {text!r}")
    try:
        num, den = int(m.group(1)), int(m.group(2) or 1)
    except ValueError as exc:
        raise InputError(f"rational literal too long: {exc}") from exc
    if den == 0:
        raise InputError(f"zero denominator in {text!r}")
    return Fraction(num, den)


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
    as ints.  Every stored polynomial and series term map comes out of it."""
    if p:
        return {key: r for key, v in items if (r := v % p)}
    return {key: v.numerator if v.denominator == 1 else v for key, v in items if v}


# A series is stored on its least integer grid (see ``PuiseuxSeries``), and
# the kernels lift it to a common grid 1/n with ``_grid``: a kernel triple
# (pairs, top, den) of ascending (index k, nonzero int numerator v) pairs,
# standing for the terms (v / den) t^(k/n), the truncation index top and
# one common denominator den.  Over F_p, den is 1 and the numerators are the
# raw values, so both fields run the same int arithmetic; values become
# canonical raw values again only in ``PuiseuxSeries._from_grid``.

def _grid(s: "PuiseuxSeries", n: int):
    """Kernel triple of s on the grid 1/n; n must be a multiple of s.ram."""
    f = n // s.ram
    pairs = s.pairs if f == 1 else [(k * f, v) for k, v in s.pairs]
    den = math.lcm(*[v.denominator for _, v in pairs if type(v) is not int])
    if den != 1:
        pairs = [(k, v.numerator * (den // v.denominator)) for k, v in pairs]
    return pairs, None if s.top is None else s.top * f, den


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
    identity ``one``; series and polynomial powers both run on it."""
    result = one
    while k:
        if k & 1:
            result = mul(result, a)
        k >>= 1
        if k:
            a = mul(a, a)
    return result


def _grid_pow(a, k: int, p: int):
    """a**k for k >= 0 on a grid series."""
    return binary_power(a, k, lambda x, y: _grid_mul(x, y, p), ([(0, 1)], None, 1))


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


class PuiseuxSeries:
    """Finite sum of terms c * t^q with rational q, trusted below ``trunc``.

    Stored on the grid 1/``ram``: ``pairs`` holds the ascending (index k,
    canonical raw value c) pairs of the terms c t^(k/ram) and ``top`` the
    truncation index trunc * ram, None when the series is exact.  ``ram`` is
    always the least such grid, the lcm of the exponent denominators and the
    truncation's, so equal series compare equal.  ``terms`` and ``trunc``
    are read-only views in Fraction exponents.  Exponents may be negative in
    intermediate computations; declared arc components are checked elsewhere.
    """

    __slots__ = ("field", "ram", "pairs", "top")

    def __init__(self, field: FieldSpec, terms=None, trunc=None):
        if trunc is not None:
            trunc = _exponent(trunc)
        acc = {}
        for q, c in (terms or {}).items():
            q = _exponent(q)
            c = field.raw(c)
            if trunc is None or q < trunc:
                acc[q] = acc.get(q, 0) + c
        terms = reduce_raw(acc.items(), field.characteristic)
        dens = [q.denominator for q in terms]
        if trunc is not None:
            dens.append(trunc.denominator)
        n = math.lcm(*dens)
        self.field, self.ram = field, n
        self.top = None if trunc is None else trunc.numerator * (n // trunc.denominator)
        _check_slots(self.top, n)
        self.pairs = tuple(sorted((q.numerator * (n // q.denominator), c) for q, c in terms.items()))

    @property
    def terms(self) -> dict:
        """{Fraction exponent: raw value}, built on each call."""
        return {Fraction(k, self.ram): c for k, c in self.pairs}

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
        return self.field.scalar(self.pairs[0][1])

    def _coerce(self, other):
        if isinstance(other, PuiseuxSeries):
            if other.field != self.field:
                raise InputError("mixed-field series arithmetic")
            return other
        return PuiseuxSeries(self.field, {Fraction(0): other})

    def __add__(self, other):
        other = self._coerce(other)
        n = math.lcm(self.ram, other.ram)
        grid = _grid_sum([_grid(self, n), _grid(other, n)], self.field.characteristic)
        return PuiseuxSeries._from_grid(self.field, n, grid)

    __radd__ = __add__

    def __neg__(self):
        p = self.field.characteristic
        pairs = [(k, -c % p if p else -c) for k, c in self.pairs]
        return PuiseuxSeries._from_grid(self.field, self.ram, (pairs, self.top, 1))

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        n = math.lcm(self.ram, other.ram)
        grid = _grid_mul(_grid(self, n), _grid(other, n), self.field.characteristic)
        return PuiseuxSeries._from_grid(self.field, n, grid)

    __rmul__ = __mul__

    def inverse(self) -> "PuiseuxSeries":
        """Multiplicative inverse.

        For an exact single-term series the inverse is exact, and an exact
        series of more terms raises InputError.  Otherwise the series is
        c t^q (1 + u) and (1 + u)^-1 = b_0 + b_1 t^(1/N) + ... is read off the
        recurrence b_0 = 1, b_k = -sum_{j>=1} a_j b_{k-j}, where a_j is the
        coefficient of t^(j/N) in u, over the W = U N slots below u's
        truncation U, the series' own truncation less q.  Only sums and
        products occur, so it is exact in every characteristic.
        """
        if not self.pairs:
            raise DivisionByZero("inverse of a zero series")
        field = self.field
        lead_inv = field.raw(self.leading_coeff().inverse())
        n = self.ram
        if self.top is None:
            if len(self.pairs) > 1:
                raise InputError("inverse of an exact multi-term series needs a truncation")
            return PuiseuxSeries._from_grid(field, n, ([(-self.pairs[0][0], lead_inv)], None, 1))
        width = self.top - self.pairs[0][0]
        _check_slots(width, n)
        p = field.characteristic
        ((q0, _), *rest), _, den = _grid(self, n)
        # a_j = (v_j / den) / c_0; over F_p den is 1
        scale = lead_inv if den == 1 else Fraction(lead_inv, den)
        unit = [(k - q0, v * scale) for k, v in rest]
        b = [1]  # width > 0: every term lies below the truncation
        for k in range(1, width):
            acc = 0
            for j, a in unit:
                if j > k:
                    break
                acc -= a * b[k - j]
            b.append(acc % p if p else acc)
        pairs = sorted(reduce_raw(((k - q0, v * lead_inv) for k, v in enumerate(b)), p).items())
        return PuiseuxSeries._from_grid(field, n, (pairs, width - q0, 1))

    def __pow__(self, k: int):
        if not isinstance(k, int):
            raise InputError("series powers must be integers")
        if k < 0:
            return self.inverse() ** (-k)
        grid = _grid_pow(_grid(self, self.ram), k, self.field.characteristic)
        return PuiseuxSeries._from_grid(self.field, self.ram, grid)

    @classmethod
    def _from_grid(cls, field, n, grid) -> "PuiseuxSeries":
        """Series of a kernel triple (pairs, top, den) on 1/n: ascending
        (index, nonzero numerator) pairs over the common denominator den, all
        below the truncation index top (None when exact).  Each value over
        den > 1 costs one gcd; with den = 1 the values are stored as they
        come, so they must be canonical raw values.  One gcd over n, top and
        the indices moves the series to its least grid, and a truncation
        beyond MAX_GRID_SLOTS there is refused, as the constructor refuses
        it: every series the kernels build keeps to that bound."""
        pairs, top, den = grid
        if den != 1:
            pairs = [(k, c.numerator if (c := Fraction(v, den)).denominator == 1 else c)
                     for k, v in pairs]
        g = math.gcd(n, top or 0, *(k for k, _ in pairs))
        if g != 1:
            n //= g
            pairs = [(k // g, c) for k, c in pairs]
            top = None if top is None else top // g
        _check_slots(top, n)
        s = cls.__new__(cls)
        s.field, s.ram, s.pairs, s.top = field, n, tuple(pairs), top
        return s

    def truncated(self, trunc) -> "PuiseuxSeries":
        return PuiseuxSeries(self.field, self.terms, _tmin(self.trunc, _exponent(trunc)))

    def __eq__(self, other):
        if not isinstance(other, PuiseuxSeries):
            return NotImplemented
        return (
            self.field == other.field
            and self.ram == other.ram
            and self.top == other.top
            and self.pairs == other.pairs
        )

    def __hash__(self):
        return hash((self.field, self.ram, self.pairs, self.top))

    def __str__(self):
        return format_series(self)

    def __repr__(self):
        return f"PuiseuxSeries({format_series(self)!r})"


def evaluate_monomials(field: FieldSpec, terms: dict, arc) -> PuiseuxSeries:
    """Sum of c * arc[0]^e_0 * ... * arc[m-1]^e_{m-1} over the items
    (e, c) of ``terms``, computed on one grid 1/N (N the lcm of the arc's
    ramifications) with the series product and power, and cut at the least
    truncation of its terms.  Each term's piece starts from the numerator
    and denominator of its coefficient; the pieces are summed on the lcm of
    their denominators."""
    if any(s.field != field for s in arc):
        raise InputError("mixed-field series arithmetic")
    n = math.lcm(*(s.ram for s in arc))
    p = field.characteristic
    grids = [_grid(s, n) for s in arc]
    powers = {}
    pieces = []
    for mono, c in terms.items():
        piece = ([(0, c.numerator)], None, c.denominator)
        for i, e in enumerate(mono):
            if e:
                if (i, e) not in powers:
                    powers[i, e] = _grid_pow(grids[i], e, p)
                piece = _grid_mul(piece, powers[i, e], p)
        pieces.append(piece)
    return PuiseuxSeries._from_grid(field, n, _grid_sum(pieces, p))


_TERM_RE = re.compile(
    r"^t(?:\^(?:\((?P<paren>-?\d+(?:/\d+)?)\)|(?P<plain>-?\d+(?:/\d+)?)))?"
    r"(?:\*(?P<coeff>-?\d+(?:/\d+)?))?$"
)
_CONST_RE = re.compile(r"^-?\d+(?:/\d+)?$")


def parse_series(field: FieldSpec, text: str) -> PuiseuxSeries:
    """Parse the series literal grammar: ``t^(3/2)*1 + t^2*-1 | trunc 5 | N 2``.

    The coefficient suffix ``*c`` defaults to 1, the exponent to 1 (bare
    ``t``); a bare rational is a constant term.  The ``N`` part is advisory:
    the ramification index is recomputed from the content.
    """
    if not isinstance(text, str):
        raise InputError(f"series literal must be a string, got {text!r}")
    parts = [p.strip() for p in text.split("|")]
    trunc = None
    for extra in parts[1:]:
        if extra.startswith("trunc"):
            trunc = parse_rational(extra[len("trunc"):])
        elif extra.startswith("N"):
            # validated, then recomputed
            if parse_rational(extra[1:]).denominator != 1:
                raise InputError(f"ramification index {extra!r} is not an integer")
        elif extra:
            raise InputError(f"unknown series annotation {extra!r}")
    body = parts[0].strip()
    terms = {}
    if body not in ("", "0"):
        for chunk in body.split("+"):
            chunk = chunk.strip()
            if _CONST_RE.match(chunk):
                q, c = Fraction(0), parse_rational(chunk)
            else:
                m = _TERM_RE.match(chunk)
                if not m:
                    raise InputError(f"bad series term {chunk!r}")
                exp = m.group("paren") or m.group("plain")
                q = parse_rational(exp) if exp is not None else Fraction(1)
                c = parse_rational(m.group("coeff")) if m.group("coeff") else Fraction(1)
            # each literal is reduced by itself: a denominator divisible
            # by p is refused even where two terms would cancel
            terms[q] = terms.get(q, 0) + field.raw(c)
    return PuiseuxSeries(field, terms, trunc)


def format_series(s: PuiseuxSeries) -> str:
    """Canonical form: ascending exponents, explicit ``*c`` coefficients."""
    chunks = []
    for k, c in s.pairs:
        text = format_raw(c)
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
