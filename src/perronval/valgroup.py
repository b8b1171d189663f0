"""Exact ordered value groups.

Values are rational coordinate vectors over a declared generator tuple:
either (1) for rational contexts or (1, sqrt(d)) for a positive nonsquare d.
A `Value` stores them as integer numerators `nums` over one positive
denominator `den`, in lowest terms, so equal values store equal fields and
the group's arithmetic, signs and comparisons run on ints; `coords` is a
read-only Fraction view built on demand.  Both contexts admit exact
archimedean comparison, lattice membership and index via integer linear
algebra (one diagonal reduction, `smith_normal_form`), and detection of the
single rational dependence used to build Perron transforms.  Every
square-minor fact is one fraction-free determinant, `det_int`: that
relation by Cramer's rule, and through `minor` the adjugate of
`unimodular_inverse` and the minors that Perron checks read.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    AmbiguousRelation,
    ContextMismatch,
    InputError,
    NoRelation,
    NotASubgroup,
)
from .scalars import INFINITE, format_raw, parse_rational


def _is_square(n: int) -> bool:
    r = math.isqrt(n)
    return r * r == n


@dataclass(frozen=True)
class GeneratorContext:
    """RATIONAL: generator (1).  QUADRATIC(d): generators (1, sqrt(d))."""

    kind: str  # "rational" | "quadratic"
    d: int | None = None

    def __post_init__(self):
        if self.kind == "rational":
            if self.d is not None:
                raise InputError("rational context takes no d")
        elif self.kind == "quadratic":
            if not isinstance(self.d, int) or self.d <= 0 or _is_square(self.d):
                raise InputError("quadratic context needs a positive nonsquare d")
        else:
            raise InputError(f"unknown context kind {self.kind!r}")

    @property
    def dim(self) -> int:
        return 1 if self.kind == "rational" else 2

    def value(self, *coords) -> "Value":
        return Value(self, coords)

    def zero(self) -> "Value":
        return self.value(*([0] * self.dim))


RATIONAL = GeneratorContext("rational")


def quadratic(d: int) -> GeneratorContext:
    """The context (1, sqrt(d)) for an int d, one object per d while the
    cache holds it; identity is only a fast path, equal contexts match."""
    if type(d) is not int:
        raise InputError(f"quadratic context needs an int d, got {d!r}")
    return _quadratic(d)


@functools.lru_cache(maxsize=256)
def _quadratic(d: int) -> GeneratorContext:
    return GeneratorContext("quadratic", d)


def _check_context(a: GeneratorContext, b: GeneratorContext, what: str):
    if a is not b and a != b:
        raise ContextMismatch(what)


def _ratio(q):
    """(numerator, denominator) of a value coordinate or scale factor, which
    is an int (not a bool) or a Fraction."""
    if type(q) is int:
        return q, 1
    if isinstance(q, Fraction):
        return q.numerator, q.denominator
    raise InputError(f"value coordinates and scale factors are ints or Fractions, got {q!r}")


def _sign(nums, d) -> int:
    """Exact sign of a (d None) or of a + b*sqrt(d), for integers a, b."""
    a = nums[0]
    if d is None:
        return (a > 0) - (a < 0)
    b = nums[1]
    if a >= 0 and b >= 0:
        return int(a > 0 or b > 0)
    if a <= 0 and b <= 0:
        return -int(a < 0 or b < 0)
    # opposite signs: compare a^2 with d*b^2
    lhs, rhs = a * a, d * b * b
    return (lhs > rhs) - (lhs < rhs) if a > 0 else (lhs < rhs) - (lhs > rhs)


class Value:
    """Element of the ordered group, compared through its real embedding.

    ``nums`` are the integer numerators of the coordinates over the positive
    denominator ``den``, with gcd(den, *nums) = 1.  ``Value(context, coords)``
    (or ``context.value(*coords)``) takes int or Fraction coordinates;
    results of arithmetic are built by ``_make``.
    """

    __slots__ = ("context", "nums", "den")

    def __init__(self, context: GeneratorContext, coords):
        if len(coords) != context.dim:
            raise InputError("coordinate count does not match context")
        ratios = [_ratio(c) for c in coords]
        # each prime power in the lcm of reduced denominators is one of
        # them exactly, so gcd(den, *nums) is already 1
        den = math.lcm(*(q for _, q in ratios))
        self.context = context
        self.nums = tuple(p * (den // q) for p, q in ratios)
        self.den = den

    @property
    def coords(self) -> tuple:
        """The coordinates as Fractions, built on each read."""
        return tuple(Fraction(x, self.den) for x in self.nums)

    def _check(self, other: "Value"):
        if not isinstance(other, Value):
            raise ContextMismatch("values from different contexts")
        _check_context(self.context, other.context, "values from different contexts")

    def sign(self) -> int:
        return _sign(self.nums, self.context.d)

    def _diff(self, other):
        """Numerators and positive denominator of self - other, unreduced."""
        self._check(other)
        a, b, da, db = self.nums, other.nums, self.den, other.den
        if da == db:
            return [x - y for x, y in zip(a, b)], da
        return [x * db - y * da for x, y in zip(a, b)], da * db

    def _cmp(self, other) -> int:
        """sign(self - other), without building the difference."""
        return _sign(self._diff(other)[0], self.context.d)

    @property
    def is_zero(self) -> bool:
        return not any(self.nums)

    def __add__(self, other):
        self._check(other)
        a, b, da, db = self.nums, other.nums, self.den, other.den
        if da == db:
            return _make(self.context, [x + y for x, y in zip(a, b)], da)
        return _make(self.context, [x * db + y * da for x, y in zip(a, b)], da * db)

    def __sub__(self, other):
        return _make(self.context, *self._diff(other))

    def __neg__(self):
        return _make(self.context, [-x for x in self.nums], self.den)

    def scale(self, q) -> "Value":
        p, q = _ratio(q)
        return _make(self.context, [p * x for x in self.nums], q * self.den)

    # the comparisons and __eq__ stay in this class's own dict: the
    # benchmark's tracer counts them there
    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __eq__(self, other):
        if not isinstance(other, Value):
            return NotImplemented
        return (self.nums == other.nums and self.den == other.den
                and (self.context is other.context or self.context == other.context))

    def __hash__(self):
        return hash((self.nums, self.den))

    def __str__(self):
        return format_value(self)

    def __repr__(self):
        return f"Value({format_value(self)!r})"


def _make(context: GeneratorContext, nums, den: int) -> Value:
    """The value nums / den for integer nums and a positive den, brought to
    lowest terms by one gcd."""
    if den != 1:
        g = math.gcd(den, *nums)
        if g != 1:
            nums = [x // g for x in nums]
            den //= g
    v = object.__new__(Value)
    v.context, v.nums, v.den = context, tuple(nums), den
    return v


def pairing(exps, values) -> Value:
    """sum_i e_i * v_i for int coefficients e_i and nonempty values v_i of
    one context, over the shorter of the two sequences: one integer dot
    product over the lcm of the denominators of the terms it reads."""
    context = values[0].context
    terms = []
    den = 1
    for e, v in zip(exps, values):
        if type(e) is not int:
            raise InputError(f"pairing coefficients are ints, got {e!r}")
        if e:
            _check_context(context, v.context, "values from different contexts")
            terms.append((e, v))
            if den % v.den:
                den = math.lcm(den, v.den)
    sums = [0] * context.dim
    for e, v in terms:
        k = e * (den // v.den)
        sums = [s + k * x for s, x in zip(sums, v.nums)]
    return _make(context, sums, den)


@dataclass(frozen=True)
class ValueLattice:
    """Subgroup generated by a finite nonempty list of values."""

    context: GeneratorContext
    generators: tuple

    def __post_init__(self):
        if not self.generators:
            raise InputError("lattice needs at least one generator")
        for g in self.generators:
            _check_context(g.context, self.context, "lattice generator from a different context")


# ---------------------------------------------------------------------------
# Integer matrix utilities (exact, small sizes)

def det_int(m) -> int:
    """Determinant of a square integer matrix (rows: lists or tuples) by
    fraction-free elimination (Bareiss)."""
    a = [list(row) for row in m]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def minor(m, i, j) -> int:
    """Determinant of the square matrix m without row i and column j."""
    return det_int([[x for c, x in enumerate(row) if c != j] for r, row in enumerate(m) if r != i])


def unimodular_inverse(m):
    """Inverse of a determinant +-1 integer matrix (integer adjugate)."""
    d = det_int(m)
    if d not in (1, -1):
        raise InputError("matrix is not unimodular")
    return [[d * (-1) ** (i + j) * minor(m, j, i) for j in range(len(m))] for i in range(len(m))]


def smith_normal_form(m):
    """Return (U, S, V) with S = U * m * V diagonal and nonnegative, U and V
    unimodular.  S skips Smith's divisibility condition, which no caller reads;
    the name stays because the benchmark's tracer wraps this function by it."""
    s = [row[:] for row in m]
    rows = len(s)
    cols = len(s[0]) if rows else 0
    u = identity_matrix(rows)
    v = identity_matrix(cols)

    def swap_rows(i, j):
        s[i], s[j] = s[j], s[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for r in s:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]

    def add_row(src, dst, k):
        for c in range(cols):
            s[dst][c] += k * s[src][c]
        for c in range(rows):
            u[dst][c] += k * u[src][c]

    def add_col(src, dst, k):
        for r in s:
            r[dst] += k * r[src]
        for r in v:
            r[dst] += k * r[src]

    t = 0
    while t < min(rows, cols):
        # find a pivot
        pr = pc = None
        for i in range(t, rows):
            for j in range(t, cols):
                if s[i][j] != 0:
                    pr, pc = i, j
                    break
            if pr is not None:
                break
        if pr is None:
            break
        swap_rows(t, pr)
        swap_cols(t, pc)
        while True:
            done = True
            for i in range(t + 1, rows):
                if s[i][t] != 0:
                    q = s[i][t] // s[t][t]
                    add_row(t, i, -q)
                    if s[i][t] != 0:
                        swap_rows(t, i)
                    done = False
            for j in range(t + 1, cols):
                if s[t][j] != 0:
                    q = s[t][j] // s[t][t]
                    add_col(t, j, -q)
                    if s[t][j] != 0:
                        swap_cols(t, j)
                    done = False
            if done:
                break
        if s[t][t] < 0:
            add_row(t, t, -2)  # negate row: r <- r - 2r
        t += 1
    return u, s, v


def _rows(values):
    """Integer numerator rows of values over their common denominator."""
    den = math.lcm(*(v.den for v in values))
    return [[x * (den // v.den) for x in v.nums] for v in values]


def _round_half_even(p: int, q: int) -> int:
    """p / q rounded to the nearest int, ties to even, for q > 0."""
    k, r = divmod(p, q)
    return k + (2 * r > q or (2 * r == q and k % 2 == 1))


def member(v: Value, lattice: ValueLattice):
    """Integer coordinates of v over the lattice generators, or None."""
    _check_context(v.context, lattice.context, "value and lattice contexts differ")
    rows = _rows([*lattice.generators, v])
    g, w = rows[:-1], rows[-1]
    k = len(g)
    dim = len(w)
    u, s, vmat = smith_normal_form(g)
    # solve y S = w V, then x = y U
    wv = [sum(w[i] * vmat[i][j] for i in range(dim)) for j in range(dim)]
    y = [0] * k
    for i in range(dim):
        sii = s[i][i] if i < k else 0
        if sii != 0:
            if wv[i] % sii != 0:
                return None
            y[i] = wv[i] // sii
        elif wv[i] != 0:
            return None
    x = [sum(y[i] * u[i][j] for i in range(k)) for j in range(k)]
    # size-reduce by the relation kernel so small canonical answers come out
    kernel = [u[i] for i in range(k) if i >= dim or s[i][i] == 0]
    changed = True
    while changed:
        changed = False
        for kr in kernel:
            t = _round_half_even(sum(a * b for a, b in zip(x, kr)), sum(c * c for c in kr))
            if t:
                x = [a - t * b for a, b in zip(x, kr)]
                changed = True
    # exactness check
    back = pairing(x, lattice.generators)
    if back.nums != v.nums or back.den != v.den:
        return None
    return tuple(x)


def lattice_index(big: ValueLattice, small: ValueLattice):
    """Group index [big : small]; INFINITE when the ranks differ.

    Requires small to actually be a subgroup of big (NOT-A-SUBGROUP else).
    Both generator matrices, over one common denominator, are brought to
    diagonal form: the nonzero diagonal entries count the rank, and their
    product is the index of the lattice in its saturation.  A subgroup of
    equal rank has the same saturation, so the quotient of the two products
    is the index.
    """
    _check_context(big.context, small.context, "lattice contexts differ")
    for g in small.generators:
        if member(g, big) is None:
            raise NotASubgroup(f"{g} is not in the big lattice")
    rows = _rows(big.generators + small.generators)
    k = len(big.generators)

    def nonzero_diagonal(part):
        return [x for row in smith_normal_form(part)[1] for x in row if x]

    big_diag, small_diag = nonzero_diagonal(rows[:k]), nonzero_diagonal(rows[k:])
    if len(big_diag) != len(small_diag):
        return INFINITE
    return math.prod(small_diag) // math.prod(big_diag)


def rational_relation(values):
    """Primitive integer relation (q_1..q_n, -q), q > 0, for a tuple of
    values whose first n entries are independent and whose last entry is
    rationally dependent on them: q * v_last = sum q_i * v_i.

    By Cramer's rule on the numerator rows over one common denominator: on
    the first n columns where the leading rows have a nonzero minor, r_i is
    (-1)^i times the minor without row i.  The relation is unique up to
    scale.
    """
    if len(values) < 2:
        raise InputError("need at least two values")
    context = values[0].context
    for v in values[1:]:
        _check_context(v.context, context, "values from different contexts")
    n = len(values) - 1
    rows = _rows(values)
    for cols in itertools.combinations(range(context.dim), n):
        square = [[row[c] for c in cols] for row in rows]
        if det_int(square[:n]):
            break
    else:
        raise AmbiguousRelation("the leading values are rationally dependent")
    r = [(-1) ** i * det_int(square[:i] + square[i + 1:]) for i in range(n + 1)]
    if any(sum(x * row[c] for x, row in zip(r, rows)) for c in range(context.dim)):
        raise NoRelation("last value is independent of the others")
    g = math.gcd(*r) * (1 if r[-1] < 0 else -1)
    return tuple(x // g for x in r)


# ---------------------------------------------------------------------------
# Value literals: `a` or `a + b*sqrt(d)` with rational a, b.

_SQRT_RE = re.compile(
    r"^\s*(?:(?P<a>-?\d+(?:/\d+)?)\s*(?P<sign>[+-])\s*)?"
    r"(?P<b>-?\d+(?:/\d+)?\s*\*\s*)?sqrt\((?P<d>\d+)\)\s*$"
)


def parse_value(context: GeneratorContext, text: str) -> Value:
    if not isinstance(text, str):
        raise InputError(f"value literal must be a string, got {text!r}")
    text = text.strip()
    m = _SQRT_RE.match(text)
    if m:
        if context.dim != 2:
            raise InputError("sqrt literal needs a quadratic context")
        d = int(parse_rational(m.group("d")))
        if d != context.d:
            raise InputError(f"sqrt({d}) does not match context sqrt({context.d})")
        a = parse_rational(m.group("a")) if m.group("a") else Fraction(0)
        b = parse_rational(m.group("b").rstrip(" *")) if m.group("b") else Fraction(1)
        if m.group("sign") == "-":
            b = -b
        return context.value(a, b)
    a = parse_rational(text)
    if context.dim == 1:
        return context.value(a)
    return context.value(a, 0)


def format_value(v: Value) -> str:
    if v.context.dim == 1:
        return format_raw(v.coords[0])
    a, b = v.coords
    if b == 0:
        return format_raw(a)
    broot = f"{format_raw(abs(b))}*sqrt({v.context.d})"
    if a == 0:
        return broot if b > 0 else f"-{broot}"
    return f"{format_raw(a)} {'+' if b > 0 else '-'} {broot}"
