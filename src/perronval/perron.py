"""Perron transforms: unimodular nonnegative monomial substitutions.

Two kinds.  A6 acts on the independent block x_1..x_n as a pure monomial
Cremona map; A1 additionally mixes in the last variable through a translated
factor (x_m(1) + c) with c a nonzero residue.  Matrices are built by
generalized subtractive (Euclidean) steps on the value vector: at each step
the coordinate of minimal positive value is subtracted from another
coordinate, composing elementary unimodular matrices.  The walks run on the
integer numerator rows of the values over one common denominator, ordered
by the exact sign of a or a + b*sqrt(d) (`valgroup._sign`), so no `Value`
is built or compared inside a loop; equal values have equal rows.
``build_a1`` is built for one independent variable (n = 1, every
plane-curve macro-step) and refuses any other n: its walk is the
continued-fraction expansion of value(x_m) / value(x_1), where the two
rows are proportional, and one floor division per partial quotient takes
a whole run of equal subtractive steps and gives the same matrix.  The
step bound (``--max-perron-steps``) still counts subtractive steps, the
sum of the partial quotients.  In higher rank the divisibility goal of the
A6 loop terminates by the classical Perron-algorithm argument.  A matrix a
walk composes is nonnegative with determinant 1 by construction, so its
transform skips the constructor's entry scan and determinant; a matrix
read from a document or passed to the constructor keeps every check.
``monomialize`` relabels exponent vectors, e -> e M, and no round
substitutes a polynomial.  Values of two contexts are refused up front.

The Cramer identity checker uses the sign-corrected consequence of the
equal-value linear system: with A the transposed matrix and
gamma = sum_i a_{i,n+1} (e_i - d_i), equal-value exponent vectors d, e
satisfy d_i - e_i = (-1)^(n+i) * gamma * Det(A_{n+1,i}).
"""

from __future__ import annotations

from operator import mul

from .errors import (
    AmbiguousRelation,
    InputError,
    NoRelation,
    PreconditionError,
    StepBoundExceeded,
    Unsupported,
    ValueMismatch,
)
from .oracle import _required, _typed
from .poly import Polynomial, VariableFrame
from .scalars import FieldSpec, Scalar, check_ints, parse_integer, parse_rational
from .valgroup import (
    Value,
    _check_context,
    _rows,
    _sign,
    det_int,
    identity_matrix,
    minor,
    pairing,
    unimodular_inverse,
)

DEFAULT_STEP_BOUND = 10_000


class PerronTransform:
    """Substitution data: rows are old active variables (x_1..x_n and, for
    A1, x_m), columns the new ones (x_1(1)..x_n(1) and the (x_m(1)+c) slot).
    """

    __slots__ = ("kind", "matrix", "frame", "c", "_new_frame", "_inv", "_images")

    def __init__(self, kind: str, matrix: tuple, frame: VariableFrame, c: Scalar | None = None):
        n = frame.n
        size = n if kind == "A6" else n + 1
        if kind not in ("A6", "A1"):
            raise InputError(f"unknown transform kind {kind!r}")
        if len(matrix) != size or any(len(r) != size for r in matrix):
            raise InputError(f"{kind} matrix must be {size}x{size}")
        if any(type(e) is not int or e < 0 for row in matrix for e in row):
            raise InputError("Perron matrix entries are nonnegative ints")
        if det_int(matrix) != 1:
            raise InputError("Perron matrices have determinant 1")
        self._set(kind, matrix, frame, c)

    def _set(self, kind, matrix, frame, c):
        self.kind, self.matrix, self.frame, self.c = kind, matrix, frame, c  # kind: "A6" | "A1"
        self._check_constant()
        self._new_frame = frame.bumped()
        self._inv = self._images = None  # memo entries, filled on first use

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.kind, self.matrix, self.frame, self.c)
                == (other.kind, other.matrix, other.frame, other.c))

    def _check_constant(self):
        if self.kind == "A1":
            if self.frame.n >= self.frame.m:
                raise InputError("A1 transforms need a dependent last variable (n < m)")
            if self.c is None or self.c.is_zero:
                raise InputError("A1 transforms need a nonzero constant c")
        elif self.c is not None:
            raise InputError("A6 transforms take no constant")

    @classmethod
    def _walked(cls, kind: str, matrix: tuple, frame: VariableFrame, c: Scalar | None = None):
        """The transform of a matrix that a walk composed from elementary
        steps on nonnegative ints, each of determinant 1, so the entry scan
        and ``det_int`` are skipped; the kind's checks on n and c remain."""
        tau = object.__new__(cls)
        tau._set(kind, matrix, frame, c)
        return tau

    @property
    def size(self) -> int:
        return len(self.matrix)

    def active_indices(self):
        n = self.frame.n
        idx = list(range(n))
        if self.kind == "A1":
            idx.append(self.frame.m - 1)
        return idx

    def new_frame(self) -> VariableFrame:
        """The frame of the new variables, set when the transform is built."""
        return self._new_frame

    def _inverse(self) -> list:
        """The integer inverse of the matrix, computed on first use (``build_a1``
        hands over the one it read the residue from)."""
        inverse = self._inv
        if inverse is None:
            inverse = self._inv = unimodular_inverse(self.matrix)
        return inverse

    def substitute(self, f: Polynomial) -> Polynomial:
        """The monomial image of f, one monomial per old variable read from
        the matrix rows.  For A1 the new last variable stands for the unit
        u = x_m(1) + c, so the image in x_m(1) is this one under the shift
        u -> x_m(1) + c; ``Polynomial.strict_transform`` reads it as it is.

        Each image is one exponent vector of the new frame, read from the
        matrix rows on the first substitution and kept in a plain memo.
        """
        if f.frame is not self.frame and f.frame != self.frame:
            raise InputError("polynomial frame does not match the transform")
        if self.c is not None and f.field is not self.c.field and f.field != self.c.field:
            raise InputError("polynomial over another field than the transform's constant")
        images = self._images
        if images is None:
            # a passive variable is its own image; an active one spreads its
            # matrix row over the active slots
            m, active = self.frame.m, self.active_indices()
            images = [[int(i == j) for j in range(m)] for i in range(m)]
            for i, row in zip(active, self.matrix):
                for j, e in zip(active, row):
                    images[i][j] = e
            images = self._images = [tuple(v) for v in images]
        return f.substitute_map(self._new_frame, images)

    def transformed_weights(self, values):
        """Values of the new variables given the old active values.

        For A6 pass the n active values; for A1 pass (w_1..w_n, gamma_m).
        The returned vector solves M v' = v; for A1 its last slot is the
        value 0 of the unit (x_m(1) + c).
        """
        if len(values) != self.size:
            raise InputError("value count does not match the matrix size")
        out = [pairing(row, values) for row in self._inverse()]
        if self.kind == "A1" and not out[-1].is_zero:
            raise InputError("A1 inverse did not send the unit slot to value 0")
        return out

    def transform_arc(self, arc):
        """Arc components of the new variables, inverting the monomial map:
        each is the product of the old active components raised to a row of
        the inverse matrix.

        A negative power inverts its series, which raises InputError for a
        component that is exact but not monomial.
        """
        n = self.frame.n
        active = self.active_indices()
        new_active = []
        for row in self._inverse():
            piece = None
            for j, e in zip(active, row):
                if e:
                    factor = arc[j] ** e
                    piece = factor if piece is None else piece * factor
            new_active.append(piece)
        out = list(arc)
        for j in range(n):
            out[active[j]] = new_active[j]
        if self.kind == "A1":
            out[self.frame.m - 1] = new_active[n] - self.c
        return tuple(out)

    def document(self) -> dict:
        doc = {"kind": self.kind, "matrix": [list(r) for r in self.matrix]}
        if self.c is not None:
            doc["c"] = str(self.c)
        return doc

    @classmethod
    def from_document(cls, doc: dict, frame: VariableFrame, field: FieldSpec):
        """Transform from its trace document; a missing key, a constant that
        is not a rational literal or a matrix entry that is not an integer
        raises InputError."""
        rows = _typed(_required(doc, "matrix", "transform"), list, "transform matrix")
        c = field.scalar(parse_rational(doc["c"])) if "c" in doc else None
        return cls(
            kind=_required(doc, "kind", "transform"),
            matrix=tuple(
                tuple(parse_integer(e, "matrix entry") for e in _typed(row, list, "matrix row"))
                for row in rows
            ),
            frame=frame,
            c=c,
        )


def _extreme(rows, indices, d, s):
    """The first of ``indices`` whose row is largest (s = 1) or smallest
    (s = -1), None for no indices: argmax by (value, -index), argmin by
    (value, index).  Rows are compared by the exact sign of their
    difference, in Q (d None) and in Q(sqrt d)."""
    best = None
    for i in indices:
        if best is None or s * _sign([x - y for x, y in zip(rows[i], rows[best])], d) > 0:
            best = i
    return best


def _one_context(values):
    """The context of ``values``: every Perron construction refuses values
    of two contexts up front, whether or not a comparison would read them."""
    context = values[0].context
    for v in values:
        _check_context(v.context, context, "values from different contexts")
    return context


def _a6_checks(m1, m2, n):
    """The exponent vectors' checks of an A6 division."""
    if len(m1) < n or len(m2) < n:
        raise InputError("exponent vectors shorter than the active block")
    if any(m1[n:]) or any(m2[n:]):
        raise PreconditionError("monomials must be supported on x_1..x_n")


def _a6_walk(delta, rows, d, bound):
    """The A6 matrix making the exponent difference ``delta`` nonnegative.

    Each step subtracts the smallest row from the largest other one, and
    ``rows`` are left as the rows of the new variables' values; a ``delta``
    without negative entries gives the identity and reads no row."""
    n = len(delta)
    matrix = identity_matrix(n)
    steps = 0
    while any(x < 0 for x in delta):
        if steps >= bound:
            raise StepBoundExceeded("A6 divisibility loop exceeded the bound")
        i_sub = _extreme(rows, range(n), d, -1)
        # the minimum's row is below every row that differs from it
        j_from = _extreme(rows, [j for j in range(n) if rows[j] != rows[i_sub]], d, 1)
        if j_from is None:
            raise StepBoundExceeded("no legal subtractive step remains")
        # subtract row i_sub from row j_from, and let column i_sub of the
        # matrix absorb column j_from (old = matrix * new); exponents move
        # the other way
        rows[j_from] = [x - y for x, y in zip(rows[j_from], rows[i_sub])]
        for r in matrix:
            r[i_sub] += r[j_from]
        delta[i_sub] += delta[j_from]
        steps += 1
    return tuple(tuple(r) for r in matrix)


def build_a6_divide(m1, m2, weights, frame: VariableFrame,
                    bound: int = DEFAULT_STEP_BOUND) -> PerronTransform:
    """Perron transform of type A6 making the substituted M1 divide the
    substituted M2 (Lemma-11 style divisibility for value-ordered monomials
    supported on x_1..x_n)."""
    n = frame.n
    m1 = tuple(m1)
    m2 = tuple(m2)
    _a6_checks(m1, m2, n)
    if len(weights) < n:
        raise InputError("need a weight per active variable")
    w = list(weights[:n])
    d = _one_context(w).d
    if not pairing(m1, w) < pairing(m2, w):
        raise PreconditionError("need value(M1) < value(M2)")
    delta = [m2[j] - m1[j] for j in range(n)]
    rows = _rows(w) if min(delta) < 0 else None  # only the walk reads them
    return PerronTransform._walked("A6", _a6_walk(delta, rows, d, bound), frame)


def _a1_division(rows, d, bound):
    """The A1 matrix for n = 1: the continued fraction of value(x_m) / w on
    the numerator rows (w, gamma) of the two values, one floor division per
    partial quotient.

    The subtractive walk subtracts w from gamma while w <= gamma and gamma
    from w while w > gamma, until gamma is 0; a run of q equal steps is
    one division, and the matrix is the product of the same elementary
    steps.  The relation is row proportionality, and ``bound`` counts
    subtractive steps, the sum of the partial quotients, so each error is
    raised on exactly the inputs where the walk raises it."""
    w, g = rows
    k = next((k for k, x in enumerate(w) if x), None)
    if k is None:
        raise AmbiguousRelation("the leading values are rationally dependent")
    if any(x * g[k] != y * w[k] for x, y in zip(w, g)):
        raise NoRelation("last value is independent of the others")
    if _sign(w, d) < 0:  # the walk would add |w| to gamma at every step
        raise StepBoundExceeded("A1 construction exceeded the step bound")
    # gamma / w = b / a with a, b > 0: the walk compares the ints a and b
    a, b = abs(w[k]), abs(g[k])
    m00, m01, m10, m11 = 1, 0, 0, 1
    steps = 0
    while b:
        if a <= b:  # gamma -= w, q times: column 0 absorbs column 1
            q, b = divmod(b, a)
            m00 += q * m01
            m10 += q * m11
        else:  # w -= gamma while w > gamma: column 1 absorbs column 0
            q = (a - 1) // b
            a -= q * b
            m01 += q * m00
            m11 += q * m10
        steps += q
        if steps > bound:
            raise StepBoundExceeded("A1 construction exceeded the step bound")
    return (m00, m01), (m10, m11)


def build_a1(weights, gamma: Value, frame: VariableFrame, *, residue,
             bound: int = DEFAULT_STEP_BOUND) -> PerronTransform:
    """Perron transform of type A1 for the value w_1 of the one independent
    variable (n = 1; any other n raises Unsupported) and a rationally
    dependent positive gamma = value(x_m).

    ``residue`` is a callable taking the Laurent exponent vector of the unit
    monomial over (x_1, x_m) and returning its residue, the nonzero
    constant c.
    """
    if frame.n != 1:
        raise Unsupported(
            f"A1 transforms are built for one independent variable, got n = {frame.n}"
        )
    if not weights:
        raise InputError("need a weight per active variable")
    w = [weights[0], gamma]
    context = _one_context(w)
    if gamma.sign() <= 0:
        raise PreconditionError("gamma must be positive")
    matrix = _a1_division(_rows(w), context.d, bound)
    inverse = unimodular_inverse(matrix)
    # PerronTransform refuses a zero residue
    tau = PerronTransform._walked("A1", matrix, frame, residue(tuple(inverse[1])))
    tau._inv = inverse  # the memo entry of _inverse: one inversion
    return tau


class MonomializeResult:
    __slots__ = ("transforms", "exponents", "unit")

    def __init__(self, transforms: tuple, exponents: tuple, unit: Polynomial):
        self.transforms, self.exponents, self.unit = transforms, exponents, unit

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.transforms, self.exponents, self.unit)
                == (other.transforms, other.exponents, other.unit))


def monomialize(g: Polynomial, weights, frame: VariableFrame,
                bound: int = DEFAULT_STEP_BOUND) -> MonomializeResult:
    """Repeated Lemma-11 divisions turning g (supported on x_1..x_n up to
    unused variables) into monomial times unit.

    The rounds run on g's term map.  Each values the terms by integer dot
    products with the weights' rows, which its A6 walk leaves as the rows
    of the new variables (old = M * new), so no round inverts.  An A6
    transform is unimodular and sends x^e to x'^(e M), distinct terms to
    distinct terms with the same coefficient, so a round relabels the
    exponent vectors and substitutes no polynomial; the unit is built once,
    in the last frame."""
    if g.is_zero:
        raise PreconditionError("cannot monomialize zero")
    n = frame.n
    for mono in g.terms:
        if any(mono[n:]):
            raise Unsupported(
                "monomialization needs support in the independent block"
            )
    if len(weights) < n:
        raise InputError("need a weight per active variable")
    w = list(weights[:n])
    d = _one_context(w).d
    rows = _rows(w)
    if g.frame is not frame and g.frame != frame:  # as tau.substitute would
        raise InputError("polynomial frame does not match the transform")
    transforms = []
    terms = g.terms
    rounds = 0
    while True:
        if rounds > bound:
            raise StepBoundExceeded("monomialization exceeded the step bound")
        rounds += 1
        support = sorted(terms)
        cols = list(zip(*rows))
        values = [[sum(map(mul, mono, col)) for col in cols] for mono in support]
        best = _extreme(values, range(len(values)), d, -1)
        # one denominator and one representation: equal values, equal rows
        if values.count(values[best]) > 1:
            raise Unsupported("minimal-value monomial is not unique")
        mmin = support[best]
        offender = None
        for mono in support:
            if any(a < b for a, b in zip(mono, mmin)):
                offender = mono
                break
        if offender is None:
            unit = Polynomial._from_raw(frame, g.field, {
                tuple([a - b for a, b in zip(mono, mmin)]): c for mono, c in terms.items()})
            if unit.constant_term().is_zero:
                raise Unsupported("residual factor is not a unit at the origin")
            return MonomializeResult(tuple(transforms), mmin, unit)
        # value(mmin) < value(offender): mmin is the unique minimum
        _a6_checks(mmin, offender, n)
        delta = [offender[j] - mmin[j] for j in range(n)]
        matrix = _a6_walk(delta, rows, d, bound)
        tau = PerronTransform._walked("A6", matrix, frame)
        transforms.append(tau)
        # x^e -> x'^(e M) on x_1..x_n; the passive exponents are kept
        mcols = list(zip(*matrix))
        terms = {tuple([sum(map(mul, mono, col)) for col in mcols]) + mono[n:]: c
                 for mono, c in terms.items()}
        frame = tau.new_frame()


def verify_cramer(tau: PerronTransform, d, e, values) -> bool:
    """Check the determinant identity for an equal-value exponent pair under
    an A1 transform; exact integer arithmetic, tolerance zero."""
    if tau.kind != "A1":
        raise InputError("the Cramer identity concerns A1 transforms")
    size = tau.size
    d, e = tuple(d), tuple(e)
    check_ints("an exponent", *d, *e)
    if len(d) != size or len(e) != size:
        raise InputError("exponent vectors must have length n+1")
    if len(values) != size:
        raise InputError("need the n+1 old active values")
    if pairing(d, values) != pairing(e, values):
        raise ValueMismatch("the two monomials do not have equal value")
    n = size - 1
    gamma = sum(tau.matrix[i][n] * (e[i] - d[i]) for i in range(size))
    # Det(A_{n+1,i}) of the transpose A is the (i, n) minor of the matrix;
    # the sign (-1)^(n+i) is 1-based, i here 0-based
    return all(d[i] - e[i] == (-1) ** (n + 1 + i) * gamma * minor(tau.matrix, i, n)
               for i in range(size))
