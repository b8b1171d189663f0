"""Sparse multivariate polynomials with a distinguished last variable.

Polynomials are finite maps from exponent vectors to nonzero raw field
values (``FieldSpec.raw``) over a variable frame x_1..x_m.  The last
variable carries the hypersurface structure: expansion in x_m, order of
f(0,..,0,x_m), translation, division, and the strict transform after a
monomial substitution.  Canonical printing uses
graded lexicographic order with x_m least significant, so traces and golden
files are deterministic.
"""

from __future__ import annotations

import re
from fractions import Fraction
from operator import add, mul, sub

from .errors import DivisionByZero, FrameMismatch, InputError
from .scalars import (
    INFINITE,
    MAX_BUDGET,
    MAX_GRID_SLOTS,
    FieldSpec,
    PuiseuxSeries,
    Scalar,
    _frozen,
    _ratio,
    binary_power,
    check_ints,
    evaluate_monomials,
    format_raw,
    parse_integer,
    reduce_raw,
)

Mono = tuple  # exponent vector of length frame.m

# Most variables a frame may have.  Every term of a polynomial carries an
# m-long exponent vector, so a ring such as m = 10^6 is refused before any
# polynomial is parsed.
MAX_VARIABLES = 64


class VariableFrame:
    """m variables x_1..x_m, the first n rationally independent for the
    active valuation; generation counts the renamings x_i(1), x_i(2), ...
    """

    __slots__ = ("m", "n", "generation")
    __setattr__ = __delattr__ = _frozen

    def __init__(self, m: int, n: int, generation: int = 0):
        check_ints("m, n or the generation", m, n, generation)
        if not (1 <= n <= m):
            raise InputError(f"need 1 <= n <= m, got n={n}, m={m}")
        if m > MAX_VARIABLES:
            raise InputError(f"m={m} is above the limit of {MAX_VARIABLES} variables")
        if generation < 0:
            raise InputError("negative generation")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "generation", generation)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.m, self.n, self.generation) == (other.m, other.n, other.generation)

    def __hash__(self):
        return hash((self.m, self.n, self.generation))

    def var_name(self, i: int) -> str:
        base = f"x{i + 1}"
        return f"{base}({format_raw(self.generation)})" if self.generation else base

    def bumped(self) -> "VariableFrame":
        """The frame of the next renaming."""
        return VariableFrame(self.m, self.n, self.generation + 1)


class Polynomial:
    """An immutable polynomial.  ``terms`` is read-only: the hash, the
    x_m-degree, the order and lead in x_m and the canonical text are each
    computed on first use and kept in a memo entry of the object."""

    __slots__ = ("frame", "field", "terms", "_hash", "_degree", "_ord", "_lead", "_text")

    def __init__(self, frame: VariableFrame, field: FieldSpec, terms=None):
        self.frame = frame
        self.field = field
        acc = {}
        for mono, coeff in (terms or {}).items():
            mono = tuple(mono)
            _check_exponents(frame, mono)
            acc[mono] = acc.get(mono, 0) + field.raw(coeff)
        self.terms = reduce_raw(acc.items(), field.characteristic)
        self._hash = self._degree = self._ord = self._lead = self._text = None

    # -- constructors --------------------------------------------------

    # zero, constant and variable build valid exponent vectors themselves,
    # so only ``monomial`` runs the validating constructor

    @classmethod
    def zero(cls, frame, field):
        return cls._from_raw(frame, field, {})

    @classmethod
    def constant(cls, frame, field, c):
        return cls._from_raw(frame, field, {(0,) * frame.m: field.raw(c)})

    @classmethod
    def variable(cls, frame, field, i: int):
        if not 0 <= i < frame.m:
            raise InputError(f"variable index {i} out of range")
        mono = [0] * frame.m
        mono[i] = 1
        return cls._from_raw(frame, field, {tuple(mono): 1})

    @classmethod
    def monomial(cls, frame, field, exponents, coeff=1):
        return cls(frame, field, {tuple(exponents): coeff})

    # -- ring structure -------------------------------------------------

    def _coerce(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            # identity first: operands of one run share their frame and field
            # objects, and ``is`` saves the call to __eq__
            if (other.frame is not self.frame and other.frame != self.frame
                    or other.field is not self.field and other.field != self.field):
                raise FrameMismatch("mixed-frame polynomial arithmetic")
            return other
        return Polynomial.constant(self.frame, self.field, other)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        other = self._coerce(other)
        terms = dict(self.terms)
        for mono, c in other.terms.items():
            terms[mono] = terms.get(mono, 0) + c
        return Polynomial._from_raw(self.frame, self.field, terms)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._from_raw(
            self.frame, self.field, {m: -c for m, c in self.terms.items()}
        )

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        raw = _raw_addmul({}, self.terms, other.terms, self.field.characteristic)
        return Polynomial._from_raw(self.frame, self.field, raw)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if type(k) is not int or k < 0:
            raise InputError("polynomial powers must be nonnegative integers")
        p = self.field.characteristic
        raw = binary_power(self.terms, k, lambda x, y: _raw_addmul({}, x, y, p),
                           {(0,) * self.frame.m: 1})
        return Polynomial._from_raw(self.frame, self.field, raw)

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (
            self.frame == other.frame
            and self.field == other.field
            and self.terms == other.terms
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.frame, self.field, frozenset(self.terms.items())))
        return self._hash

    # -- structure in the last variable ----------------------------------

    def degree_in_last(self) -> int:
        if self._degree is None:
            self._degree = max((m[-1] for m in self.terms), default=-1)
        return self._degree

    def ord_last(self):
        """Order of f(0,..,0,x_m): smallest i with a pure x_m^i term,
        INFINITE when f(0,..,0,x_m) vanishes identically."""
        if self._ord is None:
            self._ord = min((mono[-1] for mono in self.terms if not any(mono[:-1])),
                            default=INFINITE)
        return self._ord

    def lead_constant_last(self) -> Scalar | None:
        """The x_m-leading coefficient when it is a constant (hence nonzero),
        else None; None for the zero polynomial."""
        if self._lead is None:  # the memo holds (lead,), as the lead may be None
            d = self.degree_in_last()
            c = self.terms.get((0,) * (self.frame.m - 1) + (d,))
            if c is None or sum(1 for mono in self.terms if mono[-1] == d) != 1:
                self._lead = (None,)
            else:
                self._lead = (self.field.scalar(c),)
        return self._lead[0]

    def coeffs_last(self) -> list:
        """The x_m-coefficients a_0..a_e of f = a_e x_m^e + .. + a_0, each
        free of x_m, with e = deg_xm f (one zero row for f = 0)."""
        return [
            Polynomial._from_raw(self.frame, self.field, {base + (0,): v for base, v in row.items()})
            for row in _rows(self, max(self.degree_in_last(), 0))
        ]

    def constant_term(self) -> Scalar:
        return self.field.scalar(self.terms.get((0,) * self.frame.m, 0))

    def partial_last(self) -> "Polynomial":
        terms = {}
        for mono, c in self.terms.items():
            k = mono[-1]
            if k == 0:
                continue
            terms[mono[:-1] + (k - 1,)] = c * k
        return Polynomial._from_raw(self.frame, self.field, terms)

    # -- divisibility -----------------------------------------------------

    def min_exponents(self) -> Mono:
        if self.is_zero:
            raise DivisionByZero("no exponents in the zero polynomial")
        return tuple(min(m[i] for m in self.terms) for i in range(self.frame.m))

    def divide_by_monomial(self, exps: Mono) -> "Polynomial":
        terms = {}
        for mono, c in self.terms.items():
            shifted = tuple(a - b for a, b in zip(mono, exps))
            if any(e < 0 for e in shifted):
                raise DivisionByZero("monomial does not divide the polynomial")
            terms[shifted] = c
        return Polynomial._from_raw(self.frame, self.field, terms)

    def divmod_last(self, divisor: "Polynomial"):
        """Division in x_m by a divisor whose x_m-leading coefficient is a
        nonzero constant: f = q * divisor + r, r of lower x_m-degree than the divisor.

        Runs on the x_m-coefficient rows b_0..b_d of the divisor and r_k of
        the remainder: for k = deg f .. d, the quotient row
        q_{k-d} = r_k / b_d clears r_k, and q_{k-d} * b_j is subtracted from
        r_{k-d+j} for j < d.  Before any row is built, a dividend past the row
        limit of ``_rows`` raises InputError, and so does a quotient whose
        e = deg f - d + 1 rows, each spanning e * w + deg' f + 1 degrees in
        x_1..x_{m-1} (w the highest of a divisor term), exceed MAX_BUDGET slots.
        """
        divisor = self._coerce(divisor)
        d = divisor.degree_in_last()
        if d < 0:
            raise DivisionByZero("division by zero polynomial")
        lc = divisor.lead_constant_last()
        if lc is None:
            raise InputError("divisor is not monic-like in the last variable")
        # a dividend of lower x_m-degree is its own remainder; most of the
        # divisibility checks in ArcValuation.value end here
        if self.degree_in_last() < d:
            return Polynomial._from_raw(self.frame, self.field, {}), self
        _check_rows(self.degree_in_last())
        e = self.degree_in_last() - d + 1
        width = max(sum(mono[:-1]) for mono in divisor.terms)
        slots = e * (e * width + max(sum(mono[:-1]) for mono in self.terms) + 1)
        if slots > MAX_BUDGET:
            raise InputError(f"x_m-division spans {format_raw(slots)} slots, more than {MAX_BUDGET}")
        p = self.field.characteristic
        lc_inv = self.field.raw(lc.inverse())
        lower = [{base: -v for base, v in row.items()} for row in _rows(divisor, d)[:d]]
        rows = _rows(self, self.degree_in_last())
        quotient = [{} for _ in range(len(rows) - d)]
        for k in range(len(rows) - 1, d - 1, -1):
            top, rows[k] = rows[k], {}
            quotient[k - d] = piece = {base: v * lc_inv for base, v in top.items()}
            for j, row in enumerate(lower):
                _raw_addmul(rows[k - d + j], piece, row, p)
        return (Polynomial._from_raw(self.frame, self.field, _unrows(quotient)),
                Polynomial._from_raw(self.frame, self.field, _unrows(rows)))

    def divisible_by(self, divisor: "Polynomial") -> bool:
        divisor = self._coerce(divisor)
        if divisor.is_zero:
            return self.is_zero
        if self.is_zero:
            return True
        if len(divisor.terms) == 1:
            exps = next(iter(divisor.terms))
            return all(
                all(a >= b for a, b in zip(mono, exps)) for mono in self.terms
            )
        _, r = self.divmod_last(divisor)
        return r.is_zero

    # -- substitution ------------------------------------------------------

    def substitute_map(self, frame: VariableFrame, images) -> "Polynomial":
        """The substitution x_i -> x^(images[i]) into ``frame``: one exponent
        vector of ``frame`` per variable, each image of coefficient 1, as a
        Perron substitution's is.  A term c x^e goes to c x^(sum e_i images[i])
        in one pass, the terms that land on one vector summed.  A wrong count,
        or an image the validating constructor would refuse, raises InputError."""
        if len(images) != self.frame.m:
            raise InputError("need one image per variable")
        for img in images:
            _check_exponents(frame, img)
        columns = list(zip(*images))
        out = {}
        for mono, c in self.terms.items():
            key = tuple([sum(map(mul, mono, col)) for col in columns])
            out[key] = out.get(key, 0) + c
        return Polynomial._from_raw(frame, self.field, out)

    def translate_last(self, h: "Polynomial") -> "Polynomial":
        """Substitute x_m -> x_m + h, with h free of the last variable.

        Translations compose, so this is one weighted column shift per term
        c x^b of h (``_shift_columns``): a term x^a x_m^j lies in the column
        keyed by a + j b at index j, where x_m -> x_m + c x^b is the
        classical O(d^2) Taylor shift of the column's coefficients by c
        (von zur Gathen and Gerhard, ISSAC 1997).  Only sums and products
        occur, so it is exact in every characteristic.
        """
        if isinstance(h, Polynomial):
            h = self._coerce(h)
            if h.degree_in_last() > 0:
                raise InputError("translation polynomial must not involve x_m")
            shifts = h.terms.items()
        else:  # a constant, as ``strict_transform`` passes it: one shift, b = 0
            c = self.field.raw(h)
            shifts = [((0,) * self.frame.m, c)] if c else []
        d = self.degree_in_last()
        _check_rows(d)
        p = self.field.characteristic
        terms = self.terms
        for b, c in shifts:
            terms = _shift_columns(terms, b[:-1], c, p, d)
        return Polynomial._from_raw(self.frame, self.field, terms)

    @classmethod
    def _from_raw(cls, frame, field, raw) -> "Polynomial":
        """Polynomial from raw values on valid exponent vectors of
        ``frame``, as the kernels below, the ring operations and the parser
        produce them; ``reduce_raw`` reduces them and drops the zeros."""
        poly = cls.__new__(cls)
        poly.frame = frame
        poly.field = field
        poly.terms = reduce_raw(raw.items(), field.characteristic)
        poly._hash = poly._degree = poly._ord = poly._lead = poly._text = None
        return poly

    # -- strict transform ---------------------------------------------------

    def strict_transform(self, c: Scalar):
        """Split the image h of an A1 substitution, written in the unit
        u = x_m + c, as h = x_1^{e_1} .. x_{m-1}^{e_{m-1}} * u^lam * f_1(x, u - c),
        all parts maximal.  Returns (e with a zero x_m slot, lam, f_1): e and
        lam are the least exponents of h, and f_1 is h divided by that
        monomial, shifted x_m -> x_m + c.
        """
        exps = self.min_exponents()
        f1 = self.divide_by_monomial(exps).translate_last(c)
        return exps[:-1] + (0,), exps[-1], f1

    def times_unit_power(self, exps: Mono, lam: int, c) -> "Polynomial":
        """x^exps * (x_m + c)^lam * self, with exps in x_1..x_{m-1} (its x_m
        slot is ignored): the inverse of ``strict_transform`` read in x_m.

        (x_m + c)^lam is the single binomial row C(lam, k) c^(lam-k) x_m^k,
        k = 0..lam, built once; each dense x_m-column of self (``_columns``)
        is convolved with it into one list, so the product costs
        O(lam * |self|) products, not the O(lam^2) updates of a Taylor
        shift.  The binomials come from C(lam, k-1) = C(lam, k) k / (lam-k+1)
        for k = lam down to 1, exact over Z; mod p that division is not
        invertible when p | lam - k + 1, so each C(lam, k) is reduced mod p
        only after it is computed over Z.  The product is
        bounded as a Taylor shift of it would be: an x_m-degree above
        MAX_GRID_SLOTS raises InputError.
        """
        _check_rows(lam + self.degree_in_last())
        p = self.field.characteristic
        c = self.field.raw(c)
        row = []  # the nonzero (k, C(lam, k) c^(lam-k)), from k = lam down
        binom = power = 1
        for k in range(lam, -1, -1):
            v = binom * power % p if p else binom * power
            if v:
                row.append((k, v))
            binom = binom * k // (lam - k + 1)
            power = power * c % p if p else power * c
        shift = tuple(exps[:-1])
        out = {}
        for key, col in _columns(self.terms).items():
            acc = [0] * (len(col) + lam)
            for j, a in enumerate(col):
                if a:
                    for k, v in row:
                        acc[j + k] += a * v
            key = tuple(map(add, key, shift))
            for i, v in enumerate(acc):
                if v:  # _from_raw reduces the sums mod p
                    out[key + (i,)] = v
        return Polynomial._from_raw(self.frame, self.field, out)

    # -- arc evaluation -------------------------------------------------------

    def evaluate_at_arc(self, arc) -> PuiseuxSeries:
        if len(arc) != self.frame.m:
            raise InputError("arc length must equal the variable count")
        return evaluate_monomials(self.field, self.terms, arc)

    # -- printing ---------------------------------------------------------------

    def __str__(self):
        if self._text is None:
            self._text = format_polynomial(self)
        return self._text

    def __repr__(self):
        return f"Polynomial({str(self)!r})"


def _check_exponents(frame: VariableFrame, mono):
    """InputError unless ``mono`` is m = frame.m nonnegative ints (no bool)."""
    if len(mono) != frame.m:
        raise InputError("exponent vector length does not match frame")
    if any(type(e) is not int or e < 0 for e in mono):
        raise InputError(f"polynomial exponents are nonnegative ints, got {mono!r}")


def _check_rows(d: int):
    """A row, like a grid slot, is one entry per x_m-exponent, so an
    x_m-degree d above MAX_GRID_SLOTS raises InputError before any row is
    allocated."""
    if d > MAX_GRID_SLOTS:
        raise InputError(f"x_m-degree {format_raw(d)} needs more than {MAX_GRID_SLOTS} rows")


def _rows(f: Polynomial, d: int) -> list:
    """The x_m-coefficient rows of f, d >= deg_xm f: rows[k] maps the
    exponents of x_1..x_{m-1} to the value of their term times x_m^k."""
    _check_rows(d)
    rows = [{} for _ in range(d + 1)]
    for mono, v in f.terms.items():
        rows[mono[-1]][mono[:-1]] = v
    return rows


def _unrows(rows) -> dict:
    """The term map of x_m-coefficient rows; inverse of ``_rows``."""
    return {base + (k,): v for k, row in enumerate(rows) for base, v in row.items()}


def _columns(terms: dict, steps=None) -> dict:
    """The dense x_m-columns of a term map: column ``key`` is the list whose
    index j holds the value of the term in that column with x_m^j, zeros
    filled in.  A term x^a x_m^j is keyed by a, or by a + steps[j] when
    steps is given (an m-long key, its x_m slot 0 when steps[j] ends in -j)."""
    cols = {}
    for mono, v in terms.items():
        j = mono[-1]
        key = mono[:-1] if steps is None else tuple(map(add, mono, steps[j]))
        col = cols.get(key)
        if col is None:
            cols[key] = col = [0] * (j + 1)
        elif len(col) <= j:
            col.extend([0] * (j + 1 - len(col)))
        col[j] = v
    return cols


def _shift_columns(terms: dict, b: Mono, c, p: int, d: int) -> dict:
    """Raw term map of x_m -> x_m + c x^b on a raw term map of x_m-degree at
    most d (b the exponents of x_1..x_{m-1}, c nonzero).  In the column
    keyed by k = a + j b, the terms x^(k - j b) x_m^j are x^k y^j with
    y = x_m / x^b, and x_m + c x^b = x^b (y + c): the column's values are
    shifted by c, a_j += c a_(j+1), and index i is written back as
    x^(k - i b) x_m^i.  Its exponents are those of a + (j - i) b for a term
    at j >= i, so never negative.  A constant c (b = 0) keys each column by
    a alone."""
    # steps[i] = (i b, -i): a term's key a + j b ends in a zero x_m slot, and
    # key - steps[i] is the exponent vector of index i
    steps = [tuple([i * e for e in b]) + (-i,) for i in range(d + 1)] if any(b) else None
    out = {}
    for key, col in _columns(terms, steps).items():
        top = len(col) - 1
        for i in range(top):
            for j in range(top - 1, i - 1, -1):
                v = col[j] + c * col[j + 1]
                col[j] = v % p if p else v
        for i, v in enumerate(col):
            if v:
                out[key + (i,) if steps is None else tuple(map(sub, key, steps[i]))] = v
    return out


def _raw_addmul(acc: dict, a: dict, b: dict, p: int) -> dict:
    """acc += a * b on raw term maps (values reduced mod p when p != 0);
    zero sums are dropped, so every stored value is nonzero.  Returns acc."""
    for m2, c2 in b.items():
        for m1, c1 in a.items():
            mono = tuple(map(add, m1, m2))
            v = acc.get(mono, 0) + c1 * c2
            if p:
                v %= p
            if v:
                acc[mono] = v
            else:
                del acc[mono]
    return acc


# ---------------------------------------------------------------------------
# Canonical printing and parsing

def format_polynomial(f: Polynomial) -> str:
    """Canonical text of f: its terms in graded lexicographic order, highest
    first, with x_1 most significant and x_m last.  One pass: the variable
    names are read once, the order comes from sorting (degree, exponents,
    value) triples, which never compares two values since no two terms share
    exponents, and each factor's text is built once per call.  A number with
    more digits than the interpreter converts to text raises InputError, as
    ``format_raw`` does."""
    terms = f.terms
    if not terms:
        return "0"
    names = [f.frame.var_name(i) for i in range(f.frame.m)]
    modular = f.field.modular
    factors = {}  # (i, e) -> the text of x_i^e
    out = []
    try:
        for _, mono, c in sorted(zip(map(sum, terms), terms, terms.values()), reverse=True):
            body = []
            for i, e in enumerate(mono):
                if e:
                    text = factors.get((i, e))
                    if text is None:
                        text = factors[i, e] = names[i] if e == 1 else f"{names[i]}^{e}"
                    body.append(text)
            body = "*".join(body)
            if modular or c > 0:
                out.append(" + ")
            else:
                out.append(" - ")
                c = -c
            if not body:
                body = str(c)
            elif c != 1:
                body = f"{c!s}*{body}"
            out.append(body)
    except ValueError as exc:
        raise InputError(f"value too long to print: {exc}") from exc
    out[0] = "" if out[0] == " + " else "-"
    return "".join(out)


_VAR_RE = re.compile(r"^x(?P<idx>[0-9]+)(?:\((?P<gen>[0-9]+)\))?(?:\^(?P<exp>[0-9]+))?$")
_RAT_RE = re.compile(r"^[0-9]+(?:/[0-9]+)?$")
_TOKEN_RE = re.compile(r"([+-]?)\s*([^+-]+)")


def parse_polynomial(frame: VariableFrame, field: FieldSpec, text: str) -> Polynomial:
    """Parse terms joined by + and -; a term is an optional rational
    coefficient times ``x<i>[^k]`` factors joined by ``*``.  The grammar
    admits only valid exponent vectors of ``frame``, so the term map goes to
    ``_from_raw``.  A coefficient literal is read by ``scalars._ratio``; an
    integral one stays an int, and only a/b with b > 1 becomes a Fraction."""
    if not isinstance(text, str):
        raise InputError(f"polynomial literal must be a string, got {text!r}")
    text = text.strip()
    if not text:
        raise InputError("empty polynomial literal")
    if text == "0":
        return Polynomial.zero(frame, field)
    tokens = _TOKEN_RE.findall(text)
    if not tokens or "".join(s + t for s, t in tokens).replace(" ", "") != text.replace(" ", ""):
        raise InputError(f"cannot tokenize polynomial {text!r}")
    terms = {}
    for sign, chunk in tokens:
        chunk = chunk.strip()
        if not chunk:
            raise InputError(f"dangling sign in {text!r}")
        coeff = -1 if sign == "-" else 1
        mono = [0] * frame.m
        for factor in chunk.split("*"):
            factor = factor.strip()
            if not factor:
                raise InputError(f"empty factor in term {chunk!r}")
            if _RAT_RE.match(factor):
                num, den = _ratio(factor, factor)
                coeff *= num if den == 1 else Fraction(num, den)
                continue
            m = _VAR_RE.match(factor)
            if not m:
                raise InputError(f"bad factor {factor!r}")
            idx, gen, exp = m.group("idx", "gen", "exp")
            try:
                idx, exp = int(idx), int(exp or 1)
                gen = None if gen is None else int(gen)
            except ValueError as exc:  # more digits than int() converts
                raise InputError(f"factor {factor[:40]!r}... is too long") from exc
            if not 1 <= idx <= frame.m:
                raise InputError(f"variable x{idx} outside the frame")
            if gen is not None and gen != frame.generation:
                raise InputError(
                    f"generation ({gen}) does not match frame generation "
                    f"{frame.generation}"
                )
            mono[idx - 1] += exp
        # each term is reduced by itself, as in ``parse_series``
        terms[tuple(mono)] = terms.get(tuple(mono), 0) + field.raw(coeff)
    return Polynomial._from_raw(frame, field, terms)


_RING_RE = re.compile(
    r"^ring\s+m=(?P<m>[0-9]+)\s+char=(?P<char>[0-9]+)(?:\s+n=(?P<n>[0-9]+))?"
    r"(?:\s+gen=(?P<gen>[0-9]+))?$"
)


def parse_ring_header(line: str):
    """Parse ``ring m=<m> char=<p> [n=<n>] [gen=<g>]`` into (frame, field)."""
    m = _RING_RE.match(line.strip()) if isinstance(line, str) else None
    if not m:
        raise InputError(f"bad ring header {line!r}")
    mm = parse_integer(m.group("m"), "ring header m")
    n = parse_integer(m.group("n"), "ring header n") if m.group("n") else max(mm - 1, 1)
    gen = parse_integer(m.group("gen"), "ring header gen") if m.group("gen") else 0
    frame = VariableFrame(m=mm, n=n, generation=gen)
    field = FieldSpec(characteristic=parse_integer(m.group("char"), "ring header char"))
    return frame, field


def format_ring_header(frame: VariableFrame, field: FieldSpec) -> str:
    head = f"ring m={frame.m} char={field.characteristic} n={frame.n}"
    if frame.generation:
        head += f" gen={format_raw(frame.generation)}"
    return head
