"""Valuation oracles.

Three realizations of the (pseudo-)valuation data the reduction algorithm
consumes:

* MonomialValuation: weights on the variables, value = min over monomials.
  Exact on the independent block x_1..x_n; used by the monomialization loop.
* ArcValuation: a truncated Puiseux parametrization of the hypersurface
  f = 0.  Values are t-orders of evaluated polynomials scaled by a declared
  normalization; infinite values are certified by exact division by f.
* AugmentedChain: a finite chain of augmented valuations over a Gauss base,
  evaluated by recursive key-polynomial expansion.

Oracles are immutable; every query is pure.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    AmbiguousRelation,
    DivisionByZero,
    FrameMismatch,
    InputError,
    NoRelation,
    Unsupported,
    ValueMismatch,
)
from .poly import Polynomial, VariableFrame, parse_polynomial
from .scalars import (
    FieldSpec, PuiseuxSeries, Scalar, format_series, parse_integer, parse_rational, parse_series,
)
from .valgroup import (
    GeneratorContext,
    RATIONAL,
    Value,
    ValueLattice,
    member,
    pairing,
    parse_value,
    quadratic,
    format_value,
    rational_relation,
)

DOCUMENT_VERSION = 1


@dataclass(frozen=True)
class ValueResult:
    """Outcome of a value query: a finite value, INFINITE, or a certified
    lower bound when the arc window is exhausted."""

    kind: str  # "finite" | "infinite" | "above"
    value: Value | None = None

    @classmethod
    def finite(cls, v: Value) -> "ValueResult":
        return cls("finite", v)

    @classmethod
    def infinite(cls) -> "ValueResult":
        return cls("infinite")

    @classmethod
    def above(cls, bound: Value | None) -> "ValueResult":
        return cls("above", bound)

    @property
    def is_finite(self) -> bool:
        return self.kind == "finite"

    @property
    def is_infinite(self) -> bool:
        return self.kind == "infinite"

    @property
    def is_above(self) -> bool:
        return self.kind == "above"

    def __str__(self):
        if self.kind == "finite":
            return format_value(self.value)
        if self.kind == "infinite":
            return "INFINITE"
        inner = format_value(self.value) if self.value is not None else "?"
        return f"ABOVE-TRUNCATION({inner})"


class MonomialValuation:
    """Weight vector w_1..w_m; value(g) = min over monomials of sum e_i w_i.

    The weights of x_1..x_n must be positive and pairwise Q-independent, so
    distinct monomials supported there have distinct values.
    """

    def __init__(self, frame: VariableFrame, weights, field: FieldSpec | None = None):
        if len(weights) != frame.m:
            raise InputError("need one weight per variable")
        self.frame = frame
        self.field = field if field is not None else FieldSpec(0)
        self.context = weights[0].context
        for w in weights:
            if w.context != self.context:
                raise InputError("weights from different contexts")
            if w.sign() <= 0:
                raise InputError("weights must be positive")
        self.weights = tuple(weights)
        self._check_independent()

    def _check_independent(self):
        n = self.frame.n
        if n == 1:
            return
        try:
            rational_relation(list(self.weights[:n]))
        except NoRelation:
            return
        except AmbiguousRelation:
            pass
        raise InputError("weights of x_1..x_n are rationally dependent")

    def value(self, g: Polynomial) -> ValueResult:
        if g.frame != self.frame:
            raise FrameMismatch("polynomial frame does not match the oracle")
        if g.is_zero:
            return ValueResult.infinite()
        best = None
        for mono in g.terms:
            v = pairing(mono, self.weights)
            if best is None or v < best:
                best = v
        return ValueResult.finite(best)

    def min_monomials(self, g: Polynomial):
        """Monomials of g achieving the minimal weight."""
        target = self.value(g)
        if not target.is_finite:
            raise InputError("no minimal monomial for the zero polynomial")
        return [
            mono for mono in g.terms
            if pairing(mono, self.weights) == target.value
        ]

    def residue(self, g: Polynomial, u: Polynomial) -> Scalar:
        vg, vu = self.value(g), self.value(u)
        if not (vg.is_finite and vu.is_finite) or vg.value != vu.value:
            raise ValueMismatch("residue needs equal finite values")
        mg, mu = self.min_monomials(g), self.min_monomials(u)
        if len(mg) != 1 or len(mu) != 1 or mg[0] != mu[0]:
            raise Unsupported("residue needs a unique shared leading monomial")
        # stored values are raw: over Q, int / int would be a float
        return self.field.scalar(g.terms[mg[0]]) / u.terms[mu[0]]


@dataclass(frozen=True)
class BestApprox:
    """Result of the greedy approximation of the last variable from below."""

    h: Polynomial
    gamma: ValueResult
    status: str  # "MAX-OUTSIDE" | "NO-MAX-UP-TO-BOUND"
    ladder: tuple
    reason: str | None = None  # "STEP-BOUND" | "TRUNCATION" | "EXACT-MATCH"


class ArcValuation:
    """Puiseux arc realizing the valuation centered at the origin of the
    hypersurface f = 0, with value(g) = ord_t(g(arc)) * normalization."""

    def __init__(self, frame, field, f, arc, trunc=None, normalization=None):
        if len(arc) != frame.m:
            raise InputError("arc length must equal the variable count")
        self.frame = frame
        self.field = field
        self.f = f
        if f.frame != frame or f.field != field:
            raise FrameMismatch("hypersurface does not match the oracle frame")
        # a multiple of f is certified by exact division in x_m, which needs
        # an x_m-leading coefficient that is a nonzero constant
        self._divides_exactly = (
            f.degree_in_last() >= 1 and f.lead_constant_last() is not None
        )
        arc = tuple(
            s if trunc is None else s.truncated(trunc) for s in arc
        )
        for s in arc:
            if s.field != field:
                raise InputError("arc series over the wrong field")
            q = s.order()
            if q is not None and q <= 0:
                raise InputError("arc series must vanish at the origin")
        self.arc = arc
        self.trunc = Fraction(trunc) if trunc is not None else None
        self.normalization = normalization if normalization is not None else RATIONAL.value(1)
        self.context = self.normalization.context

    def _scaled(self, q: Fraction) -> Value:
        return self.normalization.scale(q)

    def series_of(self, g: Polynomial) -> PuiseuxSeries:
        if g.frame != self.frame:
            raise FrameMismatch("polynomial frame does not match the oracle")
        return g.evaluate_at_arc(self.arc)

    def value(self, g: Polynomial) -> ValueResult:
        if g.frame != self.frame:
            raise FrameMismatch("polynomial frame does not match the oracle")
        if g.is_zero:
            return ValueResult.infinite()
        if self._divides_exactly and g.divisible_by(self.f):
            return ValueResult.infinite()
        series = self.series_of(g)
        q = series.order()
        if q is not None:
            return ValueResult.finite(self._scaled(q))
        if series.trunc is None:
            return ValueResult.infinite()
        return ValueResult.above(self._scaled(series.trunc))

    def residue(self, g: Polynomial, u: Polynomial) -> Scalar:
        vg, vu = self.value(g), self.value(u)
        if not (vg.is_finite and vu.is_finite) or vg.value != vu.value:
            raise ValueMismatch("residue needs equal finite values")
        return self.series_of(g).leading_coeff() / self.series_of(u).leading_coeff()

    def monomial_residue(self, exps) -> Scalar:
        """Leading coefficient of a (Laurent) monomial in the arc series: the
        product of lc(s_j)^{e_j}.  A nonzero s of order q < trunc T has s^e
        trusted below T + (e - 1) q > e q, so lc(s^e) = lc(s)^e."""
        out = self.field.one
        for e, s in zip(exps, self.arc):
            if e:
                if s.is_zero:
                    raise DivisionByZero("monomial residue over a vanishing window")
                out = out * s.leading_coeff() ** e
        return out

    def variable_values(self):
        out = []
        for i in range(self.frame.m):
            q = self.arc[i].order()
            if q is None:
                raise InputError(f"arc component {i + 1} vanishes to truncation")
            out.append(self._scaled(q))
        return out

    def base_lattice(self) -> ValueLattice:
        """Realized value lattice of the base ring k[x_1..x_{m-1}]."""
        vals = self.variable_values()[: self.frame.m - 1]
        return ValueLattice(self.context, tuple(vals))

    def full_lattice(self) -> ValueLattice:
        return ValueLattice(self.context, tuple(self.variable_values()))

    def arc_consistency(self) -> bool:
        """True iff f(arc) has no term below the truncation window."""
        return self.series_of(self.f).is_zero

    def translated(self, h: Polynomial, new_f: Polynomial) -> "ArcValuation":
        """Oracle after the change of variable x_m -> x_m + h (h in the base);
        the arc component of x_m drops by h(arc)."""
        new_last = self.arc[-1] - h.evaluate_at_arc(self.arc)
        return self.with_arc(self.frame, new_f, self.arc[:-1] + (new_last,))

    def with_arc(self, new_frame, new_f, new_arc) -> "ArcValuation":
        return ArcValuation(
            new_frame, self.field, new_f, tuple(new_arc),
            trunc=None, normalization=self.normalization,
        )

    def best_approx(self, bound: int) -> BestApprox:
        """Greedy residue-matching approximation of z (the class of x_m) by
        base-ring polynomials h'.  Each step strictly increases
        value(x_m - h'); stops at a value outside the base group
        (MAX-OUTSIDE) or after ``bound`` steps / window exhaustion
        (NO-MAX-UP-TO-BOUND, with the reason recorded)."""
        frame, field = self.frame, self.field
        lattice = self.base_lattice()
        h = Polynomial.zero(frame, field)
        xm = Polynomial.variable(frame, field, frame.m - 1)
        ladder = []
        steps = 0
        while True:
            gamma = self.value(xm - h)
            if gamma.is_infinite:
                return BestApprox(h, gamma, "NO-MAX-UP-TO-BOUND", tuple(ladder),
                                  reason="EXACT-MATCH")
            if gamma.is_above:
                return BestApprox(h, gamma, "NO-MAX-UP-TO-BOUND", tuple(ladder),
                                  reason="TRUNCATION")
            ladder.append(gamma.value)
            coords = member(gamma.value, lattice)
            if coords is None:
                return BestApprox(h, gamma, "MAX-OUTSIDE", tuple(ladder))
            if steps >= bound:
                return BestApprox(h, gamma, "NO-MAX-UP-TO-BOUND", tuple(ladder),
                                  reason="STEP-BOUND")
            if any(c < 0 for c in coords):
                raise Unsupported(
                    "witness monomial needs negative exponents; outside the "
                    "implemented scope"
                )
            exps = list(coords) + [0] * (frame.m - len(coords))
            witness = Polynomial.monomial(frame, field, exps)
            rho = self.residue(xm - h, witness)
            h = h + witness * rho
            steps += 1

    def document(self) -> dict:
        doc = {
            "version": DOCUMENT_VERSION,
            "kind": "arc",
            "ring": {
                "m": self.frame.m,
                "n": self.frame.n,
                "char": self.field.characteristic,
                "gen": self.frame.generation,
            },
            "f": str(self.f),
            "arc": {
                self.frame.var_name(i): format_series(self.arc[i])
                for i in range(self.frame.m)
            },
        }
        if self.trunc is not None:
            doc["trunc"] = str(self.trunc)
        if self.normalization != RATIONAL.value(1):
            doc["normalization"] = format_value(self.normalization)
        return doc


class AugmentedChain:
    """Finite MacLane chain over the Gauss base on k[x_1][x_m] (m = 2):
    mu_l = [mu_{l-1}; mu_l(phi_l) = gamma_l] with the phi_l monic in x_m of
    strictly increasing degree and gamma_l > mu_{l-1}(phi_l)."""

    def __init__(self, frame, field, x1_value: Value, steps):
        if frame.m != 2:
            raise Unsupported("augmented chains are implemented over k[x_1][x_m]")
        self.frame = frame
        self.field = field
        self.x1_value = x1_value
        self.context = x1_value.context
        if x1_value.sign() <= 0:
            raise InputError("the Gauss base needs a positive value for x_1")
        self.steps = tuple(steps)
        if not self.steps:
            raise InputError("a chain needs at least one augmentation step")
        prev_deg = 0
        for idx, (phi, gamma) in enumerate(self.steps):
            if phi.frame != frame or phi.field != field:
                raise FrameMismatch("key polynomial in the wrong frame")
            if phi.lead_constant_last() != field.one:
                raise InputError("key polynomials must be monic in x_m")
            d = phi.degree_in_last()
            if d <= prev_deg:
                raise InputError("key polynomial degrees must strictly increase")
            prev_deg = d
            if gamma.context != self.context:
                raise InputError("gamma from a different context")
            if idx == 0:
                prev = self._gauss_value(phi)
            else:
                prev = self._value_at_level(idx - 1, phi)
            if not prev.is_finite or gamma <= prev.value:
                raise InputError(
                    "augmented value must exceed the previous value of the key"
                )

    def _gauss_value(self, g: Polynomial) -> ValueResult:
        # stage-zero Gauss valuation with x_m weighted 0, used only to
        # validate the first augmentation
        if g.is_zero:
            return ValueResult.infinite()
        best = None
        for coeff in g.coeffs_last():
            inner = self._base_value(coeff)
            if inner.is_finite and (best is None or inner.value < best):
                best = inner.value
        return ValueResult.finite(best)

    def _base_value(self, g: Polynomial) -> ValueResult:
        # g is free of x_m: the Gauss base values it by its x_1-order
        if g.is_zero:
            return ValueResult.infinite()
        k = min(mono[0] for mono in g.terms)
        return ValueResult.finite(self.x1_value.scale(k))

    def _value_at_level(self, level: int, g: Polynomial) -> ValueResult:
        if g.is_zero:
            return ValueResult.infinite()
        if level < 0:
            if g.degree_in_last() > 0:
                raise InputError("Gauss base only values the coefficient ring")
            return self._base_value(g)
        phi, gamma = self.steps[level]
        best = None
        rest = g
        i = 0
        while not rest.is_zero:
            rest, coeff = rest.divmod_last(phi) if rest.degree_in_last() >= phi.degree_in_last() else (
                Polynomial.zero(self.frame, self.field), rest)
            inner = self._value_at_level(level - 1, coeff)
            if inner.is_finite:
                candidate = inner.value + gamma.scale(i)
                if best is None or candidate < best:
                    best = candidate
            i += 1
        if best is None:
            return ValueResult.infinite()
        return ValueResult.finite(best)

    def value(self, g: Polynomial) -> ValueResult:
        if g.frame != self.frame:
            raise FrameMismatch("polynomial frame does not match the oracle")
        return self._value_at_level(len(self.steps) - 1, g)

    def residue(self, g, u):
        raise Unsupported(
            "residues of augmented chains need the graded algebra; use an "
            "arc oracle"
        )


# ---------------------------------------------------------------------------
# Oracle documents

def parse_ring(doc: dict, default_n=None):
    _typed(doc, dict, "ring")
    m = parse_integer(_required(doc, "m", "ring"), "ring m")
    n = parse_integer(doc.get("n", default_n or max(m - 1, 1)), "ring n")
    gen = parse_integer(doc.get("gen", 0), "ring gen")
    char = parse_integer(doc.get("char", 0), "ring char")
    return VariableFrame(m=m, n=n, generation=gen), FieldSpec(characteristic=char)


def parse_context(doc) -> GeneratorContext:
    if doc is None:
        return RATIONAL
    _typed(doc, dict, "context")
    if doc.get("kind") == "rational":
        return RATIONAL
    if doc.get("kind") == "quadratic":
        return quadratic(parse_integer(_required(doc, "d", "quadratic context"), "quadratic d"))
    raise InputError(f"unknown context document {doc!r}")


def _typed(value, kind: type, what: str):
    if not isinstance(value, kind):
        shape = "object" if kind is dict else "array"
        raise InputError(f"{what} must be a JSON {shape}, got {value!r}")
    return value


def _required(doc: dict, key: str, kind: str):
    if key not in _typed(doc, dict, f"{kind} document"):
        raise InputError(f"{kind} document is missing {key!r}")
    return doc[key]


def parse_trunc(text) -> Fraction:
    """A truncation given as a JSON integer or a rational literal."""
    if isinstance(text, bool) or not isinstance(text, (int, str)):
        raise InputError(f"bad truncation {text!r}")
    return parse_rational(str(text))


def oracle_from_document(doc: dict):
    """Build an oracle from its JSON document (see the README for formats)."""
    _typed(doc, dict, "oracle document")
    if doc.get("version") not in (None, DOCUMENT_VERSION):
        raise InputError(f"unsupported document version {doc.get('version')!r}")
    kind = doc.get("kind")
    if kind == "arc":
        frame, field = parse_ring(doc.get("ring", {}))
        trunc = parse_trunc(doc["trunc"]) if "trunc" in doc else None
        f = parse_polynomial(frame, field, _required(doc, "f", "arc"))
        arc = []
        arc_doc = _typed(doc.get("arc", {}), dict, "arc")
        for i in range(frame.m):
            name = frame.var_name(i)
            if name not in arc_doc:
                raise InputError(f"arc document is missing {name}")
            arc.append(parse_series(field, arc_doc[name], default_trunc=trunc))
        normalization = None
        if "normalization" in doc:
            context = parse_context(doc.get("context"))
            normalization = parse_value(context, doc["normalization"])
        return ArcValuation(frame, field, f, tuple(arc), trunc=trunc,
                            normalization=normalization)
    if kind == "monomial":
        ring = _typed(doc.get("ring", {}), dict, "ring")
        frame, field = parse_ring(ring, default_n=ring.get("m"))
        context = parse_context(doc.get("generators") or doc.get("context"))
        weights = [parse_value(context, w)
                   for w in _typed(_required(doc, "weights", "monomial"), list, "weights")]
        return MonomialValuation(frame, weights, field)
    if kind == "chain":
        frame, field = parse_ring(doc.get("ring", {}), default_n=1)
        context = parse_context(doc.get("context"))
        x1_value = parse_value(context, doc.get("x1_value", "1"))
        steps = []
        for step in _typed(_required(doc, "steps", "chain"), list, "steps"):
            phi = parse_polynomial(frame, field, _required(step, "phi", "chain step"))
            gamma = parse_value(context, _required(step, "gamma", "chain step"))
            steps.append((phi, gamma))
        return AugmentedChain(frame, field, x1_value, steps)
    raise InputError(f"unknown oracle kind {kind!r}")


def read_document(path: str):
    """The JSON document in ``path``; unreadable or malformed files (a number
    beyond the interpreter's digit limit included) raise InputError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise InputError(f"cannot read oracle document {path}: {exc}") from exc


def load_oracle(path: str):
    return oracle_from_document(read_document(path))
