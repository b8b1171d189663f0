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

Oracles are immutable; every query is pure.  An ArcValuation therefore
answers each series, value and base-coordinate question once and keeps the
answer for the life of the instance.
"""

from __future__ import annotations

import json
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
    MAX_BUDGET, FieldSpec, PuiseuxSeries, Scalar, format_raw, parse_integer, parse_rational,
    parse_series,
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

# the version every document carries: oracle, trace and CLI output
DOCUMENT_VERSION = 1


class ValueResult:
    """Outcome of a value query: a finite value, INFINITE, or a certified
    lower bound when the arc window is exhausted."""

    __slots__ = ("kind", "value")

    def __init__(self, kind: str, value: Value | None = None):
        self.kind, self.value = kind, value  # kind: "finite" | "infinite" | "above"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.kind, self.value) == (other.kind, other.value)

    @classmethod
    def finite(cls, v: Value) -> "ValueResult":
        return cls("finite", v)

    @classmethod
    def infinite(cls) -> "ValueResult":
        return cls("infinite")

    @classmethod
    def above(cls, bound: Value) -> "ValueResult":
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
        return f"ABOVE-TRUNCATION({format_value(self.value)})"


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

    def residue(self, g: Polynomial, u: Polynomial) -> Scalar:
        vg, vu = self.value(g), self.value(u)
        if not (vg.is_finite and vu.is_finite) or vg.value != vu.value:
            raise ValueMismatch("residue needs equal finite values")
        # the monomials of g and of u that reach the common value
        mg, mu = ([mono for mono in p.terms if pairing(mono, self.weights) == vg.value]
                  for p in (g, u))
        if len(mg) != 1 or mg != mu:
            raise Unsupported("residue needs a unique shared leading monomial")
        # stored values are raw: over Q, int / int would be a float
        return Scalar(self.field, self.field.div(g.terms[mg[0]], u.terms[mu[0]]))


class BestApprox:
    """Result of the greedy approximation of the last variable from below:
    a ``reason`` of None means MAX-OUTSIDE, any other reason that the
    ladder found no maximum up to its bound (NO-MAX-UP-TO-BOUND)."""

    __slots__ = ("h", "gamma", "ladder", "reason")

    def __init__(self, h: Polynomial, gamma: ValueResult, ladder: tuple, reason: str | None = None):
        # reason: "STEP-BOUND" | "TRUNCATION" | "EXACT-MATCH"
        self.h, self.gamma, self.ladder, self.reason = h, gamma, ladder, reason


class ArcValuation:
    """Puiseux arc realizing the valuation centered at the origin of the
    hypersurface f = 0, with value(g) = ord_t(g(arc)) * normalization."""

    def __init__(self, frame, field, f, arc, trunc=None, normalization=None):
        if len(arc) != frame.m:
            raise InputError("arc length must equal the variable count")
        self.frame = frame
        self.field = field
        self.f = f
        # identity first: f is normally parsed in this frame and field, and
        # ``is`` saves the call to __eq__
        if f.frame is not frame and f.frame != frame or f.field is not field and f.field != field:
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
            if s.field is not field and s.field != field:
                raise InputError("arc series over the wrong field")
            if s.pairs and s.pairs[0][0] <= 0:  # the least grid index is the order
                raise InputError("arc series must vanish at the origin")
        self.arc = arc
        self.normalization = normalization if normalization is not None else RATIONAL.value(1)
        if self.normalization.sign() <= 0:
            raise InputError("the normalization must be positive")
        self.context = self.normalization.context
        # answers by question, kept for the life of this instance
        self._series = {}
        self._values = {}
        self._coords = {}
        self._variable_values = None

    def series_of(self, g: Polynomial) -> PuiseuxSeries:
        """g(arc), evaluated once per polynomial.  A variable x_i is its arc
        component, which is exactly what ``evaluate_monomials`` returns for
        it, so it evaluates nothing."""
        if g.frame is not self.frame and g.frame != self.frame:
            raise FrameMismatch("polynomial frame does not match the oracle")
        if len(g.terms) == 1 and (g.field is self.field or g.field == self.field):
            (mono, c), = g.terms.items()
            if c == 1 and sum(mono) == 1:
                return self.arc[mono.index(1)]
        series = self._series.get(g)
        if series is None:
            series = self._series[g] = g.evaluate_at_arc(self.arc)
        return series

    def value(self, g: Polynomial) -> ValueResult:
        if g.frame is not self.frame and g.frame != self.frame:
            raise FrameMismatch("polynomial frame does not match the oracle")
        result = self._values.get(g)
        if result is None:
            result = self._values[g] = self._value(g)
        return result

    def _value(self, g: Polynomial) -> ValueResult:
        if g.is_zero:
            return ValueResult.infinite()
        if self._divides_exactly and g.divisible_by(self.f):
            return ValueResult.infinite()
        series = self.series_of(g)
        q = series.order()
        if q is not None:
            return ValueResult.finite(self.normalization.scale(q))
        if series.trunc is None:
            return ValueResult.infinite()
        return ValueResult.above(self.normalization.scale(series.trunc))

    def residue(self, g: Polynomial, u: Polynomial) -> Scalar:
        vg, vu = self.value(g), self.value(u)
        if not (vg.is_finite and vu.is_finite) or vg.value != vu.value:
            raise ValueMismatch("residue needs equal finite values")
        # lc = v / den from the stored leading numerators (den = 1 over F_p)
        sg, su = self.series_of(g), self.series_of(u)
        return Scalar(self.field, self.field.div(sg.pairs[0][1] * su.den, su.pairs[0][1] * sg.den))

    def monomial_residue(self, exps) -> Scalar:
        """Leading coefficient of a (Laurent) monomial in the arc series: the
        product of lc(s_j)^{e_j}.  A nonzero s of order q < trunc T has s^e
        trusted below T + (e - 1) q > e q, so lc(s^e) = lc(s)^e.  With
        lc(s_j) = v_j / d_j from the stored numerators, it is one quotient of
        two int products, num / den."""
        num = den = 1
        for e, s in zip(exps, self.arc):
            if e:
                if s.is_zero:
                    raise DivisionByZero("monomial residue over a vanishing window")
                v, d = s.pairs[0][1], s.den
                if e < 0:
                    v, d, e = d, v, -e
                num *= pow(v, e, self.field.characteristic or None)
                den *= pow(d, e, self.field.characteristic or None)
        return Scalar(self.field, self.field.div(num, den))

    def variable_values(self):
        if self._variable_values is None:
            out = []
            for i in range(self.frame.m):
                q = self.arc[i].order()
                if q is None:
                    raise InputError(f"arc component {i + 1} vanishes to truncation")
                out.append(self.normalization.scale(q))
            self._variable_values = tuple(out)
        return list(self._variable_values)

    def base_lattice(self) -> ValueLattice:
        """Realized value lattice of the base ring k[x_1..x_{m-1}]."""
        vals = self.variable_values()[: self.frame.m - 1]
        return ValueLattice(self.context, tuple(vals))

    def base_coords(self, v: Value):
        """Integer coordinates of v over the values of x_1..x_{m-1}, or None
        when v lies outside the base group."""
        if v not in self._coords:
            self._coords[v] = member(v, self.base_lattice())
        return self._coords[v]

    def full_lattice(self) -> ValueLattice:
        return ValueLattice(self.context, tuple(self.variable_values()))

    def arc_consistency(self) -> bool:
        """True iff f(arc) has no term below the truncation window."""
        return self.series_of(self.f).is_zero

    def with_arc(self, new_frame, new_f, new_arc) -> "ArcValuation":
        return ArcValuation(
            new_frame, self.field, new_f, tuple(new_arc),
            trunc=None, normalization=self.normalization,
        )

    def best_approx(self, bound: int) -> BestApprox:
        """Greedy residue-matching approximation of z (the class of x_m) by
        base-ring polynomials h'.  Each step strictly increases
        value(x_m - h'); stops at a value outside the base group
        (MAX-OUTSIDE, no reason) or after ``bound`` steps / window
        exhaustion (NO-MAX-UP-TO-BOUND, with the reason recorded).

        Each rung's series of x_m - h' is the previous rung's less
        rho * series(witness), the witness series that the residue
        evaluates: the arc component of x_m is not evaluated again."""
        frame, field = self.frame, self.field
        xm = (0,) * (frame.m - 1) + (1,)
        h = {}  # raw term map of h; each rung's witness has a larger value, so a new monomial
        series = self.arc[-1]  # of x_m - h
        ladder = []
        steps = 0

        def result(reason=None):
            return BestApprox(Polynomial._from_raw(frame, field, h), gamma, tuple(ladder), reason)

        while True:
            # g = x_m - h and the witness x^b are built on valid exponent vectors
            g = Polynomial._from_raw(frame, field, {xm: 1, **{mono: -c for mono, c in h.items()}})
            self._series.setdefault(g, series)
            gamma = self.value(g)
            if gamma.is_infinite:
                return result("EXACT-MATCH")
            if gamma.is_above:
                return result("TRUNCATION")
            ladder.append(gamma.value)
            coords = self.base_coords(gamma.value)
            if coords is None:
                return result()
            if steps >= bound:
                return result("STEP-BOUND")
            if any(c < 0 for c in coords):
                raise Unsupported(
                    "witness monomial needs negative exponents; outside the "
                    "implemented scope"
                )
            exps = tuple(coords) + (0,) * (frame.m - len(coords))
            witness = Polynomial._from_raw(frame, field, {exps: 1})
            rho = self.residue(g, witness)
            h[exps] = rho.value
            series = series - self.series_of(witness) * rho
            steps += 1


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
            prev = self._value_at_level(idx - 1, phi)
            if not prev.is_finite or gamma <= prev.value:
                raise InputError(
                    "augmented value must exceed the previous value of the key"
                )

    def _value_at_level(self, level: int, g: Polynomial) -> ValueResult:
        if g.is_zero:
            return ValueResult.infinite()
        if level < 0:
            # the Gauss base: x_1-order times value(x_1), x_m valued 0
            return ValueResult.finite(self.x1_value.scale(min(mono[0] for mono in g.terms)))
        phi, gamma = self.steps[level]
        # deg // deg(phi) + 1 digits, each a division over deg + 1 rows at most
        deg = g.degree_in_last()
        steps = (deg // phi.degree_in_last() + 1) * (deg + 1)
        if steps > MAX_BUDGET:
            raise InputError(f"phi-adic expansion takes {format_raw(steps)} row steps, "
                             f"more than {MAX_BUDGET}")
        best = None
        rest = g
        i = 0
        while not rest.is_zero:
            rest, coeff = rest.divmod_last(phi)
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


def _versioned(doc, what: str) -> dict:
    """``doc`` when it is a JSON object whose ``version``, if given, is the
    int DOCUMENT_VERSION (not ``true`` or ``1.0``); otherwise InputError."""
    version = _typed(doc, dict, what).get("version", DOCUMENT_VERSION)
    if type(version) is not int or version != DOCUMENT_VERSION:
        raise InputError(f"unsupported document version {version!r}")
    return doc


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
    kind = _versioned(doc, "oracle document").get("kind")
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
            arc.append(parse_series(field, arc_doc[name]))
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


def _read_members(doc: dict) -> dict:
    """The members of an arc document that ``oracle_from_document`` reads,
    each as given: a member it does not read is left out at every level,
    and so is ``context`` when no ``normalization`` is there to read it."""
    frame, _ = parse_ring(doc.get("ring", {}))
    block = {key: doc[key] for key in ("version", "kind", "f", "trunc", "normalization")
             if key in doc}
    for key, names in (("ring", ("m", "n", "gen", "char")), ("context", ("kind", "d")),
                       ("arc", [frame.var_name(i) for i in range(frame.m)])):
        if isinstance(doc.get(key), dict) and (key != "context" or "normalization" in doc):
            block[key] = {name: doc[key][name] for name in names if name in doc[key]}
    return block


def read_document(path: str):
    """The JSON document in ``path``; unreadable or malformed files (a number
    beyond the interpreter's digit limit, or nesting beyond the recursion
    limit, included) raise InputError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise InputError(f"cannot read oracle document {path}: {exc}") from exc


def load_oracle(path: str):
    return oracle_from_document(read_document(path))
