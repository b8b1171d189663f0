"""Reduction of multiplicity along a rank-1 valuation, for plane curves.

The driver runs on a plane curve f(x1, x2), monic in x2 = x_m, with one
independent variable (m = 2, n = 1): ``_plane_curve`` refuses any other
frame with Unsupported, at entry (``_check_input``) and in each step
function (``_xm_place``).  One macro-step with 1 < r = ord f(0, x_m) asks
where value(x_m) lies in the group generated by value(x1):

* outside the base value group, an A1 Perron transform built from the
  coefficient expansion drops the multiplicity strictly (``lrm_step``);
* inside it, a translation x_m -> x_m - h first pushes it out: the
  characteristic-0 route translates by a residue multiple of a_{r-1}
  (``char0_translate``), and the general route by the best approximation
  of x_m from the base ring (``defectless_translate``), which either exits
  the group (defectless behaviour), keeps climbing inside it (defect
  suspicion), or certifies that x_m agrees with a base element (case 2,
  finished by a single monomial substitution in ``case2_finish``).

Each step function returns (new_oracle, steps), every step a replayable
dict, ``kind`` first, as the trace prints it, and every defect suspicion is
one DefectSuspected carrying the diagnostics the trace prints.
``replay_trace`` re-executes a trace document and must reproduce the
recorded polynomials byte for byte.
"""

from __future__ import annotations

from operator import mul

from .errors import (
    BinomialObstruction,
    DefectSuspected,
    InputError,
    InternalContradiction,
    NotCase2,
    PreconditionError,
    PreconditionValueInGroup,
    StepBoundExceeded,
    TruncationExhausted,
    Unsupported,
)
from .oracle import DOCUMENT_VERSION, ArcValuation, _read_members, _required, _typed, _versioned
# build_a6_divide is not called here; perfbench/test_perfbench.py reads it as
# reduce.build_a6_divide when it checks that the tracer restores bindings
from .perron import DEFAULT_STEP_BOUND, PerronTransform, _extreme, build_a1, build_a6_divide
from .poly import Polynomial, format_ring_header, parse_polynomial, parse_ring_header
from .scalars import INFINITE, parse_rational
from .valgroup import _rows, pairing


class Bounds:
    __slots__ = ("max_translations", "max_perron_steps", "max_approx_steps")

    def __init__(self, max_translations: int = 64, max_perron_steps: int = DEFAULT_STEP_BOUND,
                 max_approx_steps: int = 64):
        self.max_translations, self.max_perron_steps = max_translations, max_perron_steps
        self.max_approx_steps = max_approx_steps


def _plane_curve(frame):
    """Refuse a frame other than a plane curve's, m = 2 with n = 1: the
    A1 step is the continued fraction of value(x2) / value(x1), and the
    base group is generated by value(x1) alone."""
    if frame.m != 2 or frame.n != 1:
        raise Unsupported(
            f"the reduction driver runs on plane curves (m = 2, n = 1), "
            f"got m = {frame.m}, n = {frame.n}"
        )


def _check_input(oracle):
    """Reject what the driver cannot run on: a non-arc oracle, a frame
    other than a plane curve's (Unsupported), a zero f, f divisible by a
    variable, f not monic in x2, or a center off f = 0.  A monic f through
    the center has 1 <= ord f(0, x2) <= deg f."""
    if not isinstance(oracle, ArcValuation):
        raise Unsupported("the reduction driver needs an arc oracle")
    _plane_curve(oracle.frame)
    f = oracle.f
    if f.is_zero:
        raise InputError("the hypersurface is zero")
    if any(f.min_exponents()):
        raise InputError("f is divisible by a variable")
    if f.lead_constant_last() != f.field.one:
        raise InputError("f must be monic in the last variable")
    if not f.constant_term().is_zero:
        raise InputError("the center does not lie on the hypersurface")


def _strict_sanity(f1: Polynomial):
    """The strict transform must not be divisible by a base variable, and a
    last-variable factor is only allowed when f1 is the smooth equation
    x_m itself (times a constant)."""
    *base, last = f1.min_exponents()
    if any(base):
        raise InternalContradiction("strict transform divisible by a base variable")
    if last and (last > 1 or len(f1.terms) != 1):
        raise InputError(
            "strict transform splits off the last variable; the input "
            "hypersurface was reducible"
        )


def _term_exponents(f: Polynomial) -> dict:
    """{l: (k,)} over the nonzero x2-coefficients a_l of the plane curve f,
    in ascending l, k the least x1-exponent of a_l.  a_l is x1^k times a
    unit, since x1^k x2^l is a term of f, so the term a_l x2^l has value
    k value(x1) + l value(x2), with no oracle query.  One pass over f's
    terms."""
    least = {}
    for (k, l) in f.terms:
        d = least.get(l)
        least[l] = (k,) if d is None or k < d[0] else d
    return dict(sorted(least.items()))


def _xm_place(oracle: ArcValuation):
    """(x_m, value(x_m), its base-group coordinates or None outside the
    group): the driver's case split, which every step function asks first.
    A frame other than a plane curve's raises Unsupported, a value beyond
    the arc window TruncationExhausted, an infinite one InputError."""
    _plane_curve(oracle.frame)
    xm = Polynomial.variable(oracle.frame, oracle.field, 1)
    gamma_z = oracle.value(xm)
    if gamma_z.is_above:
        raise TruncationExhausted("value of x_m is beyond the arc window")
    if gamma_z.is_infinite:
        raise InputError("x_m is a local equation of f; bad input")
    return xm, gamma_z, oracle.base_coords(gamma_z.value)


def _sigma_block(oracle: ArcValuation, gamma) -> tuple:
    """(dvecs, sigma) for value(x_m) = gamma: dvecs is ``_term_exponents``
    of f, and sigma the minimal term value rho with its achievers
    sigma_1 < .. < sigma_t, as the trace prints them.  Each term's value is
    an int dot product of (d(l), l) with the numerator rows of
    (value(x1), gamma) over one denominator, ordered by the exact
    sign rule, so equal values have equal rows; only rho is built as a
    Value.  Since value(f) is infinite, at least two terms reach rho."""
    dvecs = _term_exponents(oracle.f)
    values = oracle.variable_values()[:1] + [gamma]
    cols = list(zip(*_rows(values)))
    ls = list(dvecs)
    rows = [[sum(map(mul, dvecs[l] + (l,), col)) for col in cols] for l in ls]
    least = rows[_extreme(rows, range(len(rows)), gamma.context.d, -1)]
    sigmas = [l for l, row in zip(ls, rows) if row == least]
    if len(sigmas) <= 1:
        raise InternalContradiction(
            "a single minimal term contradicts value(f) = infinity"
        )
    rho = pairing(dvecs[sigmas[0]] + (sigmas[0],), values)
    return dvecs, {"rho": str(rho), "sigmas": sigmas}


def lrm_step(oracle: ArcValuation, bounds: Bounds = Bounds()):
    """One multiplicity-dropping macro-step (requires value(x_m) outside the
    base group).  Returns (new_oracle, steps)."""
    _, gamma_z, coords = _xm_place(oracle)
    r = oracle.f.ord_last()
    if r is INFINITE or r <= 1:
        raise PreconditionError(f"need 1 < r < infinity, got {r}")
    if coords is not None:
        raise PreconditionValueInGroup(
            "value(x_m) lies in the base group; translate first"
        )

    if oracle.f.lead_constant_last() != oracle.field.one:
        raise PreconditionError("f must be monic in the last variable")
    dvecs, sigma = _sigma_block(oracle, gamma_z.value)
    old_values = oracle.variable_values()[:1] + [gamma_z.value]
    sigmas = sigma["sigmas"]
    if sigmas[-1] > r:
        raise InternalContradiction("sigma_t exceeded r")

    tau = build_a1(
        old_values[:1], gamma_z.value, oracle.frame,
        residue=oracle.monomial_residue, bound=bounds.max_perron_steps,
    )
    # (d(l), l) . M = (tau_l, lambda_l) with M = ((a, b), (c, d)), whose
    # minor without its last row and column is a
    (a, b), (c, d) = tau.matrix
    taus = {l: k * a + l * c for l, (k,) in dvecs.items()}
    lambdas = {l: k * b + l * d for l, (k,) in dvecs.items()}
    s1 = sigmas[0]
    if any(taus[s] != taus[s1] for s in sigmas):
        raise InternalContradiction("tau exponents differ across the sigma block")
    if any((lambdas[s] - lambdas[s1]) * a != s - s1 for s in sigmas):
        raise InternalContradiction("the (lambda, sigma) proportionality failed")
    # term l has value tau_l * w' after the transform, w' > 0 the value of
    # the new x_1; no term lies below rho, so tau_sigma <= tau_l
    if any(tv < taus[s1] for tv in taus.values()):
        raise InternalContradiction("the sigma block does not divide every term")
    sigma.update(
        dvecs={str(l): list(v) for l, v in sorted(dvecs.items())},
        lambdas={str(l): v for l, v in sorted(lambdas.items())},
        taus={str(l): [v] for l, v in sorted(taus.items())},
        d=a,
    )

    oracle1, steps = _strict_step(oracle, tau, "A1", {
        "transform": tau.document(),
        "sigma": sigma,
        "d_negative": a < 0,
        "old_values": [str(v) for v in old_values],
    })
    _strict_sanity(oracle1.f)
    r1 = oracle1.f.ord_last()
    if r1 is INFINITE:
        raise InternalContradiction("strict transform vanished along the fiber")
    if r1 >= r:  # impossible with value(x_m) outside the base group
        raise InternalContradiction("multiplicity did not drop")
    if not oracle1.arc_consistency():
        raise InternalContradiction("transformed arc left the strict transform")
    return oracle1, steps


def _a1_image(f: Polynomial, tau: PerronTransform):
    """(g, e, lam, f_1) for the A1 transform tau: g is the image of f in
    x_m(1), which the trace prints, and g = x^e * (x_m + c)^lam * f_1.  Only
    f_1 takes a Taylor shift (inside ``strict_transform``); g is built back
    from f_1 with one binomial row of (x_m + c)^lam."""
    exps, lam, f1 = tau.substitute(f).strict_transform(tau.c)
    return f1.times_unit_power(exps, lam, tau.c), exps, lam, f1


def _strict_step(oracle: ArcValuation, tau: PerronTransform, kind: str, payload: dict):
    """Substitute tau, pass to the strict transform f_1 and the new arc, and
    return (new_oracle, [``kind`` step with ``payload``, STRICT-TRANSFORM]).
    The ``kind`` step prints the image g, which ``_a1_image`` builds from
    f_1 with one binomial row, so the step takes one Taylor shift, the one
    into f_1.  The caller checks f_1 and the new arc.  A monic f keeps f_1
    monic or with a non-constant leading coefficient, as tau is nonnegative
    with det 1, so f_1 is not rescaled."""
    g, exps, lam, f1 = _a1_image(oracle.f, tau)
    frame1 = tau.new_frame()
    oracle1 = oracle.with_arc(frame1, f1, tau.transform_arc(oracle.arc))
    return oracle1, [
        {"kind": kind, **payload, "f_after": str(g), "generation": frame1.generation},
        {
            "kind": "STRICT-TRANSFORM",
            "c": str(tau.c),
            "exponents": list(exps),
            "lambda": lam,
            "f_after": str(f1),
            "r_after": f1.ord_last(),
            "generation": frame1.generation,
        },
    ]


def _translate(oracle: ArcValuation, h: Polynomial, new_last):
    """(oracle', value(x_m) under it) after x_m -> x_m + h, h in the base
    ring, with ``new_last`` the series (x_m - h)(arc) the caller holds; a
    translation keeps the multiplicity r."""
    f_new = oracle.f.translate_last(h)
    if f_new.ord_last() != oracle.f.ord_last():
        raise InternalContradiction("translation changed the multiplicity")
    oracle_new = oracle.with_arc(oracle.frame, f_new, oracle.arc[:-1] + (new_last,))
    return oracle_new, oracle_new.value(Polynomial.variable(oracle.frame, oracle.field, 1))


def char0_translate(oracle: ArcValuation):
    """Translate x_m by the residue multiple of a_{r-1} (the route that the
    binomial theorem justifies in characteristic zero).  Returns
    (new_oracle, [TRANSLATE-CHAR0])."""
    f = oracle.f
    r = f.ord_last()
    xm, gamma_z, coords = _xm_place(oracle)
    if coords is None:
        raise PreconditionError(
            "value(x_m) is already outside the base group; run the Perron step"
        )
    a_prev = f.coeffs_last()[r - 1]
    if a_prev.is_zero:
        raise BinomialObstruction("a_{r-1} vanishes identically")
    va = oracle.value(a_prev)
    if not va.is_finite or va.value != gamma_z.value:
        raise BinomialObstruction("value(a_{r-1}) differs from value(x_m)")

    _, sigma = _sigma_block(oracle, gamma_z.value)
    sigma["dvecs"] = {}
    subleading = sigma["sigmas"][-2] == r - 1

    omega = oracle.residue(xm, a_prev)
    h = a_prev * omega
    # value(a_prev) evaluated a_prev, so h(arc) is that series times omega
    new_last = oracle.arc[-1] - oracle.series_of(a_prev) * omega
    oracle_new, new_gamma = _translate(oracle, h, new_last)
    if new_gamma.is_finite and not gamma_z.value < new_gamma.value:
        raise InternalContradiction("translation did not increase value(x_m)")
    return oracle_new, [{
        "kind": "TRANSLATE-CHAR0",
        "omega": str(omega),
        "h": str(h),
        "sigma": sigma,
        "sigma_t_minus_1_eq_r_minus_1": subleading,
        "value_before": str(gamma_z),
        "value_after": str(new_gamma),
        "derivative_value": str(oracle.value(f.partial_last())),
        "f_after": str(oracle_new.f),
        "generation": oracle.frame.generation,
    }]


def defectless_translate(oracle: ArcValuation, bounds: Bounds = Bounds()):
    """Translate x_m by its best base-ring approximation.

    MAX-OUTSIDE makes the Perron precondition hold: returns (new_oracle,
    [TRANSLATE-DEFECTLESS]).  EXACT-MATCH certifies that x_m agrees with a
    base element, and ``case2_finish`` ends the run.  Any other ladder, and
    a case 2 that fails, raise DEFECT-SUSPECTED with the diagnostics the
    trace prints.
    """
    xm, _, coords = _xm_place(oracle)
    if coords is None:
        raise PreconditionError(
            "value(x_m) is already outside the base group; run the Perron step"
        )
    approx = oracle.best_approx(bounds.max_approx_steps)
    ladder = [str(v) for v in approx.ladder]
    if approx.reason == "EXACT-MATCH":
        try:
            return case2_finish(oracle)
        except NotCase2 as exc:
            raise DefectSuspected(f"case 2 failed: {exc}", case2_rejected=str(exc),
                                  ladder=ladder, reason="NOT-CASE2") from exc
    if approx.reason is not None:
        raise DefectSuspected(
            f"approximation ladder stayed in the base group ({approx.reason})",
            ladder=ladder, reason=approx.reason,
        )
    # best_approx left the series of x_m - h in the oracle's memo
    oracle_new, new_gamma = _translate(oracle, approx.h, oracle.series_of(xm - approx.h))
    if not new_gamma.is_finite or oracle_new.base_coords(new_gamma.value) is not None:
        raise InternalContradiction("translation failed to leave the base group")
    return oracle_new, [{
        "kind": "TRANSLATE-DEFECTLESS",
        "h": str(approx.h),
        "gamma": str(approx.gamma),
        "ladder": ladder,
        "f_after": str(oracle_new.f),
        "generation": oracle.frame.generation,
    }]


def case2_finish(oracle: ArcValuation):
    """Finish the run when x_m is (to the trusted window) a base element:
    substitute x_m = x^b (x_m' + beta) with beta the residue of the unit
    part, then verify the strict transform is smooth.  Returns (new_oracle,
    [CASE2, STRICT-TRANSFORM]); raises NOT-CASE2 when the certificate fails
    re-verification.

    The substitution is the A1 transform of the in-group value: for
    value(x_m) = b value(x1), b > 0 as both values are, the continued
    fraction is the single quotient b, so ``build_a1`` gives the matrix
    ((1, 0), (b, 1)) and c = beta, the residue of x_m / x1^b.  Its bound b
    keeps the step outside ``--max-perron-steps``."""
    _, gamma_z, coords = _xm_place(oracle)
    if coords is None:
        raise NotCase2("value(x_m) is not in the base group")
    # the base group is generated by value(x1): value(x_m) = b value(x1)
    (b,) = coords
    old_values = oracle.variable_values()[:1] + [gamma_z.value]
    tau = build_a1(old_values[:1], gamma_z.value, oracle.frame,
                   residue=oracle.monomial_residue, bound=b)

    oracle1, steps = _strict_step(oracle, tau, "CASE2", {
        "transform": tau.document(),
        "beta": str(tau.c),
        "b": [b],
        "old_values": [str(v) for v in old_values],
    })
    try:
        _strict_sanity(oracle1.f)
    except InputError as exc:
        raise NotCase2(str(exc)) from exc
    r1 = oracle1.f.ord_last()
    if r1 != 1:
        raise NotCase2(f"strict transform has order {r1}, expected 1")
    if not oracle1.arc_consistency():
        raise NotCase2("transformed arc left the strict transform")
    return oracle1, steps


class ReductionResult:
    __slots__ = ("status", "oracle", "trace", "r_initial", "r_final", "initial_ring", "diagnostics")
    __hash__ = None  # a mutable record, never a key

    def __init__(self, status: str, oracle: ArcValuation, trace: list, r_initial: int,
                 r_final: int, initial_ring: str = "", diagnostics: dict | None = None):
        # REDUCED-TO-SMOOTH | MULTIPLICITY-DROPPED | DEFECT-SUSPECTED | BOUND-EXHAUSTED
        self.status, self.oracle, self.trace = status, oracle, trace  # oracle: the final one
        self.r_initial, self.r_final, self.initial_ring = r_initial, r_final, initial_ring
        self.diagnostics = {} if diagnostics is None else diagnostics


def run_reduction(oracle: ArcValuation, bounds: Bounds = Bounds()) -> ReductionResult:
    """Loop translations and Perron steps until the multiplicity reaches 1,
    with terminal diagnostics for defect suspicion and exhausted bounds.
    The run does not check that the arc satisfies f to its window, as
    ``perronval reduce`` does (exit 2); off its curve the outcome means
    nothing: the cusp x2^2 - x1^3 at trunc 40 ends DEFECT-SUSPECTED on the
    arc (t, t^2) and raises InternalContradiction on (t^2, t^3 + t^5)."""
    _check_input(oracle)
    # a private copy: the oracle's memos start empty and end with the run
    oracle = oracle.with_arc(oracle.frame, oracle.f, oracle.arc)
    r0 = oracle.f.ord_last()
    initial_ring = format_ring_header(oracle.frame, oracle.field)
    trace = []
    diagnostics = {}
    translations = 0

    def finish(status, **extra):
        diagnostics.update(extra)
        r = oracle.f.ord_last()
        if r < r0 and status in ("DEFECT-SUSPECTED", "BOUND-EXHAUSTED"):
            diagnostics["stalled_as"] = status
            status = "MULTIPLICITY-DROPPED"
        return ReductionResult(status, oracle, trace, r0, r,
                               initial_ring, diagnostics)

    try:
        while oracle.f.ord_last() != 1:
            _, _, coords = _xm_place(oracle)
            if coords is None:
                oracle, steps = lrm_step(oracle, bounds)
            elif translations >= bounds.max_translations:
                return finish("BOUND-EXHAUSTED", reason="TRANSLATION-BOUND")
            else:
                translations += 1
                steps = None
                if not oracle.field.modular:
                    try:
                        oracle, steps = char0_translate(oracle)
                    except BinomialObstruction as exc:
                        diagnostics.setdefault("binomial_obstruction", str(exc))
                if steps is None:
                    oracle, steps = defectless_translate(oracle, bounds)
            trace.extend(steps)
    except DefectSuspected as exc:
        return finish("DEFECT-SUSPECTED", **exc.diagnostics)
    except TruncationExhausted:
        return finish("BOUND-EXHAUSTED", reason="TRUNCATION")
    except StepBoundExceeded as exc:
        return finish("BOUND-EXHAUSTED", reason=exc.code, detail=str(exc))
    return finish("REDUCED-TO-SMOOTH")


# ---------------------------------------------------------------------------
# Trace documents and replay

def trace_document(result: ReductionResult, oracle_doc: dict) -> dict:
    """The trace of ``result`` with the read members of ``oracle_doc``, the
    document the run read, as its oracle block: ``replay_trace`` starts from it."""
    final = result.oracle
    return {
        "version": DOCUMENT_VERSION,
        "status": result.status,
        "r_initial": result.r_initial,
        "r_final": result.r_final,
        "ring": result.initial_ring,
        "steps": [dict(s) for s in result.trace],
        "final_f": str(final.f),
        "final_generation": final.frame.generation,
        "diagnostics": result.diagnostics,
        "oracle": _read_members(oracle_doc),
        "initial_f": oracle_doc.get("f"),
    }


def replay_trace(doc: dict) -> str:
    """Re-run the recorded substitutions and translations from the initial
    document; returns the canonical final polynomial, which must equal the
    recorded one byte for byte."""
    oracle_doc = _versioned(doc, "trace document").get("oracle")
    if oracle_doc is None:
        raise InputError("trace document lacks the oracle block")
    frame, field = parse_ring_header(_required(doc, "ring", "trace"))
    f = parse_polynomial(frame, field, _required(oracle_doc, "f", "oracle"))
    a1 = None  # (e, lam, f_1, c) of the A1 substitution just replayed
    for step in _typed(doc.get("steps", []), list, "trace steps"):
        kind = _required(step, "kind", "trace step")
        previous_a1, a1 = a1, None
        if kind in ("A1", "A6", "CASE2"):
            tau = PerronTransform.from_document(_required(step, "transform", kind), frame, field)
            if tau.kind == "A1":
                f, exps, lam, f1 = _a1_image(f, tau)
                a1 = (exps, lam, f1, tau.c)
            else:
                f = tau.substitute(f)
            frame = tau.new_frame()
        elif kind in ("TRANSLATE-CHAR0", "TRANSLATE-DEFECTLESS"):
            h = parse_polynomial(frame, field, _required(step, "h", kind))
            f = f.translate_last(h)
        elif kind == "STRICT-TRANSFORM":
            c = field.scalar(parse_rational(_required(step, "c", kind)))
            if previous_a1 is None:
                raise InputError("a STRICT-TRANSFORM step must follow an A1 or CASE2 step")
            exps, lam, f, a1_c = previous_a1
            if (list(exps) != step.get("exponents") or lam != step.get("lambda")
                    or c != a1_c):
                raise InputError("replayed strict transform differs from the record")
        else:
            raise InputError(f"unknown trace step kind {kind!r}")
        recorded = step.get("f_after")
        if recorded is not None and str(f) != recorded:
            raise InputError(f"replay diverged at a {kind} step")
    return str(f)
