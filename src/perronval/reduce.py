"""Reduction of multiplicity along a rank-1 valuation.

One macro-step on a monic hypersurface f with 1 < r = ord f(0,..,0,x_m)
asks where value(x_m) lies (``_xm_place``):

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
TraceStep, and every defect suspicion is one DefectSuspected carrying the
diagnostics the trace prints.  ``replay_trace`` re-executes a trace
document and must reproduce the recorded polynomials byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
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
from .oracle import DOCUMENT_VERSION, ArcValuation, _required, _typed, _versioned
# build_a6_divide is not called here; perfbench/test_perfbench.py reads it as
# reduce.build_a6_divide when it checks that the tracer restores bindings
from .perron import DEFAULT_STEP_BOUND, PerronTransform, _extreme, build_a1, build_a6_divide
from .poly import Polynomial, format_ring_header, parse_polynomial, parse_ring_header
from .scalars import INFINITE, parse_rational
from .valgroup import _rows, identity_matrix, minor, pairing


@dataclass(frozen=True)
class Bounds:
    max_translations: int = 64
    max_perron_steps: int = DEFAULT_STEP_BOUND
    max_approx_steps: int = 64


@dataclass(frozen=True)
class TraceStep:
    # A1 | TRANSLATE-CHAR0 | TRANSLATE-DEFECTLESS | CASE2 | STRICT-TRANSFORM;
    # replay also accepts A6, which the driver never emits
    kind: str
    payload: dict


def _xm(oracle: ArcValuation) -> Polynomial:
    m = oracle.frame.m
    return Polynomial._from_raw(oracle.frame, oracle.field, {(0,) * (m - 1) + (1,): 1})


def _check_input(oracle):
    """Reject what the driver cannot run on: a non-arc oracle, a zero f, f
    divisible by a variable, f not monic in x_m, or a center off f = 0.  A
    monic f through the center has 1 <= ord f(0,..,0,x_m) <= deg f."""
    if not isinstance(oracle, ArcValuation):
        raise Unsupported("the reduction driver needs an arc oracle")
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
    """{l: d(l)} over the nonzero x_m-coefficients a_l of f, in ascending l,
    d(l) the least exponents of a_l, when each a_l is x^d(l) times a unit:
    the term a_l x_m^l then has value (d(l), l) . values, with no oracle
    query.  One pass over f's terms takes the least exponents of each
    x_m-degree l; a_l is x^d(l) times a unit when x^d(l) x_m^l is a term of
    f.  On a plane curve every a_l is x1^k times a unit; in more variables
    a coefficient that is not a monomial times a unit raises Unsupported,
    at the least such l."""
    least = {}
    for mono in f.terms:
        l, base = mono[-1], mono[:-1]
        d = least.get(l)
        least[l] = base if d is None else tuple(map(min, d, base))
    out = {}
    for l in sorted(least):
        d = out[l] = least[l]
        if d + (l,) not in f.terms:
            raise Unsupported(f"coefficient a_{l} is not a monomial times a unit")
    return out


def _xm_place(oracle: ArcValuation):
    """(x_m, value(x_m), its base-group coordinates or None outside the
    group): the driver's case split.  A value beyond the arc window raises
    TruncationExhausted, an infinite one InputError."""
    xm = _xm(oracle)
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
    (value(x_1..x_{m-1}), gamma) over one denominator, ordered by the exact
    sign rule, so equal values have equal rows; only rho is built as a
    Value.  Since value(f) is infinite, at least two terms reach rho."""
    dvecs = _term_exponents(oracle.f)
    values = oracle.variable_values()[: oracle.frame.m - 1] + [gamma]
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
    frame = oracle.frame
    r = oracle.f.ord_last()
    if r is INFINITE or r <= 1:
        raise PreconditionError(f"need 1 < r < infinity, got {r}")
    _, gamma_z, coords = _xm_place(oracle)
    if coords is not None:
        raise PreconditionValueInGroup(
            "value(x_m) lies in the base group; translate first"
        )

    if oracle.f.lead_constant_last() != oracle.field.one:
        raise PreconditionError("f must be monic in the last variable")
    if frame.m != 2:
        raise Unsupported(
            "embedded monomialization of the base is implemented for plane "
            "curves; higher dimension needs a monomial base valuation"
        )
    dvecs, sigma = _sigma_block(oracle, gamma_z.value)
    n = frame.n
    old_values = oracle.variable_values()[:n] + [gamma_z.value]
    sigmas = sigma["sigmas"]
    if sigmas[-1] > r:
        raise InternalContradiction("sigma_t exceeded r")

    tau = build_a1(
        old_values[:n], gamma_z.value, frame,
        residue=oracle.monomial_residue, bound=bounds.max_perron_steps,
    )
    # (d(l), l) . M = (tau_l, lambda_l)
    products = {
        l: [sum(e * row[j] for e, row in zip(dv + (l,), tau.matrix)) for j in range(n + 1)]
        for l, dv in dvecs.items()
    }
    lambdas = {l: p[n] for l, p in products.items()}
    taus = {l: tuple(p[:n]) for l, p in products.items()}
    s1 = sigmas[0]
    if any(taus[s] != taus[s1] for s in sigmas):
        raise InternalContradiction("tau exponents differ across the sigma block")
    d_minor = minor(tau.matrix, n, n)
    if any((lambdas[s] - lambdas[s1]) * d_minor != s - s1 for s in sigmas):
        raise InternalContradiction("the (lambda, sigma) proportionality failed")
    # n = 1 here, so term l has value tau_l * w' after the transform, w' > 0
    # the value of the new x_1; no term lies below rho, so tau_sigma <= tau_l
    if any(tv < taus[s1] for tv in taus.values()):
        raise InternalContradiction("the sigma block does not divide every term")
    sigma.update(
        dvecs={str(l): list(v) for l, v in sorted(dvecs.items())},
        lambdas={str(l): v for l, v in sorted(lambdas.items())},
        taus={str(l): list(v) for l, v in sorted(taus.items())},
        d=d_minor,
    )

    oracle1, steps = _strict_step(oracle, tau, "A1", {
        "transform": tau.document(),
        "sigma": sigma,
        "d_negative": d_minor < 0,
        "old_values": [str(v) for v in old_values],
    })
    _strict_sanity(oracle1.f)
    r1 = oracle1.f.ord_last()
    if r1 is INFINITE:
        raise InternalContradiction("strict transform vanished along the fiber")
    if r1 == r:
        # theorem: impossible under the entry precondition.  Before failing,
        # record the forced shape: sigma_t = r, sigma_1 = 0, |d| = 1, and
        # with d = 1 the divisibility r | d_i(sigma_1), which puts value(x_m)
        # back in the base group and contradicts the precondition.
        degenerate = sigmas[-1] == r and sigmas[0] == 0 and abs(d_minor) == 1
        divisibility = None
        if degenerate:
            divisibility = all(x % r == 0 for x in dvecs[sigmas[0]])
        raise InternalContradiction(
            f"multiplicity did not drop (degenerate shape: {degenerate}, "
            f"r divides d_i(sigma_1): {divisibility})"
        )
    if r1 > r:
        raise InternalContradiction("multiplicity increased")
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
        TraceStep(kind, {**payload, "f_after": str(g), "generation": frame1.generation}),
        TraceStep("STRICT-TRANSFORM", {
            "c": str(tau.c),
            "exponents": list(exps),
            "lambda": lam,
            "f_after": str(f1),
            "r_after": f1.ord_last(),
            "generation": frame1.generation,
        }),
    ]


def _translate(oracle: ArcValuation, h: Polynomial, new_last):
    """(oracle', value(x_m) under it) after x_m -> x_m + h, h in the base
    ring, with ``new_last`` the series (x_m - h)(arc) the caller holds; a
    translation keeps the multiplicity r."""
    f_new = oracle.f.translate_last(h)
    if f_new.ord_last() != oracle.f.ord_last():
        raise InternalContradiction("translation changed the multiplicity")
    oracle_new = oracle.translated(f_new, new_last)
    return oracle_new, oracle_new.value(_xm(oracle_new))


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
    return oracle_new, [TraceStep("TRANSLATE-CHAR0", {
        "omega": str(omega),
        "h": str(h),
        "sigma": sigma,
        "sigma_t_minus_1_eq_r_minus_1": subleading,
        "value_before": str(gamma_z),
        "value_after": str(new_gamma),
        "derivative_value": str(oracle.value(f.partial_last())),
        "f_after": str(oracle_new.f),
        "generation": oracle.frame.generation,
    })]


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
    return oracle_new, [TraceStep("TRANSLATE-DEFECTLESS", {
        "h": str(approx.h),
        "gamma": str(approx.gamma),
        "ladder": ladder,
        "f_after": str(oracle_new.f),
        "generation": oracle.frame.generation,
    })]


def case2_finish(oracle: ArcValuation):
    """Finish the run when x_m is (to the trusted window) a base element:
    substitute x_m = x^b (x_m' + beta) with beta the residue of the unit
    part, then verify the strict transform is smooth.  Returns (new_oracle,
    [CASE2, STRICT-TRANSFORM]); raises NOT-CASE2 when the certificate fails
    re-verification."""
    frame, field = oracle.frame, oracle.field
    xm, gamma_z, coords = _xm_place(oracle)
    if coords is None:
        raise NotCase2("value(x_m) is not in the base group")
    n = frame.n
    b = list(coords[:n]) + [0] * (n - len(coords))
    if any(c < 0 for c in coords) or any(coords[n:]):
        raise NotCase2("monomial exponents of x_m are not nonnegative on x_1..x_n")
    unit_mono = Polynomial.monomial(frame, field, b + [0] * (frame.m - n))
    beta = oracle.residue(xm, unit_mono)
    if beta.is_zero:
        raise NotCase2("vanishing residue for the unit part")
    matrix = identity_matrix(n + 1)
    matrix[n][:n] = b
    # I with b >= 0 in the last row: nonnegative with det 1
    tau = PerronTransform._walked("A1", tuple(tuple(r) for r in matrix), frame, beta)

    oracle1, steps = _strict_step(oracle, tau, "CASE2", {
        "transform": tau.document(),
        "beta": str(beta),
        "b": b,
        "old_values": [
            str(v) for v in oracle.variable_values()[:n] + [gamma_z.value]
        ],
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


@dataclass
class ReductionResult:
    status: str  # REDUCED-TO-SMOOTH | MULTIPLICITY-DROPPED | DEFECT-SUSPECTED | BOUND-EXHAUSTED
    oracle: ArcValuation  # the final one
    trace: list
    r_initial: int
    r_final: int
    initial_ring: str = ""
    diagnostics: dict = dc_field(default_factory=dict)


def run_reduction(oracle: ArcValuation, bounds: Bounds = Bounds()) -> ReductionResult:
    """Loop translations and Perron steps until the multiplicity reaches 1,
    with terminal diagnostics for defect suspicion and exhausted bounds."""
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
    """The trace of ``result`` with ``oracle_doc``, the document the run
    read, as its oracle block: ``replay_trace`` starts from it."""
    final = result.oracle
    return {
        "version": DOCUMENT_VERSION,
        "status": result.status,
        "r_initial": result.r_initial,
        "r_final": result.r_final,
        "ring": result.initial_ring,
        "steps": [{"kind": s.kind, **s.payload} for s in result.trace],
        "final_f": str(final.f),
        "final_generation": final.frame.generation,
        "diagnostics": result.diagnostics,
        "oracle": oracle_doc,
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
