"""Closed-loop benchmark of perronval: one client, one thread, items sent
back to back.  Used by ``run.py``; see there for the command line.

An item of the reduction workloads (ladder, pairs, charp) is timed as
``run_reduction`` -> ``trace_document`` -> ``replay_trace``; an item of the
monomialize workload as ``monomialize`` -> rebuilding every transform from
its document and substituting again -> ``build_a6_divide`` on a monomial
pair.  Each item is then sent through ``perronval.cli.main`` on its
document file and timed separately.  All results are checked (``check``)
outside the timed regions.
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import importlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import check
import corpus
from tracer import SHARES, Tracer

MODULES = ("errors", "scalars", "poly", "valgroup", "oracle", "perron", "reduce", "defect", "cli")
# A set-up takes 0.05-0.15 s, short enough for a burst of load to spoil
# several in a row; the run sets up again about every SETUP_EVERY_S seconds
# between items and reports the median of all its set-ups.
SETUP_EVERY_S = 2.0

# The speed of a shared machine drifts by a quarter and more over minutes,
# far more than a run can average out.  A fixed pure-Python kernel
# (``calibration_s``) is timed between items about every CALIBRATION_EVERY_S
# seconds, and every time is scaled by CALIBRATION_NOMINAL_S / (the median
# of the CALIBRATION_NEAREST kernel timings nearest to it): the figures read
# as seconds on a machine on which the kernel takes CALIBRATION_NOMINAL_S.
# The kernel does not touch perronval, so a change to the program moves the
# figures in full.
CALIBRATION_NOMINAL_S = 0.025
CALIBRATION_EVERY_S = 0.5
CALIBRATION_NEAREST = 5

# Spans each workload must fire in its traced run; a span that stays at zero
# calls means a missed import site, not zero cost.
EXPECTED_SPANS = {
    "ladder": ("poly.substitute_map", "poly.strict_transform", "poly.divmod_last",
               "poly.translate_last", "poly.mul", "perron.build_a1", "perron.substitute",
               "reduce.lrm_step", "reduce.translate", "reduce.run_reduction",
               "reduce.replay_trace", "reduce.trace_document", "oracle.value",
               "valgroup.member", "cli.main"),
    "pairs": ("scalars.series_mul", "scalars.series_inverse", "scalars.series_pow",
              "perron.transform_arc", "oracle.value", "oracle.arc_consistency",
              "poly.evaluate_at_arc", "reduce.run_reduction", "cli.main"),
    "charp": ("oracle.best_approx", "oracle.residue", "valgroup.member",
              "valgroup.smith_normal_form", "reduce.translate", "poly.strict_transform",
              "cli.main"),
    "monomialize": ("perron.monomialize", "perron.build_a6_divide", "perron.substitute",
                    "valgroup.rational_relation", "poly.substitute_map", "cli.main"),
}


class BenchError(Exception):
    """The benchmark cannot run here (no program, or a broken checkout)."""


def import_perronval(src):
    """Fresh import of every perronval module from ``src``."""
    src = Path(src).resolve()
    if not (src / "perronval" / "__init__.py").is_file():
        raise BenchError(f"no perronval package under {src}")
    for name in [n for n in sys.modules if n == "perronval" or n.startswith("perronval.")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    importlib.invalidate_caches()
    pkg = importlib.import_module("perronval")
    if Path(pkg.__file__).resolve().parent != src / "perronval":
        raise BenchError(f"perronval was imported from {pkg.__file__}, not from {src}")
    return SimpleNamespace(**{m: importlib.import_module(f"perronval.{m}") for m in MODULES})


def prepare(pv, workload, seed, workdir):
    """Generate the corpus, write each document and parse it into an
    oracle (or weights and a polynomial)."""
    items = corpus.generate(workload, seed)
    for item in items:
        path = Path(workdir) / (item["id"].replace("/", "_") + ".json")
        path.write_text(json.dumps(item["doc"]), encoding="utf-8")
        item["path"] = str(path)
        oracle = pv.oracle.oracle_from_document(item["doc"])
        item["oracle"] = oracle
        if workload == "monomialize":
            item["g"] = pv.poly.parse_polynomial(oracle.frame, oracle.field, item["poly"])
    return items


def setup_once(src, workload, seed, workdir):
    """One timed set-up; returns (pv, items, seconds)."""
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    gc.collect()
    t0 = time.perf_counter()
    pv = import_perronval(src)
    items = prepare(pv, workload, seed, workdir)
    return pv, items, time.perf_counter() - t0


def setup_again(src, workload, seed, workdir):
    """Seconds of one more set-up in ``workdir``.  The run's own objects are
    frozen out of the garbage collector meanwhile, so that the set-up pays
    for collecting its own objects only, as the first one did; then the
    modules of the first set-up are put back, so the run goes on with its
    own objects."""
    def ours():
        return [n for n in sys.modules if n == "perronval" or n.startswith("perronval.")]

    saved = {n: sys.modules[n] for n in ours()}
    gc.collect()
    gc.freeze()
    try:
        return setup_once(src, workload, seed, workdir)[2]
    finally:
        gc.unfreeze()
        for n in ours():
            del sys.modules[n]
        sys.modules.update(saved)


# ---------------------------------------------------------------------------
# Items

def _cli(pv, argv):
    """Timed in-process CLI call; returns (seconds, exit code, stdout)."""
    out = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = pv.cli.main(argv)
    return time.perf_counter() - t0, code, out.getvalue()


def run_reduction_item(pv, item):
    """Timed API path, then the timed CLI path; returns (item_s, cli_s, outcome)."""
    outcome = {}
    t0 = time.perf_counter()
    try:
        result = pv.reduce.run_reduction(item["oracle"])
        doc = pv.reduce.trace_document(result, item["doc"])
        replayed = pv.reduce.replay_trace(doc)
    except Exception as exc:  # a failed item is recorded, the loop goes on
        outcome["error"] = getattr(exc, "code", type(exc).__name__)
    item_s = time.perf_counter() - t0
    if "error" not in outcome:
        outcome.update(trace=doc, replayed=replayed)
    out_path = item["path"][:-5] + ".trace.json"
    cli_s, code, _ = _cli(pv, ["reduce", "--oracle", item["path"], "--out", out_path])
    outcome["cli_exit"] = code
    outcome["cli_trace"] = None
    if code in (0, 3, 4):
        with open(out_path, encoding="utf-8") as fh:
            outcome["cli_trace"] = json.load(fh)
    return item_s, cli_s, outcome


def run_monomialize_item(pv, item):
    outcome = {}
    oracle, g = item["oracle"], item["g"]
    frame, field = oracle.frame, oracle.field
    t0 = time.perf_counter()
    try:
        res = pv.perron.monomialize(g, oracle.weights, frame)
        image, fr = g, frame
        for tau in res.transforms:
            rebuilt = pv.perron.PerronTransform.from_document(tau.document(), fr, field)
            image = rebuilt.substitute(image)
            fr = rebuilt.new_frame()
        m1, m2 = item["divide"]
        a6 = pv.perron.build_a6_divide(m1, m2, oracle.weights, frame)
        p1 = a6.substitute(pv.poly.Polynomial.monomial(frame, field, m1))
        p2 = a6.substitute(pv.poly.Polynomial.monomial(frame, field, m2))
    except Exception as exc:  # a failed item is recorded, the loop goes on
        outcome["error"] = getattr(exc, "code", type(exc).__name__)
    item_s = time.perf_counter() - t0
    if "error" not in outcome:
        outcome.update(
            doc={"transforms": [t.document() for t in res.transforms],
                 "exponents": list(res.exponents), "unit": str(res.unit)},
            image=str(image),
            divide={"matrix": [list(r) for r in a6.matrix], "m1": str(p1), "m2": str(p2)},
        )
    cli_s, code, out = _cli(pv, ["perron", "monomialize", "--weights", item["path"],
                                 "--poly", item["poly"]])
    outcome["cli_exit"] = code
    outcome["cli_doc"] = json.loads(out) if code == 0 else None
    return item_s, cli_s, outcome


def defect_exponent(pv, item):
    """delta from Ostrowski's identity with e read off the arc's lattices."""
    oracle = item["oracle"]
    e = pv.valgroup.lattice_index(oracle.full_lattice(), oracle.base_lattice())
    p = item["expect"]["degree"]
    return pv.defect.ostrowski(pv.defect.ExtensionData(degree=p, e=e, fres=1, p=p))


def check_item(pv, workload, item, outcome, digests):
    digest = digests.get(item["id"]) if digests is not None else None
    if digests is not None and digest is None:
        return ["no recorded digest for this item"]
    if workload == "monomialize":
        return check.check_monomialize(item, outcome, digest)
    delta = None
    if "delta" in item["expect"] and not outcome.get("error"):
        try:
            delta = defect_exponent(pv, item)
        except Exception as exc:  # reported as a wrong delta below
            delta = getattr(exc, "code", type(exc).__name__)
    return check.check_reduction(item, outcome, digest, delta)


def result_digest(workload, outcome):
    if outcome.get("error"):
        return None
    return check.doc_digest(outcome["doc"] if workload == "monomialize" else outcome["trace"])


def run_item(pv, workload, item):
    runner = run_monomialize_item if workload == "monomialize" else run_reduction_item
    return runner(pv, item)


# ---------------------------------------------------------------------------
# Preflight

def preflight(pv, root, workdir):
    """The golden cusp trace must come out byte for byte from the API and
    from the CLI.  Returns a list of problems."""
    golden_path = Path(root) / "tests" / "golden" / "cusp_trace.json"
    golden = golden_path.read_text(encoding="utf-8")
    oracle_doc = json.loads(golden)["oracle"]
    problems = []
    try:
        result = pv.reduce.run_reduction(pv.oracle.oracle_from_document(oracle_doc))
        text = json.dumps(pv.reduce.trace_document(result, oracle_doc), indent=2, sort_keys=True)
    except Exception as exc:  # a broken program is a failed preflight, not a crash
        text = f"{type(exc).__name__}: {exc}"
    if text + "\n" != golden:
        problems.append("API trace of the cusp differs from tests/golden/cusp_trace.json")
    cusp = Path(workdir) / "preflight_cusp.json"
    cusp.write_text(json.dumps(oracle_doc), encoding="utf-8")
    out = Path(workdir) / "preflight_cusp.trace.json"
    _, code, _ = _cli(pv, ["reduce", "--oracle", str(cusp), "--out", str(out)])
    if code != 0 or out.read_text(encoding="utf-8") != golden:
        problems.append("CLI trace of the cusp differs from tests/golden/cusp_trace.json")
    return problems


def known_defect_probe(pv, seed):
    """Outcome of each known-defect item: the error code, or the status if
    the program now handles it."""
    out = []
    for probe in corpus.known_defect_probe(seed):
        try:
            status = pv.reduce.run_reduction(pv.oracle.oracle_from_document(probe["doc"])).status
        except pv.errors.PerronvalError as exc:
            status = exc.code
        out.append((probe["class"], status))
    return out


# ---------------------------------------------------------------------------
# Measurement

def quantile(values, q):
    """Harrell-Davis estimate of the q-quantile of ``values`` (sorted): the
    mean of all order statistics weighted by the Beta(q(n+1), (1-q)(n+1))
    probability of each one's rank interval.  Unlike the nearest rank it
    does not jump when the rank falls between two item classes of very
    different cost."""
    n = len(values)
    if n == 1:
        return values[0]
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def density(x):
        if x <= 0 or x >= 1:
            return 0.0
        return math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_beta)

    weights = []
    for i in range(n):  # Simpson's rule on each rank interval
        lo, h = i / n, 1 / (16 * n)
        weights.append(sum((1 if j in (0, 16) else 4 if j % 2 else 2) * density(lo + j * h)
                           for j in range(17)) * h / 3)
    return sum(w * v for w, v in zip(weights, values)) / sum(weights)


def blocks_of(items):
    out = {}
    for item in items:
        out.setdefault(item["block"], []).append(item)
    return [out[k] for k in sorted(out)]


def calibration_s():
    """Seconds taken by a fixed pure-Python kernel: an integer loop, which
    slows like the long items when the machine is busy, and products of
    small polynomials over Fraction in dicts, which slow like the short
    ones."""
    t0 = time.perf_counter()
    s = 0
    for i in range(150_000):
        s += i * i % 7
    f = {(i, j): Fraction(i + 1, j + 2) for i in range(6) for j in range(4)}
    g = {(i, j): Fraction(2 * i - 3, i + j + 1) for i in range(5) for j in range(3)}
    for _ in range(6):
        out = {}
        for (a, b), c in f.items():
            for (d, e), h in g.items():
                out[a + d, b + e] = out.get((a + d, b + e), 0) + c * h
    return time.perf_counter() - t0


def measure(pv, workload, items, seconds, digests=None, setup_again=None):
    """Closed loop: whole blocks in corpus order, items back to back,
    wrapping around, until ``seconds`` have passed; the block in flight at
    the deadline is finished, so every run weighs the item classes as the
    blocks do.  The calibration kernel and ``setup_again`` (which returns the
    seconds of one more set-up) run between items, outside their timings.
    Returns a dict of failures and of (when, seconds[, verified]) samples
    of items, CLI calls, calibrations and set-ups."""
    item_s, cli_s, failures, calibration, setups = [], [], [], [], []
    blocks = blocks_of(items)
    start = time.perf_counter()
    deadline = start + seconds
    next_calibration = start
    next_setup = start + SETUP_EVERY_S
    k = 0
    while time.perf_counter() < deadline:
        for item in blocks[k % len(blocks)]:
            now = time.perf_counter()
            if now >= next_calibration:
                calibration.append((now, calibration_s()))
                next_calibration = time.perf_counter() + CALIBRATION_EVERY_S
            if setup_again is not None and now >= next_setup:
                setups.append((now, setup_again()))
                next_setup = time.perf_counter() + SETUP_EVERY_S
            now = time.perf_counter()
            t_item, t_cli, outcome = run_item(pv, workload, item)
            problems = check_item(pv, workload, item, outcome, digests)
            item_s.append((now, t_item, not problems))
            cli_s.append((now + t_item, t_cli, not problems))
            if problems:
                failures.append((item["id"], item["class"], problems))
        k += 1
    return {"item_s": item_s, "cli_s": cli_s, "failures": failures, "calibration": calibration,
            "setup": setups, "elapsed": time.perf_counter() - start, "blocks": k}


def latency_stats(samples, cap):
    """p50 and p90 with failed items ranked slowest, at ``cap`` seconds."""
    values = sorted(t if ok else cap for t, ok in samples)
    stats = {name: quantile(values, q) for name, q in (("p50", 0.5), ("p90", 0.9))}
    stats["n"] = len(values)
    stats["beyond_p90"] = len(values) - math.ceil(0.9 * len(values))
    return stats


def end_to_end(run):
    """The end-to-end metrics, every time scaled to the nominal speed of
    the calibration kernel, and the unscaled figures behind them."""
    when = [t for t, _ in run["calibration"]]
    loop = [s for _, s in run["calibration"]]

    def scale(t):
        k = bisect.bisect(when, t) - CALIBRATION_NEAREST // 2
        k = max(0, min(k, len(when) - CALIBRATION_NEAREST))
        return CALIBRATION_NOMINAL_S / statistics.median(loop[k:k + CALIBRATION_NEAREST])

    items = [(s * scale(t), ok) for t, s, ok in run["item_s"]]
    clis = [(s * scale(t), ok) for t, s, ok in run["cli_s"]]
    verified = sum(1 for _, ok in items if ok)
    busy = sum(s for s, _ in items)
    item = latency_stats(items, run["elapsed"])
    cli = latency_stats(clis, run["elapsed"])
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "setup_s": (statistics.median(s * scale(t) for t, s in run["setup"]), "s"),
        "items_per_s": (verified / busy if busy else 0.0, "1/s"),
        "item_s.p50": (item["p50"], "s"),
        "item_s.p90": (item["p90"], "s"),
        "cli_s.p50": (cli["p50"], "s"),
        "cli_s.p90": (cli["p90"], "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    raw = latency_stats([(s, ok) for _, s, ok in run["item_s"]], run["elapsed"])
    raw["setup_s"] = statistics.median(s for _, s in run["setup"])
    raw["scale"] = CALIBRATION_NOMINAL_S / statistics.median(loop)
    return metrics, raw


# ---------------------------------------------------------------------------
# Traced run

def traced_run(pv, workload, items, spans_path):
    """Every item of block 0, first untraced then traced.  Returns the
    per-layer metrics, the failed items as (id, class, problems), and the
    expected spans that never fired."""
    block = blocks_of(items)[0]
    tracer = Tracer()
    untraced = traced = 0.0
    failures = []
    terms_max = bits_max = 0
    for item in block:
        t_item, t_cli, _ = run_item(pv, workload, item)
        untraced += t_item + t_cli
        tracer.install(pv)
        try:
            tracer.begin_item(item["id"])
            t_item, t_cli, outcome = run_item(pv, workload, item)
            tracer.end_item()
        finally:
            tracer.uninstall()
        traced += t_item + t_cli
        problems = check_item(pv, workload, item, outcome, None)
        if problems:
            failures.append((item["id"], item["class"], problems))
        for step in (outcome.get("trace") or {}).get("steps", []):
            if "f_after" in step:
                terms_max = max(terms_max, check.terms_count(step["f_after"]))
                bits_max = max(bits_max, check.coeff_bits(step["f_after"]))
    tracer.write(spans_path)
    silent = [name for name in EXPECTED_SPANS[workload] if tracer.metric(name, "calls") == 0]
    metrics = layer_metrics(tracer, traced, untraced, len(block), terms_max, bits_max)
    return metrics, failures, silent


def layer_metrics(tracer, traced, untraced, n_items, terms_max, bits_max):
    m = {}

    def put(name, value, unit):
        m[name] = (value, unit)

    for name in ("poly.substitute_map", "poly.translate_last", "poly.strict_transform",
                 "poly.divmod_last", "poly.mul", "poly.evaluate_at_arc",
                 "scalars.series_mul", "scalars.series_inverse", "scalars.series_pow",
                 "perron.build_a1", "perron.build_a6_divide", "perron.substitute",
                 "perron.transform_arc", "oracle.value", "oracle.best_approx",
                 "oracle.arc_consistency", "valgroup.member", "valgroup.smith_normal_form",
                 "valgroup.rational_relation"):
        put(f"{name}.calls", tracer.metric(name, "calls"), "count")
        put(f"{name}.self_s", tracer.metric(name, "self_s"), "s")
    x = tracer.extra
    put("poly.divisible_by.calls", tracer.metric("poly.divisible_by", "calls"), "count")
    put("poly.strict_transform.division_yield",
        x["division_lambda"] / x["division_attempts"] if x["division_attempts"] else 0.0, "ratio")
    put("poly.terms_max", terms_max, "count")
    put("poly.coeff_bits_max", bits_max, "bits")
    put("scalars.series_terms_max", x["series_terms_max"], "count")
    put("scalars.scalar_ops", tracer.metric("scalars.scalar_ops", "calls"), "count")
    put("perron.monomialize.self_s", tracer.metric("perron.monomialize", "self_s"), "s")
    put("oracle.value.repeat_ratio",
        x["value_repeats"] / x["value_queries"] if x["value_queries"] else 0.0, "ratio")
    put("oracle.value.divisibility_yield",
        x["value_infinite"] / x["value_divisibility_checks"]
        if x["value_divisibility_checks"] else 0.0, "ratio")
    put("oracle.residue.calls", tracer.metric("oracle.residue", "calls"), "count")
    put("oracle.best_approx.ladder_steps", x["ladder_steps"], "count")
    put("valgroup.value_compare.calls", tracer.metric("valgroup.value_compare", "calls"), "count")
    for name in ("reduce.lrm_step", "reduce.translate", "reduce.case2_finish"):
        put(f"{name}.calls", tracer.metric(name, "calls"), "count")
    for name in ("reduce.run_reduction", "reduce.replay_trace", "reduce.trace_document",
                 "cli.main"):
        put(f"{name}.self_s", tracer.metric(name, "self_s"), "s")
    put("trace.overhead_ratio", untraced / traced if traced else 0.0, "ratio")
    for name in SHARES:
        put(f"share.{name}", tracer.share_s[name] / traced if traced else 0.0, "ratio")
    with_approx = tracer.items_with("oracle.best_approx")
    put("share.items_with_best_approx", len(with_approx) / n_items if n_items else 0.0, "ratio")
    return m
