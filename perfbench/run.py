"""Benchmark of perronval, the exact multiplicity-reduction engine.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 25 --trace 0

Workloads (see ``corpus.py``):

* ladder: x2^a - x1^b, 3 <= a <= 8, a < b < 2a, on monomial arcs, half of
  them composed with x2 -> x2 + c*x1; the polynomial kernels do the work.
* pairs: two-Puiseux-pair quartics and tacnode-type branches on arcs that
  are not monomials; Puiseux series arithmetic does the work.
* charp: Artin-Schreier defect curves and composed branches over F_p,
  p in {2, 3, 5, 7}; the approximation ladder and modular scalars.
* monomialize: monomial-times-unit factorization and A6 divisions under two
  independent weights over Q(sqrt(d)); value groups and the A6 loop.

With ``--trace 0`` the run measures the end-to-end metrics with no
instrumentation, every time scaled to the nominal speed of a calibration
kernel timed between items (see ``harness``).  With ``--trace 1`` it runs block 0 of the corpus twice per
item, untraced and traced, and reports per-layer calls and self time; the
spans go to ``.perfbench_work/<workload>-trace/spans.tsv``.

Every output is checked; the last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  The benchmark exits
with code 2, printing no result, when the checkout holds no perronval
sources.
"""

from __future__ import annotations

import argparse
import collections
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import corpus  # noqa: E402
import harness  # noqa: E402


def load_digests(workload, seed):
    """Recorded per-item digests, used only at the default seed."""
    if seed != corpus.DEFAULT_SEED:
        return None, None
    with open(BENCH / "digests.json", encoding="utf-8") as fh:
        recorded = json.load(fh)[workload]
    return recorded["items"], recorded["corpus"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    parser.add_argument("--seed", type=int, default=corpus.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    def log(text):
        print(text, flush=True)

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{'trace' if args.trace else 'time'}"
    src = ROOT / "src"
    try:
        started = time.perf_counter()
        pv, items, setup_s = harness.setup_once(src, args.workload, args.seed, workdir)
        problems = harness.preflight(pv, ROOT, workdir)
    except (harness.BenchError, OSError) as exc:
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        return 2
    digests, corpus_digest = load_digests(args.workload, args.seed)
    found_digest = corpus.digest(corpus.generate(args.workload, args.seed))
    log(f"corpus {args.workload} seed {args.seed}: {len(items)} items, sha256 {found_digest}")
    if corpus_digest is not None and found_digest != corpus_digest:
        problems.append("corpus differs from the one recorded for the default seed")

    if args.trace:
        metrics, failures, silent = harness.traced_run(pv, args.workload, items,
                                                       workdir / "spans.tsv")
        attempted = len(harness.blocks_of(items)[0])
        problems += [f"span {name} never fired on {args.workload}" for name in silent]
    else:
        again = workdir.with_name(workdir.name + "-setup")
        run = harness.measure(
            pv, args.workload, items, args.seconds, digests,
            lambda: harness.setup_again(src, args.workload, args.seed, again))
        run["setup"].insert(0, (started, setup_s))
        metrics, raw = harness.end_to_end(run)
        failures = run["failures"]
        attempted = len(run["item_s"])
        log(f"measured {run['elapsed']:.2f} s, {run['blocks']} blocks of the corpus; "
            f"{attempted} items; item_s.p90 has {raw['beyond_p90']} samples "
            f"beyond it (n={raw['n']}); {len(run['setup'])} set-ups")
        log(f"calibration kernel: median {harness.CALIBRATION_NOMINAL_S / raw['scale']:.6f} s over "
            f"{len(run['calibration'])} timings (nominal {harness.CALIBRATION_NOMINAL_S} s); "
            f"unscaled: setup_s {raw['setup_s']:.6g} s, item_s.p50 {raw['p50']:.6g} s, "
            f"item_s.p90 {raw['p90']:.6g} s")
    for item_id, cls, found in failures:
        log(f"FAILED {item_id} ({cls}): {'; '.join(found)}")
    for problem in problems:
        log(f"FAILED {problem}")
    codes = collections.Counter(found[0].split()[1] if found[0].startswith("error ") else "WRONG"
                                for _, _, found in failures)
    log(f"fail_ratio {len(failures) / attempted:.6g} ({len(failures)} of {attempted}; "
        f"by code {dict(codes)})")
    if args.workload == "pairs":
        for name, status in harness.known_defect_probe(pv, args.seed):
            log(f"known defect: {name} -> {status} (outside the timed loop)")
    for name, (value, unit) in metrics.items():
        log(f"{args.workload} {name} {value:.6g} {unit}")
    result = {
        "correct": not problems and not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
