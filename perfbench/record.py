"""Record the benchmark's reference data.

    python3 perfbench/record.py digests
        Run every item of every workload once at the default seed and write
        perfbench/digests.json: the corpus digest and the digest of each
        verified trace (or monomialize result).  Rerun only when an output
        format changes on purpose.

    python3 perfbench/record.py baseline
        Run run.py on every workload with seeds 1..10 (untraced, for the
        run_seconds of BENCHMARK.json) and once traced at the default seed,
        print each end-to-end metric's median and quartile spread against a
        third of its bound, and write perfbench/baseline.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import corpus  # noqa: E402
import harness  # noqa: E402

RUNS = 10


def record_digests():
    out = {}
    for workload in corpus.WORKLOADS:
        workdir = ROOT / ".perfbench_work" / f"{workload}-digests"
        pv, items, _ = harness.setup_once(ROOT / "src", workload, corpus.DEFAULT_SEED, workdir)
        digests = {}
        for item in items:
            _, _, outcome = harness.run_item(pv, workload, item)
            problems = harness.check_item(pv, workload, item, outcome, None)
            if problems:
                print(f"not recorded: {item['id']}: {'; '.join(problems)}")
                continue
            digests[item["id"]] = harness.result_digest(workload, outcome)
        out[workload] = {
            "corpus": corpus.digest(corpus.generate(workload, corpus.DEFAULT_SEED)),
            "items": digests,
        }
        print(f"{workload}: {len(digests)} of {len(items)} items recorded")
    (BENCH / "digests.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def record_baseline():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    why = {w["name"]: w["why"] for w in bench["workloads"]}
    baseline = {"workloads": {}}
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((ROOT / "src" / "perronval").glob("*.py")))
    baseline["metadata"] = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "src_lines": src_lines,
        "run_seconds": seconds,
        "runs_per_workload": RUNS,
    }
    for workload in corpus.WORKLOADS:
        results = []
        for seed in range(1, RUNS + 1):
            result, _ = run_once(workload, seed, seconds, 0)
            results.append(result)
            print(f"{workload} seed {seed}: attempted {result['attempted']} "
                  f"failed {result['failed']} correct {result['correct']}", flush=True)
        traced, lines = run_once(workload, corpus.DEFAULT_SEED, seconds, 1)
        e2e = {}
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in results]
            unit = results[0]["metrics"][name]["unit"]
            e2e[name] = {"unit": unit, "values": values, **spread(values)}
            ok = e2e[name]["spread"] < bounds[name] / 3
            print(f"  {workload} {name:12s} median {e2e[name]['median']:.6g} {unit:5s} spread "
                  f"{e2e[name]['spread']:.3f} (bound {bounds[name]}) {'ok' if ok else 'WIDE'}")
        baseline["workloads"][workload] = {
            "why": why[workload],
            "seeds": list(range(1, RUNS + 1)),
            "default_seed": corpus.DEFAULT_SEED,
            "corpus_sha256": corpus.digest(corpus.generate(workload, corpus.DEFAULT_SEED)),
            "attempted": [r["attempted"] for r in results],
            "failed": [r["failed"] for r in results],
            "correct": all(r["correct"] for r in results) and traced["correct"],
            "end_to_end": e2e,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "notes": [line for line in lines if line.startswith(("known defect", "FAILED"))],
        }
    baseline["claims"] = claims(baseline["workloads"])
    (BENCH / "baseline.json").write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")


def claims(workloads):
    """Whether the traced runs show why each workload was chosen."""
    layer = {w: data["per_layer"] for w, data in workloads.items()}
    out = {}
    if "ladder" in layer:
        out["ladder: strict_transform + substitute_map take most of the time"] = \
            layer["ladder"]["share.ladder_poly"] > 0.5
    if "pairs" in layer:
        out["pairs: series mul/inverse/pow take most of the time"] = \
            layer["pairs"]["share.pairs_series"] > 0.5
    if "charp" in layer:
        out["charp: best_approx runs on every item"] = \
            layer["charp"]["share.items_with_best_approx"] == 1
    if "monomialize" in layer:
        mine = layer["monomialize"]["share.valgroup_a6"]
        out["monomialize: valgroup + build_a6_divide share is the largest of all workloads"] = all(
            mine > other["share.valgroup_a6"] for w, other in layer.items() if w != "monomialize")
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("command", choices=("digests", "baseline"))
    args = parser.parse_args(argv)
    if args.command == "digests":
        record_digests()
    else:
        record_baseline()
    return 0


if __name__ == "__main__":
    sys.exit(main())
