"""Self-tests of the benchmark: python3 -m pytest perfbench  (or run this file)."""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import corpus  # noqa: E402
import harness  # noqa: E402
from tracer import Tracer  # noqa: E402

WORK = ROOT / ".perfbench_work" / "selftest"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(workload):
    """A few cheap items of block 0 of a workload that still reach every
    expected span."""
    items = [it for it in corpus.generate(workload, 7) if it["block"] == 0]
    if workload == "pairs":
        firsts = {}
        for it in items:
            firsts.setdefault(it["class"], it)
        return [firsts["tacnode q=3"], firsts["quartic q=7 trunc=30"]]
    keep = {
        "ladder": lambda it: it["expect"]["r_initial"] <= 4,
        "charp": lambda it: True,
        "monomialize": lambda it: it["id"].endswith(("/0", "/1", "/2")),
    }[workload]
    return [it for it in items if keep(it)]


class BenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        shutil.rmtree(WORK, ignore_errors=True)
        WORK.mkdir(parents=True)
        cls.pv = harness.import_perronval(ROOT / "src")

    def prepared(self, workload, items):
        workdir = WORK / workload
        workdir.mkdir(exist_ok=True)
        ids = {it["id"] for it in items}
        return [it for it in harness.prepare(self.pv, workload, 7, workdir) if it["id"] in ids]


class TestCorpus(BenchTest):
    def test_byte_stable_per_seed(self):
        for workload in corpus.WORKLOADS:
            a = corpus.digest(corpus.generate(workload, 3))
            self.assertEqual(a, corpus.digest(corpus.generate(workload, 3)))
            self.assertNotEqual(a, corpus.digest(corpus.generate(workload, 4)))

    def test_default_seed_matches_recorded_corpus(self):
        recorded = json.loads((BENCH / "digests.json").read_text())
        for workload in corpus.WORKLOADS:
            self.assertEqual(corpus.digest(corpus.generate(workload, corpus.DEFAULT_SEED)),
                             recorded[workload]["corpus"])

    def test_generator_does_not_import_perronval(self):
        code = ("import sys; sys.path.insert(0, sys.argv[1]); import corpus; "
                "[corpus.generate(w, 1) for w in corpus.WORKLOADS]; "
                "print(any(m.startswith('perronval') for m in sys.modules))")
        out = subprocess.run([sys.executable, "-c", code, str(BENCH)], capture_output=True,
                             text=True, check=True, timeout=120).stdout
        self.assertEqual(out.strip(), "False")

    def test_quartic_is_the_seed_curve(self):
        f = corpus.quartic_equation(1, 7)
        self.assertEqual(corpus.format_poly(f), "-x1^7 + x1^6 - 4*x1^5*x2 - 2*x1^3*x2^2 + x2^4")


class TestChecker(BenchTest):
    def run_first(self, workload, pick):
        item = next(it for it in self.prepared(workload, tiny(workload)) if pick(it))
        _, _, outcome = harness.run_item(self.pv, workload, item)
        self.assertEqual(harness.check_item(self.pv, workload, item, outcome, None), [])
        return item, outcome

    def test_flipped_f_after_byte_fails(self):
        item, outcome = self.run_first("ladder", lambda it: "shift" in it["class"])
        digest = check.doc_digest(outcome["trace"])
        for k, step in enumerate(outcome["trace"]["steps"]):
            doc = copy.deepcopy(outcome["trace"])
            text = doc["steps"][k]["f_after"]
            pos = next(i for i, ch in enumerate(text) if ch.isdigit())
            doc["steps"][k]["f_after"] = text[:pos] + str((int(text[pos]) + 1) % 10) + text[pos + 1:]
            try:
                flipped = {**outcome, "trace": doc, "replayed": self.pv.reduce.replay_trace(doc)}
            except self.pv.errors.PerronvalError as exc:
                flipped = {"error": exc.code}
            self.assertNotEqual(check.check_reduction(item, flipped), [], step["kind"])
            # the recorded digest alone also catches it
            unreplayed = {**outcome, "trace": doc}
            self.assertNotEqual(check.check_reduction(item, unreplayed, digest), [])

    def test_wrong_exit_code_fails(self):
        for workload, pick, wrong in (
            ("charp", lambda it: it["class"].startswith("defect"), 0),
            ("ladder", lambda it: True, 3),
            ("monomialize", lambda it: True, 2),
        ):
            item, outcome = self.run_first(workload, pick)
            bad = {**outcome, "cli_exit": wrong}
            self.assertNotEqual(harness.check_item(self.pv, workload, item, bad, None), [])

    def test_parse_poly_reads_generations(self):
        self.assertEqual(check.parse_poly("x1(2)^6*x2(2)^4 - 3/2*x1(2) + 7"),
                         {(6, 4): 1, (1, 0): check.Fraction(-3, 2), (0, 0): 7})


class TestTracer(BenchTest):
    def test_expected_spans_fire_on_tiny_corpora(self):
        for workload in corpus.WORKLOADS:
            items = self.prepared(workload, tiny(workload))
            metrics, failures, silent = harness.traced_run(self.pv, workload, items,
                                                           WORK / f"{workload}.spans.tsv")
            self.assertEqual((failures, silent), ([], []), workload)
            self.assertGreater(metrics["trace.overhead_ratio"][0], 0)
            self.assertEqual(set(metrics), {m["name"] for m in BENCHMARK["per_layer"]})

    def test_missing_span_reads_as_error(self):
        items = self.prepared("charp", tiny("charp"))
        saved = harness.EXPECTED_SPANS["charp"]
        harness.EXPECTED_SPANS["charp"] = saved + ("perron.build_a6_divide",)
        try:
            _, _, silent = harness.traced_run(self.pv, "charp", items, WORK / "missing.tsv")
        finally:
            harness.EXPECTED_SPANS["charp"] = saved
        self.assertEqual(silent, ["perron.build_a6_divide"])

    def test_uninstall_restores_every_binding(self):
        pv = self.pv
        before = {
            "reduce.run_reduction": pv.reduce.run_reduction,
            "cli.run_reduction": pv.cli.run_reduction,
            "reduce.build_a6_divide": pv.reduce.build_a6_divide,
            "Polynomial.__mul__": pv.poly.Polynomial.__dict__["__mul__"],
            "Polynomial.__rmul__": pv.poly.Polynomial.__dict__["__rmul__"],
            "Scalar.__radd__": pv.scalars.Scalar.__dict__["__radd__"],
        }
        tracer = Tracer()
        tracer.install(pv)
        self.assertIsNot(pv.cli.run_reduction, before["cli.run_reduction"])
        self.assertIsNot(pv.poly.Polynomial.__dict__["__rmul__"], before["Polynomial.__rmul__"])
        tracer.uninstall()
        after = {
            "reduce.run_reduction": pv.reduce.run_reduction,
            "cli.run_reduction": pv.cli.run_reduction,
            "reduce.build_a6_divide": pv.reduce.build_a6_divide,
            "Polynomial.__mul__": pv.poly.Polynomial.__dict__["__mul__"],
            "Polynomial.__rmul__": pv.poly.Polynomial.__dict__["__rmul__"],
            "Scalar.__radd__": pv.scalars.Scalar.__dict__["__radd__"],
        }
        for name, fn in before.items():
            self.assertIs(after[name], fn, name)


class TestMetrics(unittest.TestCase):
    def test_end_to_end_names_match_benchmark_json(self):
        nominal = harness.CALIBRATION_NOMINAL_S
        run = {"item_s": [(5.0, 0.1, True)], "cli_s": [(5.1, 0.2, True)], "elapsed": 1.0,
               "calibration": [(t, nominal * (1 if t < 3 else 2)) for t in range(10)],
               "setup": [(0.0, 0.5), (9.0, 0.6), (9.5, 0.8)]}
        metrics, raw = harness.end_to_end(run)
        self.assertEqual(raw["scale"], 0.5)
        # each time is scaled by the calibrations nearest to it
        self.assertEqual(metrics["setup_s"][0], 0.4)
        self.assertEqual(metrics["cli_s.p50"][0], 0.1)
        self.assertEqual(metrics["item_s.p50"][0], 0.05)
        self.assertEqual(metrics["items_per_s"][0], 20.0)
        self.assertEqual(list(metrics), [m["name"] for m in BENCHMARK["end_to_end"]])
        for m in BENCHMARK["end_to_end"]:
            self.assertEqual(metrics[m["name"]][1], m["unit"])

    def test_failed_items_rank_slowest(self):
        samples = [(0.1 * k, True) for k in range(1, 10)] + [(0.05, False)]
        stats = harness.latency_stats(samples, cap=99.0)
        capped = harness.latency_stats(samples[:9] + [(99.0, True)], cap=99.0)
        self.assertEqual(stats, capped)
        self.assertGreater(stats["p90"], 0.9)

    def test_quantile_is_smooth_and_centred(self):
        values = [float(k) for k in range(1, 102)]
        self.assertAlmostEqual(harness.quantile(values, 0.5), 51.0, places=6)
        self.assertAlmostEqual(harness.quantile(values, 0.9), 91.4, delta=0.5)
        # two classes meeting at the median: nearest rank jumps from 1 to 10
        # when one sample moves, the estimate moves by a share of the gap
        low = harness.quantile([1.0] * 50 + [10.0] * 51, 0.5)
        high = harness.quantile([1.0] * 51 + [10.0] * 50, 0.5)
        self.assertLess(abs(low - high), 1.0)


class TestBareDirectory(unittest.TestCase):
    def test_exits_nonzero_without_sources(self):
        WORK.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=WORK) as bare:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(BENCH, Path(bare) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "ladder", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=170)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
