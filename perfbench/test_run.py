"""The benchmark's own tests, on smoke sizes and one known failing input.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Smoke numbers only exercise the benchmark; they never feed reported
metrics.
"""

import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.exe = run.build()
        cls.workdir = os.path.join(run.target_dir(), "perfbench-work")
        os.makedirs(cls.workdir, exist_ok=True)

    def test_smoke_runs_print_every_declared_metric(self):
        with open(os.path.join(run.HERE, "..", "BENCHMARK.json")) as f:
            bench = json.load(f)
        self.assertEqual([w["name"] for w in bench["workloads"]], list(run.WORKLOADS))
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            declared = {m["name"]: m["unit"] for m in bench[section]}
            for name in run.WORKLOADS:
                with self.subTest(workload=name, trace=trace):
                    done = subprocess.run(
                        [sys.executable, os.path.join(run.HERE, "run.py"),
                         "--workload", name, "--seed", "1", "--seconds", "0",
                         "--trace", str(trace), "--size", "smoke"],
                        capture_output=True, text=True, check=True)
                    out = json.loads(done.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(out), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(out["correct"])
                    self.assertEqual(out["failed"], 0)
                    self.assertGreaterEqual(out["attempted"], run.MIN_RUNS)
                    self.assertEqual({k: v["unit"] for k, v in out["metrics"].items()},
                                     declared)
                    if trace == 0:
                        # cpu_s counts 10 ms ticks, so a smoke-size solve
                        # may read 0; every other figure never does.
                        for k, v in out["metrics"].items():
                            if k != "cpu_s":
                                self.assertGreater(v["value"], 0, k)

    def test_named_error_counts_as_failed_run_and_benchmark_carries_on(self):
        # Known program defect: circulant 2048 cliques x Delta 16, graph
        # seed 1, pipeline seed 3, placement_prob 0.12 and defer_radius 5
        # ends in a Heg error at 1 and 2 threads.
        spec = dict(run.WORKLOADS["rand-shatter"], size={"defect": (2048, 16)},
                    args=["--placement-prob", "0.12", "--defer-radius", "5"])
        tally, metrics, _ = run.measure(self.exe, spec, "defect", 1, 0, False, self.workdir,
                                        seeds=[(1, 3)])
        self.assertEqual(tally.attempted, run.MIN_RUNS)
        self.assertEqual(tally.failed, tally.attempted)
        self.assertEqual(len(tally.errors), tally.failed)
        for err in tally.errors:
            self.assertIn("no saturating hyperedge assignment exists", err)
        # A named error is a failed run, not a wrong output.
        self.assertTrue(tally.correct)
        self.assertGreater(metrics["solve_s"][0], 0)

    def test_mismatch_with_reference_is_a_wrong_output(self):
        reference = {"digest": "00", "rounds": 7}
        tally = run.Tally()
        ok = {"ok": True, "error": None, "setup_s": 0.1, "solve_s": 1.0, "cpu_s": 1.0,
              "rounds": 7}
        tally.add(dict(ok, digest="00"), reference)
        self.assertTrue(tally.correct)
        tally.add(dict(ok, digest="01"), reference)
        self.assertEqual((tally.attempted, tally.failed), (2, 1))
        self.assertFalse(tally.correct)


if __name__ == "__main__":
    unittest.main()
