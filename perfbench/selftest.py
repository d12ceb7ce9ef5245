#!/usr/bin/env python3
"""Self-tests of the benchmark at tiny size: python3 perfbench/selftest.py"""

from __future__ import annotations

import contextlib
import io
import json
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402  (pins the BLAS threads before numpy loads)
import calibrate  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def run_tiny(name: str, trace: bool, seed: int = 5) -> tuple[dict, str]:
    """One benchmark run of exactly two tiny passes; returns (result, stdout)."""
    bench = run.Bench(seed, seconds=0)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        result = bench.run(name, trace, workload=run.tiny(run.WORKLOADS[name]))
    return result, out.getvalue()


def pass_digests(stdout: str) -> list[str]:
    return re.findall(r"^pass \d+ \w+ seed=\d+ .* digest=(\w*) ", stdout, flags=re.M)


class BenchmarkSelfTest(unittest.TestCase):
    def test_workloads_match_spec(self):
        self.assertEqual(sorted(w["name"] for w in SPEC["workloads"]), sorted(run.WORKLOADS))

    def test_predictions_name_declared_metrics(self):
        predictions = json.loads((BENCH_DIR / "predictions.json").read_text())["predictions"]
        per_layer = {m["name"] for m in SPEC["per_layer"]}
        end_to_end = {m["name"] for m in SPEC["end_to_end"]}
        named = [m for row in predictions for m in row["metrics"]]
        self.assertEqual(sorted(named), sorted(per_layer))
        for row in predictions:
            self.assertLessEqual(set(row["via"]), per_layer)
            self.assertLessEqual(set(row["moves"]), end_to_end)

    def test_every_metric_emitted_with_its_unit(self):
        expected = {
            False: {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
            True: {m["name"]: m["unit"] for m in SPEC["per_layer"]},
        }
        for name in run.WORKLOADS:
            for trace in (False, True):
                with self.subTest(workload=name, trace=trace):
                    result, _ = run_tiny(name, trace)
                    self.assertTrue(result["correct"])
                    self.assertEqual((result["attempted"], result["failed"]), (2, 0))
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, expected[trace])
                    for metric in result["metrics"].values():
                        self.assertIsInstance(metric["value"], float)

    def test_corrupted_artifact_fails_the_determinism_check(self):
        cli = run.load_program()[2]
        original = cli._update_summary
        run_dirs = []  # warm-up, first pass, second pass

        def update_then_corrupt(out_dir, cfg, section, payload):
            original(out_dir, cfg, section, payload)
            if out_dir not in run_dirs:
                run_dirs.append(out_dir)
            if section == "eshop" and run_dirs.index(out_dir) == 2:
                with open(f"{out_dir}/summary.json", "a") as fh:
                    fh.write("\n")

        cli._update_summary = update_then_corrupt
        try:
            result, stdout = run_tiny("ref-los", trace=False)
        finally:
            cli._update_summary = original
        self.assertEqual(len(run_dirs), 3)
        self.assertFalse(result["correct"])
        self.assertEqual((result["attempted"], result["failed"]), (2, 1))
        self.assertIn("artifact digest", stdout)

    def test_tracing_changes_no_output(self):
        """The untraced pass also runs under the speed probe, the traced one does not."""
        result, stdout = run_tiny("infer-w64", trace=True)
        digests = pass_digests(stdout)
        self.assertEqual(len(digests), 2)
        self.assertTrue(digests[0])
        self.assertEqual(digests[0], digests[1])
        self.assertTrue(result["correct"])

    def test_speed_probe_samples_and_restores_the_handler(self):
        before = signal.getsignal(signal.SIGALRM)
        with calibrate.SpeedProbe(interval_s=0.005) as probe:
            t = time.perf_counter()
            while time.perf_counter() - t < 0.2:
                pass
            wall = time.perf_counter() - t
        self.assertIs(signal.getsignal(signal.SIGALRM), before)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))
        self.assertGreater(len(probe.times), 5)
        self.assertLess(sum(probe.times), wall)
        self.assertGreater(probe.normalise(wall), 0.0)

    def test_exits_nonzero_without_the_program(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(BENCH_DIR, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
            proc = subprocess.run(
                [sys.executable, *SPEC["command"][1:], "--workload", "ref-los",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
