"""Smoke test of the benchmark.

Runs every workload briefly with tracing off and on, and checks that each
metric `BENCHMARK.json` declares is reported with its unit, that every
output was correct, and that the benchmark refuses to run without the
program's sources.  Run from the root of a checkout:

    python3 -m unittest perfbench/test_smoke.py
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_benchmark(cwd, args, target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py")] + args,
        cwd=cwd, env=env, capture_output=True, text=True, timeout=900,
    )


class Smoke(unittest.TestCase):
    def test_every_declared_metric_is_reported_with_its_unit(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
        run = run_benchmark(ROOT, ["--smoke"], os.path.join(ROOT, ".bench_build"))
        self.assertEqual(run.returncode, 0, run.stdout[-4000:] + run.stderr[-4000:])
        runs = [json.loads(line[len("SMOKE "):])
                for line in run.stdout.splitlines() if line.startswith("SMOKE ")]
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in bench[kind]}
            for workload in bench["workloads"]:
                found = [r for r in runs
                         if r["workload"] == workload["name"] and r["trace"] == trace]
                self.assertEqual(len(found), 1, (workload["name"], trace))
                self.assertTrue(found[0]["correct"], found[0])
                metrics = found[0]["metrics"]
                self.assertEqual({k: v["unit"] for k, v in metrics.items()}, expected)
                for name, metric in metrics.items():
                    self.assertIsInstance(metric["value"], (int, float), name)
        result = json.loads(run.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), RESULT_KEYS)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)

    def test_fails_without_the_program_sources(self):
        with tempfile.TemporaryDirectory() as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("target", "__pycache__"))
            run = run_benchmark(
                bare,
                ["--workload", "ultrasound-int1", "--seed", "1", "--seconds", "1",
                 "--trace", "0"],
                os.path.join(bare, ".bench_build"),
            )
        self.assertNotEqual(run.returncode, 0)
        self.assertNotIn('"correct"', run.stdout)


if __name__ == "__main__":
    unittest.main()
