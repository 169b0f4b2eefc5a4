"""Tiny-scale end-to-end runs of every workload, traced and untraced.

Run from the repository root (about a minute)::

    python3 -m unittest discover -s perfbench/tests -p 'check_*.py' -t .
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


class SmokeTest(unittest.TestCase):
    def check(self, workload: str, trace: int, expected: list):
        out = run("--workload", workload, "--seed", "7", "--seconds", "1",
                  "--trace", str(trace), "--smoke")
        self.assertEqual(out.returncode, 0, out.stdout + out.stderr)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(
            {name: m["unit"] for name, m in result["metrics"].items()},
            {m["name"]: m["unit"] for m in expected},
        )
        return result

    def test_every_workload_untraced(self):
        for workload in SPEC["workloads"]:
            with self.subTest(workload=workload["name"]):
                result = self.check(workload["name"], 0, SPEC["end_to_end"])
                self.assertTrue(all(m["value"] > 0 for m in result["metrics"].values()))

    def test_every_workload_traced(self):
        for workload in SPEC["workloads"]:
            with self.subTest(workload=workload["name"]):
                self.check(workload["name"], 1, SPEC["per_layer"])

    def test_fails_without_the_program(self):
        bare = ROOT / "perfbench" / "_work" / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                            ignore=shutil.ignore_patterns("_work", "__pycache__"))
            out = run("--workload", "bulk_eval", "--seed", "1", "--seconds", "1",
                      "--trace", "0", cwd=bare)
            self.assertNotEqual(out.returncode, 0)
            self.assertNotIn('"metrics"', out.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
