#!/usr/bin/env python3
"""The benchmark's own tests: the seed changes only the order of a pass's
ops (and traffic-suite's arrival times), never which work a pass does or
what it outputs, and run.py keeps its output contract.

    python3 perfbench/test_perfbench.py

Builds nol_perfbench like run.py does (about two minutes the first time).
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

BDIR = run.build_dir()
EXE = run.build(BDIR)
CACHE = run.fill_cache(EXE, BDIR)
SEEDS = (1, 2)


def perfbench(mode, workload, seed):
    return run.child(EXE, ["--mode", mode, "--workload", workload,
                           "--seed", str(seed), "--codegen-dir", CACHE], 170)


class SeedsChangeOnlyOrder(unittest.TestCase):
    def test_same_ops_and_sessions_per_pass(self):
        for workload in run.WORKLOADS:
            a, b = (perfbench("describe", workload, s) for s in SEEDS)
            with self.subTest(workload=workload):
                self.assertEqual(a["ops"], b["ops"])
                self.assertEqual(a["contents"], b["contents"])
                self.assertEqual(sorted(a["order"]), a["ops"])
                if len(a["ops"]) > 1:
                    self.assertNotEqual(a["order"], b["order"])

    def test_traffic_sessions_cover_every_program(self):
        a, b = (perfbench("describe", "traffic-suite", s) for s in SEEDS)
        self.assertEqual(len(a["contents"]), 40)
        self.assertEqual(len(set(a["contents"])), 17)
        self.assertNotEqual(a["sequence"], b["sequence"])

    def test_same_output_digests(self):
        for workload in ("compile-suite", "paper-sweep"):
            a, b = (perfbench("digests", workload, s) for s in SEEDS)
            with self.subTest(workload=workload):
                self.assertEqual(a["failed"], 0)
                self.assertEqual(b["failed"], 0)
                self.assertEqual(a["digests"], b["digests"])


class ResultContract(unittest.TestCase):
    def run_bench(self, cwd, trace):
        return subprocess.run(
            [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
             "--workload", "compile-suite", "--seed", "3", "--seconds", "1",
             "--trace", str(trace)],
            cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, timeout=180)

    def test_last_line_has_every_end_to_end_metric(self):
        proc = self.run_bench(run.ROOT, 0)
        self.assertEqual(proc.returncode, 0)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]), set(run.END_TO_END))
        for metric in result["metrics"].values():
            self.assertGreater(metric["value"], 0)

    def test_refuses_without_program_sources(self):
        bare = tempfile.mkdtemp(prefix="bare-", dir=BDIR)
        try:
            shutil.copytree(run.HERE, os.path.join(bare, "perfbench"))
            shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
            proc = self.run_bench(bare, 0)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
