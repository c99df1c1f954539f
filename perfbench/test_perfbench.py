#!/usr/bin/env python3
"""Self-tests of the repository benchmark.

    python3 perfbench/test_perfbench.py

Builds the benchmark (as run.py does) and runs every workload at the
tiny scale:
  * with 1 and then 2 host workers, asserting identical simulated
    per-layer counts;
  * untraced and traced through run.py, asserting that the last line
    has exactly the result keys and that every metric BENCHMARK.json
    names is printed, with its unit, and nothing else.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())

# Simulated (exact) per-layer counts: identical for any worker count.
SIM_METRICS = [
    "sim.cycles", "sim.insts", "mem.nvm_writes", "ppa.regions",
    "mem.wpq_full_cycles", "mem.nvm_bw_cycles", "ppa.csq_full_cycles",
    "serve.p99_cycles.ppa", "serve.p99_cycles.undo-redo-log",
    "serve.p99_cycles.delay-free", "serve.achieved_per_kcycle.ppa",
    "serve.achieved_per_kcycle.undo-redo-log",
    "serve.achieved_per_kcycle.delay-free", "tp_error_pct",
    "segment.warmup_cycle_share",
]

BINARY = None


def binary():
    global BINARY
    if BINARY is None:
        BINARY = run.build()
        if BINARY is None:
            raise RuntimeError("benchmark build failed")
    return BINARY


def run_binary(workload, workers, trace):
    cmd = [str(binary()), "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--tiny",
           "--workers", str(workers),
           "--scratch", str(run.SCRATCH / f"selftest-{workload}")]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                         check=True, timeout=run.RUN_TIMEOUT_S).stdout
    return json.loads(out.strip().splitlines()[-1])


def run_py(workload, trace):
    cmd = [sys.executable, str(run.ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", "5", "--seconds", "1",
           "--trace", str(trace), "--tiny"]
    r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                       timeout=run.RUN_TIMEOUT_S, cwd=run.ROOT)
    return r.returncode, json.loads(r.stdout.strip().splitlines()[-1])


class WorkerInvariance(unittest.TestCase):
    def test_sim_counts_repeat_for_one_and_two_workers(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                one = run_binary(w, 1, 1)
                two = run_binary(w, 2, 1)
                self.assertEqual(one["failed"], 0, one["failures"])
                self.assertEqual(two["failed"], 0, two["failures"])
                for name in SIM_METRICS:
                    self.assertEqual(one["metrics"][name]["value"],
                                     two["metrics"][name]["value"], name)
                self.assertGreater(one["metrics"]["sim.cycles"]["value"], 0)


class EveryMetricPrinted(unittest.TestCase):
    def check_mode(self, trace, key):
        declared = {m["name"]: m["unit"] for m in SPEC[key]}
        for w in run.WORKLOADS:
            with self.subTest(workload=w, trace=trace):
                code, result = run_py(w, trace)
                self.assertEqual(code, 0)
                self.assertEqual(set(result),
                                 {"correct", "attempted", "failed",
                                  "metrics"})
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                printed = {n: m["unit"]
                           for n, m in result["metrics"].items()}
                self.assertEqual(printed, declared)
                for n, m in result["metrics"].items():
                    self.assertIsInstance(m["value"], (int, float), n)

    def test_untraced_run_prints_every_end_to_end_metric(self):
        self.check_mode(0, "end_to_end")

    def test_traced_run_prints_every_per_layer_metric(self):
        self.check_mode(1, "per_layer")


class Refusals(unittest.TestCase):
    def test_unknown_workload_is_an_error(self):
        r = subprocess.run([str(binary()), "--workload", "nope"],
                           capture_output=True, text=True)
        self.assertEqual(r.returncode, 2)
        self.assertEqual(r.stdout, "")


if __name__ == "__main__":
    unittest.main(verbosity=2)
