#!/usr/bin/env python3
"""The benchmark's own test: exact counters agree, and the build workload
drives the same program as kkt_lab.

Run from the repository root (builds the binary first, then ~10 minutes of
runs):

    python3 kkt_bench/test_kkt_bench.py

1. The exact model counters (messages_per_op, rounds_per_op, bits_per_op,
   msgs.*, core.actions.*, core.phases, ...) are identical across every run
   of a workload at one seed, whatever the run length or tracing.
2. build_dense at seed 42 is kkt_lab's scenario
   (`kkt_lab build --algo kkt-mst --family gnm --n 4096 --m 262144
   --seed 42`) and reproduces its bill: 891,922 messages, 4,721 rounds and
   151,038 broadcast-and-echoes.
3. Outside a checkout (only BENCHMARK.json and kkt_bench/) the command fails
   without printing a result.
"""
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (run.build() builds the binary)

WORKLOADS = ["build_dense", "build_sparse", "churn_async"]
EXACT_PREFIXES = ("messages_per_op", "rounds_per_op", "bits_per_op", "msgs.",
                  "core.actions.", "core.phases", "core.merges_per_fragment",
                  "core.bcast_echoes_per_op", "sim.dropped", "sim.duplicate",
                  "sim.oversized")
BINARY = None


def bench(workload, seed, seconds, trace):
    """Runs the binary; returns (result, bills). `bills` maps "counters"
    (all inputs) and "input <i>" to that bill's per-op counters."""
    out = subprocess.run(
        [str(BINARY), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        check=True, capture_output=True, text=True).stdout.splitlines()
    bills = {}
    for line in out:
        if line.startswith(("counters ", "input ")):
            label = " ".join(w for w in line.split() if "=" not in w)
            fields = dict(kv.split("=") for kv in line.split() if "=" in kv)
            ops = int(fields.pop("ops"))
            fields.pop("seed", None)
            bills[label] = {k: int(v) / ops for k, v in fields.items()}
    return json.loads(out[-1]), bills


def exact(result):
    return {k: v["value"] for k, v in result["metrics"].items()
            if k.startswith(EXACT_PREFIXES)}


class CounterAgreement(unittest.TestCase):
    def test_exact_counters_repeat_across_runs(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                short, c_short = bench(w, 3, 0, 0)
                longer, c_longer = bench(w, 3, 45, 0)
                traced_a, c_traced_a = bench(w, 3, 0, 1)
                traced_b, c_traced_b = bench(w, 3, 5, 1)
                for r in (short, longer, traced_a, traced_b):
                    self.assertTrue(r["correct"])
                    self.assertEqual(r["failed"], 0)
                self.assertEqual(exact(short), exact(longer))
                self.assertEqual(exact(traced_a), exact(traced_b))
                self.assertEqual(c_short, c_longer)
                self.assertEqual(c_short, c_traced_a)
                self.assertEqual(c_short, c_traced_b)

    def test_build_dense_reproduces_kkt_lab_bill(self):
        # Input 0 of a run is the run seed itself: kkt_lab's scenario.
        for trace in (0, 1):
            result, bills = bench("build_dense", 42, 0, trace)
            self.assertTrue(result["correct"])
            self.assertEqual(bills["input 0"]["messages"], 891922)
            self.assertEqual(bills["input 0"]["rounds"], 4721)
            self.assertEqual(bills["input 0"]["bcast_echoes"], 151038)


class OutsideCheckout(unittest.TestCase):
    def test_fails_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(run.HERE, Path(tmp) / "kkt_bench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
            proc = subprocess.run(
                [sys.executable, "kkt_bench/run.py", "--workload",
                 "build_dense", "--seed", "1", "--seconds", "1", "--trace",
                 "0"], cwd=tmp, capture_output=True, text=True, timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    BINARY = run.build()
    unittest.main()
