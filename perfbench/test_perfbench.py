#!/usr/bin/env python3
"""Tests of the benchmark itself.

Run from the root of a checkout (builds the driver on first use):

    python3 -m unittest perfbench/test_perfbench.py

They check that every count metric repeats exactly across two runs with
one seed, that the traced run changes no simulated statistic, that the
held-out seed changes the sweep_replay digest and still passes every
check, and that the benchmark fails cleanly without the simulator
sources.
"""

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN = [sys.executable, str(BENCH_DIR / "run.py")]
WORKLOADS = ("ilp_steady", "ci_recovery", "sweep_replay")
SEED = 3
HELD_OUT_SEED = 9973   # never used while the benchmark was tuned

# Per-layer metrics that are simulated counts or ratios of them: they
# must repeat bit for bit. Host-time metrics are excluded.
COUNT_UNITS = {"count", "1/kinst", "traces", "requests", "bytes"}
HOST_RATIOS = {"core.compute_share", "harness.parallel_efficiency",
               "trace_overhead_frac"}

_cache = {}


def run(workload, seed, trace, tag=""):
    """Run the benchmark for one second; returns (stdout lines, result)."""
    key = (workload, seed, trace, tag)
    if key not in _cache:
        proc = subprocess.run(
            RUN + ["--workload", workload, "--seed", str(seed),
                   "--seconds", "1", "--trace", str(trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        assert proc.returncode == 0 and result["correct"], proc.stdout
        _cache[key] = (lines, result)
    return _cache[key]


def digest(lines, kind="digest"):
    return [l.split()[2] for l in lines if l.split()[0] == kind][0]


def count_metrics(result):
    return {k: v["value"] for k, v in result["metrics"].items()
            if v["unit"] in COUNT_UNITS or
            (v["unit"] == "ratio" and k not in HOST_RATIOS)}


class CountsRepeat(unittest.TestCase):
    def test_counts_repeat_with_one_seed(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                a_lines, a = run(w, SEED, 1)
                b_lines, b = run(w, SEED, 1, tag="again")
                self.assertEqual(count_metrics(a), count_metrics(b))
                self.assertEqual(digest(a_lines), digest(b_lines))
                self.assertEqual(a["metrics"].keys(), b["metrics"].keys())

    def test_simulated_end_to_end_repeat(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                _, a = run(w, SEED, 0)
                _, b = run(w, SEED, 0, tag="again")
                for m in ("ipc", "ci_speedup"):
                    self.assertEqual(a["metrics"][m]["value"],
                                     b["metrics"][m]["value"])


class Contract(unittest.TestCase):
    def test_metrics_match_benchmark_json(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in spec[section]}
            for w in WORKLOADS:
                with self.subTest(workload=w, trace=trace):
                    _, result = run(w, SEED, trace)
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)


class TracingObserves(unittest.TestCase):
    def test_traced_run_changes_no_count(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                plain, _ = run(w, SEED, 0)
                traced, _ = run(w, SEED, 1)
                self.assertEqual(digest(plain), digest(traced))
                self.assertEqual(digest(traced),
                                 digest(traced, "digest_traced"))


class HeldOutSeed(unittest.TestCase):
    def test_held_out_seed_changes_sweep_digest(self):
        tuned, _ = run("sweep_replay", SEED, 0)
        held, result = run("sweep_replay", HELD_OUT_SEED, 0)
        self.assertNotEqual(digest(tuned), digest(held))
        self.assertEqual(result["failed"], 0)

    def test_held_out_seed_passes_live_workloads(self):
        for w in ("ilp_steady", "ci_recovery"):
            with self.subTest(workload=w):
                _, result = run(w, HELD_OUT_SEED, 0)
                self.assertEqual(result["failed"], 0)


class Standalone(unittest.TestCase):
    def test_fails_without_simulator_sources(self):
        scratch = ROOT / ".bench_build"
        scratch.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as d:
            shutil.copy(ROOT / "BENCHMARK.json", d)
            shutil.copytree(BENCH_DIR, Path(d) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "ilp_steady", "--seed", "1", "--seconds", "1",
                 "--trace", "0"],
                cwd=d, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True, timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
