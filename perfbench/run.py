#!/usr/bin/env python3
"""Build tproc-perfbench from source and run one benchmark workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ilp_steady --seed 1 --seconds 20 --trace 0

The first call configures and builds the simulator library and the
benchmark driver (CMake, Release) under the build directory, which is
$CARGO_TARGET_DIR when set and .bench_build otherwise; later calls only
rebuild what changed. The driver's standard output is passed through,
so its last line is the JSON result. The exit code is the driver's:
0 when every point passed its checks.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

WORKLOADS = ("ilp_steady", "ci_recovery", "sweep_replay")
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# A run measures for --seconds plus set-up and checks; anything past
# this is a hang, and the driver is killed instead of waiting on it.
RUN_TIMEOUT_S = 170


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    return args


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build():
    """Configure (once) and build the driver; returns its path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        sys.exit("perfbench: the simulator sources (CMakeLists.txt, src/) "
                 "are missing from %s" % ROOT)
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target",
                  "tproc-perfbench", "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: %s" % " ".join(cmd))
    return out / "tproc-perfbench"


def main():
    args = parse_args()
    exe = build()
    out = build_dir()
    work = Path(tempfile.mkdtemp(prefix="run-", dir=out))
    spans = out / "spans"
    spans.mkdir(exist_ok=True)
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(work),
           "--spans", str(spans / ("%s-seed%d.json" % (args.workload, args.seed)))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: %s did not finish within %d s"
                 % (args.workload, RUN_TIMEOUT_S))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
