#!/usr/bin/env python3
"""Build and run the clearsim benchmark.

    python3 perfbench/run.py --workload grid|adaptive|service \
        --seed N --seconds S --trace 0|1

Run from the root of a source tree. The first call configures and
builds perfbench/ (Release) into .bench_build/ (or $CARGO_TARGET_DIR
when set), later calls rebuild incrementally. The self-tests run
before every measurement. Build output goes to stderr; stdout carries
the benchmark's report, whose last line is the JSON result.
"""

import argparse
import hashlib
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_LIMIT_S = 170


def build(build_dir):
    """Configure (once) and build the benchmark; True on success."""
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not (build_dir / "Makefile").exists():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B",
                      str(build_dir), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs,
                  "--target", "clearsim_perfbench", "perfbench_selftest"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["grid", "adaptive", "service"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        parser.error("--seed must be >= 0 and --seconds in [1, 60]")

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    build_dir = target / "perfbench"
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1

    binary = build_dir / "clearsim_perfbench"
    selftest = subprocess.run(
        [str(build_dir / "perfbench_selftest"), str(build_dir / "selftest")],
        stdout=sys.stderr, stderr=sys.stderr, cwd=ROOT, timeout=60)
    if selftest.returncode != 0:
        print("perfbench: self-tests failed", file=sys.stderr)
        return 1

    # Digests are compared across runs of the same binary only.
    build_id = hashlib.sha256(binary.read_bytes()).hexdigest()[:16]
    ledger = target / "ledger" / f"{build_id}.txt"
    ledger.parent.mkdir(parents=True, exist_ok=True)
    # A private directory per run, relative to the root so the daemon
    # socket path stays short.
    workdir = os.path.relpath(
        target / "runs" / f"{args.workload}-{args.seed}-{os.getpid()}",
        ROOT)

    start = time.monotonic()
    try:
        bench = subprocess.run(
            [str(binary), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--workdir", workdir,
             "--ledger", str(ledger)],
            stdout=subprocess.PIPE, stderr=sys.stderr, cwd=ROOT,
            text=True, timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_LIMIT_S, file=sys.stderr)
        return 1
    lines = bench.stdout.rstrip("\n").splitlines()
    if bench.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stderr.write(bench.stdout)
        print("perfbench: run failed (exit %d)" % bench.returncode,
              file=sys.stderr)
        return 1
    sys.stdout.write(bench.stdout)
    print("perfbench: run took %.1f s" % (time.monotonic() - start),
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
