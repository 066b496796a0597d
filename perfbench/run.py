#!/usr/bin/env python3
"""Builds and runs the hpf90d end-to-end benchmark.

    python3 perfbench/run.py --workload table2 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --test

The benchmark and the library it measures are compiled from the repository
sources (CMake, Release) into .bench_build/perfbench under the repository
root; later runs rebuild only what changed. The last line of standard output
is the benchmark's JSON result. --test builds and runs the benchmark's own
test instead.
"""
import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_REL = Path(".bench_build") / "perfbench"
BUILD = ROOT / BUILD_REL
RUN_TIMEOUT_S = 170


def build():
    """Configures on first use, then builds; exits non-zero on failure."""
    BUILD.mkdir(parents=True, exist_ok=True)
    log_path = BUILD / "build.log"
    with open(log_path, "w") as log:
        steps = []
        if not (BUILD / "build.ninja").exists() and not (BUILD / "Makefile").exists():
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                          "-DCMAKE_BUILD_TYPE=Release", *generator])
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", str(BUILD), "--parallel", jobs])
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT) != 0:
                log.flush()
                tail = log_path.read_text(errors="replace").splitlines()[-30:]
                sys.stderr.write("perfbench: build failed:\n" + "\n".join(tail) + "\n")
                sys.exit(1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["table2", "serve_mix"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--test", action="store_true", help="run the benchmark's own test")
    args = parser.parse_args()
    if not args.test and args.workload is None:
        parser.error("--workload is required")
    if not (ROOT / "src").is_dir():
        sys.stderr.write("perfbench: no hpf90d sources next to the benchmark\n")
        sys.exit(1)

    build()
    if args.test:
        sys.exit(subprocess.call(["ctest", "--test-dir", str(BUILD), "--output-on-failure"]))

    cmd = [str(BUILD / "perfbench"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", str(BUILD_REL / "out")]
    try:
        # relative paths keep the daemon's socket path short
        rc = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        sys.exit(1)
    sys.exit(rc)


if __name__ == "__main__":
    main()
