#!/usr/bin/env python3
"""Builds the LBP benchmark from source and runs one workload.

Run from the repository root:

    python3 lbpbench/run.py --workload matmul-dense --seed 1 --seconds 10 --trace 0
    python3 lbpbench/run.py --selftest

The first call configures and builds a Release tree in .bench_build/
(minutes); later calls only check it is up to date. Build output goes to
stderr, so the benchmark's last stdout line stays its JSON result.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def build(target):
    if not os.path.exists(os.path.join(BUILD, "build.ninja")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-G", "Ninja",
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", "4", "--target", target],
                   stdout=sys.stderr, check=True)
    return os.path.join(BUILD, target)


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "none"


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", default="1")
    p.add_argument("--seconds", default="10")
    p.add_argument("--trace", default="0")
    p.add_argument("--selftest", action="store_true",
                   help="build and run the benchmark's own tests")
    a = p.parse_args()
    try:
        if a.selftest:
            return subprocess.run([build("lbpbench_selftest")],
                                  cwd=ROOT).returncode
        if not a.workload:
            p.error("--workload is required")
        exe = build("lbpbench")
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1
    return subprocess.run([exe, "--workload", a.workload, "--seed", a.seed,
                           "--seconds", a.seconds, "--trace", a.trace,
                           "--commit", git_commit()], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
