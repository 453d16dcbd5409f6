#!/usr/bin/env python3
"""Builds the benchmark and runs its workloads, each in its own process.

    python3 benchmark/run.py [--workload W] [--seed N] [--seconds S]
                             [--trace 0|1] [--repeat K] [--smoke] [--out DIR]

Configures and builds benchmark/ (Release) into .bench_build/ at the root of
the checkout, then runs m3dfl_benchmark once per workload and repeat.  With
no --workload it runs both.  Every run prints its metrics as
`workload metric value unit` and, as its last line, one JSON object; its
result file lands in DIR (default .bench_build/results) as <workload>.json,
<workload>.<k>.json with --repeat, and <workload>.traced*.json plus
<workload>*.trace.json with --trace 1.  Build output goes to stderr.  Exits
nonzero if the build fails or any run is invalid.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ["cold_bypass", "retest_hot"]

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "--target", "m3dfl_benchmark",
                    "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr)
    return os.path.join(BUILD, "m3dfl_benchmark")


def git_sha():
    """HEAD's sha, marked -dirty when the working tree has changes."""
    def git(*args):
        return subprocess.run(["git", "-C", ROOT, *args], capture_output=True,
                              text=True, check=True).stdout.strip()
    try:
        sha = git("rev-parse", "--short=12", "HEAD")
        return sha + ("-dirty" if git("status", "--porcelain") else "")
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", default=os.path.join(BUILD, "results"))
    args = parser.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1
    sha = git_sha()
    status = 0
    for workload in [args.workload] if args.workload else WORKLOADS:
        for k in range(1, args.repeat + 1):
            tag = ".".join(t for t in ("traced" if args.trace == "1" else "",
                                       str(k) if args.repeat > 1 else "") if t)
            cmd = [binary, "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", args.trace,
                   "--out", args.out, "--git-sha", sha]
            if tag:
                cmd += ["--tag", tag]
            if args.smoke:
                cmd.append("--smoke")
            sys.stdout.flush()
            status = subprocess.run(cmd).returncode or status
    return status


if __name__ == "__main__":
    sys.exit(main())
