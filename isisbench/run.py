#!/usr/bin/env python3
"""Builds the ISIS benchmark from source and runs one workload.

Usage, from the repository root:

    python3 isisbench/run.py --workload navigate|edit|workstation \\
        --seed N --seconds S --trace 0|1
    python3 isisbench/run.py --selfcheck

The first call configures and builds `isisbench/` (which compiles the
program's `src/`) into `.bench_build/isisbench`; later calls only rebuild
what changed. Build output goes to stderr. The benchmark binary's standard
output passes through unchanged: a header line, per-class op counts, and as
the last line one JSON object with `correct`, `attempted`, `failed` and
`metrics`. Durable files live in a per-run directory under `.bench_build`
that is removed afterwards.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "isisbench")
BINARY = os.path.join(BUILD, "isis_bench")
# Beyond its timed phase (at most 2 x --seconds), a run spends up to this
# long on set-up, checks, recoveries and the traced replays.
RUN_OVERHEAD_S = 120


def build():
    """Configures (once) and builds the benchmark; False on any failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "server", "session.h")):
        print("isisbench: the program's sources (src/) are missing",
              file=sys.stderr)
        return False
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"] + generator)
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return os.path.isfile(BINARY)


def git_sha():
    """The checkout's commit, or "unknown" outside a git repository."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12",
                              "HEAD"], capture_output=True, text=True,
                             timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload",
                        choices=["navigate", "edit", "workstation"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args()
    if not args.selfcheck and args.workload is None:
        parser.error("--workload is required")

    if not build():
        print("isisbench: build failed", file=sys.stderr)
        return 1

    run_dir = os.path.join(BUILD_ROOT, "runs", str(os.getpid()))
    os.makedirs(run_dir, exist_ok=True)
    if args.selfcheck:
        cmd = [BINARY, "--selfcheck", "--dir", run_dir]
    else:
        cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--dir", run_dir, "--git-sha", git_sha()]
    timeout_s = 2 * args.seconds + RUN_OVERHEAD_S
    proc = subprocess.Popen(cmd)
    try:
        code = proc.wait(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("isisbench: run exceeded %d s" % timeout_s, file=sys.stderr)
        code = 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
