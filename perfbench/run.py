#!/usr/bin/env python3
"""Builds the repository benchmark from source and runs one workload.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload crash_consensus --seed 1 --seconds 10 --trace 0

The library and the benchmark binary lft_perfbench are configured and built
(Release) under $CARGO_TARGET_DIR, or .bench_build when it is unset; later
runs only rebuild what changed. The binary's standard output is passed
through, so the last line is the result object. Build output goes to
standard error. The exit code is the binary's: nonzero on any correctness
or determinism failure, and nonzero without a result when the source tree
is missing or does not build.
"""

import argparse
import fcntl
import os
import shutil
import subprocess
import sys

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build(root, build_dir):
    """Configures (once) and builds lft_perfbench; returns its path or None."""
    project = os.path.join(root, "perfbench")
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(root, "src"))):
        print("perfbench: no lft source tree (CMakeLists.txt, src/) here", file=sys.stderr)
        return None
    # The compiler's temporary files stay inside the build directory too.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", project, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", build_dir, "--target", "lft_perfbench",
                  "--parallel", "4"])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr, env=env,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except subprocess.TimeoutExpired:
            print("perfbench: build timed out", file=sys.stderr)
            return None
        if done.returncode != 0:
            print("perfbench: build failed: " + " ".join(step), file=sys.stderr)
            return None
    return os.path.join(build_dir, "lft_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="crash_consensus, single_port, fleet_catalogue or "
                             "service_closed_loop")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the benchmark's own tests")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    root = os.getcwd()
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                             "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    # One build at a time per build directory.
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        binary = build(root, build_dir)
    if binary is None:
        return 2

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace == 1:
        command += ["--trace-out",
                    os.path.join(build_dir, "trace-%s.jsonl" % args.workload)]
    if args.smoke:
        command.append("--smoke")
    sys.stdout.flush()
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S, check=False).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
