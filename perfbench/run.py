#!/usr/bin/env python3
"""Builds and runs one perfbench workload against syntox_serve.

    python3 perfbench/run.py [--workload cold|edit|deep] [--seed N]
                             [--seconds S] [--trace 0|1]

Defaults: --workload cold --seed 1 --seconds 10 --trace 0.

Run from the repository root. The first run configures and builds the
daemon and the load generator from the sources into $CARGO_TARGET_DIR
(default .bench_build) with CMake; later runs only rebuild what changed.
--trace 0 is the timed run and prints the end-to-end metrics; --trace 1
is the traced run and prints the per-layer metrics. Either way the last
line of stdout is the JSON result; build output goes to stderr. See
perfbench/README.md for the workloads and metrics.
"""

import argparse
import os
import shutil
import subprocess
import sys


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="cold",
                        choices=["cold", "edit", "deep"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no Syntox++ sources next to perfbench/")
    build_root = os.path.join(
        root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build = os.path.join(build_root, "perfbench")

    def step(cmd):
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))

    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(root, "perfbench"),
                     "-B", build, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        step(configure)
    step(["cmake", "--build", build, "-j", str(os.cpu_count() or 1)])

    tool = "perfbench_traced" if args.trace else "perfbench"
    cmd = [os.path.join(build, tool),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--daemon", os.path.join(build, "syntox", "serve", "syntox_serve"),
           "--out-dir", os.path.join(build_root, "perfbench-runs")]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
