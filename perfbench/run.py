#!/usr/bin/env python3
"""Builds the benchmark and the `serve` daemon from source, then makes one
benchmark run. Run it from the repository root:

    python3 perfbench/run.py --workload machine --seed 1 --seconds 20 --trace 0

Both builds go to $CARGO_TARGET_DIR (default `.bench_build`). Every other
argument is passed to the `vrm-perfbench` binary, whose last line of
standard output is the run's JSON result (see perfbench/README.md). When a
build fails the script exits with code 2 and prints no result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["--manifest-path", os.path.join(HERE, "Cargo.toml")],
        ["--manifest-path", os.path.join(ROOT, "Cargo.toml"), "-p", "vrm-serve", "--bin", "serve"],
    ]
    for extra in builds:
        cmd = ["cargo", "build", "--release", "--offline", "-q", *extra]
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 2
    release = os.path.join(target, "release")
    cmd = [
        os.path.join(release, "vrm-perfbench"),
        *sys.argv[1:],
        "--serve-bin", os.path.join(release, "serve"),
        "--work-dir", os.path.join(target, "perfbench-work"),
    ]
    return subprocess.run(cmd, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
