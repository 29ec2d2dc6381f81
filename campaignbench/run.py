#!/usr/bin/env python3
"""Builds the campaign benchmark from source and runs one workload.

Usage (from the repository root):

    python3 campaignbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark is a Cargo package of its own (campaignbench/Cargo.toml)
that depends on the repository's crates by path. It is built in release
mode into $CARGO_TARGET_DIR (default: .bench_build at the repository
root), then run with the same arguments. Its standard output, whose last
line is the result object, is passed through; build output and progress
go to standard error. The exit code is the build's when the build fails,
else the benchmark's.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    build = subprocess.run(
        [
            "cargo", "build", "--release", "--offline", "--quiet",
            "--manifest-path", os.path.join(HERE, "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("campaignbench: build failed", file=sys.stderr)
        return build.returncode
    exe = os.path.join(target, "release", "campaignbench")
    run = subprocess.run(
        [exe, *sys.argv[1:], "--work-dir", os.path.join(HERE, "work")],
        env=env,
        stdout=subprocess.PIPE,
        text=True,
    )
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
