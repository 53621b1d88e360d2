#!/usr/bin/env python3
"""Build the benchmark crate beside this file and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The crate is built in release mode into $CARGO_TARGET_DIR (default
`.bench_build`); cargo's output goes to standard error. The benchmark's
last line of standard output is its JSON result. The exit code is the
build's when the build fails, else the benchmark's.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(HERE, "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.exit(build.returncode)
    exe = os.path.join(target, "release", "geofm-perfbench")
    sys.exit(subprocess.run([exe] + sys.argv[1:], env=env).returncode)


if __name__ == "__main__":
    main()
