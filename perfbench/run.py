#!/usr/bin/env python3
"""Builds the campaign benchmark from source and runs one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload snapshot --seed 1 --seconds 20 --trace 0

The arguments are passed through to the benchmark binary (see
perfbench/src/main.rs). Cargo output goes to standard error, so the last
line of standard output is the benchmark's JSON result. The build goes
to $CARGO_TARGET_DIR, or to .bench_build when that is not set. Exits with
the binary's code, or non-zero without a result when the build fails.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "perfbench", "Cargo.toml")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def main():
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, env["CARGO_TARGET_DIR"])
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--locked", "--quiet",
         "--manifest-path", MANIFEST],
        cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(target, "release", "perfbench")
    run = subprocess.run([binary] + sys.argv[1:], cwd=ROOT, timeout=RUN_TIMEOUT_S)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
