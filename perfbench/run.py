#!/usr/bin/env python3
"""Builds the whole-mapping-run benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload fig5_tree --seed 2018 --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR (default: .bench_build at the root).
Build output goes to standard error; the benchmark's own standard output,
whose last line is the JSON result, passes through unchanged. The exit
code is the build's when the build fails, otherwise the benchmark's.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    manifest = os.path.join(ROOT, "perfbench", "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--manifest-path", manifest],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(ROOT, target, "release", "perfbench")
    return subprocess.run([exe] + sys.argv[1:], cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
