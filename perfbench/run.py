#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <svc-disjoint|svc-overlap|vm-arena> \
        --seed <n> --seconds <s> --trace <0|1>

The benchmark is its own Cargo package (perfbench/Cargo.toml) with path
dependencies on the workspace crates, so it is built from source here,
into $CARGO_TARGET_DIR (default: .bench_build at the repository root).
Build output goes to stderr; the benchmark's last stdout line is its JSON
result. Result files and traced spans land in <target dir>/perfbench-out.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(target, "release", "perfbench")
    out_dir = os.path.join(target, "perfbench-out")
    return subprocess.run([exe, *sys.argv[1:], "--out-dir", out_dir], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
