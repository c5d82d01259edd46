#!/usr/bin/env python3
"""Builds the serving benchmark and runs it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout of the repository. The benchmark is a
Cargo package of its own (perfbench/Cargo.toml) with path dependencies
on the workspace crates; it is built in release mode, offline, into
$CARGO_TARGET_DIR (default: .bench_build at the checkout root), and
then run with the same arguments. Build output goes to stderr, so the
last line of stdout is the benchmark's JSON result. A failed build
exits with status 2 and prints no result.
"""

import os
import subprocess
import sys


def main() -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(root, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(root, "perfbench", "Cargo.toml"),
        ],
        cwd=root,
        env=env,
        stdout=sys.stderr,
        stdin=subprocess.DEVNULL,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    exe = os.path.join(target, "release", "perfbench")
    return subprocess.run([exe, *sys.argv[1:]], cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
