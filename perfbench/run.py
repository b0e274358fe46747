#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <sweep-cold|replay-warm|serve-mix> \
        --seed <n> --trace <0|1> [--seconds <s>]

Run it from the repository root. Every workload does a fixed number of
operations; --seconds is recorded only. The build goes to $CARGO_TARGET_DIR
(default .bench_build); result records, Chrome traces and the run's
scratch stores go to <target dir>/perfbench. A failed build exits
non-zero without printing a result.
"""

import os
import subprocess
import sys


def capture(argv, cwd):
    """The first line of a command's output, or 'unknown'."""
    try:
        out = subprocess.run(argv, cwd=cwd, capture_output=True, text=True, check=True)
        return out.stdout.strip().splitlines()[0]
    except (OSError, subprocess.CalledProcessError, IndexError):
        return "unknown"


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    manifest = os.path.join(root, "perfbench", "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--locked", "-q", "--manifest-path", manifest],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    if os.path.isdir(os.path.join(root, ".git")):
        env["PERFBENCH_GIT_REV"] = capture(["git", "rev-parse", "HEAD"], root)
    else:
        env["PERFBENCH_GIT_REV"] = "unknown (not a git checkout)"
    env["PERFBENCH_RUSTC"] = capture(["rustc", "--version"], root)
    # Relative to the working directory, so the serve workload's Unix
    # socket path stays short.
    env["PERFBENCH_OUT"] = os.path.relpath(os.path.join(os.path.abspath(target), "perfbench"))
    binary = os.path.join(os.path.abspath(target), "release", "perfbench")
    return subprocess.run([binary] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
