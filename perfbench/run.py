#!/usr/bin/env python3
"""Build and run the spiral-fft benchmark.

    python3 perfbench/run.py --workload <seq-sweep|par2-sweep|serve-mix> \
        --seed N --seconds S --trace 0|1 [--rate RPS] [--limit-us US] \
        [--floor-gflops GF]

Run from the root of a checkout. Builds the untraced and the traced
binary of `perfbench/` in release mode (into $CARGO_TARGET_DIR, default
`.bench_build`), then runs the one `--trace` selects. Every flag is passed
through. The last line of standard output is the run's JSON result; the
exit code is the binary's (non-zero when any output check failed, or
when the build failed, in which case no result is printed).
"""

import os
import subprocess
import sys
from pathlib import Path

# Longest a single run may take once built.
RUN_TIMEOUT_S = 170


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    manifest = root / "perfbench" / "Cargo.toml"
    target = Path(os.environ.get("CARGO_TARGET_DIR", root / ".bench_build"))
    if not target.is_absolute():
        target = root / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))

    argv = sys.argv[1:]
    trace = "0"
    for flag, value in zip(argv, argv[1:]):
        if flag == "--trace":
            trace = value

    builds = [
        ["--bin", "perfbench"],
        ["--features", "trace", "--bin", "perfbench-traced"],
    ]
    for extra in builds:
        cmd = ["cargo", "build", "--release", "--offline", "--quiet",
               "--manifest-path", str(manifest), *extra]
        # Cargo's output goes to stderr so the result stays the last line.
        done = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            print("perfbench: build failed", file=sys.stderr)
            return 3

    binary = target / "release" / ("perfbench-traced" if trace == "1" else "perfbench")
    out_dir = target / "perfbench"
    cmd = [str(binary), *argv, "--out-dir", str(out_dir)]
    try:
        done = subprocess.run(cmd, cwd=root, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 4
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
