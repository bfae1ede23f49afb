#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <apsp|broadcast|handoff|durable> \
        --seed <n> --seconds <s> --trace <0|1>

The binary is built with cargo into $CARGO_TARGET_DIR (default
.bench_build) and run with the same arguments; its standard output, whose
last line is the JSON result, passes through unchanged. Build output goes
to standard error. Files the run writes (WAL directory, spans) go under
<target dir>/perfbench. The exit code is the binary's, or cargo's when the
build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)  # absolute paths stay as they are
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
    out_dir = os.path.join(target, "perfbench")
    exe = os.path.join(target, "release", "perfbench")
    run = subprocess.run([exe, *sys.argv[1:], "--out-dir", out_dir], cwd=ROOT)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
