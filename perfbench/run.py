#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <n> --trace <0|1>

`--trace 0` runs the `perfbench` binary (end-to-end metrics); `--trace 1`
runs `perfbench-traced`, the same benchmark built with a counting global
allocator (per-layer metrics). The last line of standard output is the
result object. Build output goes to standard error; the build honours
`CARGO_TARGET_DIR`.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "Cargo.toml")


def trace_flag(argv):
    for flag, value in zip(argv, argv[1:]):
        if flag == "--trace":
            return value
    return None


def main(argv):
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--bins",
         "--manifest-path", MANIFEST],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    binary = "perfbench-traced" if trace_flag(argv) == "1" else "perfbench"
    return subprocess.run([os.path.join(os.path.abspath(target), "release", binary)] + argv).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
