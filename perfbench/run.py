#!/usr/bin/env python3
"""Build the end-to-end benchmark from source, then run it.

Usage, from the repository root:

    python3 perfbench/run.py --workload edit|query|mixed|restart \
        --seed N --seconds S --trace 0|1

The build goes through dune into the checkout's own _build directory,
with dune's shared cache disabled, so nothing is written outside the
checkout.  Build output goes to standard error; the benchmark's
standard output (a run-header line, then the result as the last line)
passes through unchanged, and its exit code is returned.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")


def main():
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "./perfbench/main.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    run = subprocess.run([EXE] + sys.argv[1:], cwd=ROOT, env=env)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
