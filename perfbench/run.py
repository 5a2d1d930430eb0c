#!/usr/bin/env python3
"""Build the repository benchmark from source and run it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload testbed-udp --seed 1 --seconds 10 --trace 0

The benchmark executable is built with dune (build log on stderr), then
run with the same arguments; its stdout is passed through unchanged, and
its last line is the JSON result. Outside a checkout (no dune-project
and lib/ beside perfbench/) it exits with status 2 and prints no result.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "bench.exe")


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print(
            "perfbench: run from the root of an EMPoWER checkout "
            "(dune-project and lib/ not found)",
            file=sys.stderr,
        )
        return 2
    # Keep every build artifact inside the checkout.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "perfbench/bench.exe"],
        stdout=sys.stderr,
        stderr=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    sys.stdout.flush()
    return subprocess.run([EXE] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
