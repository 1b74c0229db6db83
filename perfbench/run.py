#!/usr/bin/env python3
"""Build the benchmark and the xqbang server from this checkout, then run
one workload.

    python3 perfbench/run.py --workload q8-plan|ws-mix|hot-read \
        --seed N --seconds S --trace 0|1

Run from the root of the repository. The build uses dune's release
profile with the shared cache off, so everything it writes stays in
_build/. The last line of stdout is the JSON result (see
perfbench/README.md)."""

import os
import subprocess
import sys

TARGETS = ["perfbench/bench.exe", "bin/xqbang.exe"]


def main():
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--profile", "release"] + TARGETS,
        stdout=sys.stderr,
        stderr=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    bench = os.path.join("_build", "default", "perfbench", "bench.exe")
    xqbang = os.path.abspath(os.path.join("_build", "default", "bin", "xqbang.exe"))
    sys.stdout.flush()
    return subprocess.call([bench] + sys.argv[1:] + ["--xqbang", xqbang], env=env)


if __name__ == "__main__":
    sys.exit(main())
