#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload read_socket --seed 1 --seconds 25 --trace 0

Everything the Go toolchain writes (build cache, temporary files, its
telemetry counters under the home directory it is given) and the binary stay
under .bench_build in the checkout. Arguments pass through to the benchmark
binary, whose exit code this script returns.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build")


def main():
    home = os.path.join(BUILD, "home")
    env = dict(os.environ)
    env.update({
        "HOME": home,
        "XDG_CONFIG_HOME": os.path.join(home, ".config"),
        "GOPATH": os.path.join(home, "go"),
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOMODCACHE": os.path.join(BUILD, "gomodcache"),
        "GOTMPDIR": os.path.join(BUILD, "tmp"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
    })
    for d in (env["GOTMPDIR"], env["XDG_CONFIG_HOME"]):
        os.makedirs(d, exist_ok=True)
    binary = os.path.join(BUILD, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=BENCH, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
