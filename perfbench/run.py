#!/usr/bin/env python3
"""Build and run the pmsnet benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload mesh-n128 --seed 1 --seconds 10 --trace 0

perfbench/ is a Go module of its own that replaces the pmsnet module with the
repository root. This script builds it into .bench_build/ (the Go build cache
lives there too, so nothing is written outside the checkout) and runs the
binary from the repository root with the same arguments. It exits nonzero,
without a result line, when the checkout holds no pmsnet sources to build.
"""

import os
import shutil
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    if not os.path.isfile(os.path.join(root, "go.mod")) or not os.path.isfile(
        os.path.join(root, "pmsnet.go")
    ):
        print("perfbench: no pmsnet sources at %s to build" % root, file=sys.stderr)
        return 2
    go = shutil.which("go")
    if go is None:
        print("perfbench: no Go toolchain on PATH", file=sys.stderr)
        return 2

    build = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOMODCACHE=os.path.join(build, "gopath", "pkg", "mod"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="",
    )
    binary = os.path.join(build, "perfbench", "perfbench")
    built = subprocess.run(
        [go, "build", "-o", binary, "."], cwd=here, env=env, stdout=sys.stderr
    )
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode
    return subprocess.run([binary] + sys.argv[1:], cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
