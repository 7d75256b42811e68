#!/usr/bin/env python3
"""Build the benchmark from the checkout it sits in, then run one workload.

    python3 perfbench/run.py --workload tile-wall --seed 1 --seconds 20 --trace 0

Every build output, the Go build cache included, stays in .bench_build/ at
the root of the checkout. The benchmark runs with GOMAXPROCS=1 and GOGC=100
so that its host-time figures do not depend on the host's core count or on
the caller's environment. The last line of standard output is the result.
"""
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def main():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        print("perfbench: the repository's go.mod is missing beside perfbench/; "
              "run from a full checkout", file=sys.stderr)
        return 2
    # The go command's cache, temporary and configuration files (telemetry
    # counters included) all stay under .bench_build/ too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    build_env = dict(os.environ,
                     GOCACHE=os.path.join(BUILD, "gocache"),
                     GOPATH=os.path.join(BUILD, "gopath"),
                     GOTMPDIR=tmp,
                     XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
                     GOTOOLCHAIN="local", GOPROXY="off", GOFLAGS="", CGO_ENABLED="0")
    binary = os.path.join(BUILD, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=build_env,
                           stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    run_env = dict(os.environ, GOMAXPROCS="1", GOGC="100")
    for k in ("GOMEMLIMIT", "GODEBUG"):
        run_env.pop(k, None)
    child = subprocess.Popen([binary] + sys.argv[1:], env=run_env)

    def stop(signum, _frame):
        child.terminate()
        child.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    return child.wait()


if __name__ == "__main__":
    sys.exit(main())
