#!/usr/bin/env python3
"""Build and run the tensor-core beamformer benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --smoke

Builds the `perfbench` package in release mode (into `$CARGO_TARGET_DIR`,
default `.bench_build`), then runs it with the same arguments.  The last
line of standard output is the benchmark's JSON result.  Spans of traced
runs are written under `<target dir>/perfbench-traces/`.
"""

import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def stop(signum, _frame):
    # `subprocess.run` kills and waits for its child when interrupted.
    raise SystemExit(128 + signum)


def main(argv):
    signal.signal(signal.SIGTERM, stop)
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    # Engines look up an autotuning cache; point it at a file that does not
    # exist so every run uses the default kernel blocking and reads nothing
    # outside the checkout.
    env["TCBF_MICROTUNE_CACHE"] = os.path.join(target, "perfbench-no-microtune-cache.json")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(target, "release", "perfbench")
    args = list(argv)
    if "--smoke" not in args:
        args += ["--trace-out", os.path.join(target, "perfbench-traces")]
    try:
        run = subprocess.run([binary] + args, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
