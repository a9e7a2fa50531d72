#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <b4-dp-bnb|b4-pop-root|fig1-jobs> \
        --seed N --seconds S --trace 0|1

The release binary is built with cargo (offline) into $CARGO_TARGET_DIR,
default `.bench_build` at the repository root, then run from the root with
the same arguments. Its standard output passes through unchanged: the last
line is the result object. Exits nonzero, without a result, if the build
fails or the run does not finish in time.
"""

import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 170


def run_group(cmd, timeout, env, stdout=None):
    """Run cmd in its own process group; on timeout or on SIGTERM/SIGINT
    kill the whole group (the job workload's sandboxed worker children
    included) and wait for it."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=stdout, start_new_session=True)

    def stop(signum, _frame):
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"perfbench: {cmd[0]} timed out after {timeout}s", file=sys.stderr)
        return None


def main():
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    build = [
        "cargo", "build", "--release", "--offline", "--locked",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    # Cargo's progress goes to stderr; stdout stays for the result.
    if run_group(build, BUILD_TIMEOUT_S, env, stdout=sys.stderr) != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(target, "release", "perfbench")
    code = run_group([binary] + sys.argv[1:], RUN_TIMEOUT_S, env)
    return 1 if code is None else code


if __name__ == "__main__":
    sys.exit(main())
