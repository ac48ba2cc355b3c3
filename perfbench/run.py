#!/usr/bin/env python3
"""Build `serve` and the benchmark from source, then run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload hot_read|cold_eval|update_mix \
        --seed N --seconds S --trace 0|1 [--holdout]

Builds land in $CARGO_TARGET_DIR (default `.bench_build`). Build output
goes to stderr; the benchmark's report and its final JSON line go to
stdout. Exits non-zero, without a result line, when the sources are
missing, a build fails, or the run exceeds its time limit.
"""

import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def run(cmd, timeout, **kw):
    """Run `cmd` in its own process group; kill the whole group on timeout
    or when this script is terminated."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)

    def terminate(signum, _frame):
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, terminate)
    signal.signal(signal.SIGINT, terminate)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"run.py: {cmd[0]} exceeded {timeout}s", file=sys.stderr)
        return None


def main():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(ROOT, target))
    started = time.monotonic()
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "-p", "expfinder-server", "--bin", "serve"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ]
    for cmd in builds:
        left = BUILD_TIMEOUT_S - (time.monotonic() - started)
        code = run(cmd, max(left, 1), cwd=ROOT, env=env, stdout=sys.stderr)
        if code != 0:
            print("run.py: build failed", file=sys.stderr)
            return 1
    release = os.path.join(env["CARGO_TARGET_DIR"], "release")
    cmd = [os.path.join(release, "perfbench"), *sys.argv[1:],
           "--serve", os.path.join(release, "serve")]
    code = run(cmd, RUN_TIMEOUT_S, cwd=ROOT)
    return 1 if code is None else code


if __name__ == "__main__":
    sys.exit(main())
