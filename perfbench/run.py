#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see README.md beside this file).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the repository root. The benchmark is compiled from source into
.bench_build/perfbench on every call (incremental after the first); the
traced run writes its spans to .bench_build/traces/<workload>.json. The
last line of standard output is the benchmark's JSON result.
"""

import argparse
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
# Compiler and program temporaries stay inside the checkout too.
TMP = os.path.join(ROOT, ".bench_build", "tmp")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def run(cmd, timeout, stdout=None):
    """Runs cmd in its own process group; kills the whole group on timeout."""
    os.makedirs(TMP, exist_ok=True)
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=stdout, start_new_session=True,
                            env=dict(os.environ, TMPDIR=TMP))
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"run.py: {cmd[0]} timed out after {timeout} s", file=sys.stderr)
        return 124
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def build(target):
    """Configures (once) and builds `target`; build chatter goes to stderr."""
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        rc = run(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                  "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                 BUILD_TIMEOUT_S, stdout=sys.stderr)
        if rc != 0:
            return rc
    jobs = str(min(4, os.cpu_count() or 1))
    return run(["cmake", "--build", BUILD, "--target", target, "-j", jobs],
               BUILD_TIMEOUT_S, stdout=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=24301)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    if args.selftest:
        rc = build("perfbench_selftest")
        if rc != 0:
            return rc
        return run([os.path.join(BUILD, "perfbench_selftest")], RUN_TIMEOUT_S)

    if not args.workload:
        parser.error("--workload is required")
    rc = build("perfbench")
    if rc != 0:
        print(f"run.py: build failed ({rc})", file=sys.stderr)
        return rc
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(traces, args.workload + ".json")]
    sys.stdout.flush()
    return run(cmd, RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
