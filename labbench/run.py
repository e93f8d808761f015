#!/usr/bin/env python3
"""Run one labbench measurement from the root of a checkout.

    python3 labbench/run.py --workload reproduce|grid_cold|grid_hardened|serve
                            --seed N --seconds S --trace 0|1

Builds lhrlab and the labbench binary from source into .bench_build/
(Release; only the first run pays for it), then runs labbench in
its own process group with a per-run work directory under
.bench_run/. labbench's last stdout line is the result object:
{"correct", "attempted", "failed", "metrics"}. A traced run writes
its Chrome trace (opens in Perfetto) to .bench_traces/.

Exit status is nonzero, with no result printed, when the build or
the run fails or exceeds its time limit. Every process started here
is stopped and reaped before exit.
"""

import argparse
import fcntl
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = ".bench_build"
RUNS = ".bench_run"
TRACES = ".bench_traces"
RUN_LIMIT_S = 170.0
BUILD_LIMIT_S = 700.0


def log(msg):
    print("labbench: " + msg, file=sys.stderr, flush=True)


def build():
    """Configure once, then bring lhrlab and labbench up to date."""
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            cmd = ["cmake", "-S", "labbench", "-B", BUILD,
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=sys.stderr,
                              timeout=BUILD_LIMIT_S).returncode != 0:
                # A half-configured tree would be reused next time.
                shutil.rmtree(BUILD, ignore_errors=True)
                return False
        jobs = str(min(4, os.cpu_count() or 1))
        cmd = ["cmake", "--build", BUILD, "-j", jobs,
               "--target", "lhrlab", "labbench"]
        return subprocess.run(cmd, stdout=sys.stderr,
                              timeout=BUILD_LIMIT_S).returncode == 0


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=["reproduce", "grid_cold", "grid_hardened",
                                 "serve"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    os.chdir(ROOT)
    try:
        if not build():
            log("build failed")
            return 3
    except subprocess.TimeoutExpired:
        log("build timed out")
        return 3

    work = os.path.join(RUNS, str(os.getpid()))
    trace_out = os.path.join(
        TRACES, "%s-seed%d.json" % (args.workload, args.seed))
    if args.trace:
        os.makedirs(TRACES, exist_ok=True)
    cmd = [os.path.join(BUILD, "labbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--lhrlab", os.path.join(BUILD, "lhrlab"), "--workdir", work]
    if args.trace:
        cmd += ["--trace-out", trace_out]
    # Its own process group: on a timeout or a signal labbench and
    # any lhrlab it started go down together.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            start_new_session=True, text=True)

    def kill_group(*_):
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    signal.signal(signal.SIGTERM, lambda *a: (kill_group(), sys.exit(143)))
    try:
        out, _ = proc.communicate(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        log("run exceeded %.0f s; stopped" % RUN_LIMIT_S)
        kill_group()
        proc.wait()
        return 4
    finally:
        kill_group()  # children labbench failed to reap, if any
        shutil.rmtree(work, ignore_errors=True)

    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log("labbench exited %d" % proc.returncode)
        return 5
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
