#!/usr/bin/env python3
"""simdb's benchmark: builds the engine and the benchmark from source, runs
the answer-oracle self-test, then runs one workload and prints its result.

    python3 simbench/run.py --workload lookup|scan|mixed --seed N \
        --seconds S --trace 0|1

Run it from the root of a checkout. Build output, the databases and the
span files go under .bench_build/ there. The last line of standard output
is the result as one JSON object; see simbench/README.md.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "simbench")
DATA = os.path.join(ROOT, ".bench_build", "simbench-data")
# A run measures --seconds (1.25 x with --trace 1) after set-ups that take
# about 12 s, a 2 s warm-up and the final checks; the rest is slack.
RUN_TIMEOUT_BASE_S = 120


def log(msg):
    print("simbench: " + msg, file=sys.stderr, flush=True)


def run_to_stderr(cmd, timeout=None):
    """Runs cmd with its output on stderr, so stdout ends with the result."""
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=timeout).returncode


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("engine sources not found at %s/src" % ROOT)
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    configure = ["cmake", "-S", HERE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    compile_ = ["cmake", "--build", BUILD, "-j", jobs]
    for attempt in range(2):
        if (os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")) or
                run_to_stderr(configure) == 0):
            if run_to_stderr(compile_) == 0:
                return True
        # A cache left by a checkout at another path cannot be reused.
        shutil.rmtree(BUILD, ignore_errors=True)
    log("build failed")
    return False


def git_commit():
    # Only this checkout's own history: git would otherwise report the
    # commit of any repository that happens to enclose it.
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown"


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if not build():
        return 2
    if run_to_stderr([os.path.join(BUILD, "simbench_selftest")]) != 0:
        log("oracle self-test failed")
        return 1
    os.makedirs(DATA, exist_ok=True)
    cmd = [os.path.join(BUILD, "simbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--data-dir", DATA, "--commit", git_commit()]
    timeout = RUN_TIMEOUT_BASE_S + 2 * args.seconds
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        log("run exceeded %g s" % timeout)
        return 2
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
