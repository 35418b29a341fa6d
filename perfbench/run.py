#!/usr/bin/env python3
"""Builds and runs the repository's benchmark (see README.md here).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  The first call configures and builds the
`perfbench` binary (Release) from the checkout's sources into
`.bench_build/perfbench`; later calls rebuild only what changed.  The binary
then runs the one workload in a fresh process and prints detail lines
followed by one JSON result line, which this script relays unchanged; its
exit code is the binary's (0 = correct, 1 = correctness gate failed).

    python3 perfbench/run.py --all [--seed <n> --seconds <s> --trace <0|1>]

runs every workload BENCHMARK.json lists, each in its own fresh process, in
turn.

    python3 perfbench/run.py --test

builds the benchmark's own tests in the same build tree and runs them with
ctest.
"""
import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 170
BUILD_JOBS = "2"


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def sh(cmd, log):
    """Runs cmd with its output appended to log; returns the exit code.
    Compiler temporaries go under .bench_build, not the system temp dir."""
    tmp = os.path.join(BUILD_ROOT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    with open(log, "a") as out:
        return subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              env=dict(os.environ, TMPDIR=tmp)).returncode


def build(build_dir, target):
    os.makedirs(build_dir, exist_ok=True)
    log = os.path.join(build_dir, "build.log")
    with open(os.path.join(BUILD_ROOT, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        open(log, "w").close()
        ok = os.path.exists(os.path.join(build_dir, "CMakeCache.txt")) or sh(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"], log) == 0
        ok = ok and sh(["cmake", "--build", build_dir, "--target", target,
                        "-j", BUILD_JOBS], log) == 0
    if not ok:
        with open(log) as f:
            sys.stderr.write(f.read()[-4000:])
        fail("build failed (log: %s)" % log)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", default="1")
    ap.add_argument("--seconds", default="35")
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    ap.add_argument("--all", action="store_true",
                    help="run every workload, one fresh process each")
    ap.add_argument("--test", action="store_true",
                    help="build and run the benchmark's own tests")
    args = ap.parse_args()
    for path in ("CMakeLists.txt", os.path.join("src", "core", "traffic.h")):
        if not os.path.exists(os.path.join(ROOT, path)):
            fail("no uesr source tree next to perfbench/ (missing %s)" % path)
    os.makedirs(BUILD_ROOT, exist_ok=True)
    build_dir = os.path.join(BUILD_ROOT, "perfbench")

    if args.test:
        build(build_dir, "perfbench_test")
        return subprocess.run(["ctest", "--output-on-failure"],
                              cwd=build_dir).returncode

    if not args.workload and not args.all:
        fail("--workload or --all is required")
    build(build_dir, "perfbench")
    binary = os.path.join(build_dir, "perfbench")
    if not args.all:
        return run_workload(binary, args.workload, args)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    rc = 0
    for workload in workloads:
        print("## " + workload, flush=True)
        rc = max(rc, run_workload(binary, workload, args))
    return rc


def run_workload(binary, workload, args):
    cmd = [binary, "--workload", workload, "--seed", args.seed,
           "--seconds", args.seconds, "--trace", args.trace]
    if args.trace == "1":
        spans = os.path.join(BUILD_ROOT, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans-out",
                os.path.join(spans, "%s-%s.json" % (workload, args.seed))]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail("%s exceeded %d s" % (workload, RUN_TIMEOUT_S))


if __name__ == "__main__":
    sys.exit(main())
