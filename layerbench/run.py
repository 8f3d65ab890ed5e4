#!/usr/bin/env python3
"""Runs one layerbench workload from the root of a source checkout.

    python3 layerbench/run.py --workload grid-vm --seed 1 --seconds 12 --trace 0

Builds the csr libraries and csr_serve (tests, benches and examples off)
into .bench_build/, installs them there, builds the harness package in
layerbench/ against that install, then runs the harness in a private run
directory that is removed afterwards. The harness prints the result JSON as
its last stdout line; this script passes its output and exit code through.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

BUILD_DIR = ".bench_build"
HARNESS_TIMEOUT_S = 170
WORKLOADS = ("grid-vm", "long-vm", "native-cold", "serve-mixed")


def fail(message, code=1):
    print("layerbench: " + message, file=sys.stderr)
    sys.exit(code)


def run_logged(cmd, log):
    with open(log, "a") as out:
        out.write("$ " + " ".join(cmd) + "\n")
        out.flush()
        if subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT) != 0:
            with open(log) as f:
                sys.stderr.write("".join(f.readlines()[-40:]))
            fail("build step failed: " + " ".join(cmd))


def build(root):
    build = os.path.join(root, BUILD_DIR)
    os.makedirs(build, exist_ok=True)
    log = os.path.join(build, "build.log")
    csr = os.path.join(build, "csr")
    prefix = os.path.join(build, "prefix")
    harness = os.path.join(build, "harness")
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(csr, "CMakeCache.txt")):
        run_logged(["cmake", "-S", root, "-B", csr, "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
                    "-DCSR_BUILD_TESTS=OFF", "-DCSR_BUILD_BENCHMARKS=OFF",
                    "-DCSR_BUILD_EXAMPLES=OFF"], log)
    run_logged(["cmake", "--build", csr, "-j", jobs], log)
    run_logged(["cmake", "--install", csr, "--prefix", prefix], log)
    if not os.path.exists(os.path.join(harness, "CMakeCache.txt")):
        run_logged(["cmake", "-S", os.path.join(root, "layerbench"), "-B", harness,
                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
                    "-DCMAKE_PREFIX_PATH=" + prefix], log)
    run_logged(["cmake", "--build", harness, "-j", jobs], log)
    return (os.path.join(harness, "layerbench"),
            os.path.join(csr, "tools", "csr_serve"))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    for needed in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt"),
                   os.path.join("layerbench", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(root, needed)):
            fail("run from the root of a csr source checkout (missing %s)" % needed, 2)
    harness, serve = build(root)

    run_dir = os.path.join(root, BUILD_DIR, "runs",
                           "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    env = dict(os.environ, TMPDIR=run_dir)
    cmd = [harness, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--run-dir", run_dir, "--serve-bin", serve]
    proc = subprocess.Popen(cmd, env=env, start_new_session=True)
    try:
        code = proc.wait(timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        code = None
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if code is None:
        fail("harness exceeded %d s" % HARNESS_TIMEOUT_S)
    sys.exit(code)


if __name__ == "__main__":
    main()
