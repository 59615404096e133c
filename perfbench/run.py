#!/usr/bin/env python3
"""Build and run the OceanStore end-to-end benchmark (osbench).

Usage, from the root of a checkout of the repository:

    python3 perfbench/run.py --workload serve_small|archive_large|geo_sim \\
        --seed N --seconds S --trace 0|1 [--corrupt-expected]

The first run configures and builds a Release binary with the threaded
backend (OCEANSTORE_THREADED=ON) from ../src into the build directory
($CARGO_TARGET_DIR if set, else .bench_build), under osbench/.  Later
runs only re-check the build.  Build output goes to standard error, so
the last line of standard output is the benchmark's JSON result.
"""

import argparse
import os
import subprocess
import sys

RUN_TIMEOUT_S = 170


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def git_sha(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def build(root, bench_dir):
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("no src/ tree next to perfbench/; run from a full checkout")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, target, "osbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", bench_dir, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", build_dir, "-j", jobs, "--target", "osbench"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "osbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["serve_small", "archive_large", "geo_sim"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--corrupt-expected", action="store_true",
                    help="self-test: corrupt the expected payloads; the "
                         "run must then fail")
    args = ap.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.getcwd()
    binary = build(root, bench_dir)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.corrupt_expected:
        cmd.append("--corrupt-expected")
    env = dict(os.environ, OSBENCH_GIT_SHA=git_sha(root))
    proc = subprocess.Popen(cmd, env=env)
    try:
        rc = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("benchmark exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(rc)


if __name__ == "__main__":
    main()
