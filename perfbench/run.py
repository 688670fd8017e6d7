#!/usr/bin/env python3
"""Builds and runs the CDStore end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload series_cpu --seed 1 --seconds 50 --trace 0

Builds the library from ../src (through the repository's own CMakeLists)
and the benchmark program in perfbench/src into $CARGO_TARGET_DIR (default
.bench_build), then runs one workload. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}; --trace 0 gives the
end-to-end metrics, --trace 1 the per-layer ones. --selftest 1 runs a
reduced-size version of the workload (used by perfbench/test_perfbench.py).
Exits non-zero when the build fails, a correctness gate fails, or the
sources are missing.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

WORKLOADS = ("series_cpu", "series_wan", "server_ingest")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def src_digest(root):
    """SHA-256 over every file under src/ (the checkout may not be a git repo)."""
    h = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def git_sha(root):
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unavailable"
    except (OSError, subprocess.SubprocessError):
        return "unavailable"


def build(root, build_dir):
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"] + gen)
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except subprocess.TimeoutExpired:
                rc = -1
            if rc != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed (%s); log in %s" % (" ".join(cmd[:2]), log_path))
    return os.path.join(build_dir, "perfbench")


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=50)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "core", "client.h")) or not os.path.isfile(
            os.path.join(root, "CMakeLists.txt")):
        fail("run from the CDStore repository root: src/ and CMakeLists.txt are missing")

    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    binary = build(root, build_dir)

    # Index directories and any temp file the program makes stay inside the
    # checkout; removed when the run ends.
    workdir = os.path.join(build_dir, "work-%d" % os.getpid())
    env = dict(os.environ, TMPDIR=workdir)
    os.makedirs(workdir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--selftest", str(args.selftest), "--workdir", os.path.join(workdir, "run"),
           "--command", " ".join(["python3"] + sys.argv),
           "--git-sha", git_sha(root), "--src-digest", src_digest(root)]
    proc = subprocess.Popen(cmd, env=env)
    try:
        rc = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    sys.exit(rc)


if __name__ == "__main__":
    main()
