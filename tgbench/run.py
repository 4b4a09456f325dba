#!/usr/bin/env python3
"""Builds tgbench from source and runs one workload.

    python3 tgbench/run.py --workload metro-dense --seed 1 --seconds 40 --trace 0

Configures and builds the CMake package in this directory (which compiles
the tgcrn library from ../src) into $CARGO_TARGET_DIR, or .bench_build at the
repository root when that is unset, then runs the tgbench binary with the
given flags plus the source revision. Build output goes to stderr, so the
last stdout line is the benchmark's JSON result. Exits non-zero when the
build fails, the benchmark fails, or it runs past its time limit.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    configured = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, configured)


def source_revision():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def build(build_path):
    generated = [os.path.join(build_path, name)
                 for name in ("CMakeCache.txt", "build.ninja", "Makefile")]
    if not (os.path.exists(generated[0]) and
            any(os.path.exists(path) for path in generated[1:])):
        configure = ["cmake", "-S", HERE, "-B", build_path,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    compile_cmd = ["cmake", "--build", build_path, "--target", "tgbench",
                   "-j", jobs]
    return subprocess.run(compile_cmd, stdout=sys.stderr).returncode == 0


def main(argv):
    build_path = build_dir()
    if not build(build_path):
        print("tgbench: build failed", file=sys.stderr)
        return 1
    cmd = [os.path.join(build_path, "tgbench")] + argv
    if "--sha" not in argv:
        cmd += ["--sha", source_revision()]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("tgbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
