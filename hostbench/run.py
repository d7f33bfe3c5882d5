#!/usr/bin/env python3
"""Entry point of the host-cost benchmark.

Builds the driver (driver.cpp plus the library sources under src/) with
CMake, then runs one workload in this process's place:

    python3 hostbench/run.py --workload inline_geo --seed 1 --seconds 60 --trace 0

The build tree is $CARGO_TARGET_DIR/hostbench (default .bench_build/hostbench)
inside the checkout. Build output goes to stderr, so stdout carries only the
driver's manifest line and, last, its result line. Without the library
sources the build fails and the script exits 1 without printing a result.
"""
import fcntl
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    target = os.path.abspath(
        os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))
    if os.path.commonpath([target, ROOT]) != ROOT:  # stay inside the checkout
        target = os.path.join(ROOT, ".bench_build")
    return os.path.join(target, "hostbench")


def build(out):
    """Configures (once) and builds the driver; returns its path."""
    tmp = os.path.join(out, "tmp")  # compiler scratch stays in the checkout
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(out, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # concurrent first runs build once
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", out,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            subprocess.run(configure, stdout=sys.stderr, env=env, check=True)
        subprocess.run(["cmake", "--build", out, "-j", jobs],
                       stdout=sys.stderr, env=env, check=True)
    return os.path.join(out, "sftbft_hostbench")


def main():
    try:
        binary = build(build_dir())
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"hostbench: build failed: {error}", file=sys.stderr)
        return 1
    os.execv(binary, [binary] + sys.argv[1:])
    return 1  # not reached: execv replaces this process


if __name__ == "__main__":
    sys.exit(main())
