#!/usr/bin/env python3
"""Builds the end-to-end fusion benchmark from source and runs one workload.

    python3 perfbench/run.py --workload batch_tsv --seed 1 --seconds 10 --trace 0

Configures perfbench/ (which pulls in the repository's library targets) as
a Release build in .bench_build/ under the checkout root, or in
$CARGO_TARGET_DIR when that is set, builds only the kf_e2e program, and runs
it with the given arguments. Build output goes to stderr, so the program's
JSON result stays the last line of stdout. Exits nonzero, printing no
result, when the sources are missing or the build fails.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
WORK_DIR = os.path.join(ROOT, ".bench_work")
# kf_e2e itself stops measuring after --seconds; this only bounds a hang.
RUN_TIMEOUT_S = 170


def cache_build_type():
    try:
        with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return ""


def build():
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "kf_e2e",
                    "-j", jobs], stdout=sys.stderr, check=True)
    # Same guard as scripts/bench.sh: never measure a non-Release build.
    build_type = cache_build_type()
    if build_type != "Release":
        raise RuntimeError(f"{BUILD_DIR} is configured as '{build_type}', "
                           "not Release; delete it and rerun")


def main():
    try:
        build()
    except (OSError, subprocess.CalledProcessError, RuntimeError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    binary = os.path.join(BUILD_DIR, "kf_e2e")
    try:
        return subprocess.run([binary, *sys.argv[1:], "--workdir", WORK_DIR],
                              cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: kf_e2e exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
