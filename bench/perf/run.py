#!/usr/bin/env python3
"""Builds bench_perf from the sources of this checkout, then runs it.

    python3 bench/perf/run.py --workload lmsys [--seed N] [--seconds S] [--trace 0|1]

Every argument is passed on to bench_perf (see bench/perf/README.md). The
build lives in .bench_build/perf at the checkout root and is reused by later
runs; temporary snapshots go to .bench_build/perf/tmp. Exits non-zero,
printing the build log tail to stderr, when the build fails.
"""
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / ".bench_build" / "perf"


def build():
    BUILD.mkdir(parents=True, exist_ok=True)
    log_path = BUILD / "build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    configure = ["cmake", "-S", str(HERE), "-B", str(BUILD), *generator]
    compile_ = ["cmake", "--build", str(BUILD), "--target", "bench_perf", "-j", jobs]
    steps = [compile_] if (BUILD / "CMakeCache.txt").exists() else [configure, compile_]
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                if step is configure:  # retry configuring on the next run
                    (BUILD / "CMakeCache.txt").unlink(missing_ok=True)
                sys.stderr.write(log_path.read_text()[-4000:])
                sys.stderr.write("bench_perf: build failed (log: %s)\n" % log_path)
                return False
    return True


def main():
    if not build():
        return 1
    binary = str(BUILD / "bench_perf")
    args = sys.argv[1:]
    if not any(arg.split("=")[0] == "--tmp-dir" for arg in args):
        args += ["--tmp-dir", str(BUILD / "tmp")]
    sys.stdout.flush()
    os.execv(binary, [binary] + args)


if __name__ == "__main__":
    sys.exit(main())
