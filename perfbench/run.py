#!/usr/bin/env python3
"""Build the benchmark driver from this checkout's sources and run one
workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build) under the checkout, or to a subdirectory of it keyed
by the checkout's path when it is absolute; the first run configures and
compiles, later runs only check that the build is current. Build output goes
to stderr, so the last line of stdout is perfbench_driver's JSON result. Traced
runs write their spans to <build dir>/trace/<workload>.spans.tsv.
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DRIVER = "perfbench_driver"
# A run measures --seconds plus set-up, well under a minute; one still going
# after this long has hung.
RUN_TIMEOUT_S = 170


def build_dir():
    """$CARGO_TARGET_DIR (default .bench_build). A relative one lies inside
    this checkout; an absolute one may be shared by several checkouts, so
    each gets its own subdirectory, keyed by the checkout's path."""
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(d):
        return os.path.join(ROOT, d)
    key = hashlib.sha256(ROOT.encode()).hexdigest()[:16]
    return os.path.join(d, "perfbench-" + key)


def configured_for(out):
    """True when `out` holds a CMake cache made from this checkout's
    perfbench directory."""
    try:
        with open(os.path.join(out, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_HOME_DIRECTORY:"):
                    home = line.split("=", 1)[1].strip()
                    return os.path.realpath(home) == os.path.realpath(HERE)
    except OSError:
        pass
    return False


def build(out):
    if not configured_for(out):
        # Configured from another source tree (a copied build directory,
        # say): drop its cache so CMake configures this one afresh.
        cache = os.path.join(out, "CMakeCache.txt")
        if os.path.exists(cache):
            os.remove(cache)
            shutil.rmtree(os.path.join(out, "CMakeFiles"), ignore_errors=True)
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", out, "--target", DRIVER, "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(out, DRIVER)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    out = build_dir()
    try:
        exe = build(out)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    trace_dir = os.path.join(out, "trace")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-file",
           os.path.join(trace_dir, args.workload + ".spans.tsv")]
    started = time.monotonic()
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: driver still running after "
              f"{time.monotonic() - started:.0f} s; killed", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
