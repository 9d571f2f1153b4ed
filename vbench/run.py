#!/usr/bin/env python3
"""Build and run the vvax end-to-end benchmark (see vbench/README.md).

    python3 vbench/run.py --workload paper_mix --seed 1 --seconds 10 --trace 0
    python3 vbench/run.py --selftest

Run from the repository root.  Builds an optimised, assertion-free
tree of src/ plus the benchmark program in build-vbench/ (apart from the
development build in build/), clears every VVAX_* switch that changes
how the library executes, runs one workload and passes its output
through: the last line of standard output is the JSON result.  Traced
runs write a Chrome trace-event file under vbench/out/, and every
result line is appended to vbench/out/results.jsonl.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "vbench")
BUILD_DIR = os.path.join(ROOT, "build-vbench")
OUT_DIR = os.path.join(BENCH_DIR, "out")
BINARY = os.path.join(BUILD_DIR, "vbench")

# Library switches that select a tier, a fault plan, the CoW backing
# or debug output: a measured run uses the defaults only.
CLEARED_ENV = (
    "VVAX_FAULT_PLAN",
    "VVAX_EXEC_TIER",
    "VVAX_REFERENCE_PATH",
    "VVAX_NO_TRACE_LINKS",
    "VVAX_TRACE_THRESHOLD",
    "VVAX_GOLDEN_EAGER",
    "VVAX_DUMP_HOT_BLOCKS",
)

RUN_TIMEOUT_S = 170


def log(msg):
    print(f"vbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the Release tree; False on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no vvax sources under {ROOT}/src")
        return False
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.isfile(cache):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if res.returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            return False
    with open(cache, encoding="utf-8") as f:
        if "CMAKE_BUILD_TYPE:STRING=Release\n" not in f.read():
            log("build-vbench is not a Release (assertion-free) build")
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="tiny end-to-end runs plus corrupted-result checks")
    args = ap.parse_args()
    if not args.selftest and not args.workload:
        ap.error("--workload is required")

    if not build():
        return 1

    env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
    if args.selftest:
        cmd = [BINARY, "--selftest"]
    else:
        cmd = [BINARY, "--workload", args.workload, "--seed",
               str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        os.makedirs(OUT_DIR, exist_ok=True)
        if args.trace:
            cmd += ["--trace-out", os.path.join(
                OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")]
    try:
        res = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1
    sys.stdout.write(res.stdout)
    sys.stdout.flush()
    if res.returncode != 0:
        return res.returncode
    if not args.selftest:
        lines = res.stdout.strip().splitlines()
        if not lines:
            log("no result line")
            return 1
        record = {"workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  "info": lines[:-1], "result": json.loads(lines[-1])}
        with open(os.path.join(OUT_DIR, "results.jsonl"), "a",
                  encoding="utf-8") as f:
            f.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
