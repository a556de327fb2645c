#!/usr/bin/env python3
"""crnet-bench: build the benchmark from this checkout and run one workload.

Usage (from the root of a checkout):

    python3 crnet-bench/run.py --workload <name> --seed <n> \
        --seconds <s> --trace <0|1>

The first run configures and builds crnet-bench (the crnet library from
../src plus crnet_bench.cc, Release, audit off) under .bench_build/; later
runs only check that the build is current. The benchmark's report goes
to standard output; its last line is the result object
{"correct", "attempted", "failed", "metrics"}. With --trace 1 the spans
of the traced run are also written to .bench_build/crnet-bench/traces/.
The exit code is non-zero when the build fails, an output check fails,
or the result line is malformed (then no result line is printed).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "crnet-bench"
WORKLOADS = ("paper_midload", "paper_lowload", "fault_campaign",
             "giant_torus")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def build():
    """Configure (once) and build; all tool output goes to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("crnet-bench: no crnet sources next to the benchmark "
                 "(expected ../src)")
    if not (BUILD / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        *generator, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True,
                       timeout=BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                   stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    return BUILD / "crnet_bench"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        sys.exit("crnet-bench: --seed must be >= 0 and --seconds >= 1")

    try:
        exe = build()
    except (subprocess.CalledProcessError,
            subprocess.TimeoutExpired) as err:
        sys.exit(f"crnet-bench: build failed: {err}")

    cmd = [str(exe), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           str(args.trace)]
    if args.trace:
        traces = BUILD / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace-out",
                str(traces / f"{args.workload}-seed{args.seed}.json")]
    # The workload fixes jobs, shards and tracing itself; keep the
    # environment from overriding any of them.
    env = {k: v for k, v in os.environ.items()
           if k not in ("CRNET_JOBS", "CRNET_SHARDS", "CRNET_TRACE")}
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"crnet-bench: {args.workload} exceeded "
                 f"{RUN_TIMEOUT_S} s")

    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        if set(result) != RESULT_KEYS:
            raise ValueError(f"keys {sorted(result)}")
    except ValueError as err:
        sys.stderr.write(proc.stdout)
        sys.exit(f"crnet-bench: malformed result line ({err}); "
                 f"exit code {proc.returncode}")
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
