#!/usr/bin/env python3
"""Output checks of a traced bench run and of the bench footers.

  1. Runs bench_fig15_fcr_transient on a short window with
     trace=<tmp>/fig15. Every .jsonl trace line must parse, every
     Chrome .json trace must parse and pair each `b` (span begin)
     event with an `e`, and the recorded kinds must include the
     inject -> source_kill -> retransmit -> deliver lifecycle
     docs/OBSERVABILITY.md promises. The recovery run's trace
     (<tmp>/fig15.jsonl, the one file without `_run`) must hold its
     two link deaths and two repairs as `fault` records: the bench
     places both inside any measurement window.
  2. The same output must carry `timeseries:`, `heatmap:` and
     `profile: enabled=1` blocks, and tools/extract_csv.py must split
     it, as printed (no `===== name =====` header), into CSV files.
  3. bench_lowload_latency must end with a `profile: enabled=1` footer.

Usage: test_bench_outputs.py <bench_fig15_fcr_transient>
                             <bench_lowload_latency>
"""

import glob
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

EXTRACT_CSV = Path(__file__).resolve().parent.parent / "tools" / \
    "extract_csv.py"
LIFECYCLE = {"inject", "source_kill", "retransmit", "deliver"}
# A `fault` record's `attempt` field carries the FaultEventKind
# (src/fault/fault_schedule.hh): LinkDeath = 0, LinkRepair = 3.
LINK_DEATH, LINK_REPAIR = 0, 3


def run(cmd):
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=600, check=False)
    if proc.returncode != 0:
        raise AssertionError(f"{cmd} exited {proc.returncode}:\n"
                             f"{proc.stdout}\n{proc.stderr}")
    return proc.stdout


def check_traces(prefix):
    """Problems found in the trace files written under `prefix`."""
    problems = []
    jsonl = glob.glob(prefix + "*.jsonl")
    chrome = glob.glob(prefix + "*.json")
    if not jsonl or not chrome:
        return [f"no trace files at {prefix}*"]
    kinds = set()
    for path in jsonl:
        with open(path, encoding="utf-8") as f:
            for line in f:
                kinds.add(json.loads(line)["ev"])
    for path in chrome:
        with open(path, encoding="utf-8") as f:
            events = json.load(f)["traceEvents"]
        if not events:
            problems.append(f"{path}: empty traceEvents")
        begins = sum(1 for e in events if e["ph"] == "b")
        ends = sum(1 for e in events if e["ph"] == "e")
        if begins != ends:
            problems.append(f"{path}: {begins} b events, {ends} e events")
    missing = LIFECYCLE - kinds
    if missing:
        problems.append(f"lifecycle events missing: {sorted(missing)}")
    print(f"validated {len(jsonl)} jsonl + {len(chrome)} chrome traces; "
          f"kinds: {sorted(kinds)}")
    return problems


def check_recovery_faults(path):
    """Problems with the fault records of the recovery run's trace."""
    if not os.path.exists(path):
        return [f"no recovery-run trace at {path}"]
    kinds = []
    with open(path, encoding="utf-8") as f:
        for line in f:
            rec = json.loads(line)
            if rec["ev"] == "fault":
                kinds.append(rec["attempt"])
    print(f"recovery run: fault records of kinds {kinds}")
    if sorted(kinds) != [LINK_DEATH] * 2 + [LINK_REPAIR] * 2:
        return [f"{path}: fault records of kinds {kinds}, want two link "
                f"deaths ({LINK_DEATH}) and two repairs ({LINK_REPAIR})"]
    return []


def main():
    if len(sys.argv) != 3:
        print(__doc__)
        return 2
    fig15, lowload = sys.argv[1], sys.argv[2]
    failures = []
    with tempfile.TemporaryDirectory(prefix="crnet_bench_out_") as tmp:
        prefix = os.path.join(tmp, "fig15")
        out = run([fig15, "warmup=500", "measure=1000", "drain=20000",
                   f"trace={prefix}"])
        failures += check_traces(prefix)
        failures += check_recovery_faults(prefix + ".jsonl")
        lines = out.splitlines()
        for block in ("timeseries:", "heatmap:", "profile: enabled=1"):
            if not any(line.startswith(block) for line in lines):
                failures.append(f"fig15 output has no {block!r} block")

        raw = os.path.join(tmp, "fig15.txt")
        with open(raw, "w", encoding="utf-8") as f:
            f.write(out)
        csv_dir = os.path.join(tmp, "csv")
        run([sys.executable, str(EXTRACT_CSV), raw, csv_dir])
        written = sorted(os.listdir(csv_dir))
        for name in ("fig15__00.csv", "fig15__ts00.csv",
                     "fig15__heatmap00.csv", "fig15__profile.csv"):
            if name not in written:
                failures.append(f"extract_csv wrote {written}, "
                                f"not {name}")

    out = run([lowload, "measure=4000"])
    if not out.splitlines()[-1].startswith("profile: enabled=1"):
        failures.append("bench_lowload_latency does not end with a "
                        "'profile: enabled=1' footer")

    if failures:
        print(f"FAIL: {len(failures)} problem(s)")
        for f in failures:
            print(f"  - {f}")
        return 1
    print("OK: fig15 traces and blocks, extract_csv split and the "
          "lowload profile footer")
    return 0


if __name__ == "__main__":
    sys.exit(main())
