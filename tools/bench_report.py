#!/usr/bin/env python3
"""Measure the cycle engine and emit BENCH_pr10.json.

Every crnet bench ends with machine-parseable footers:

  timing: runs=N wall_s=S sims_per_s=R flit_events=E \
      flit_events_per_s=F jobs=J shards=K cores=C peak_rss_kb=M
  profile: enabled=1 runs=N warmup_s=... measure_s=... drain_s=... \
      tick_deliver_s=... tick_routers_s=... tick_sample_s=...

The `profile:` footer is the self-profiler's per-phase wall-time
attribution (docs/OBSERVABILITY.md); it is parsed into a `profile`
dict on every leg so phase-level trends ride along with the headline
throughput numbers. `peak_rss_kb` (v5) is the process peak resident
set, so memory scaling rides along too.

This script runs a selection of benches four ways per bench —

  sweep_jobs1    exhaustive per-node scheduler, sequential
  active_jobs1   active-set scheduler (the default), sequential
  active_jobsN   active-set scheduler under the parallel engine
  active_shards4 active-set scheduler, one run sharded 4 ways

— parses the footers, checks that every leg reports identical
flit_events (the schedulers are bit-identical and both the parallel
engine and intra-run sharding are deterministic, so any difference is
a correctness bug, not noise), and writes a JSON report recording
per-bench wall-clock, throughput, peak RSS, the scheduler speedup
(active vs sweep), the parallel speedup and the shard speedup,
together with the host core count so the numbers are interpretable.

Unless --quick is given, the report also runs bench_tab_giant_scale
once and records its scaling curve — flit-events/sec and resident
kB/node at shards 1/2/4 across network sizes up to a 64k-node torus —
under a top-level "giant_scale" key.

With --baseline the report's headline throughput (active_jobs1, the
default configuration) is compared against an earlier report —
v1 (BENCH_pr3.json), v2 (BENCH_pr5.json), v3 (BENCH_pr8.json),
v4 (BENCH_pr9.json) or v5 — and the script fails if any bench present
in both regressed by more than --max-regression. Phase-level
comparisons (per-phase seconds per flit event vs a v4+ baseline) are
advisory: they print warnings but never fail the run, and a baseline
from before the profiler existed simply skips them.

Usage:
  tools/bench_report.py [--build-dir build] [--jobs N]
                        [--out BENCH_pr10.json] [--quick]
                        [--baseline BENCH_pr9.json]
                        [--max-regression 0.15]

The default bench set covers a mid-load sweep, the dynamic-fault
campaign, and the zero-load-latency sweep (the active scheduler's
best case); --quick shrinks the simulated spans so the report
finishes in a couple of minutes on one core.
"""

import argparse
import json
import os
import re
import subprocess
import sys

SCHEMA = "crnet-bench-report-v5"

# (bench binary, extra args). The overrides shrink simulated spans so
# report generation stays cheap; all runs of one bench use identical
# configs, so every comparison is apples-to-apples.
DEFAULT_BENCHES = [
    ("bench_fig12_timeout", []),
    ("bench_campaign_dynamic", ["trials=32", "seed_base=1"]),
    ("bench_lowload_latency", []),
]
QUICK_ARGS = {
    "bench_fig12_timeout": ["measure=1000", "drain=10000"],
    "bench_campaign_dynamic": ["trials=16", "seed_base=1"],
    "bench_lowload_latency": ["measure=4000"],
}

FOOTER_RE = re.compile(r"^timing: (.+)$", re.M)
PROFILE_RE = re.compile(r"^profile: (.+)$", re.M)

# Self-profiler phases compared against a v4 baseline (seconds keys in
# the `profile:` footer). Advisory only — see the module docstring.
PROFILE_PHASES = [
    "warmup_s", "measure_s", "drain_s", "tick_deliver_s",
    "tick_generate_s", "tick_injectors_s", "tick_routers_s",
    "tick_receivers_s", "tick_audit_s", "tick_sample_s",
]


def parse_kv(line):
    """Parse one `key=value key=value ...` footer line into a dict."""
    fields = {}
    for token in line.split():
        key, _, value = token.partition("=")
        try:
            fields[key] = int(value)
        except ValueError:
            try:
                fields[key] = float(value)
            except ValueError:
                fields[key] = value
    return fields


def parse_footer(output):
    """Return the parsed key=value dict of the last timing footer."""
    matches = FOOTER_RE.findall(output)
    if not matches:
        return None
    return parse_kv(matches[-1])


def run_bench(path, args, sched, jobs, shards=1):
    """Run one bench configuration; return its parsed footer.

    The self-profiler footer, when present, is attached under the
    "profile" key (absent on binaries from before the profiler — the
    report degrades gracefully rather than failing).
    """
    cmd = [path] + args + [f"sched={sched}", f"jobs={jobs}",
                           f"shards={shards}"]
    print(f"  $ {' '.join(cmd)}", file=sys.stderr)
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        print(proc.stdout[-2000:], file=sys.stderr)
        print(proc.stderr[-2000:], file=sys.stderr)
        raise SystemExit(f"{path} exited {proc.returncode}")
    footer = parse_footer(proc.stdout)
    if footer is None:
        raise SystemExit(f"{path}: no 'timing:' footer in output")
    profiles = PROFILE_RE.findall(proc.stdout)
    if profiles:
        footer["profile"] = parse_kv(profiles[-1])
    return footer


def parse_csv_block(output):
    """Parse the bench's `csv:` block into a list of row dicts."""
    lines = output.splitlines()
    try:
        start = lines.index("csv:") + 1
    except ValueError:
        return []
    header = None
    rows = []
    for line in lines[start:]:
        if not line.strip():
            break
        cells = [c.strip() for c in line.split(",")]
        if header is None:
            header = cells
            continue
        row = {}
        for key, value in zip(header, cells):
            try:
                row[key] = int(value)
            except ValueError:
                try:
                    row[key] = float(value)
                except ValueError:
                    row[key] = value
        rows.append(row)
    return rows


def run_giant(path):
    """Run bench_tab_giant_scale once; return footer + scaling curve.

    The curve holds one row per (network size, shard count) with
    flit-events/sec, speedup vs shards=1 at the same size, and
    resident kB/node — the memory and throughput scaling data behind
    docs/PERFORMANCE.md's sharding guidance.
    """
    print("bench_tab_giant_scale (scaling curve):", file=sys.stderr)
    print(f"  $ {path}", file=sys.stderr)
    proc = subprocess.run([path], capture_output=True, text=True)
    if proc.returncode != 0:
        print(proc.stdout[-2000:], file=sys.stderr)
        print(proc.stderr[-2000:], file=sys.stderr)
        raise SystemExit(f"{path} exited {proc.returncode}")
    footer = parse_footer(proc.stdout)
    if footer is None:
        raise SystemExit(f"{path}: no 'timing:' footer in output")
    curve = parse_csv_block(proc.stdout)
    for row in curve:
        if row.get("shards") == 4:
            print(f"  {row.get('nodes'):>6} nodes: "
                  f"{row.get('speedup')}x at 4 shards, "
                  f"{row.get('node_kb')} kB/node", file=sys.stderr)
    return {"timing": footer, "curve": curve}


def print_profile_breakdown(footer):
    """Print the self-profiler's per-phase share of bench wall time."""
    prof = footer.get("profile")
    if not prof or not prof.get("enabled"):
        return
    tick_keys = [k for k in PROFILE_PHASES if k.startswith("tick_")]
    total = sum(prof.get(k) or 0.0 for k in tick_keys)
    if total <= 0.0:
        return
    shares = sorted(((prof.get(k) or 0.0, k) for k in tick_keys),
                    reverse=True)
    top = ", ".join(f"{k[len('tick_'):-2]} {100.0 * s / total:.0f}%"
                    for s, k in shares[:4] if s > 0.0)
    print(f"  profile: {top}", file=sys.stderr)


def compare_profiles(name, footer, baseline_leg, tolerance):
    """Advisory per-phase comparison against a v4 baseline leg.

    Compares each phase's seconds per flit event; prints a warning for
    phases that slowed by more than `tolerance` but never fails the
    run. Silently skips when either side predates the profiler.
    """
    prof = footer.get("profile")
    base_prof = (baseline_leg or {}).get("profile")
    if not prof or not base_prof:
        if prof and baseline_leg is not None:
            print("  profile vs baseline: (baseline has no profile "
                  "data; skipping phase comparison)", file=sys.stderr)
        return
    events = footer.get("flit_events") or 0
    base_events = baseline_leg.get("flit_events") or 0
    if not events or not base_events:
        return
    for key in PROFILE_PHASES:
        now_s = prof.get(key)
        base_s = base_prof.get(key)
        if not isinstance(now_s, (int, float)) or \
                not isinstance(base_s, (int, float)) or base_s <= 0.0:
            continue
        now_per = now_s / events
        base_per = base_s / base_events
        # Sub-millisecond phases are all noise; don't warn on them.
        if now_s < 0.05 and base_s < 0.05:
            continue
        if now_per > base_per * (1.0 + tolerance):
            print(f"  WARNING: {name} phase {key} slowed "
                  f"{now_per / base_per:.2f}x vs baseline "
                  "(advisory only)", file=sys.stderr)


def baseline_fps(baseline, name):
    """Headline flit_events_per_s of one bench in a prior report.

    Understands the v1 schema (one scheduler: benches[name].jobs1)
    and the v2/v3 schemas (benches[name].active_jobs1). Returns None
    when the bench is absent (e.g. added after the baseline was
    recorded).
    """
    bench = baseline.get("benches", {}).get(name)
    if bench is None:
        return None
    entry = bench.get("active_jobs1") or bench.get("jobs1")
    if entry is None:
        return None
    return entry.get("flit_events_per_s")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--build-dir", default="build",
                    help="CMake build dir holding bench/ binaries")
    ap.add_argument("--jobs", type=int,
                    default=min(8, os.cpu_count() or 1),
                    help="parallel job count to compare against jobs=1")
    ap.add_argument("--out", default="BENCH_pr10.json")
    ap.add_argument("--quick", action="store_true",
                    help="shrink simulated spans for a fast report")
    ap.add_argument("--giant", action="store_true",
                    help="run the giant-scale curve even with --quick "
                         "(baseline comparisons need --quick spans to "
                         "match a --quick baseline, but the committed "
                         "report still wants the scaling curve)")
    ap.add_argument("--baseline",
                    help="prior report (v1-v5) to compare against")
    ap.add_argument("--max-regression", type=float, default=0.15,
                    help="max tolerated headline throughput loss "
                         "vs --baseline (fraction, default 0.15)")
    opts = ap.parse_args()

    baseline = None
    if opts.baseline:
        # Read up front so --baseline and --out may name the same file.
        with open(opts.baseline, encoding="utf-8") as f:
            baseline = json.load(f)

    report = {
        "schema": SCHEMA,
        "cpu_cores": os.cpu_count() or 1,
        "jobs_parallel": opts.jobs,
        "benches": {},
    }
    regressions = []
    for name, args in DEFAULT_BENCHES:
        path = os.path.join(opts.build_dir, "bench", name)
        if not os.path.exists(path):
            raise SystemExit(f"missing bench binary: {path} "
                             "(build the repo first)")
        if opts.quick:
            args = QUICK_ARGS.get(name, args)
        print(f"{name}:", file=sys.stderr)
        sweep1 = run_bench(path, args, "sweep", 1)
        active1 = run_bench(path, args, "active", 1)
        # The parallel leg only means something with a second worker
        # (and at jobs=1 its dict key would collide with active_jobs1).
        activeN = (run_bench(path, args, "active", opts.jobs)
                   if opts.jobs > 1 else None)
        activeS = run_bench(path, args, "active", 1, shards=4)
        footers = [sweep1, active1, activeS] + (
            [activeN] if activeN else [])
        events = {f["flit_events"] for f in footers}
        if len(events) != 1:
            raise SystemExit(
                f"{name}: flit_events differ across configurations "
                f"({sorted(events)}) — scheduler-identity or "
                "parallel-determinism violation")
        sched_speedup = (active1["flit_events_per_s"] /
                         sweep1["flit_events_per_s"]
                         if sweep1["flit_events_per_s"] else 0.0)
        shard_speedup = (active1["wall_s"] / activeS["wall_s"]
                         if activeS["wall_s"] > 0 else 0.0)
        report["benches"][name] = {
            "args": args,
            "sweep_jobs1": sweep1,
            "active_jobs1": active1,
            "active_shards4": activeS,
            "sched_speedup": round(sched_speedup, 3),
            "shard_speedup": round(shard_speedup, 3),
        }
        print(f"  scheduler speedup (active/sweep): "
              f"{sched_speedup:.2f}x", file=sys.stderr)
        print(f"  shard speedup at shards=4: {shard_speedup:.2f}x "
              f"({report['cpu_cores']} core(s) available)",
              file=sys.stderr)
        print_profile_breakdown(active1)
        if activeN is not None:
            par_speedup = (active1["wall_s"] / activeN["wall_s"]
                           if activeN["wall_s"] > 0 else 0.0)
            report["benches"][name][f"active_jobs{opts.jobs}"] = activeN
            report["benches"][name]["parallel_speedup"] = (
                round(par_speedup, 3))
            print(f"  parallel speedup at jobs={opts.jobs}: "
                  f"{par_speedup:.2f}x ({report['cpu_cores']} "
                  "core(s) available)", file=sys.stderr)

        if baseline is not None:
            base_fps = baseline_fps(baseline, name)
            if base_fps:
                ratio = active1["flit_events_per_s"] / base_fps
                report["benches"][name]["vs_baseline"] = round(ratio, 3)
                print(f"  vs baseline: {ratio:.2f}x", file=sys.stderr)
                if ratio < 1.0 - opts.max_regression:
                    regressions.append((name, ratio))
            else:
                print("  vs baseline: (not in baseline)",
                      file=sys.stderr)
            base_bench = baseline.get("benches", {}).get(name) or {}
            compare_profiles(name, active1,
                             base_bench.get("active_jobs1"),
                             opts.max_regression)

    if opts.giant or not opts.quick:
        giant = os.path.join(opts.build_dir, "bench",
                             "bench_tab_giant_scale")
        if os.path.exists(giant):
            report["giant_scale"] = run_giant(giant)
        else:
            print("(bench_tab_giant_scale not built; skipping the "
                  "scaling curve)", file=sys.stderr)

    with open(opts.out, "w", encoding="utf-8") as f:
        json.dump(report, f, indent=2)
        f.write("\n")
    print(f"wrote {opts.out}", file=sys.stderr)

    if regressions:
        for name, ratio in regressions:
            print(f"REGRESSION: {name} at {ratio:.2f}x of baseline "
                  f"(tolerance {1.0 - opts.max_regression:.2f}x)",
                  file=sys.stderr)
        raise SystemExit(1)


if __name__ == "__main__":
    main()
