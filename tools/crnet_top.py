#!/usr/bin/env python3
"""Terminal dashboard for a live crnet campaign/sweep status file.

Long campaigns report liveness through the `status=` config key: the
engine atomically rewrites a small JSON file (schema crnet-status-v1,
docs/OBSERVABILITY.md) every few wall-seconds. This tool tails that
file and renders a top-style view: overall progress with an ETA,
per-worker activity, the last few completed trials and fault events,
and the process-wide telemetry counters.

Stdlib only; works over any transport that shows you the file (local
disk, sshfs, a synced artifact directory). The writes are atomic, so
a read never sees a torn file — at worst the file does not exist yet.

Usage:
  tools/crnet_top.py status.json              # refresh until done
  tools/crnet_top.py status.json --once       # render once and exit
  tools/crnet_top.py status.json --interval 5
"""

import argparse
import json
import sys
import time

BAR_WIDTH = 40


def load_status(path):
    """Read and parse the status file; None when absent/unreadable."""
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError):
        return None


def fmt_duration(seconds):
    if seconds is None or seconds < 0:
        return "--:--"
    seconds = int(seconds)
    if seconds >= 3600:
        return f"{seconds // 3600}h{(seconds % 3600) // 60:02d}m"
    return f"{seconds // 60}m{seconds % 60:02d}s"


def progress_bar(done, total):
    if total <= 0:
        return "[" + "?" * BAR_WIDTH + "]"
    filled = int(BAR_WIDTH * min(done, total) / total)
    return "[" + "#" * filled + "-" * (BAR_WIDTH - filled) + "]"


def render(status, path):
    """Return the dashboard for one status snapshot as a string."""
    lines = []
    kind = status.get("kind", "?")
    state = status.get("state", "?")
    total = status.get("total", 0)
    done = status.get("done", 0)
    wall = status.get("wall_seconds")
    eta = status.get("eta_seconds")
    lines.append(f"crnet {kind} — {path}")
    lines.append(
        f"{progress_bar(done, total)} {done}/{total} {state}"
        f"  elapsed {fmt_duration(wall)}"
        + ("" if state == "done" else f"  eta {fmt_duration(eta)}"))

    ratio = status.get("delivery_ratio")
    parts = []
    if ratio is not None:
        parts.append(f"delivery {100.0 * ratio:.2f}%")
    for key in ("resumed", "quarantined", "deadlocked"):
        value = status.get(key, 0)
        if value:
            parts.append(f"{key} {value}")
    parts.append(f"jobs {status.get('jobs', '?')}")
    lines.append("  ".join(parts))

    active = status.get("active", [])
    if active:
        lines.append("")
        lines.append("active:")
        for slot in active:
            lines.append(f"  unit {slot.get('unit', '?'):>5}  "
                         f"{slot.get('phase', '?'):<8} "
                         f"cycle {slot.get('cycle', 0)}")

    units = status.get("recent_units", [])
    if units:
        lines.append("")
        lines.append(f"{'unit':>6} {'seed':>10} {'ok':>3} "
                     f"{'accepted':>9} {'delivered':>9} {'cycles':>9}")
        for u in units[-8:]:
            flags = "ok" if u.get("ok") else (
                "qu" if u.get("quarantined") else (
                    "dl" if u.get("deadlocked") else "!!"))
            lines.append(f"{u.get('unit', 0):>6} {u.get('seed', 0):>10} "
                         f"{flags:>3} {u.get('accepted', 0):>9} "
                         f"{u.get('delivered', 0):>9} "
                         f"{u.get('cycles', 0):>9}")

    faults = status.get("recent_fault_events", [])
    if faults:
        lines.append("")
        lines.append("recent fault events:")
        for ev in faults[-6:]:
            lines.append(f"  unit {ev.get('unit', '?'):>5}  "
                         f"@{ev.get('at', 0):<10} "
                         f"{ev.get('kind', '?')}")

    metrics = status.get("metrics", {})
    shard_lines = render_shards(metrics)
    if shard_lines:
        lines.append("")
        lines.extend(shard_lines)
    if metrics:
        lines.append("")
        lines.append("telemetry:")
        for name in sorted(metrics):
            if name.startswith("sched.shard_ticks."):
                continue  # Summarized in the sharding section.
            lines.append(f"  {name:<32} {metrics[name]}")
    return "\n".join(lines)


def render_shards(metrics):
    """Summarize the intra-run sharding gauges, if any.

    `sched.shard_ticks.<s>` gauges count component ticks each shard
    performed; `sched.shard_barrier_wait_nanos` accumulates only the
    ticking thread's wait for the other shards after it finished shard
    0's part of each round (the other `pool.*` counters cover `jobs=`
    batches, not a network's crew; `pool.crew_sleeps` counts both). A
    well-balanced run shows near-equal tick shares and a small wait; a
    lopsided bar means the node-range split does not match where the
    traffic is (docs/PERFORMANCE.md).
    """
    ticks = {}
    for name, value in metrics.items():
        if name.startswith("sched.shard_ticks."):
            try:
                ticks[int(name.rsplit(".", 1)[1])] = value
            except ValueError:
                continue
    if not ticks:
        return []
    lines = [f"sharding ({len(ticks)} shards):"]
    total = sum(ticks.values())
    for shard in sorted(ticks):
        share = ticks[shard] / total if total else 0.0
        bar = "#" * int(20 * share)
        lines.append(f"  shard {shard:>3}  {ticks[shard]:>14} ticks "
                     f"{100.0 * share:5.1f}% {bar}")
    wait = metrics.get("sched.shard_barrier_wait_nanos")
    if wait is not None:
        lines.append(f"  barrier wait {wait / 1e6:.1f} ms total")
    return lines


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("status", help="path to the status=<path> file")
    ap.add_argument("--interval", type=float, default=2.0,
                    help="refresh period in seconds (default 2)")
    ap.add_argument("--once", action="store_true",
                    help="render one snapshot and exit (CI mode)")
    opts = ap.parse_args()

    while True:
        status = load_status(opts.status)
        if status is None:
            if opts.once:
                sys.exit(f"{opts.status}: not readable yet")
            print(f"waiting for {opts.status} ...", file=sys.stderr)
        else:
            if not opts.once:
                # Clear screen + home; plain ANSI, no curses needed.
                sys.stdout.write("\x1b[2J\x1b[H")
            print(render(status, opts.status))
            sys.stdout.flush()
            if opts.once or status.get("state") == "done":
                return
        time.sleep(opts.interval)


if __name__ == "__main__":
    try:
        main()
    except BrokenPipeError:
        # Piped into head/less that exited; not an error.
        sys.exit(0)
    except KeyboardInterrupt:
        sys.exit(130)
