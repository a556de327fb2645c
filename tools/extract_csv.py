#!/usr/bin/env python3
"""Split bench output into per-table CSV files.

Every crnet bench prints each results table twice: once aligned for
reading, once as CSV after a `csv:` marker. This script walks one
bench's output, or the combined output of several benches separated by
`===== name =====` header lines, and writes each CSV block to
  <outdir>/<bench>__<nn>.csv
so the numbers can be plotted or diffed without re-running anything.
Output with no header line is one bench named after the file stem.
The single-line key=value `profile:` footers become one-row CSVs the
same way. The exit code is 1 when the file holds no block at all.

Given a live-status JSON file instead (the `status=` config key;
schema crnet-status-v1, docs/OBSERVABILITY.md), the recent-units
trial table inside it is written to <outdir>/<stem>__status.csv.

Usage:
  tools/extract_csv.py bench_output.txt [outdir]   (default: bench_csv/)
  tools/extract_csv.py status.json [outdir]
"""

import json
import os
import re
import sys


# Marker line -> file-name tag of each multi-row CSV block: results
# tables, per-trial campaign rows, interval-sampled telemetry and
# channel-heat snapshots (docs/OBSERVABILITY.md).
BLOCKS = (("csv:", ""), ("campaign-trials:", "trials"),
          ("timeseries:", "ts"), ("heatmap:", "heatmap"))


def split_benches(text, stem):
    """Yield (bench_name, body) for each '===== name =====' section.

    Text without any header line is one section named `stem`.
    """
    parts = re.split(r"^===== (.+?) =====$", text, flags=re.M)
    if len(parts) == 1:
        yield stem, text
        return
    # parts[0] is any preamble; then alternating name, body.
    for i in range(1, len(parts) - 1, 2):
        yield parts[i].strip(), parts[i + 1]


def csv_blocks(body, marker):
    """Yield consecutive CSV line blocks following `marker` lines."""
    lines = body.splitlines()
    i = 0
    while i < len(lines):
        if lines[i].strip() == marker:
            block = []
            i += 1
            while i < len(lines) and "," in lines[i]:
                block.append(lines[i])
                i += 1
            if block:
                yield "\n".join(block) + "\n"
        else:
            i += 1


def kv_lines(body, marker):
    """Yield dicts parsed from single-line `marker key=v key=v` rows."""
    for line in body.splitlines():
        line = line.strip()
        if not line.startswith(marker):
            continue
        row = {}
        for tok in line[len(marker):].split():
            if "=" in tok:
                k, _, v = tok.partition("=")
                row[k] = v
        if row:
            yield row


def kv_csv(rows):
    """Render a list of same-keyed dicts as one CSV block."""
    keys = list(rows[0].keys())
    out = [",".join(keys)]
    out += [",".join(r.get(k, "") for k in keys) for r in rows]
    return "\n".join(out) + "\n"


def status_csv(src, outdir):
    """Write a crnet-status-v1 file's trial table as one CSV file."""
    with open(src, encoding="utf-8") as f:
        status = json.load(f)
    schema = status.get("schema", "")
    if schema != "crnet-status-v1":
        sys.exit(f"{src}: unrecognized status schema {schema!r} "
                 "(expected crnet-status-v1)")
    os.makedirs(outdir, exist_ok=True)
    units = status.get("recent_units", [])
    keys = ["unit", "seed", "ok", "deadlocked", "quarantined",
            "accepted", "delivered", "cycles"]
    stem = re.sub(r"[^A-Za-z0-9_.-]", "_",
                  os.path.splitext(os.path.basename(src))[0])
    path = os.path.join(outdir, f"{stem}__status.csv")
    with open(path, "w", encoding="utf-8") as out:
        out.write(",".join(keys) + "\n")
        for u in units:
            out.write(",".join(str(u.get(k, "")) for k in keys) + "\n")
    print(f"wrote 1 CSV file to {outdir}/ "
          f"({len(units)} trial rows from {src})")


def main():
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    src = sys.argv[1]
    outdir = sys.argv[2] if len(sys.argv) > 2 else "bench_csv"
    if src.endswith(".json"):
        status_csv(src, outdir)
        return
    with open(src, encoding="utf-8", errors="replace") as f:
        text = f.read()

    stem = os.path.splitext(os.path.basename(src))[0]
    os.makedirs(outdir, exist_ok=True)
    written = 0
    for bench, body in split_benches(text, stem):
        safe = re.sub(r"[^A-Za-z0-9_.-]", "_", bench)
        for marker, tag in BLOCKS:
            for n, block in enumerate(csv_blocks(body, marker)):
                path = os.path.join(outdir, f"{safe}__{tag}{n:02d}.csv")
                with open(path, "w", encoding="utf-8") as out:
                    out.write(block)
                written += 1
        # Self-profiler footers (`profile: warmup_s=... ...`) — one
        # row per footer so the per-phase wall-time attribution can be
        # tracked alongside the results (docs/OBSERVABILITY.md).
        prof = list(kv_lines(body, "profile:"))
        if prof:
            path = os.path.join(outdir, f"{safe}__profile.csv")
            with open(path, "w", encoding="utf-8") as out:
                out.write(kv_csv(prof))
            written += 1
    if not written:
        sys.exit(f"{src}: no csv:, campaign-trials:, timeseries:, "
                 "heatmap: or profile: block found")
    print(f"wrote {written} CSV files to {outdir}/")


if __name__ == "__main__":
    main()
