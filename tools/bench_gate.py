#!/usr/bin/env python3
"""Same-host timing gate: a change's crnet-bench runs against its parent's.

Usage:
  tools/bench_gate.py PARENT_ROOT CHANGE_ROOT REPORT

PARENT_ROOT and CHANGE_ROOT are two checkouts on the same host, the
change's parent and the change. For every workload in the change's
BENCHMARK.json the gate runs PAIRS pairs of

  crnet-bench/run.py --workload W --seed SEED --seconds SECONDS --trace 0

one run in each checkout per pair; even pairs run the parent first,
odd pairs the change, so a drift in host speed lands on both sides.
Each checkout builds its own benchmark on its first run.

It prints, per workload, both sides' `provenance:` lines, the failed
share of ops, and for each end-to-end metric both sides' median and
IQR (distance between the quartiles) and in how many pairs the
change's run beat the parent's ("better k/n", over the n pairs where
both runs report the metric), then writes the same figures to REPORT
as JSON (`better_pairs`: [k, n]). A metric's verdict is
  ok          the change's median is no worse than the parent's by
              more than the metric's BENCHMARK.json bound;
  worse       it is worse by more than the bound, and both sides'
              IQR/median lie inside the bound;
  unresolved  a side's IQR/median exceeds the bound (unless every
              change run reads better than every parent run: ok);
  new         the parent has no such workload or metric;
  missing     no change run reported the metric.

It also reports, per workload, whether every run on both sides printed
one `sim_digest=` (`digest: same <hex>`) or not (`digest: parent <hex>
change <hex>`, listing each side's digests, `none` for a run that
printed none), and writes it to REPORT as `digest`. A change may alter
results on purpose, so a digest mismatch never fails the gate.

Exit status: 0 = pass; 1 = a run failed its output checks, the failed
share of ops rose, or a metric is `worse` or `missing`; 2 = usage
error.
"""

import json
import math
import re
import statistics
import subprocess
import sys
from pathlib import Path

PAIRS = 5
SECONDS = 5
SEED = 20260706
DIGEST = re.compile(r"\bsim_digest=([0-9a-f]+)")


def run(root, workload):
    """One untraced crnet-bench run in `root`; see parse_run()."""
    proc = subprocess.run(
        [sys.executable, "crnet-bench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", "0"],
        cwd=root, stdout=subprocess.PIPE, text=True, check=False)
    return parse_run(proc.stdout, proc.returncode)


def parse_run(stdout, returncode):
    """(provenance line, result object) of one run's output.

    The result is None when the run failed its output checks; else it
    carries the `sim_digest` of the run's `passes=` line (None when the
    line has none).
    """
    lines = stdout.splitlines()
    provenance = next((line for line in lines
                       if line.startswith("provenance:")), "")
    if returncode != 0 or not lines:
        return provenance, None
    result = json.loads(lines[-1])
    if not result["correct"]:
        return provenance, None
    passes = next((line for line in lines if line.startswith("passes=")),
                  "")
    match = DIGEST.search(passes)
    result["sim_digest"] = match.group(1) if match else None
    return provenance, result


def relative(value, base):
    """(value - base) / |base|, with a zero base read as 0 or +-inf."""
    if base == 0:
        return 0.0 if value == 0 else math.copysign(math.inf, value)
    return (value - base) / abs(base)


def summary(values):
    """Median and IQR of one side's runs of one metric."""
    if len(values) < 2:
        return {"runs": values, "median": values[0], "iqr": 0.0}
    q1, median, q3 = statistics.quantiles(values, n=4,
                                          method="inclusive")
    return {"runs": values, "median": median, "iqr": q3 - q1}


def metric_value(result, name):
    """A run's value of metric `name`; None for a failed run or none."""
    if result is None or name not in result["metrics"]:
        return None
    return result["metrics"][name]["value"]


def pairs_better(metric, parent_runs, change_runs):
    """(k, n): of the n pairs whose runs both report `metric`, the k
    in which the change's value is better than the parent's. Run i of
    each side is pair i; a run is a (provenance, result) tuple."""
    sign = 1.0 if metric["better"] == "lower" else -1.0
    k = n = 0
    for (_, p), (_, c) in zip(parent_runs, change_runs):
        pv = metric_value(p, metric["name"])
        cv = metric_value(c, metric["name"])
        if pv is None or cv is None:
            continue
        n += 1
        k += sign * (cv - pv) < 0
    return k, n


def verdict(metric, parent, change):
    """The gate's verdict on one metric (see the module docstring)."""
    if parent is None:
        return "new", None
    sign = 1.0 if metric["better"] == "lower" else -1.0
    worse = sign * relative(change["median"], parent["median"])
    spread = max(s["iqr"] / abs(s["median"]) if s["median"] else
                 (math.inf if s["iqr"] else 0.0) for s in (parent, change))
    if spread > metric["bound"]:
        if all(sign * (c - p) < 0 for c in change["runs"]
               for p in parent["runs"]):
            return "ok", worse
        return "unresolved", worse
    return ("worse" if worse > metric["bound"] else "ok"), worse


def digests(runs):
    """Each side's distinct digests over its passing runs ("none" for
    a run that printed none), and whether all runs share one digest."""
    sides = {side: sorted({r.get("sim_digest") or "none"
                           for _, r in side_runs if r is not None})
             for side, side_runs in runs.items()}
    seen = {d for ds in sides.values() for d in ds}
    same = (len(sides) == 2 and len(seen) == 1 and "none" not in seen
            and all(sides.values()))
    return {"same": same, **sides}


def gate_workload(name, roots, metrics, in_parent):
    """Run one workload's pairs; return its report entry."""
    sides = ("parent", "change") if in_parent else ("change",)
    runs = {side: [] for side in sides}
    for pair in range(PAIRS):
        order = sides if pair % 2 == 0 else sides[::-1]
        for side in order:
            runs[side].append(run(roots[side], name))
            if runs[side][-1][1] is None:
                print(f"{name}: {side} run {pair} failed its output "
                      "checks", file=sys.stderr)

    entry = {"provenance": {}, "failed_share": {}, "metrics": {},
             "failed_runs": {}, "digest": digests(runs)}
    for side in sides:
        results = [r for _, r in runs[side] if r is not None]
        entry["provenance"][side] = sorted({p for p, _ in runs[side]})
        entry["failed_runs"][side] = len(runs[side]) - len(results)
        attempted = sum(r["attempted"] for r in results)
        entry["failed_share"][side] = (
            sum(r["failed"] for r in results) / attempted
            if attempted else 0.0)
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in results
                      if m["name"] in r["metrics"]]
            if values:
                entry["metrics"].setdefault(m["name"], {})[side] = \
                    summary(values)
    for m in metrics:
        row = entry["metrics"].setdefault(m["name"], {})
        if "change" not in row:
            row["verdict"] = "missing"
            continue
        row["verdict"], row["worse_by"] = verdict(
            m, row.get("parent"), row["change"])
        row["bound"] = m["bound"]
        row["unit"] = m["unit"]
        if in_parent:
            row["better_pairs"] = list(
                pairs_better(m, runs["parent"], runs["change"]))

    problems = [f"{side}: {n} run(s) failed"
                for side, n in entry["failed_runs"].items() if n]
    if in_parent and (entry["failed_share"]["change"] >
                      entry["failed_share"]["parent"]):
        problems.append("failed share of ops rose")
    problems += [f"{m}: {v['verdict']}"
                 for m, v in entry["metrics"].items()
                 if v["verdict"] in ("worse", "missing")]
    entry["status"] = "fail" if problems else (
        "pass" if in_parent else "new")
    entry["problems"] = problems
    return entry


def print_workload(name, entry):
    print(f"== {name}: {entry['status']} ({PAIRS} pairs of {SECONDS} s "
          f"runs, seed {SEED})")
    for side, lines in entry["provenance"].items():
        for line in lines:
            print(f"  {side:6} {line}")
    shares = ", ".join(f"{side} {share:.4f}"
                       for side, share in entry["failed_share"].items())
    print(f"  failed share of ops: {shares}")
    digest = entry["digest"]
    if digest["same"]:
        print(f"  digest: same {digest['change'][0]}")
    else:
        print("  digest: " + " ".join(
            f"{side} {','.join(digest[side]) or '-'}"
            for side in ("parent", "change") if side in digest))
    print(f"  {'metric':26} {'parent median (IQR)':>26} "
          f"{'change median (IQR)':>26} {'worse':>8} {'bound':>6} "
          f"{'better':>6}  verdict")
    for name_m, v in entry["metrics"].items():
        cells = []
        for side in ("parent", "change"):
            s = v.get(side)
            cells.append(f"{s['median']:.6g} ({s['iqr']:.3g})"
                         if s else "-")
        worse = v.get("worse_by")
        worse_cell = "-" if worse is None else f"{100 * worse:+.1f}%"
        bound = v.get("bound")
        bound_cell = "-" if bound is None else f"{100 * bound:.0f}%"
        better = v.get("better_pairs")
        better_cell = "-" if better is None else f"{better[0]}/{better[1]}"
        print(f"  {name_m:26} {cells[0]:>26} {cells[1]:>26} "
              f"{worse_cell:>8} {bound_cell:>6} {better_cell:>6}  "
              f"{v['verdict']}")
    for problem in entry["problems"]:
        print(f"  FAIL {problem}")


def load_benchmark(root):
    with open(root / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def main(argv):
    if len(argv) != 4:
        print(__doc__, file=sys.stderr)
        return 2
    roots = {"parent": Path(argv[1]).resolve(),
             "change": Path(argv[2]).resolve()}
    bench = load_benchmark(roots["change"])
    in_parent = {w["name"]
                 for w in load_benchmark(roots["parent"])["workloads"]}

    report = {"pairs": PAIRS, "seconds": SECONDS, "seed": SEED,
              "roots": {k: str(v) for k, v in roots.items()},
              "workloads": {}}
    for w in bench["workloads"]:
        entry = gate_workload(w["name"], roots, bench["end_to_end"],
                              w["name"] in in_parent)
        report["workloads"][w["name"]] = entry
        print_workload(w["name"], entry)
        sys.stdout.flush()
    failed = [n for n, e in report["workloads"].items()
              if e["status"] == "fail"]
    report["passed"] = not failed
    with open(argv[3], "w", encoding="utf-8") as f:
        json.dump(report, f, indent=1)
        f.write("\n")
    print(f"bench_gate: {'FAIL ' + ', '.join(failed) if failed else 'pass'}"
          f" (report {argv[3]})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
