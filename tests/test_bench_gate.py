#!/usr/bin/env python3
"""Unit tests for tools/bench_gate.py on canned crnet-bench results.

Covers verdict() (ok, worse, unresolved, every change run better, new)
and the per-metric pair count ("better k/n"): pairs_better() directly,
and through gate_workload() and print_workload() with run() replaced by
canned run lists, so the report entry and the printout carry it. The
digest report reads each run's `sim_digest=` through parse_run() from
canned crnet-bench output: digests the same, different, and missing.

Usage: test_bench_gate.py
"""

import contextlib
import importlib.util
import io
import json
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"

LOWER = {"name": "wall_ref", "unit": "ref", "better": "lower",
         "bound": 0.24}
HIGHER = {"name": "sim_delivery_rate", "unit": "1", "better": "higher",
          "bound": 0.01}


def load_gate():
    spec = importlib.util.spec_from_file_location(
        "bench_gate", TOOLS / "bench_gate.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def result(**metrics):
    """A correct crnet-bench result line with the given metric values."""
    return {"correct": True, "attempted": 10, "failed": 0,
            "metrics": {k: {"value": v} for k, v in metrics.items()}}


def check(cond, what):
    if not cond:
        raise AssertionError(what)


def test_verdict(gate):
    s = gate.summary
    parent = s([1.00, 1.01, 0.99, 1.02, 0.98])
    # Within the bound: ok, and a small loss is reported as worse_by.
    v, worse = gate.verdict(LOWER, parent, s([1.05, 1.06, 1.04, 1.05,
                                              1.07]))
    check(v == "ok" and 0.04 < worse < 0.06, f"ok: {v} {worse}")
    # Tight on both sides and past the bound: worse.
    v, worse = gate.verdict(LOWER, parent, s([1.40, 1.41, 1.39, 1.42,
                                              1.40]))
    check(v == "worse" and worse > 0.24, f"worse: {v} {worse}")
    # A side spreads past the bound and the runs overlap: unresolved.
    wide = s([0.5, 1.0, 1.6, 0.7, 1.4])
    v, _ = gate.verdict(LOWER, wide, s([1.0, 1.3, 0.9, 1.5, 1.2]))
    check(v == "unresolved", f"unresolved: {v}")
    # The same spread, but every change run beats every parent run.
    v, worse = gate.verdict(LOWER, wide, s([0.30, 0.35, 0.20, 0.40,
                                            0.25]))
    check(v == "ok" and worse < 0, f"every run better: {v} {worse}")
    # Higher is better: a drop past the bound is worse.
    v, _ = gate.verdict(HIGHER, s([1.0, 1.0, 1.0]), s([0.9, 0.9, 0.9]))
    check(v == "worse", f"higher-is-better worse: {v}")
    v, worse = gate.verdict(LOWER, None, parent)
    check(v == "new" and worse is None, f"new: {v}")


def test_pairs_better(gate):
    parent = [("p", result(wall_ref=1.0, sim_delivery_rate=0.9)),
              ("p", result(wall_ref=1.0, sim_delivery_rate=0.9)),
              ("p", None),  # A failed run drops its pair.
              ("p", result(wall_ref=1.0, sim_delivery_rate=0.9)),
              ("p", result(wall_ref=1.0))]
    change = [("c", result(wall_ref=0.9, sim_delivery_rate=0.95)),
              ("c", result(wall_ref=1.1, sim_delivery_rate=0.9)),
              ("c", result(wall_ref=0.5, sim_delivery_rate=1.0)),
              ("c", result(wall_ref=0.8, sim_delivery_rate=0.8)),
              ("c", result(wall_ref=1.0, sim_delivery_rate=1.0))]
    # wall_ref: pairs 0, 1, 3, 4 count; 0 and 3 are faster, the tie in
    # pair 4 is not.
    got = gate.pairs_better(LOWER, parent, change)
    check(got == (2, 4), f"wall_ref pairs: {got}")
    # Pair 4's parent run lacks the metric, so only 0, 1 and 3 count.
    got = gate.pairs_better(HIGHER, parent, change)
    check(got == (1, 3), f"delivery pairs: {got}")


def test_report_and_printout(gate):
    canned = {
        "parent": [result(wall_ref=v) for v in (1.0, 1.1, 1.0, 0.9)],
        "change": [result(wall_ref=v) for v in (0.8, 0.9, 1.05, 0.8)],
    }
    roots = {"parent": "parent", "change": "change"}
    gate.PAIRS = 4

    def fake_run(root, workload):
        return f"provenance: {root}", canned[root].pop(0)

    gate.run = fake_run
    entry = gate.gate_workload("w", roots, [LOWER], True)
    row = entry["metrics"]["wall_ref"]
    check(row["better_pairs"] == [3, 4],
          f"report better_pairs: {row['better_pairs']}")
    check(entry["status"] == "pass", f"status: {entry['status']}")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        gate.print_workload("w", entry)
    line = next(x for x in out.getvalue().splitlines()
                if x.strip().startswith("wall_ref"))
    check(" 3/4 " in line, f"printout: {line!r}")


def bench_output(digest):
    """A passing crnet-bench run's stdout; no digest when `digest` is
    None."""
    passes = "passes=3 ops=21 failed_ops=0"
    if digest is not None:
        passes += f" sim_digest={digest}"
    return "\n".join([
        "provenance: cores=4 build=Release audit=off",
        passes + " setup_reps=5 pass_s=1.000,1.000,1.000",
        json.dumps(result(wall_ref=1.0))]) + "\n"


def test_digests(gate):
    _, r = gate.parse_run(bench_output("00000000000000ab"), 0)
    check(r["sim_digest"] == "00000000000000ab", f"parsed: {r}")
    _, r = gate.parse_run(bench_output(None), 0)
    check(r["sim_digest"] is None, f"no digest: {r}")
    roots = {"parent": "parent", "change": "change"}
    cases = [
        ("same", ["aa", "aa"], ["aa", "aa"], True, "digest: same aa"),
        ("different", ["aa", "aa"], ["bb", "bb"], False,
         "digest: parent aa change bb"),
        ("no digest", ["aa", "aa"], ["aa", None], False,
         "digest: parent aa change aa,none"),
    ]
    for what, parent, change, same, line in cases:
        canned = {"parent": [bench_output(d) for d in parent],
                  "change": [bench_output(d) for d in change]}
        gate.PAIRS = 2
        gate.run = lambda root, workload, c=canned: gate.parse_run(
            c[root].pop(0), 0)
        entry = gate.gate_workload("w", roots, [LOWER], True)
        check(entry["digest"]["same"] == same,
              f"{what}: {entry['digest']}")
        # Report only: a change may alter results on purpose.
        check(entry["status"] == "pass", f"{what}: {entry['status']}")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            gate.print_workload("w", entry)
        check(f"  {line}\n" in out.getvalue(),
              f"{what} printout: {out.getvalue()!r}")


def main() -> int:
    gate = load_gate()
    for test in (test_verdict, test_pairs_better,
                 test_report_and_printout, test_digests):
        test(gate)
        print(f"ok {test.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
