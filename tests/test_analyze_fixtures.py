#!/usr/bin/env python3
"""Self-tests for tools/crnet_analyze.py.

Each directory under tests/analyze_fixtures/ is a miniature repository
(a src/ tree with one translation unit) with a planted property:

  clean       nothing wrong                       -> exit 0
  alloc       `new` reachable from a hot path     -> exit 1
  unordered   hash-order iteration from a
              result-affecting root               -> exit 1
  wallclock   steady_clock read, no shim          -> exit 1
  global      namespace-scope + function-local
              mutable state                       -> exit 1
  suppressed  same as alloc but CRNET_ALLOW'd
              with a reason                       -> exit 0
  transitive  violation three calls below root    -> exit 1
  badallow    CRNET_ALLOW with empty reason and
              with an unknown rule                -> exit 1
  telemetry_clock
              an allowed clock shim next to a raw
              clock read: only the raw read trips -> exit 1

The assertions pin the exit status AND the report lines (rule, file,
and the call chain for the propagating rules), so a regression in
either the detection or the chain reconstruction fails loudly.

Usage: test_analyze_fixtures.py <repo_root>
"""

import subprocess
import sys
from pathlib import Path


CASES = [
    ("clean", 0, []),
    ("alloc", 1, [
        "src/alloc.cc:12: alloc: operator new "
        "[chain: tick -> makeBuffer]",
    ]),
    ("unordered", 1, [
        "src/unordered.cc:19: unordered-iter: range-for over "
        "unordered container 'entries_' "
        "[chain: summarize -> Ledger::total]",
    ]),
    ("wallclock", 1, [
        "src/wallclock.cc:12: wallclock: steady_clock",
        "src/wallclock.cc:13: wallclock: steady_clock",
    ]),
    ("global", 1, [
        "src/global.cc:7: global-state: mutable namespace-scope "
        "state 'hiddenCounter'",
        "src/global.cc:12: global-state: function-local static state",
    ]),
    ("suppressed", 0, []),
    ("transitive", 1, [
        "src/transitive.cc:12: alloc: operator new "
        "[chain: tick -> middle -> lower -> leaf]",
    ]),
    ("badallow", 1, [
        'allow-missing-reason: CRNET_ALLOW("alloc") on makeBuffer '
        "has no reason string",
        "allow-missing-reason: CRNET_ALLOW with unknown rule "
        "'not-a-rule' on helper",
    ]),
    # The telemetry pattern: an annotated clock shim does not blanket
    # its file — a raw chrono read beside it must still be reported
    # (and only it: the shim itself stays clean).
    ("telemetry_clock", 1, [
        "src/telemetry_clock.cc:28: wallclock: steady_clock "
        "[chain: rawStamp]",
        " 1 violation(s)",
    ]),
]


def main() -> int:
    if len(sys.argv) != 2:
        print(f"usage: {sys.argv[0]} <repo_root>", file=sys.stderr)
        return 2
    root = Path(sys.argv[1]).resolve()
    analyzer = root / "tools" / "crnet_analyze.py"
    fixtures = root / "tests" / "analyze_fixtures"

    failures = 0
    for name, want_exit, want_lines in CASES:
        proc = subprocess.run(
            [sys.executable, str(analyzer), str(fixtures / name)],
            capture_output=True, text=True)
        problems = []
        if proc.returncode != want_exit:
            problems.append(
                f"exit {proc.returncode}, expected {want_exit}")
        for line in want_lines:
            if line not in proc.stdout:
                problems.append(f"missing report line: {line}")
        if want_exit == 0:
            # A clean fixture must report exactly zero violations.
            if " 0 violation(s)" not in proc.stdout:
                problems.append("expected a 0-violation summary")
        if problems:
            failures += 1
            print(f"FAIL {name}")
            for p in problems:
                print(f"  {p}")
            print("  --- analyzer stdout ---")
            for out_line in proc.stdout.splitlines():
                print(f"  {out_line}")
            if proc.stderr.strip():
                print("  --- analyzer stderr ---")
                for err_line in proc.stderr.splitlines():
                    print(f"  {err_line}")
        else:
            print(f"ok   {name}")

    if failures:
        print(f"{failures} fixture case(s) failed")
        return 1
    print(f"all {len(CASES)} fixture cases passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
