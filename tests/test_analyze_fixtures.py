#!/usr/bin/env python3
"""Self-tests for tools/crnet_analyze.py.

Each directory under tests/analyze_fixtures/ is a miniature repository
(a src/ tree, and for the token rules other trees too) with a planted
property:

  clean       nothing wrong                       -> exit 0
  alloc       `new` reachable from a hot path     -> exit 1
  unordered   hash-order iteration from a
              result-affecting root               -> exit 1
  template_class
              the same, in a member function
              template whose parameter is spelled
              `class` (not a class scope)         -> exit 1
  wallclock   steady_clock read, no shim          -> exit 1
  global      namespace-scope + function-local
              mutable state                       -> exit 1
  suppressed  same as alloc but CRNET_ALLOW'd
              with a reason                       -> exit 0
  transitive  violation three calls below root    -> exit 1
  class_order a member typed by a class declared
              in a later file: its call resolves
              to the class, not to growth        -> exit 1
  template_arg
              a vector of a repo class: its
              push_back is the vector's growth    -> exit 1
  local_lambda
              a local lambda named like an
              allocating function: no edge        -> exit 0
  badallow    CRNET_ALLOW with empty reason and
              with an unknown rule                -> exit 1
  telemetry_clock
              an allowed clock shim next to a raw
              clock read: only the raw read trips -> exit 1
  raw_random  rand()/srand()/random()/mt19937 in
              every tree the rule reads, beside
              the exempt src/sim/rng.hh, lookalike
              names and an unread tree            -> exit 1
  raw_output  each stdio call, iostream global and
              abort(), beside member lookalikes,
              comments, a string literal, the
              exempt log.hh and a bench's printf  -> exit 1
  raw_assert  assert() beside static_assert, a
              lookalike and an assert in tests/   -> exit 1
  raw_env     each environment call beside member
              calls, lookalikes, a comment, a
              string literal and a setenv in
              tests/                              -> exit 1
  include_guard
              wrong and missing guards (.hh, .h)
              beside correct ones and an unread
              bench header                        -> exit 1

The assertions pin the exit status AND the exact list of report lines
(rule, file, line, and the call chain for the propagating rules), so a
missed violation, a lookalike that starts to trip, or a regression in
the chain reconstruction fails loudly.

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
    ("template_class", 1, [
        "src/template_class.cc:33: unordered-iter: range-for over "
        "unordered container 'entries_' "
        "[chain: save -> Ledger::transfer]",
    ]),
    ("wallclock", 1, [
        "src/wallclock.cc:12: wallclock: steady_clock [chain: elapsed]",
        "src/wallclock.cc:13: wallclock: steady_clock [chain: elapsed]",
    ]),
    ("global", 1, [
        "src/global.cc:7: global-state: mutable namespace-scope "
        "state 'hiddenCounter'",
        "src/global.cc:12: global-state: function-local static state "
        "[chain: bump]",
    ]),
    ("suppressed", 0, []),
    ("transitive", 1, [
        "src/transitive.cc:12: alloc: operator new "
        "[chain: tick -> middle -> lower -> leaf]",
    ]),
    # Receiver resolution. Not reported: `pool_.push(3)` as container
    # growth (src/a_engine.cc:27), since Pool is registered before any
    # member is typed, whatever file declares it.
    ("class_order", 1, [
        "src/z_pool.hh:12: alloc: operator new "
        "[chain: Engine::tick -> Pool::push]",
    ]),
    ("template_arg", 1, [
        "src/template_arg.cc:30: alloc: .push_back() container growth "
        "[chain: Queue::tick]",
    ]),
    ("local_lambda", 0, []),
    ("badallow", 1, [
        'src/badallow.cc:11: allow-missing-reason: CRNET_ALLOW("alloc") '
        "on makeBuffer has no reason string",
        "src/badallow.cc:18: allow-missing-reason: CRNET_ALLOW with "
        "unknown rule 'not-a-rule' on helper",
    ]),
    # The telemetry pattern: an annotated clock shim does not blanket
    # its file — a raw chrono read beside it must still be reported
    # (and only it: the shim itself stays clean).
    ("telemetry_clock", 1, [
        "src/telemetry_clock.cc:28: wallclock: steady_clock "
        "[chain: rawStamp]",
    ]),
    # Not reported: `Rng rng(seed);` and `randomize_later();`
    # (src/random.cc:15-16), the exempt src/sim/rng.hh, and
    # other/outside.cc, a tree the rule does not read.
    ("raw_random", 1, [
        "bench/noise.cc:6: raw-random: rand(); use src/sim/rng.hh",
        "examples/demo.cc:6: raw-random: srand(); use src/sim/rng.hh",
        "src/random.cc:12: raw-random: mt19937; use src/sim/rng.hh",
        "src/random.cc:13: raw-random: rand(); use src/sim/rng.hh",
        "src/random.cc:14: raw-random: srand(); use src/sim/rng.hh",
        "tests/shuffle.cc:6: raw-random: random(); use src/sim/rng.hh",
        "tools/gen.cc:6: raw-random: mt19937_64; use src/sim/rng.hh",
    ]),
    # Not reported (src/output.cc): acceptAbort, onAbort, sprintf_like,
    # aborted and a local named abort (19-23), two comments (24-25) and
    # a string literal (26); nor the exempt src/log.hh or
    # bench/print.cc.
    ("raw_output", 1, [
        "src/output.cc:10: raw-output: printf(); use src/sim/log.hh",
        "src/output.cc:11: raw-output: fprintf(); use src/sim/log.hh",
        "src/output.cc:12: raw-output: puts(); use src/sim/log.hh",
        "src/output.cc:13: raw-output: perror(); use src/sim/log.hh",
        "src/output.cc:14: raw-output: cout; use src/sim/log.hh",
        "src/output.cc:15: raw-output: cerr; use src/sim/log.hh",
        "src/output.cc:16: raw-output: clog; use src/sim/log.hh",
        "src/output.cc:17: raw-output: abort(); use src/sim/log.hh",
        "src/output.cc:18: raw-output: abort(); use src/sim/log.hh",
        "src/output.cc:27: raw-output: clog; use src/sim/log.hh",
    ]),
    # Not reported: static_assert, myassert and a member named assert
    # (src/check.cc:10-12), and tests/check_test.cc.
    ("raw_assert", 1, [
        "src/check.cc:9: raw-assert: assert(); use panic() "
        "(active in all builds)",
    ]),
    # Not reported (src/env.cc): a `.` and a `->` member call, a
    # lookalike call and a local named getenv (15-18), a comment (19)
    # and a string literal (20); nor tests/env_test.cc.
    ("raw_env", 1, [
        "src/env.cc:10: raw-env: getenv(); settings are SimConfig keys",
        "src/env.cc:11: raw-env: secure_getenv(); settings are "
        "SimConfig keys",
        "src/env.cc:12: raw-env: setenv(); settings are SimConfig keys",
        "src/env.cc:13: raw-env: putenv(); settings are SimConfig keys",
        "src/env.cc:14: raw-env: unsetenv(); settings are SimConfig "
        "keys",
    ]),
    # Not reported: src/good.hh, src/sim/two-part.hh (a dash maps to
    # `_`), the commented-out guard in src/sim/wrong.hh, and
    # bench/unguarded.hh.
    ("include_guard", 1, [
        "src/legacy.h:1: include-guard: missing include guard "
        "(CRNET_LEGACY_H)",
        "src/missing.hh:1: include-guard: missing include guard "
        "(CRNET_MISSING_HH)",
        "src/sim/wrong.hh:4: include-guard: SIM_WRONG_HH should be "
        "CRNET_SIM_WRONG_HH",
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
        # Every stdout line but the summary is one violation.
        got_lines = proc.stdout.splitlines()[:-1]
        for line in want_lines:
            if line not in got_lines:
                problems.append(f"missing report line: {line}")
        for line in got_lines:
            if line not in want_lines:
                problems.append(f"unexpected report line: {line}")
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
