#!/usr/bin/env python3
"""Schema and atomicity tests for the live status file (status=).

Drives tests/campaign_resume_helper (the same fixture binary the
crash-resume test uses), with the status file enabled:

  1. Runs a campaign with status_interval=0 (rewrite on every update)
     and validates the final status.json against the documented
     crnet-status-v1 schema (docs/OBSERVABILITY.md): required keys,
     types, state=done, and internally-consistent counts. The tools
     read it too: tools/crnet_top.py --once renders it, and
     tools/extract_csv.py splits it into one CSV row per trial.
  2. Polls the file while a campaign runs, parsing every read: writes
     go through atomicWriteFile, so a reader must never see a torn or
     half-written file, only a missing one. crnet_top --once renders
     one mid-run read.
  3. SIGKILLs a campaign mid-flight — with rewrites happening as often
     as possible — and asserts the file left on disk still parses and
     validates: the atomic rename can be interrupted, the visible file
     can not.
  4. Re-runs the killed campaign against its journal with status and
     profiling enabled and asserts the summary/trial output is
     byte-identical to a plain run: telemetry stays off the results
     path even across a crash-resume.

Usage: test_status_schema.py <helper_binary>
"""

import json
import os
import random
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"
TRIALS = 12
SEED_BASE = 7

# key -> allowed types in a crnet-status-v1 file.
SCHEMA_KEYS = {
    "schema": str,
    "kind": str,
    "state": str,
    "wall_seconds": (int, float),
    "jobs": int,
    "total": int,
    "done": int,
    "resumed": int,
    "quarantined": int,
    "deadlocked": int,
    "accepted": int,
    "delivered": int,
    "delivery_ratio": (int, float),
    "eta_seconds": (int, float),
    "active": list,
    "recent_units": list,
    "recent_fault_events": list,
    "metrics": dict,
}

UNIT_KEYS = {
    "unit": int,
    "seed": int,
    "ok": bool,
    "deadlocked": bool,
    "quarantined": bool,
    "accepted": int,
    "delivered": int,
    "cycles": int,
}


def validate(status, where):
    """Return a list of schema violations in one parsed status dict."""
    problems = []
    for key, types in SCHEMA_KEYS.items():
        if key not in status:
            problems.append(f"{where}: missing key {key!r}")
        elif not isinstance(status[key], types):
            problems.append(
                f"{where}: {key!r} has type "
                f"{type(status[key]).__name__}, wanted {types}")
    if problems:
        return problems
    if status["schema"] != "crnet-status-v1":
        problems.append(f"{where}: schema is {status['schema']!r}")
    if status["kind"] not in ("campaign", "sweep"):
        problems.append(f"{where}: kind is {status['kind']!r}")
    if status["state"] not in ("running", "done"):
        problems.append(f"{where}: state is {status['state']!r}")
    if not 0 <= status["done"] <= status["total"]:
        problems.append(
            f"{where}: done={status['done']} outside "
            f"[0, total={status['total']}]")
    if status["delivered"] > status["accepted"]:
        problems.append(f"{where}: delivered > accepted")
    if not 0.0 <= status["delivery_ratio"] <= 1.0:
        problems.append(
            f"{where}: delivery_ratio={status['delivery_ratio']}")
    for u in status["recent_units"]:
        for key, types in UNIT_KEYS.items():
            if not isinstance(u.get(key), types):
                problems.append(
                    f"{where}: recent_units[...].{key} missing or "
                    f"mistyped in {u}")
                break
    for ev in status["recent_fault_events"]:
        if not isinstance(ev.get("unit"), int) or \
                not isinstance(ev.get("at"), int) or \
                not isinstance(ev.get("kind"), str):
            problems.append(
                f"{where}: malformed fault event {ev}")
    for name, value in status["metrics"].items():
        if not isinstance(name, str) or \
                not isinstance(value, (int, float)):
            problems.append(f"{where}: malformed metric {name!r}")
    return problems


def helper_cmd(helper, journal=None, status=None, profile=False,
               jobs=1):
    cmd = [helper, f"trials={TRIALS}", f"seed_base={SEED_BASE}",
           f"jobs={jobs}"]
    if journal:
        cmd.append(f"journal={journal}")
    if status:
        cmd += [f"status={status}", "status_interval=0"]
    if profile:
        cmd.append("profile=1")
    return cmd


def run_helper(helper, **kwargs):
    proc = subprocess.run(helper_cmd(helper, **kwargs),
                          capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise AssertionError(
            f"helper failed ({proc.returncode}):\n{proc.stdout}"
            f"\n{proc.stderr}")
    kept = [l for l in proc.stdout.splitlines()
            if l.startswith(("summary ", "trial "))]
    return "\n".join(kept) + "\n"


def run_tool(name, *args):
    """Run one tools/ script; return its standard output."""
    proc = subprocess.run([sys.executable, str(TOOLS / name), *args],
                          capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise AssertionError(
            f"{name} failed ({proc.returncode}):\n{proc.stdout}"
            f"\n{proc.stderr}")
    return proc.stdout


def main():
    if len(sys.argv) != 2:
        print(__doc__)
        return 2
    helper = sys.argv[1]
    if not Path(helper).exists():
        print(f"helper binary not found: {helper}")
        return 2

    rng = random.Random(20260809)
    failures = []

    with tempfile.TemporaryDirectory(prefix="crnet_status_") as tmp:
        # 1. Final-state schema validation.
        status_path = os.path.join(tmp, "status.json")
        reference = run_helper(helper, status=status_path)
        with open(status_path, encoding="utf-8") as f:
            final = json.load(f)
        failures += validate(final, "final status")
        if not failures:
            if final["state"] != "done":
                failures.append(
                    f"final state is {final['state']!r}, not 'done'")
            if final["done"] != TRIALS or final["total"] != TRIALS:
                failures.append(
                    f"final done/total = {final['done']}/"
                    f"{final['total']}, expected {TRIALS}/{TRIALS}")
            if final["kind"] != "campaign":
                failures.append(
                    f"final kind is {final['kind']!r}")
        shown = run_tool("crnet_top.py", status_path, "--once")
        if f"{TRIALS}/{TRIALS} done" not in shown:
            failures.append(f"crnet_top on the final file:\n{shown}")
        csv_dir = os.path.join(tmp, "csv")
        run_tool("extract_csv.py", status_path, csv_dir)
        with open(os.path.join(csv_dir, "status__status.csv"),
                  encoding="utf-8") as f:
            rows = f.read().splitlines()[1:]
        if len(rows) != TRIALS:
            failures.append(f"extract_csv wrote {len(rows)} trial "
                            f"rows, expected {TRIALS}")

        # 2. Live polling: every successful read must parse and
        # validate — atomic rewrites leave no torn intermediate state.
        live_path = os.path.join(tmp, "live.json")
        proc = subprocess.Popen(
            helper_cmd(helper, status=live_path),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        reads = 0
        mid_run = None
        try:
            while proc.poll() is None:
                try:
                    with open(live_path, encoding="utf-8") as f:
                        text = f.read()
                    snap = json.loads(text)
                except OSError:
                    time.sleep(0.001)
                    continue  # Not created yet / mid-rename.
                except ValueError as e:
                    failures.append(f"torn status file mid-run: {e}")
                    break
                reads += 1
                failures += validate(snap, f"live read {reads}")
                if mid_run is None and snap.get("state") == "running":
                    mid_run = text
                time.sleep(0.001)
            proc.wait(timeout=600)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=60)
        if mid_run is None:
            print("note: campaign finished before any mid-run read; "
                  "final-state coverage only this run")
        else:
            mid_path = os.path.join(tmp, "mid.json")
            with open(mid_path, "w", encoding="utf-8") as f:
                f.write(mid_run)
            shown = run_tool("crnet_top.py", mid_path, "--once")
            if " running" not in shown:
                failures.append(f"crnet_top on a mid-run read:\n{shown}")

        # 3. SIGKILL mid-run, with the status file rewritten as often
        # as possible: whatever survives on disk must still be valid.
        journal = os.path.join(tmp, "killed.jnl")
        kill_path = os.path.join(tmp, "killed.json")
        killed = False
        for _ in range(4):
            proc = subprocess.Popen(
                helper_cmd(helper, journal=journal, status=kill_path),
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
            deadline = time.monotonic() + 60
            try:
                while time.monotonic() < deadline:
                    if proc.poll() is not None:
                        break
                    if os.path.exists(kill_path):
                        break
                    time.sleep(0.002)
                time.sleep(rng.uniform(0.0, 0.05))
                if proc.poll() is None:
                    proc.send_signal(signal.SIGKILL)
                    proc.wait(timeout=60)
                    killed = True
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait(timeout=60)
            if os.path.exists(kill_path):
                try:
                    with open(kill_path, encoding="utf-8") as f:
                        snap = json.load(f)
                    failures += validate(snap, "post-kill status")
                except ValueError as e:
                    failures.append(
                        f"status file torn by SIGKILL: {e}")
        if not killed:
            print("note: no kill landed mid-campaign; atomicity "
                  "checked on complete files only this run")

        # 4. Resume the killed campaign with telemetry fully on; the
        # results must match a plain run byte-for-byte.
        resumed = run_helper(helper, journal=journal,
                             status=kill_path, profile=True)
        plain = run_helper(helper)
        if reference != plain:
            failures.append(
                "status-enabled output differs from a plain run:\n"
                f"--- plain\n{plain}\n--- status\n{reference}")
        if resumed != plain:
            failures.append(
                "resumed status+profile output differs from a plain "
                f"run:\n--- plain\n{plain}\n--- resumed\n{resumed}")

    if failures:
        print(f"FAIL: {len(failures)} problem(s)")
        for f in failures[:20]:
            print(f"  - {f}")
        return 1
    print("OK: status file validates against crnet-status-v1 (final, "
          f"{reads} live reads, post-SIGKILL) and telemetry stays "
          "off the results path")
    return 0


if __name__ == "__main__":
    sys.exit(main())
