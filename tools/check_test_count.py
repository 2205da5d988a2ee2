#!/usr/bin/env python3
"""Per-CI-job test-count delta: silent collection regressions fail loudly.

A refactor that renames a module, breaks an import under one matrix leg,
or mangles a ``-k`` expression can *deselect* whole test files while the
suite still exits green. Each CI job therefore runs::

    python tools/check_test_count.py JOB [pytest selection args...]

before its real pytest invocation. The tool collects (``--collect-only``)
with exactly the job's selection — ``JOBS[JOB]`` when no arguments
follow the job name, which is how CI calls it, so each selection lives
in one place — compares the count against the committed baseline in
``tools/test_counts.json``, and prints the delta.
Any mismatch fails: a shrink is the regression this guards against, and
a growth must be acknowledged by re-running with ``--update`` and
committing the new baseline alongside the tests that moved it.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

BASELINE = Path(__file__).resolve().parent / "test_counts.json"

#: Canonical pytest selection per CI job: what a bare
#: ``check_test_count.py JOB`` collects (``.github/workflows/ci.yml``
#: calls it bare), and what ``tools/update_test_counts.py`` uses to
#: refresh every baseline in one invocation.
JOBS: dict[str, list[str]] = {
    "tier1": ["-m", "not slow"],
    "slow": ["-m", "slow"],
    "shard": ["tests/test_shard.py", "tests/test_burst_fuzz.py",
              "-m", "not slow"],
}


def collect_count(pytest_args: list[str]) -> int:
    """Number of tests pytest selects for this argument vector."""
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q",
         *pytest_args],
        capture_output=True,
        text=True,
    )
    # 5 = no tests collected (a valid, loudly-failing count of 0);
    # anything else non-zero is a collection error worth surfacing.
    if proc.returncode not in (0, 5):
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"ERROR: pytest collection failed "
                         f"(exit {proc.returncode})")
    m = re.search(r"(\d+)(?:/\d+)? tests? collected", proc.stdout)
    if m is None:
        m = re.search(r"no tests collected", proc.stdout)
        if m is not None:
            return 0
        sys.stderr.write(proc.stdout)
        raise SystemExit("ERROR: could not parse pytest collection summary")
    return int(m.group(1))


def main(argv: list[str]) -> int:
    update = "--update" in argv
    argv = [a for a in argv if a != "--update"]
    if not argv:
        raise SystemExit(
            "usage: check_test_count.py [--update] JOB [pytest args...]")
    job, pytest_args = argv[0], argv[1:]
    if not pytest_args and job in JOBS:
        pytest_args = JOBS[job]
    counts = json.loads(BASELINE.read_text()) if BASELINE.exists() else {}
    got = collect_count(pytest_args)
    want = counts.get(job)
    if update:
        counts[job] = got
        BASELINE.write_text(json.dumps(counts, indent=2, sort_keys=True)
                            + "\n")
        print(f"{job}: baseline set to {got}")
        return 0
    update_cmd = (f"python tools/update_test_counts.py {job}"
                  if job in JOBS and pytest_args == JOBS[job] else
                  "python tools/check_test_count.py --update "
                  + " ".join([job, *pytest_args]))
    if want is None:
        print(f"ERROR: no baseline for job {job!r} in {BASELINE.name}; "
              f"collected {got}. Record it (and commit the result) "
              f"with:\n    {update_cmd}")
        return 1
    delta = got - want
    print(f"{job}: collected {got}, baseline {want} (delta {delta:+d})")
    if delta == 0:
        return 0
    verb = "lost" if delta < 0 else "gained"
    print(f"ERROR: {job} {verb} {abs(delta)} collected test(s). "
          f"If intentional, update the baseline (and commit "
          f"{BASELINE.name}) with:\n    {update_cmd}")
    return 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
