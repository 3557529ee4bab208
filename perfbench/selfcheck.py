"""Determinism self-check of the service benchmark.

Run from the repository root::

    python3 perfbench/selfcheck.py

For each workload it runs one small measured pass twice with the same
seed and once with another seed, each on a fresh server.  It asserts:

* the same seed gives identical outcome counts: commits, begins, aborts,
  requests, the ``inspect`` RSG census, certifier forgets and replays,
  spec views, and the digest of every request and reply outcome;
* another seed changes the request digest, and on ``hot`` and
  ``relative`` (where conflicts decide aborts) the outcome counts too.
  ``disjoint`` has the same counts for every seed by construction: its
  transactions never touch a shared object.

Exit code 0 when every assertion holds, 1 otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import shutil
import sys
from pathlib import Path

from run import SIZING, Run

#: Transactions per pass: small, but enough for aborts on ``hot``.
SMALL = 60
SEED = 7


def _counts(workload: str, seed: int, work: Path) -> dict:
    args = argparse.Namespace(workload=workload, seed=seed, seconds=1, trace=0)
    run = Run(args, work / f"{workload}-{seed}")
    run.count = SMALL
    record = run.measured_pass(0, trace=False)
    if run.problems:
        raise AssertionError(f"{workload} seed {seed}: {run.problems}")
    return record["counts"]


def main() -> int:
    work = Path.cwd() / ".perfbench" / f"selfcheck-{os.getpid()}"
    failures = []
    try:
        for workload in SIZING:
            first = _counts(workload, SEED, work / "a")
            again = _counts(workload, SEED, work / "b")
            other = _counts(workload, SEED + 1, work / "c")
            outcome = {k: v for k, v in first.items() if k != "digest"}
            other_outcome = {k: v for k, v in other.items() if k != "digest"}
            checks = {
                "same seed, same counts": first == again,
                "other seed, other requests": first["digest"] != other["digest"],
            }
            if workload != "disjoint":
                checks["other seed, other outcome"] = outcome != other_outcome
            for name, ok in checks.items():
                print(f"{workload:<9} {name:<28} {'ok' if ok else 'FAILED'}")
                if not ok:
                    failures.append((workload, name, first, again, other))
            print(f"{workload:<9} counts {first}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    for failure in failures:
        print("FAILED:", failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
