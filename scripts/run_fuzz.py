#!/usr/bin/env python
"""Fuzz the scenario engine: random adversarial specs, invariant-checked.

Generates seed-pinned random :class:`repro.eval.scenario.ScenarioSpec` values
from the bounded grammar in :mod:`repro.eval.fuzz`, runs each one, and
asserts the runtime invariants (:mod:`repro.eval.invariants`).  Violations
are shrunk to a minimal reproducing spec and written as JSON artifacts that
replay deterministically.

Usage::

    PYTHONPATH=src python scripts/run_fuzz.py --count 50 --seed 1
    PYTHONPATH=src python scripts/run_fuzz.py --replay artifacts/fuzz/fuzz-<seed>.json
    PYTHONPATH=src python scripts/run_fuzz.py --library   # curated specs only

Every case, generated or curated, runs a protocol compiled from a bundled
``.mac`` specification (:data:`repro.eval.library.PROTOCOLS`).  Generated
cases run Chord unless ``--protocols`` names other rows; a Pastry stack
(``--protocols pastry,scribe-pastry``) is also held to the two Pastry
invariants, leaf-set symmetry and the O(2^b log N) routing-state bound.

Exit status is non-zero when any invariant is violated *or any case crashes
with an unhandled exception* (or, with --replay, when the artifact still
reproduces), so CI can gate on it directly — a crashed campaign can never
report success.  ``--jobs N`` runs cases across N forked worker processes.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.eval.fuzz import (  # noqa: E402
    DEFAULT_CONFIG,
    FuzzConfig,
    fuzz,
    replay_artifact,
)
from repro.eval.invariants import check_invariants  # noqa: E402
from repro.eval.library import LIBRARY  # noqa: E402


def run_library(seed: int) -> int:
    """Run every curated library scenario once; report violations.

    A scenario that crashes is reported (with its traceback) and fails the
    run like a violation would — the remaining scenarios still execute.
    """
    status = 0
    for entry in LIBRARY:
        start = time.time()
        try:
            violations = check_invariants(entry.spec(seed=seed).run())
        except Exception:
            import traceback
            print(f"library {entry.name:24s} [{entry.protocol}] "
                  f"{time.time() - start:5.1f}s: CRASH")
            print(traceback.format_exc())
            status = 1
            continue
        verdict = "ok" if not violations else "VIOLATION"
        print(f"library {entry.name:24s} [{entry.protocol}] "
              f"{time.time() - start:5.1f}s: {verdict}")
        for violation in violations:
            print(f"    {violation}")
            status = 1
    return status


def run_replay(path: Path) -> int:
    violations = replay_artifact(path)
    if violations:
        print(f"artifact {path} reproduces {len(violations)} violation(s):")
        for violation in violations:
            print(f"    {violation}")
        return 1
    print(f"artifact {path} no longer reproduces (invariants hold)")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--count", type=int, default=50,
                        help="number of generated scenarios (default 50)")
    parser.add_argument("--seed", type=int, default=1,
                        help="campaign seed; case seeds derive from it")
    parser.add_argument("--protocols", type=str, default=None,
                        help="comma-separated protocol subset "
                             f"(default {','.join(DEFAULT_CONFIG.protocols)})")
    parser.add_argument("--artifact-dir", type=Path,
                        default=REPO_ROOT / "artifacts" / "fuzz",
                        help="where shrunk repro artifacts are written")
    parser.add_argument("--replay", type=Path, default=None,
                        help="replay one artifact instead of fuzzing")
    parser.add_argument("--library", action="store_true",
                        help="run the ten curated library scenarios (Chord, "
                             "plus one Scribe-over-Pastry) instead of "
                             "generated specs")
    parser.add_argument("--jobs", type=int, default=1,
                        help="forked worker processes running cases in "
                             "parallel (cases are independent; default 1)")
    args = parser.parse_args()
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")

    if args.replay is not None:
        return run_replay(args.replay)
    if args.library:
        return run_library(args.seed)

    config = DEFAULT_CONFIG
    if args.protocols:
        config = FuzzConfig(
            protocols=tuple(name.strip()
                            for name in args.protocols.split(",")))
    start = time.time()
    report = fuzz(args.count, args.seed, config=config,
                  artifact_dir=args.artifact_dir, jobs=args.jobs, log=print)
    elapsed = time.time() - start
    crashes = sum(1 for failure in report.failures
                  if failure.error is not None)
    print(f"\n{report.cases} cases in {elapsed:.1f}s: "
          f"{len(report.failures) - crashes} invariant violation(s), "
          f"{crashes} crash(es)")
    for failure in report.failures:
        if failure.error is not None:
            print(f"  seed={failure.case_seed} CRASH -> {failure.artifact}")
            continue
        names = sorted({v.invariant for v in failure.violations})
        print(f"  seed={failure.case_seed} {names} -> {failure.artifact}")
    return 0 if report.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
