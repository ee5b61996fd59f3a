"""Compare benchmark result files against the bounds in ``BENCHMARK.json``.

``python -m bench.compare A B`` prints one row per workload x end-to-end
metric: A's value, B's value, how much worse B is as a share of A, and the
metric's bound; it exits non-zero if any row exceeds its bound.  *A* and *B*
are files written by ``bench.run --out``; a name that only exists as
``NAME.1 .. NAME.N`` (``--repeat N``) stands for the median of that set.

``python -m bench.compare --spread A`` prints the repeatability table of one
set: per metric the median and the quartile distance and range as shares of
it, with the raw wall seconds of the same runs alongside.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_set(name: str) -> list[dict]:
    """The result files *name* stands for: itself, or ``name.1 .. name.N``."""
    if Path(name).is_file():
        paths = [Path(name)]
    else:
        paths = sorted(Path(name).parent.glob(Path(name).name + ".[0-9]*"),
                       key=lambda path: int(path.suffix[1:]))
    if not paths:
        raise SystemExit(f"compare: no result file {name} or {name}.N")
    return [json.loads(path.read_text()) for path in paths]


def series(runs: list[dict]) -> dict[tuple[str, str], list[float]]:
    """(workload, metric) -> one value per run, raw wall readings included."""
    values: dict[tuple[str, str], list[float]] = {}
    for run in runs:
        for workload, result in run["workloads"].items():
            for metric, entry in result["metrics"].items():
                values.setdefault((workload, metric), []).append(entry["value"])
            if run["trace"]:
                continue
            for phase in ("setup", "run"):
                wall = statistics.median(child["info"][phase]["wall_s"]
                                         for child in result["children"])
                values.setdefault((workload, f"info.{phase}_wall_s"),
                                  []).append(wall)
    return values


def compare(first: list[dict], second: list[dict], bounds: dict) -> int:
    a, b = series(first), series(second)
    failures = 0
    print(f"{'workload':16s} {'metric':20s} {'A':>12s} {'B':>12s} "
          f"{'worse by':>9s} {'bound':>6s}")
    for (workload, metric), values in a.items():
        if metric not in bounds or (workload, metric) not in b:
            continue
        better, bound = bounds[metric]
        base = statistics.median(values)
        other = statistics.median(b[(workload, metric)])
        worse = (other - base) / base if better == "lower" \
            else (base - other) / base
        verdict = ""
        if worse > bound:
            verdict = "  EXCEEDED"
            failures += 1
        print(f"{workload:16s} {metric:20s} {base:12.6g} {other:12.6g} "
              f"{worse:+9.2%} {bound:6.0%}{verdict}")
    return 1 if failures else 0


def spread(runs: list[dict]) -> int:
    print(f"{'workload':16s} {'metric':20s} {'median':>12s} "
          f"{'iqr/median':>10s} {'range/median':>12s}   ({len(runs)} runs)")
    for (workload, metric), values in series(runs).items():
        median = statistics.median(values)
        if len(values) < 2 or not median:
            continue
        quartiles = statistics.quantiles(values, n=4)
        print(f"{workload:16s} {metric:20s} {median:12.6g} "
              f"{(quartiles[2] - quartiles[0]) / median:10.2%} "
              f"{(max(values) - min(values)) / median:12.2%}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("results", nargs="+", help="A B, or A with --spread")
    parser.add_argument("--spread", action="store_true")
    args = parser.parse_args(argv)
    if args.spread:
        return spread([run for name in args.results for run in load_set(name)])
    if len(args.results) != 2:
        parser.error("give exactly two result sets to compare")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {metric["name"]: (metric["better"], metric["bound"])
              for metric in spec["end_to_end"]}
    return compare(load_set(args.results[0]), load_set(args.results[1]), bounds)


if __name__ == "__main__":
    sys.exit(main())
