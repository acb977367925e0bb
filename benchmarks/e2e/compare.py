"""Compare two sets of benchmark runs, one row per (workload, metric).

    python3 benchmarks/e2e/compare.py A.json B.json [--layers]

``A`` is the base (the parent commit, or the first of two sets of the
same commit), ``B`` the candidate; both are files written by
``run.py --repeat K --out FILE``.  Every row gives each side's median and
quartiles, the ratio ``B / A`` with its base, and a verdict by the bound
BENCHMARK.json fixes for the metric:

* ``worse`` / ``better`` -- B's median differs from A's by more than the
  bound, in that direction, or every run of B reads worse / better than
  every run of A;
* ``unresolved`` -- a side's quartile spread is wider than the bound, so
  a difference of that size could not be seen;
* ``unchanged`` -- otherwise.

Modelled cost on the in-process workloads is a count-derived number: runs
of the same seed must agree to the last bit, and a row that does not is
flagged.  The exit code is 1 when any row is worse, unresolved or
flagged.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any

import env
import stats

#: Metrics that repeat exactly on the workloads that keep the program
#: single-threaded and untimed (everything but the wire workload).
EXACT = ("modelled_ms_per_query",)
TIMING_DEPENDENT_WORKLOADS = ("wire_open_mixed",)


def load_runs(path: str) -> list[dict[str, Any]]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)["runs"]


def verdict(
    base: list[float], candidate: list[float], better: str, bound: float
) -> str:
    """``better`` / ``worse`` / ``unchanged`` / ``unresolved`` for one row."""
    # Work in "cost": higher is worse whatever the metric's direction.
    sign = 1.0 if better == "lower" else -1.0
    base_cost = [sign * value for value in base]
    candidate_cost = [sign * value for value in candidate]
    base_spread, candidate_spread = stats.spread(base_cost), stats.spread(candidate_cost)
    if max(base_spread.relative, candidate_spread.relative) > bound:
        # Too noisy to see a difference of the bound's size, unless the
        # two sets do not overlap at all.
        if min(candidate_cost) > max(base_cost):
            return "worse"
        if max(candidate_cost) < min(base_cost):
            return "better"
        return "unresolved"
    if base_spread.median == 0:
        worse_by = 0.0 if candidate_spread.median == 0 else float("inf")
    else:
        worse_by = (candidate_spread.median - base_spread.median) / abs(base_spread.median)
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "unchanged"


def _by_pair(runs: list[dict[str, Any]], section: str) -> dict[tuple[str, str], dict[int, float]]:
    """(workload, metric) -> {seed: value}."""
    grouped: dict[tuple[str, str], dict[int, float]] = {}
    for run in runs:
        for name, metric in run[section].items():
            grouped.setdefault((run["workload"], name), {})[run["seed"]] = metric["value"]
    return grouped


def compare(
    base_runs: list[dict[str, Any]],
    candidate_runs: list[dict[str, Any]],
    spec: dict[str, Any],
    layers: bool = False,
) -> tuple[list[str], int]:
    """Report lines and the number of rows that are not acceptable."""
    lines = [
        f"{'workload':<20} {'metric':<40} {'A median [q1, q3]':>36} "
        f"{'B median [q1, q3]':>36} {'B/A':>8}  verdict"
    ]
    problems = 0
    sections = [("end_to_end", spec["end_to_end"])]
    if layers:
        sections.append(("per_layer", spec["per_layer"]))
    for section, metrics in sections:
        base, candidate = _by_pair(base_runs, section), _by_pair(candidate_runs, section)
        for (workload, name) in base:
            if (workload, name) not in candidate:
                continue
            declared = next(m for m in metrics if m["name"] == name)
            a_values = list(base[workload, name].values())
            b_values = list(candidate[workload, name].values())
            a, b = stats.spread(a_values), stats.spread(b_values)
            ratio = b.median / a.median if a.median else float("nan")
            if "bound" in declared:
                outcome = verdict(a_values, b_values, declared["better"], declared["bound"])
                outcome += f" (bound {declared['bound']:.2f})"
            else:
                outcome = "-"
            exact = name in EXACT and workload not in TIMING_DEPENDENT_WORKLOADS
            if exact:
                shared = base[workload, name].keys() & candidate[workload, name].keys()
                differing = [
                    seed
                    for seed in sorted(shared)
                    if base[workload, name][seed] != candidate[workload, name][seed]
                ]
                outcome += (
                    f"; NOT bit-identical at seeds {differing}"
                    if differing
                    else f"; bit-identical at {len(shared)} shared seeds"
                )
                problems += bool(differing)
            problems += outcome.startswith(("worse", "unresolved"))
            lines.append(
                f"{workload:<20} {name:<40} "
                f"{a.median:>14.6g} [{a.q1:>8.5g}, {a.q3:>8.5g}] "
                f"{b.median:>14.6g} [{b.q1:>8.5g}, {b.q3:>8.5g}] "
                f"{ratio:>8.4f}  {outcome}"
            )
    lines.append(
        f"ratios are B/A with A's median as the base; A: {len(base_runs)} runs, "
        f"B: {len(candidate_runs)} runs"
    )
    return lines, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("candidate")
    parser.add_argument("--layers", action="store_true", help="also list per-layer rows")
    args = parser.parse_args(argv)
    with open(env.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    lines, problems = compare(
        load_runs(args.base), load_runs(args.candidate), spec, args.layers
    )
    print("\n".join(lines))
    if problems:
        print(f"{problems} row(s) worse, unresolved or not bit-identical")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
