"""End-to-end benchmark: one command, every metric by name and unit.

    python3 benchmarks/e2e/run.py [--workload W] [--seed N] [--seconds S]
        [--trace 0|1 | --traced] [--repeat K] [--quick] [--out FILE]

With one ``--workload`` and no ``--repeat`` the workload runs in this
process, which was started fresh for it; otherwise every (repeat,
workload) pair gets a fresh subprocess, repeats alternating the workload
order, and repeat ``r`` uses seed ``N + r``.  The last line on stdout is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics of BENCHMARK.json with ``--trace 0``,
its per-layer metrics with ``--trace 1``.  The exit code is non-zero when
answers were wrong, requests failed, or the run was not a valid
measurement.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Any

import env

env.prepare()

import stats  # noqa: E402
import workloads  # noqa: E402

BENCHMARK_JSON = env.ROOT / "BENCHMARK.json"


def declared() -> dict[str, Any]:
    """BENCHMARK.json: the metric names, units and bounds in force."""
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        return json.load(handle)


def _with_units(values: dict[str, float], specs: list[dict[str, Any]]) -> dict[str, Any]:
    """Attach declared units; the measured and declared name sets must agree."""
    units = {spec["name"]: spec["unit"] for spec in specs}
    if set(values) != set(units):
        missing = sorted(set(units) - set(values))
        extra = sorted(set(values) - set(units))
        raise SystemExit(
            f"benchmark: measured metrics differ from BENCHMARK.json "
            f"(missing {missing}, undeclared {extra})"
        )
    return {
        name: {"value": float(values[name]), "unit": units[name]} for name in units
    }


def run_one(name: str, seed: int, sizes: workloads.Sizes, trace: bool) -> dict[str, Any]:
    """Run one workload here and return its full record."""
    spec = declared()
    outcome = workloads.run(name, sizes, seed, trace)
    return {
        "workload": name,
        "seed": seed,
        "seconds": sizes.seconds,
        "quick": sizes.shrink != 1,
        "trace": int(trace),
        "correct": outcome.failed == 0 and outcome.valid,
        "valid": outcome.valid,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "end_to_end": _with_units(outcome.end_to_end, spec["end_to_end"]),
        "per_layer": (
            _with_units(outcome.per_layer, spec["per_layer"]) if trace else {}
        ),
        "samples": outcome.samples,
        "checks": outcome.checks,
        "notes": outcome.notes,
        "inputs": outcome.inputs,
        "inputs_pinned": outcome.inputs_pinned,
        "env": env.describe(),
    }


def report(record: dict[str, Any]) -> str:
    """Human-readable block: every metric with its unit and sample count."""
    lines = [
        f"== {record['workload']}  seed={record['seed']}  seconds={record['seconds']}"
        f"{'  quick' if record['quick'] else ''}  trace={record['trace']}",
        f"   inputs {'match the pinned checksums' if record['inputs_pinned'] else 'not pinned at this seed/size'}; "
        f"{record['env']['nproc']} cpus, threads pinned to 1, "
        f"numpy {record['env']['numpy']}, commit {record['env']['git_commit']}",
    ]
    for section in ("end_to_end", "per_layer"):
        for name, metric in record[section].items():
            support = record["samples"].get(name)
            note = (
                f"   (n={support['samples']}, share {support['share']:.4f})"
                if isinstance(support, dict)
                else ""
            )
            lines.append(f"   {name:<48} {metric['value']:>16.6g} {metric['unit']}{note}")
    lines.append(
        f"   {'failed_share':<48} {record['failed'] / record['attempted']:>16.6g} share"
        f"   ({record['failed']} of {record['attempted']} attempted; "
        f"{record['samples'].get('oracle_checked', 0)} checked against the oracle)"
    )
    for check, held in record["checks"].items():
        lines.append(f"   check: {check}: {'ok' if held else 'VIOLATED'}")
    for note in record["notes"]:
        lines.append(f"   INVALID: {note}")
    return "\n".join(lines)


def contract_line(record: dict[str, Any]) -> str:
    """The one-line result the driver reads."""
    section = "per_layer" if record["trace"] else "end_to_end"
    return json.dumps(
        {
            "correct": record["correct"],
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": record[section],
        }
    )


def _write_out(path: str | None, records: list[dict[str, Any]]) -> None:
    if path is None:
        return
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"runs": records}, handle, indent=1)
        handle.write("\n")


def run_many(args: argparse.Namespace, names: list[str]) -> int:
    """Fresh subprocess per (repeat, workload); returns the exit code."""
    out_dir = env.HERE / "out"
    out_dir.mkdir(exist_ok=True)
    records: list[dict[str, Any]] = []
    status = 0
    for repeat in range(args.repeat):
        # Alternate the order so that no workload always runs first
        # (cold machine) or always after the same neighbour.
        order = names if repeat % 2 == 0 else names[::-1]
        for name in order:
            part = out_dir / f"part-{name}-{repeat}.json"
            command = [
                sys.executable,
                str(Path(__file__).resolve()),
                "--workload", name,
                "--seed", str(args.seed + repeat),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
                "--out", str(part),
            ]
            if args.quick:
                command.append("--quick")
            done = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
            # The child's report, minus its machine-readable last line.
            print("\n".join(done.stdout.rstrip("\n").split("\n")[:-1]), flush=True)
            if done.returncode != 0:
                status = 1
                print(f"benchmark: {name} (repeat {repeat}) exited {done.returncode}")
            if part.is_file():
                with open(part, encoding="utf-8") as handle:
                    records.extend(json.load(handle)["runs"])
                part.unlink()
    _write_out(args.out, records)
    if args.repeat > 1:
        print(summary(records))
    return status


def summary(records: list[dict[str, Any]]) -> str:
    """Median and quartile spread of every metric over the repeats."""
    lines = ["== medians over repeats (spread = (q3 - q1) / median)"]
    grouped: dict[tuple[str, str], list[float]] = {}
    units: dict[str, str] = {}
    for record in records:
        for section in ("end_to_end", "per_layer"):
            for name, metric in record[section].items():
                grouped.setdefault((record["workload"], name), []).append(metric["value"])
                units[name] = metric["unit"]
    for (workload, name), values in grouped.items():
        found = stats.spread(values)
        lines.append(
            f"   {workload:<20} {name:<44} {found.median:>14.6g} {units[name]:<6}"
            f" spread {found.relative:8.4f}  n={found.runs}"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_const", const=1, dest="trace")
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--quick", action="store_true", help="1/20 sizes")
    parser.add_argument("--out", default=None, help="write the full records here")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = float(workloads.RUN_SECONDS)
    if args.seconds <= 0 or args.repeat < 1:
        parser.error("--seconds and --repeat must be positive")

    names = args.workload or list(workloads.NAMES)
    if len(names) > 1 or args.repeat > 1:
        return run_many(args, names)

    sizes = workloads.Sizes(seconds=args.seconds, shrink=20 if args.quick else 1)
    try:
        record = run_one(names[0], args.seed, sizes, bool(args.trace))
    except workloads.InputDrift as drift:
        print(f"benchmark: {drift}", file=sys.stderr)
        return 3
    _write_out(args.out, [record])
    print(report(record))
    print(contract_line(record), flush=True)
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
