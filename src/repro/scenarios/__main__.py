"""CLI: run scenario matrices across seeds with parallel workers.

Examples::

    python -m repro.scenarios --list
    python -m repro.scenarios --smoke
    python -m repro.scenarios partition_heal flash_join_wave --seeds 0:4
    python -m repro.scenarios --seeds 0,7,13 --workers 4 --output sweep.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List

from repro.scenarios.library import available_scenarios, get_scenario
from repro.scenarios.runner import run_matrix


def parse_seeds(spec: str) -> List[int]:
    """Parse ``"0,1,2"``, ``"0:8"`` (half-open range) or a single integer."""
    spec = spec.strip()
    if ":" in spec:
        lo, hi = spec.split(":", 1)
        return list(range(int(lo), int(hi)))
    if "," in spec:
        return [int(part) for part in spec.split(",") if part.strip()]
    return [int(spec)]


def _cell(value) -> str:
    return f"{value:.2f}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.scenarios", description=__doc__
    )
    parser.add_argument(
        "scenarios",
        nargs="*",
        help="scenario names to run (default: every registered scenario)",
    )
    parser.add_argument("--list", action="store_true", help="list scenarios and exit")
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run every scenario once with seed 0 (CI gate; nonzero exit on failure)",
    )
    parser.add_argument("--seeds", default="0", help='seed spec: "0,1,2", "0:8" or "7"')
    parser.add_argument("--workers", type=int, default=1, help="worker processes")
    parser.add_argument("--output", default=None, help="write the sweep JSON here")
    args = parser.parse_args(argv)

    if args.list:
        for name in available_scenarios():
            spec = get_scenario(name)
            stack = getattr(spec.stack, "name", spec.stack) or "bare"
            print(f"{name:26s} n={spec.n:<3d} stack={stack:16s} {spec.description}")
        return 0

    names = args.scenarios or available_scenarios()
    for name in names:
        get_scenario(name)  # fail fast with the available-scenario list
    seeds = [0] if args.smoke else parse_seeds(args.seeds)
    workers = 1 if args.smoke else args.workers

    sweep = run_matrix(names, seeds=seeds, workers=workers)

    print(f"scenario sweep ({len(sweep['results'])} runs, {sweep['meta']['workers']} worker(s))")
    row = "{:26s} {:>4}  {:5} {:>9} {:>10} {:>7}".format
    print(row("scenario", "seed", "ok", "sim_time", "delivered", "wall_s"))
    for entry in sweep["results"]:
        stats = entry.get("statistics", {})
        cells = (
            entry["scenario"],
            entry["seed"],
            entry.get("ok"),
            stats.get("time"),
            stats.get("delivered_messages"),
            entry.get("wall_seconds"),
        )
        print(row(*map(_cell, cells)))

    if args.output:
        path = Path(args.output)
        path.write_text(json.dumps(sweep, indent=2, sort_keys=True, default=str) + "\n")
        print(f"wrote {path}")

    failures = [
        f"{entry['scenario']}@{entry['seed']}"
        for entry in sweep["results"]
        if not entry.get("ok")
    ]
    if failures:
        print(f"FAILED: {failures}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
