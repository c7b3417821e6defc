"""Measure the benchmark's own noise the way its bounds are judged.

    python benchmarks/spine/calibrate.py [--runs 10] [--out FILE]

Runs ``BENCHMARK.json``'s command untraced ``--runs`` times per workload,
each time with another seed, and reports for every workload x end-to-end
metric the median and the inter-quartile distance as a share of it.  A
metric is steady when that spread stays under a third of its bound (the
spread of ``setup_s`` is reported but not judged).  The readings that
``compare.py`` judges under bounds of its own are listed the same way, for
the record: across seeds they also vary with the seed.  So is
``host.speed``, which says what kind of minutes the calibration ran in.  The result is
written to ``CALIBRATION.json`` beside this file; exit code 1 when an
end-to-end spread exceeds its bound or a run fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Any, Dict, List, Optional

import repo
from compare import WORKLOAD_BOUNDS
from run import host_fingerprint
from stats import relative_iqr


def contract_run(spec: Dict[str, Any], workload: str, seed: int, scratch: str) -> Dict[str, Any]:
    """One run exactly as the contract describes it: the last line's object,
    its ``metrics`` extended by the workload's other untraced readings (from
    ``--out``, which changes nothing about the run)."""
    command = list(spec["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0", "--out", scratch,
    ]
    try:
        child = subprocess.run(command, cwd=repo.ROOT, capture_output=True, text=True, timeout=180)
        if child.returncode != 0:
            raise RuntimeError(
                f"{workload} seed {seed} exited {child.returncode}:\n{child.stdout[-2000:]}"
            )
        result = json.loads(child.stdout.strip().splitlines()[-1])
        with open(scratch, "r", encoding="utf-8") as fh:
            for row in json.load(fh)["metrics"]:
                result["metrics"].setdefault(row["name"], {"value": row["value"], "unit": row["unit"]})
    finally:
        if os.path.exists(scratch):
            os.remove(scratch)
    return result


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out", default=str(repo.SPINE / "CALIBRATION.json"))
    args = parser.parse_args(argv)

    spec = repo.load_benchmark_json()
    gated = {entry["name"]: entry["bound"] for entry in spec["end_to_end"]}
    seeds = list(range(1, args.runs + 1))
    table: List[Dict[str, Any]] = []
    steady = True
    for entry in spec["workloads"]:
        workload = entry["name"]
        results = [contract_run(spec, workload, seed, args.out + ".run") for seed in seeds]
        failed = sum(result["failed"] for result in results)
        if failed or not all(result["correct"] for result in results):
            print(f"{workload}: {failed} failed operations")
            steady = False
        bounds: Dict[str, Optional[float]] = dict(gated)
        bounds.update({n: bound for (w, n), bound in WORKLOAD_BOUNDS.items() if w == workload})
        bounds["host.speed"] = None
        for name, bound in bounds.items():
            values = [result["metrics"][name]["value"] for result in results]
            spread = relative_iqr(values)
            judged = name in gated and name != "setup_s" and spread is not None
            verdict = "ok" if judged else "not judged"
            if judged and spread > bound:
                verdict, steady = "OVER BOUND", False
            elif judged and spread > bound / 3:
                verdict = "over a third of the bound"
            table.append({
                "workload": workload, "metric": name, "median": statistics.median(values),
                "spread": spread, "bound": bound, "verdict": verdict, "values": values,
            })
            print(
                f"{workload:15s} {name:28s} median {statistics.median(values):12.5g}  "
                f"spread {'n/a' if spread is None else format(spread, '7.4f')}  "
                f"bound {'  n/a' if bound is None else format(bound, '5.2f')}  {verdict}"
            )
            sys.stdout.flush()
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump({
            "host": host_fingerprint(), "seeds": seeds,
            "run_seconds": spec["run_seconds"], "rows": table,
        }, fh, indent=1)
        fh.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
