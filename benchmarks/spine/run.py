"""The repo's one benchmark: five workloads, checked answers, per-layer attribution.

    python benchmarks/spine/run.py [--workload NAME] [--trace 0|1]
                                   [--seed 89] [--seconds 20] [--out FILE]

Every pass runs in a child process of its own (``workloads.py``): fresh
``ru_maxrss``, a hard timeout, and a crash or hang fails that pass only.
Without ``--workload`` every workload runs; without ``--trace`` each runs
twice, an untraced pass for the end-to-end metrics and then a traced pass
(same parameters, same seed) for the per-layer metrics.  Every metric is
printed by name with its unit, and ``--out`` writes them all as one JSON
file that ``compare.py`` reads.

With both ``--workload`` and ``--trace`` the last line of standard output is
the contract's JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (every end-to-end metric for ``--trace 0``, every per-layer
metric for ``--trace 1``; a layer a workload never enters reads 0).

Exit code 0 only when every pass ran and every answer checked out.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

import repo

SCHEMA = "spine-1"


def run_pass(workload: str, seed: int, seconds: float, trace: int) -> Dict[str, Any]:
    """One pass in a child process; a crash or hang comes back as a failed pass."""
    command = [
        sys.executable, str(repo.SPINE / "workloads.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    # Three times the expected pass, inside the contract's 180 s.
    timeout = min(170.0, 3.0 * (seconds + 10.0))
    started = time.perf_counter()
    try:
        child = subprocess.run(command, capture_output=True, text=True, timeout=timeout)
        failure = None if child.returncode == 0 else (
            f"child exited {child.returncode}: {child.stderr.strip()[-2000:]}"
        )
        stdout = child.stdout
    except subprocess.TimeoutExpired:
        failure, stdout = f"child killed after {timeout:.0f} s", ""
    wall_s = time.perf_counter() - started
    if failure is None:
        try:
            result = json.loads(stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            failure = f"child printed no result: {stdout[-500:]!r}"
    if failure is not None:
        result = {
            "workload": workload, "trace": trace, "correct": False, "attempted": 1,
            "failed": 1, "problems": [failure], "metrics": {}, "info": {},
        }
    result["crashed"] = failure is not None
    result["wall_s"] = wall_s
    return result


def shape_metrics(result: Dict[str, Any], spec: Dict[str, Any]) -> List[Dict[str, Any]]:
    """The pass's metrics in the one result schema, checked against the contract.

    A traced pass lists every per-layer metric: one it did not report belongs
    to a layer the workload never entered and reads 0.  An untraced pass
    lists every end-to-end metric (one it did not report is a problem) and
    then whatever per-layer metrics it could read without tracing.  A name
    the contract does not list is a problem.
    """
    traced = bool(result["trace"])
    end_to_end, per_layer = spec["end_to_end"], spec["per_layer"]
    measured = result["metrics"]
    unknown = sorted(set(measured) - {entry["name"] for entry in end_to_end + per_layer})
    if unknown:
        result["problems"].append(f"metrics not in BENCHMARK.json: {unknown}")
    if traced:
        listed = per_layer
    else:
        listed = end_to_end + [entry for entry in per_layer if entry["name"] in measured]
        missing = [e["name"] for e in end_to_end if e["name"] not in measured]
        if missing and not result["crashed"]:
            result["problems"].append(f"end-to-end metrics not reported: {missing}")
    shaped = []
    for entry in listed:
        got = measured.get(entry["name"], {"value": 0, "n": 0})
        row = {
            "name": entry["name"], "workload": result["workload"], "trace": result["trace"],
            "value": got["value"], "unit": entry["unit"], "better": entry["better"], "n": got["n"],
        }
        if "percentile" in got:
            row["percentile"] = got["percentile"]
        shaped.append(row)
    if result["problems"]:
        result["correct"] = False
    return shaped


def print_pass(result: Dict[str, Any], rows: List[Dict[str, Any]]) -> None:
    kind = "traced" if result["trace"] else "untraced"
    verdict = "ok" if result["correct"] else "WRONG"
    print(
        f"== {result['workload']} ({kind}): {verdict}, {result['attempted']} attempted, "
        f"{result['failed']} failed, {result['wall_s']:.1f} s"
    )
    for problem in result["problems"]:
        print(f"   ! {problem}")
    for row in rows:
        if result["trace"] and not row["value"]:
            continue  # a layer this workload never enters
        detail = f"n={row['n']}"
        if "percentile" in row:
            detail += f", p{row['percentile'] * 100:g}"
        print(f"   {row['name']:34s} {row['value']:>14.6g} {row['unit']:8s} ({detail})")
    sys.stdout.flush()


def host_fingerprint() -> Dict[str, Any]:
    return {
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
    }


def git_rev() -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", "-C", str(repo.ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def main(argv: Optional[List[str]] = None) -> int:
    try:
        repo.add_src_to_path()
        spec = repo.load_benchmark_json()
    except (repo.MissingProgram, OSError) as exc:
        print(f"benchmarks/spine: {exc}", file=sys.stderr)
        return 2
    names = [entry["name"] for entry in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    parser.add_argument("--seed", type=int, default=89)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--out", default=None, help="write every metric to this JSON file")
    args = parser.parse_args(argv)

    workloads = [args.workload] if args.workload else names
    traces = [args.trace] if args.trace is not None else [0, 1]
    passes, metrics = [], []
    for workload in workloads:
        untraced_rate = None
        for trace in traces:
            result = run_pass(workload, args.seed, args.seconds, trace)
            rows = shape_metrics(result, spec)
            if not trace:
                rows.append({
                    "name": "failed_share", "workload": workload, "trace": 0,
                    "value": result["failed"] / max(1, result["attempted"]),
                    "unit": "ratio", "better": "lower", "n": result["attempted"],
                })
                untraced_rate = result["metrics"].get("work_per_s", {}).get("value")
            elif untraced_rate and "trace.work_per_s" in result["metrics"]:
                # Same parameters, same seed, tracing the only difference.
                rows.append({
                    "name": "trace.measured_slowdown_share", "workload": workload, "trace": 1,
                    "value": 1.0 - result["metrics"]["trace.work_per_s"]["value"] / untraced_rate,
                    "unit": "ratio", "better": "lower", "n": 1,
                })
            print_pass(result, rows)
            metrics.extend(rows)
            passes.append({key: result[key] for key in (
                "workload", "trace", "wall_s", "correct", "crashed", "attempted", "failed",
                "problems", "info",
            )})

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({
                "schema": SCHEMA, "host": host_fingerprint(), "git_rev": git_rev(),
                "seed": args.seed, "seconds": args.seconds,
                "passes": passes, "metrics": metrics,
            }, fh, indent=1)
            fh.write("\n")
    correct = all(entry["correct"] for entry in passes)
    if len(passes) == 1:
        (only,) = passes
        if only["crashed"]:
            return 1  # no result to print
        listed = {e["name"] for e in spec["per_layer" if only["trace"] else "end_to_end"]}
        print(json.dumps({
            "correct": only["correct"], "attempted": only["attempted"], "failed": only["failed"],
            "metrics": {
                row["name"]: {"value": row["value"], "unit": row["unit"]}
                for row in metrics if row["name"] in listed
            },
        }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
