"""Alternating base/change pairs of the spine benchmark, judged by its own compare.py.

    python benchmarks/spine_pairs.py --base REV [--change REV] [--workload NAME]
                                     [--pairs 10] [--seed 89] [--keep DIR]

The protocol behind every gain this repository claims (PERFORMANCE.md): both
trees are exported with ``git archive`` into a scratch directory (so each side
runs exactly its committed files, its own ``benchmarks/spine/`` included),
``run.py --out`` runs on each side ``--pairs`` times with the side that goes
first alternating from pair to pair, and the result files go to the change's
``benchmarks/spine/compare.py --layers``.  Before that table, one line per
end-to-end metric counts the pairs the change won: a claim needs nine in ten
besides a median beyond the base's own quartiles, and ``compare.py`` prints
medians and spreads only.

The two export directories have names of one length and every run prints its
minor page faults: a live pass has read the length of its checkout's path
before (PR 22: a 7.7 k- or a 30 k-fault mode, ±25 % ``work_per_s``), and a
fault count that differs between the sides of one tree means such an artefact
is back.

``--change`` takes any tree-ish; ``git stash create`` names the working tree
without committing it.  Lives outside ``benchmarks/spine/`` because that
directory is the benchmark, which a change that claims a gain may not edit.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Tuple

REPO = Path(__file__).resolve().parent.parent
#: Export directory (and result-file stem) of each side: one length.
TREE_NAMES = {"base": "parent", "change": "change"}


def export_tree(rev: str, destination: Path) -> None:
    """``git archive`` *rev* of this repository into *destination*."""
    destination.mkdir(parents=True)
    with tempfile.TemporaryFile() as archive:
        subprocess.run(
            ["git", "-C", str(REPO), "archive", "--format=tar", rev], stdout=archive, check=True
        )
        archive.seek(0)
        with tarfile.open(fileobj=archive) as tar:
            tar.extractall(destination, filter="data")


def run_side(tree: Path, out: Path, workload: Optional[str], seed: int) -> Tuple[int, int]:
    """Run the benchmark in *tree*; its exit code and its ``ru_minflt``."""
    command = [sys.executable, "benchmarks/spine/run.py", "--seed", str(seed), "--out", str(out)]
    if workload:
        command += ["--workload", workload]
    faults_before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    code = subprocess.run(command, cwd=tree, stdout=subprocess.DEVNULL).returncode
    return code, resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - faults_before


def end_to_end(path: Path) -> Dict[Tuple[str, str], Tuple[float, str]]:
    """``(workload, metric) -> (value, better)`` of a result file's untraced passes."""
    with open(path, "r", encoding="utf-8") as fh:
        rows = json.load(fh)["metrics"]
    with open(REPO / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        names = {entry["name"] for entry in json.load(fh)["end_to_end"]}
    return {
        (row["workload"], row["name"]): (row["value"], row["better"])
        for row in rows
        if row["trace"] == 0 and row["name"] in names
    }


def print_wins(base_files: List[Path], change_files: List[Path]) -> None:
    pairs = [(end_to_end(a), end_to_end(b)) for a, b in zip(base_files, change_files)]
    print(f"{'workload':15s} {'metric':12s} {'wins':>7s}  change/base per pair")
    for key in pairs[0][0]:
        ratios, wins, ties = [], 0, 0
        for base, change in pairs:
            if key not in base or key not in change:
                continue
            (a, better), (b, _) = base[key], change[key]
            ratios.append(b / a if a else float("nan"))
            wins += (b < a) if better == "lower" else (b > a)
            ties += a == b
        decided = len(ratios) - ties
        listed = " ".join(f"{ratio:.3f}" for ratio in ratios)
        median = statistics.median(ratios) if ratios else float("nan")
        print(f"{key[0]:15s} {key[1]:12s} {wins:3d}/{decided:<3d}  {listed}  (median {median:.3f})")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="tree-ish of the base side")
    parser.add_argument("--change", default="HEAD", help="tree-ish of the change (default HEAD)")
    parser.add_argument("--workload", default=None, help="one workload (default: all five)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=89)
    parser.add_argument("--keep", default=None, help="keep trees and result files in this directory")
    args = parser.parse_args()

    scratch = Path(args.keep or tempfile.mkdtemp(prefix="spine-pairs-")).resolve()
    failed = 0
    try:
        trees = {side: scratch / name for side, name in TREE_NAMES.items()}
        export_tree(args.base, trees["base"])
        export_tree(args.change, trees["change"])
        files: Dict[str, List[Path]] = {"base": [], "change": []}
        for pair in range(args.pairs):
            order = ("base", "change") if pair % 2 == 0 else ("change", "base")
            for side in order:
                out = scratch / f"{TREE_NAMES[side]}_{pair:02d}.json"
                code, faults = run_side(trees[side], out, args.workload, args.seed)
                failed += code != 0
                files[side].append(out)
                print(
                    f"pair {pair + 1}/{args.pairs}: {side} -> {out.name} "
                    f"(exit {code}, ru_minflt {faults})",
                    flush=True,
                )
        print()
        print_wins(files["base"], files["change"])
        print()
        compare = subprocess.run(
            [
                sys.executable,
                "benchmarks/spine/compare.py",
                ",".join(map(str, files["base"])),
                ",".join(map(str, files["change"])),
                "--layers",
            ],
            cwd=trees["change"],
        )
        return 1 if failed or compare.returncode else 0
    finally:
        if not args.keep:
            shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
