"""Where the benchmark sits in the checkout, and how it finds the program.

The benchmark needs no installed package and no environment variable: the
entry scripts call :func:`add_src_to_path` before importing ``repro``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict

SPINE = Path(__file__).resolve().parent
ROOT = SPINE.parent.parent
SRC = ROOT / "src"


class MissingProgram(RuntimeError):
    """The checkout holds the benchmark but not the program it measures."""


def add_src_to_path() -> None:
    """Put ``src/`` first on ``sys.path``; raise when the program is absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise MissingProgram(f"no program to measure: {SRC / 'repro'} is missing")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def load_benchmark_json() -> Dict[str, Any]:
    """The contract: workloads, metric names, units, directions and bounds."""
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        return json.load(fh)
