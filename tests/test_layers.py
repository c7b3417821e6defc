"""The layer graph of ``src/repro``, declared here and enforced here.

Every module under ``src/repro`` is parsed with :mod:`ast`, and every import
counts: module-level, inside a function, and under ``TYPE_CHECKING``.  A
package may import its own layer and the layers below it:

    common ← protocol ← node ← {sim, runtime, baselines}
           ← {scenarios, audit, analysis}

where protocol is ``core``, ``labels``, ``counters``, ``vs``, ``datalink`` and
``failure_detector``.  The two hosts stay apart: ``sim`` does not import
``runtime``, and ``runtime`` does not import ``sim``; both host the node of
``repro.node``.  A new package fails here until it is given a layer.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path
from typing import Iterator, List, Optional, Tuple

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: Bottom-up; a package may import any package of its own layer or below.
LAYERS = (
    ("common",),
    ("core", "labels", "counters", "vs", "datalink", "failure_detector"),
    ("node",),
    ("sim", "runtime", "baselines"),
    ("scenarios", "audit", "analysis"),
)
RANK = {package: rank for rank, layer in enumerate(LAYERS) for package in layer}

#: Same-layer pairs that may not import each other: the two hosts.
APART = {("sim", "runtime"), ("runtime", "sim")}

#: The only places an import may leave the graph.
EXCEPTIONS = {
    # Numbers the wire types by sorted name, so every module that defines
    # one (the baseline's included) is imported before the first frame.
    "common/codec.py::_ensure_registered",
    # The frozen spine's ``fast_sim`` import (ROADMAP 6(f)); nothing in
    # ``src/repro`` may import it (checked below).
    "sim/config.py",
}


def _imports(path: Path) -> Iterator[Tuple[Optional[str], str]]:
    """``(enclosing function, imported module)`` for every import in *path*."""

    def walk(node: ast.AST, function: Optional[str]) -> Iterator[Tuple[Optional[str], str]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                for alias in child.names:
                    yield function, alias.name
            elif isinstance(child, ast.ImportFrom):
                assert child.level == 0, f"{path}: relative import"
                yield function, child.module or ""
            scope = (
                child.name
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                else function
            )
            yield from walk(child, scope)

    yield from walk(ast.parse(path.read_text(encoding="utf-8")), None)


def _package(module: str) -> Optional[str]:
    """The ``repro`` subpackage *module* belongs to (``""`` for the root)."""
    parts = module.split(".")
    if parts[0] != "repro":
        return None
    return parts[1] if len(parts) > 1 else ""


def _modules() -> List[Path]:
    return sorted(SRC.rglob("*.py"))


def test_every_package_has_a_layer():
    packages = {path.parent.name for path in SRC.glob("*/__init__.py")}
    assert packages == set(RANK), sorted(packages ^ set(RANK))


def test_every_import_follows_the_layer_graph():
    violations = []
    for path in _modules():
        name = path.relative_to(SRC).as_posix()
        if name in EXCEPTIONS:
            continue
        source = name.split("/")[0]
        for function, module in _imports(path):
            target = _package(module)
            if target is None or target == source:
                continue
            if f"{name}::{function}" in EXCEPTIONS:
                continue
            allowed = (
                source in RANK
                and target in RANK
                and RANK[target] <= RANK[source]
                and (source, target) not in APART
            )
            if not allowed:
                where = f"{name}::{function}" if function else name
                violations.append(f"{where} imports {module}")
    assert not violations, violations


def test_nothing_in_the_package_imports_the_spine_reexport():
    importers = [
        path.relative_to(SRC).as_posix()
        for path in _modules()
        if any(module == "repro.sim.config" for _, module in _imports(path))
    ]
    assert not importers, importers


def test_the_live_runtime_loads_no_simulator_module():
    """The package root resolves its public names on first access, so a live
    process that imports the runtime, the link model and the corruption
    surface never loads ``repro.sim``."""
    probe = (
        "import sys, repro.runtime.cluster, repro.node.links, repro.node.faults\n"
        "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['repro', 'sim']))"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "[]", result.stdout
