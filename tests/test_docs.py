"""Every code reference in the prose docs resolves.

A module or file that moves or is deleted must not leave a dead pointer in
the pages a reader follows: ``docs/*.md``, every ``README.md`` and the
verify skill.  Each ``src/repro/….py`` path they cite must exist, and each
dotted ``repro.…`` name must resolve through its longest importable module
prefix to an attribute of that module.
"""

from __future__ import annotations

import importlib
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"

PAGES = sorted(
    [
        *(REPO / "docs").glob("*.md"),
        *(
            path
            for path in REPO.rglob("README.md")
            if not any(part.startswith(".") for part in path.relative_to(REPO).parts)
        ),
        REPO / ".claude" / "skills" / "verify" / "SKILL.md",
    ]
)

#: A cited file: rooted at the repository (``src/repro/…``, ``tests/…``,
#: ``benchmarks/…``, ``examples/…``) or at the package (``repro/…``, or
#: ``sim/…`` with a subpackage of ``repro`` first).
_PATH = re.compile(r"(?<![\w./-])((?:src/)?repro/|[a-z_]+/)([\w/]*\w\.py)\b")
_ROOTS = ("tests/", "benchmarks/", "examples/")
_DOTTED = re.compile(r"(?<![\w./-])repro(?:\.[A-Za-z_]\w*)+")


def _dead_path(root: str, rest: str) -> bool:
    if root in _ROOTS:
        return not (REPO / root / rest).is_file()
    if root.endswith("repro/"):
        return not (SRC / "repro" / rest).is_file()
    package = SRC / "repro" / root
    return package.is_dir() and not (package / rest).is_file()


def _is_module(parts) -> bool:
    base = SRC.joinpath(*parts)
    return (base / "__init__.py").is_file() or base.with_suffix(".py").is_file()


def _dead_dotted(name: str) -> bool:
    """True when *name*'s first component past its module prefix is missing."""
    parts = name.split(".")
    depth = 1
    while depth < len(parts) and _is_module(parts[: depth + 1]):
        depth += 1
    if depth == len(parts):
        return False
    module = importlib.import_module(".".join(parts[:depth]))
    return not hasattr(module, parts[depth])


@pytest.mark.parametrize("page", PAGES, ids=lambda page: str(page.relative_to(REPO)))
def test_every_cited_module_and_path_exists(page):
    text = page.read_text(encoding="utf-8")
    dead = sorted(
        {root + rest for root, rest in _PATH.findall(text) if _dead_path(root, rest)}
        | {name for name in _DOTTED.findall(text) if _dead_dotted(name)}
    )
    assert dead == [], f"{page.relative_to(REPO)} cites what does not exist: {dead}"


def test_the_scan_covers_the_pages_and_sees_a_dead_reference():
    names = {str(page.relative_to(REPO)) for page in PAGES}
    assert {"docs/audit.md", "tests/corpus/README.md", ".claude/skills/verify/SKILL.md"} <= names
    assert all(page.is_file() for page in PAGES)
    # Deleted modules and files read as dead; live ones do not.
    assert _dead_dotted("repro.sim.process")
    assert _dead_dotted("repro.sim.environment.NetworkEnvironment")
    assert not _dead_dotted("repro.scenarios.runner.run_matrix")
    assert _dead_path("sim/", "environment.py")
    assert _dead_path("src/repro/", "sim/process.py")
    assert not _dead_path("repro/", "node/process.py")
