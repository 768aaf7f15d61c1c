"""No module of the package, the tests or the demos imports a name it never
reads.  The package's ``__init__.py`` imports to export and is left out, as
is the benchmark, whose set-up child imports numpy and scipy only so that
their load time stays out of its timing."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(
    [p for p in (ROOT / "src" / "polyscat").glob("*.py") if p.name != "__init__.py"]
    + [*(ROOT / "tests").glob("*.py"), *(ROOT / "demos").glob("*.py")]
)


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def test_scan_sees_unused_names():
    source = """
from __future__ import annotations
import os.path
from a import b, c as d
d()
"""
    assert unused_imports(source) == ["b", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_no_unused_imports(path):
    assert not unused_imports(path.read_text())
