"""No module of the package reaches into another one's private names: an
underscore-prefixed name is read only inside the module that defines it."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "polyscat"
MODULES = sorted(PACKAGE.glob("*.py"))


def private_imports(source: str) -> list:
    """Underscore-prefixed names that ``source`` takes from polyscat modules,
    by ``from`` import or as an attribute of an imported module."""
    tree = ast.parse(source)
    found = []
    modules = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and node.module.split(".")[0] != "polyscat":
            continue
        for alias in node.names:
            if alias.name.startswith("_"):
                found.append(alias.name)
            if (node.level > 0 and node.module is None) or node.module == "polyscat":
                modules.add(alias.asname or alias.name)
    found += [
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
        and node.attr.startswith("_")
    ]
    return sorted(found)


def test_scan_sees_private_names():
    source = """
from __future__ import annotations
import numpy as np
from . import geometry as geo, maxima
from .geometry import _rings, unit_vector
from polyscat.sphgrid import _x
from numpy import _private
geo._frozen(np._NoValue)
maxima.peaks_to_faces._cache
"""
    assert private_imports(source) == ["_frozen", "_rings", "_x"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_no_private_imports(path):
    assert not private_imports(path.read_text())
