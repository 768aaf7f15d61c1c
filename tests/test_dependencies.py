"""Every third-party module that the tests or the demos import is declared
in ``pyproject.toml``, as a dependency of the package or in its ``test``
extra, so that ``pip install -e ".[test]"`` is all a fresh environment needs
to run them."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted([*(ROOT / "tests").glob("*.py"), *(ROOT / "demos").glob("*.py")])
LOCAL = {"polyscat", *(p.stem for p in (ROOT / "tests").glob("*.py"))}


def imported_modules(source: str) -> set:
    """Top-level names of the modules ``source`` imports, relative imports
    left out."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def declared_modules() -> set:
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    specs = project["dependencies"] + project.get("optional-dependencies", {}).get("test", [])
    return {re.split(r"[\s<>=!~;\[]", spec, maxsplit=1)[0].replace("-", "_") for spec in specs}


def test_scan_sees_imported_modules():
    source = """
import os.path, numpy as np
from scipy.spatial import cKDTree
from . import sibling
"""
    assert imported_modules(source) == {"os", "numpy", "scipy"}


def test_third_party_imports_are_declared():
    third_party = {
        name
        for path in SCRIPTS
        for name in imported_modules(path.read_text())
        if name not in sys.stdlib_module_names and name not in LOCAL
    }
    assert third_party - declared_modules() == set()
