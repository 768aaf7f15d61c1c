"""Every name the package exports, every public module-level function and
class of its modules, and every public method and property of those
classes, has a caller outside the tests."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "polyscat"
MODULES = sorted(PACKAGE.glob("*.py"))

# exported names kept with no caller outside the tests, and why
ALLOWED_UNUSED = {"polygon_fourier_integral": "acceptance criterion 1"}


def exported_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def defined_names(path):
    """Public functions and classes defined at the top level of ``path``."""
    return {
        node.name
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    }


def public_methods(path):
    """Public methods and properties of the public top-level classes of ``path``."""
    return {
        item.name
        for node in ast.parse(path.read_text()).body
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_")
        for item in node.body
        if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
    }


def used_names():
    sources = [p for p in MODULES if p.name != "__init__.py"]
    sources += [*(ROOT / "demos").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    used = set()
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return used


def test_every_export_has_a_caller():
    unused = exported_names() - used_names() - set(ALLOWED_UNUSED)
    assert not unused, f"exported but called only by tests: {sorted(unused)}"


def test_scan_sees_module_level_definitions(tmp_path):
    path = tmp_path / "module.py"
    path.write_text(
        "class Shown:\n"
        "    def method(self): ...\n"
        "def shown(): ...\n"
        "def _hidden(): ...\n"
        "CONSTANT = 1\n"
        "if CONSTANT:\n"
        "    def nested(): ...\n"
    )
    assert defined_names(path) == {"Shown", "shown"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_every_public_definition_has_a_caller(path):
    unused = defined_names(path) - used_names() - set(ALLOWED_UNUSED)
    assert not unused, f"defined but called only by tests: {sorted(unused)}"


def test_scan_sees_public_methods(tmp_path):
    path = tmp_path / "module.py"
    path.write_text(
        "class Shown:\n"
        "    size = 1\n"
        "    def method(self): ...\n"
        "    @property\n"
        "    def prop(self): ...\n"
        "    def _hidden(self): ...\n"
        "    def __post_init__(self): ...\n"
        "class _Hidden:\n"
        "    def method2(self): ...\n"
        "def function(): ...\n"
    )
    assert public_methods(path) == {"method", "prop"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_every_public_method_has_a_caller(path):
    unused = public_methods(path) - used_names() - set(ALLOWED_UNUSED)
    assert not unused, f"methods called only by tests: {sorted(unused)}"
