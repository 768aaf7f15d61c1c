"""Every file the package writes goes through one writer,
``geometry.write_text``: no module opens a file for writing, calls another
writer (``Path.write_text``/``write_bytes``, ``numpy.savetxt``,
``ndarray.tofile``), or reaches ``os.open``/``os.fdopen`` outside that
function."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "polyscat"
MODULES = sorted(PACKAGE.glob("*.py"))



def _callee(call: ast.Call):
    """``(owner, name)`` of a call: ``owner`` is the name before the dot,
    ``None`` for a bare name or a dotted expression."""
    func = call.func
    if isinstance(func, ast.Name):
        return None, func.id
    if isinstance(func, ast.Attribute):
        owner = func.value.id if isinstance(func.value, ast.Name) else None
        return owner, func.attr
    return None, None


def _open_mode(call: ast.Call, owner):
    """The mode argument of ``open(file, mode)`` or ``path.open(mode)``, or
    ``None`` when the call leaves it at ``"r"``."""
    for keyword in call.keywords:
        if keyword.arg == "mode":
            return keyword.value
    position = 1 if owner is None else 0
    return call.args[position] if len(call.args) > position else None


def _writes(mode) -> bool:
    # a mode that is not a literal string could be anything: count it
    if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
        return True
    return bool(set(mode.value) & set("wax+"))


def write_calls(source: str, writer_module: bool) -> list:
    """``(line, call)`` of every call in ``source`` that writes a file other
    than through the one writer.  In the ``writer_module``, the body of its
    function ``write_text`` may use ``os.open`` and ``os.fdopen``."""
    tree = ast.parse(source)
    allowed = {
        id(node)
        for func in ast.walk(tree)
        if writer_module and isinstance(func, ast.FunctionDef)
        and func.name == "write_text"
        for node in ast.walk(func)
    }
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        owner, name = _callee(node)
        if owner == "os" and name in ("open", "fdopen"):
            bad = id(node) not in allowed
        elif name == "open":
            mode = _open_mode(node, owner)
            bad = mode is not None and _writes(mode)
        elif name in ("write_text", "write_bytes"):
            # the one writer is called bare or as geometry.write_text
            bad = owner not in (None, "geometry")
        else:
            bad = name in ("savetxt", "tofile")
        if bad:
            found.append((node.lineno, ast.unparse(node.func)))
    return sorted(found)


def test_scan_sees_every_other_writer():
    source = """
import os
import numpy as np
from . import geometry

def write_text(path, text):
    with os.fdopen(os.open(path, os.O_WRONLY), "w") as fh:
        fh.write(text)

def read(path, mode):
    with open(path) as fh, open(path, "rb") as fb, path.open() as fc:
        pass
    geometry.write_text(path, "")
    write_text(path, "")
    open(path, "w")
    open(path, mode=mode)
    path.open("a")
    open(path, "r+")
    path.write_text("")
    path.write_bytes(b"")
    np.savetxt(path, [])
    np.zeros(3).tofile(path)
    os.fdopen(os.open(path, os.O_RDONLY))
"""
    assert write_calls(source, writer_module=False)[:2] == [(7, "os.fdopen"), (7, "os.open")]
    assert write_calls(source, writer_module=True) == [
        (15, "open"),
        (16, "open"),
        (17, "path.open"),
        (18, "open"),
        (19, "path.write_text"),
        (20, "path.write_bytes"),
        (21, "np.savetxt"),
        (22, "np.zeros(3).tofile"),
        (23, "os.fdopen"),
        (23, "os.open"),
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_one_writer(path):
    assert not write_calls(path.read_text(), writer_module=path.name == "geometry.py")
