"""Every name the package exports, every public module-level function and
class of its modules, and every public method and property of those
classes, has a caller outside the tests; every defaulted parameter and every
config key is set there too, and no default is set by every call there, or
allowed with a reason; every exception class the package defines is
caught by name in the package; and every field of its dataclasses is read
as an attribute outside the tests."""

import ast
import builtins
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "polyscat"
MODULES = sorted(PACKAGE.glob("*.py"))
# the callers outside the package and the tests
SCRIPTS = sorted([*(ROOT / "demos").glob("*.py"), *(ROOT / "perfbench").glob("*.py")])

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
    sources += SCRIPTS
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


# defaulted parameters that no call in src/, demos/ or perfbench/ sets, and why
ALLOWED_UNSET = {
    ("main", "argv"): "the console entry point calls main() and reads sys.argv",
    ("fit_offsets", "alpha0"): "a second start, set only by test_minkowski; the "
    "ROADMAP keeps it",
    ("polygon_fourier_integral", "normal"): "acceptance criterion 1",
}

# defaulted parameters that every call in src/, demos/ or perfbench/ sets, and why
ALLOWED_ALWAYS_SET: dict = {}


def _defaulted(args, skip_self):
    """``(position, name)`` of each defaulted parameter; keyword-only
    parameters get position ``None``."""
    positional = [*args.posonlyargs, *args.args][1 if skip_self else 0:]
    out = [
        (i, a.arg)
        for i, a in enumerate(positional)
        if i >= len(positional) - len(args.defaults)
    ]
    out += [
        (None, a.arg)
        for a, d in zip(args.kwonlyargs, args.kw_defaults)
        if d is not None
    ]
    return out


def defaulted_parameters(path):
    """``(callee, position, name)`` of each defaulted parameter of the public
    functions, public methods of public classes and fields of public
    dataclasses defined at the top level of ``path``."""
    found = []
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            found += [(node.name, i, n) for i, n in _defaulted(node.args, False)]
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            if any("dataclass" in ast.unparse(d) for d in node.decorator_list):
                fields = [item for item in node.body if isinstance(item, ast.AnnAssign)]
                found += [
                    (node.name, i, f.target.id)
                    for i, f in enumerate(fields)
                    if f.value is not None
                ]
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    found += [(item.name, i, n) for i, n in _defaulted(item.args, True)]
    return found


def calls():
    """Each call in ``src/``, ``demos/`` and ``perfbench/`` as ``callee ->
    [(positional count, keyword names)]``; ``*args`` and ``**kwargs`` count
    as every position and every keyword."""
    sources = [*MODULES, *SCRIPTS]
    found = {}
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            keywords = {k.arg for k in node.keywords}
            found.setdefault(name, []).append(
                (float("inf") if starred else len(node.args), keywords)
            )
    return found


def _sets(position, name, count, keywords):
    """Whether a call of ``count`` positional arguments and ``keywords`` sets
    the parameter ``name`` at ``position``."""
    return name in keywords or None in keywords or (position is not None and count > position)


def unset_defaults(path, found):
    """``(callee, name)`` of each defaulted parameter of ``path`` that no
    call in ``found`` sets."""
    return [
        (callee, name)
        for callee, position, name in defaulted_parameters(path)
        if not any(_sets(position, name, *call) for call in found.get(callee, ()))
    ]


def always_set_defaults(path, found):
    """``(callee, name)`` of each defaulted parameter of ``path`` that every
    call in ``found`` sets, at least one call of its callee being there."""
    return [
        (callee, name)
        for callee, position, name in defaulted_parameters(path)
        if found.get(callee)
        and all(_sets(position, name, *call) for call in found[callee])
    ]


def test_scan_sees_defaulted_parameters(tmp_path):
    path = tmp_path / "module.py"
    path.write_text(
        "from dataclasses import dataclass\n"
        "def shown(a, b=1, *, c=2, d): ...\n"
        "def _hidden(x=1): ...\n"
        "class Shown:\n"
        "    def method(self, e=3): ...\n"
        "    def _hidden(self, f=4): ...\n"
        "@dataclass(frozen=True)\n"
        "class Record:\n"
        "    g: int\n"
        "    h: int = 5\n"
        "class Plain:\n"
        "    i: int = 6\n"
    )
    assert defaulted_parameters(path) == [
        ("shown", 1, "b"),
        ("shown", None, "c"),
        ("method", 0, "e"),
        ("Record", 1, "h"),
    ]
    found = {"shown": [(2, set())], "method": [(0, {"e"})], "Record": [(1, set())]}
    assert unset_defaults(path, found) == [("shown", "c"), ("Record", "h")]
    # b is set by its one call and e by one of two; Record has no call
    found = {"shown": [(2, set())], "method": [(0, {"e"}), (0, set())]}
    assert always_set_defaults(path, found) == [("shown", "b")]
    found["method"].pop()
    assert always_set_defaults(path, found) == [("shown", "b"), ("method", "e")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_every_default_is_set_by_a_caller(path):
    unset = set(unset_defaults(path, calls())) - set(ALLOWED_UNSET)
    assert not unset, f"defaults no call in src/, demos/ or perfbench/ sets: {sorted(unset)}"


def test_every_allowed_default_is_unset():
    found = calls()
    unset = {entry for path in MODULES for entry in unset_defaults(path, found)}
    assert set(ALLOWED_UNSET) <= unset, "stale ALLOWED_UNSET entries"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_no_default_is_set_by_every_caller(path):
    always = set(always_set_defaults(path, calls())) - set(ALLOWED_ALWAYS_SET)
    assert not always, (
        f"defaults every call in src/, demos/ or perfbench/ sets: {sorted(always)}"
    )


def test_every_allowed_always_set_default_is_set():
    found = calls()
    always = {entry for path in MODULES for entry in always_set_defaults(path, found)}
    assert set(ALLOWED_ALWAYS_SET) <= always, "stale ALLOWED_ALWAYS_SET entries"


# config keys that no config writer in perfbench/ or demos/ sets, and why
ALLOWED_UNWRITTEN: dict = {}


def config_keys(path):
    """The keys the config reader in ``path`` accepts: the first argument of
    each ``take``, ``take_path`` and ``raw.pop`` call, and ``incident``."""
    keys = {"incident"}
    for node in ast.walk(ast.parse(path.read_text())):
        if not (isinstance(node, ast.Call) and node.args):
            continue
        func, first = node.func, node.args[0]
        named = isinstance(func, ast.Name) and func.id in ("take", "take_path")
        popped = (
            isinstance(func, ast.Attribute) and func.attr == "pop"
            and isinstance(func.value, ast.Name) and func.value.id == "raw"
        )
        if (named or popped) and isinstance(first, ast.Constant):
            keys.add(first.value)
    return keys


def written_keys(paths):
    """The keys that open a ``key = value`` line in a string of ``paths``,
    f-string parts included."""
    keys = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                keys.update(re.findall(r"(?:^|\n)(\w+) = ", node.value))
    return keys


def test_scan_sees_config_keys(tmp_path):
    reader = tmp_path / "reader.py"
    reader.write_text(
        "def read(raw):\n"
        "    a = take('a', 1)\n"
        "    b = take_path('b')\n"
        "    c = raw.pop('c', None)\n"
        "    d = other.pop('d')\n"
    )
    assert config_keys(reader) == {"incident", "a", "b", "c"}
    writer, test = tmp_path / "writer.py", tmp_path / "test_writer.py"
    writer.write_text("x = 2\ntext = f'a = {x}\\nincident = 1 0 0  0 0 1\\n' + 'b = out'\n")
    test.write_text("text = 'c = 3\\n'\n")
    # c is written only by a test, so the audit of the writers flags it
    assert config_keys(reader) - written_keys([writer]) == {"c"}
    assert config_keys(reader) <= written_keys([writer, test])


def test_every_config_key_is_written_by_a_config_writer():
    unwritten = config_keys(PACKAGE / "pipeline.py") - written_keys(SCRIPTS)
    assert unwritten <= set(ALLOWED_UNWRITTEN), (
        f"config keys no writer in perfbench/ or demos/ sets: "
        f"{sorted(unwritten - set(ALLOWED_UNWRITTEN))}"
    )


def test_every_allowed_config_key_is_unwritten():
    unwritten = config_keys(PACKAGE / "pipeline.py") - written_keys(SCRIPTS)
    assert set(ALLOWED_UNWRITTEN) <= unwritten, "stale ALLOWED_UNWRITTEN entries"


# exception classes the package defines that no except clause in it names, and why
ALLOWED_UNCAUGHT: dict = {}


def _base_name(node):
    """The last name of a base or an except target: ``b`` of ``a.b``."""
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def exception_classes(paths):
    """Classes defined at the top level of ``paths`` that derive, through
    one another, from a built-in exception."""
    classes = {
        node.name: {_base_name(b) for b in node.bases}
        for path in paths
        for node in ast.parse(path.read_text()).body
        if isinstance(node, ast.ClassDef)
    }
    found = set()
    while True:
        more = {
            name for name, bases in classes.items()
            if any(
                b in found or isinstance(getattr(builtins, b or "", None), type)
                and issubclass(getattr(builtins, b), BaseException)
                for b in bases
            )
        }
        if more <= found:
            return found
        found |= more


def caught_names(paths):
    """The names in the ``except`` clauses of ``paths``, tuples included."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                targets = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                names.update(_base_name(t) for t in targets)
    return names


def test_scan_sees_exception_classes_and_handlers(tmp_path):
    path = tmp_path / "module.py"
    path.write_text(
        "import errors\n"
        "class Base(ValueError): ...\n"
        "class Leaf(Base): ...\n"
        "class Other(errors.Base): ...\n"
        "class Plain: ...\n"
        "class Record(Plain): ...\n"
        "try:\n"
        "    pass\n"
        "except (OSError, errors.Leaf):\n"
        "    pass\n"
        "except Base as exc:\n"
        "    pass\n"
        "except:\n"
        "    pass\n"
    )
    assert exception_classes([path]) == {"Base", "Leaf", "Other"}
    assert caught_names([path]) == {"OSError", "Leaf", "Base"}


def test_every_exception_class_is_caught():
    uncaught = exception_classes(MODULES) - caught_names(MODULES) - set(ALLOWED_UNCAUGHT)
    assert not uncaught, f"exception classes no except clause in src/ names: {sorted(uncaught)}"


def test_every_allowed_exception_class_is_uncaught():
    uncaught = exception_classes(MODULES) - caught_names(MODULES)
    assert set(ALLOWED_UNCAUGHT) <= uncaught, "stale ALLOWED_UNCAUGHT entries"


# dataclass fields that no attribute load in src/, demos/ or perfbench/ reads, and why
ALLOWED_UNREAD: dict = {}


def dataclass_fields(paths):
    """``(class, field)`` of each field of the dataclasses defined at the
    top level of ``paths``, private ones included."""
    return {
        (node.name, item.target.id)
        for path in paths
        for node in ast.parse(path.read_text()).body
        if isinstance(node, ast.ClassDef)
        and any("dataclass" in ast.unparse(d) for d in node.decorator_list)
        for item in node.body
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
    }


def read_attributes(paths):
    """The attribute names ``paths`` read: each ``x.name`` that is loaded,
    not stored or deleted, and each ``getattr(x, "name")``.  A bare name is
    no read, so a local variable that shares a field's name reads nothing."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
            elif (
                isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "getattr" and len(node.args) >= 2
                and isinstance(node.args[1], ast.Constant)
            ):
                names.add(node.args[1].value)
    return names


def unread_fields(paths, readers):
    """``(class, field)`` of each dataclass field of ``paths`` that ``readers`` never read."""
    read = read_attributes(readers)
    return {(cls, field) for cls, field in dataclass_fields(paths) if field not in read}


def test_scan_sees_dataclass_fields_and_their_reads(tmp_path):
    module, reader = tmp_path / "module.py", tmp_path / "reader.py"
    module.write_text(
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\n"
        "class Record:\n"
        "    shown: int\n"
        "    fetched: int\n"
        "    local: int\n"
        "    stored: int = 0\n"
        "    def method(self): ...\n"
        "@dataclass\n"
        "class _Private:\n"
        "    hidden: int\n"
        "class Plain:\n"
        "    attribute: int = 1\n"
    )
    reader.write_text(
        "local = 1\n"
        "record.stored = local\n"
        "del record.hidden\n"
        "print(record.shown, getattr(record, 'fetched'), getattr(record, local))\n"
    )
    assert dataclass_fields([module]) == {
        ("Record", "shown"), ("Record", "fetched"), ("Record", "local"),
        ("Record", "stored"), ("_Private", "hidden"),
    }
    assert read_attributes([reader]) == {"shown", "fetched"}
    assert unread_fields([module], [reader]) == {
        ("Record", "local"), ("Record", "stored"), ("_Private", "hidden"),
    }


def test_every_dataclass_field_is_read():
    unread = unread_fields(MODULES, [*MODULES, *SCRIPTS]) - set(ALLOWED_UNREAD)
    assert not unread, (
        f"dataclass fields no attribute load in src/, demos/ or perfbench/ reads: "
        f"{sorted(unread)}"
    )


def test_every_allowed_field_is_unread():
    unread = unread_fields(MODULES, [*MODULES, *SCRIPTS])
    assert set(ALLOWED_UNREAD) <= unread, "stale ALLOWED_UNREAD entries"
