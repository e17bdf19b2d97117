import ast
import subprocess
import sys
from pathlib import Path

import pytest

import cohiggs

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "cohiggs").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_imports_a_private_name_of_another(path):
    # a name with a leading underscore belongs to its own module; a second
    # module that needs it means the helper lives in the wrong place
    tree = ast.parse(path.read_text(), filename=str(path))
    private = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").startswith("cohiggs"))
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == [], path.name


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_absolute_import_is_stdlib_or_cohiggs(path):
    # the library has no dependencies: an import from outside the standard
    # library would make it need an install step
    tree = ast.parse(path.read_text(), filename=str(path))
    modules = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
    ] + [
        node.module
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and not node.level
    ]
    allowed = sys.stdlib_module_names | {"cohiggs"}
    outside = sorted(name for name in modules if name.partition(".")[0] not in allowed)
    assert outside == [], path.name


def test_only_strata_packs_integers():
    # strata._packed_counts owns the packed root format; a second module
    # that packs integers would need to keep its byte bounds in step
    packers = {
        path.name
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute) and node.attr in ("to_bytes", "from_bytes")
    }
    assert packers == {"strata.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_imports_dataclasses(path):
    # importing dataclasses, and running its decorator, took most of the
    # package's import time; the value types derive from frozen.Frozen
    tree = ast.parse(path.read_text(), filename=str(path))
    modules = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
    ] + [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert "dataclasses" not in modules, path.name


def _only_sets_slots(init: ast.FunctionDef) -> bool:
    body = init.body
    if isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]  # the docstring
    return all(
        isinstance(stmt, ast.Expr)
        and isinstance(stmt.value, ast.Call)
        and isinstance(stmt.value.func, ast.Name)
        and stmt.value.func.id == "set_slot"
        for stmt in body
    )


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_init_only_sets_slots(path):
    # a value type that checks nothing takes Frozen's constructor, which
    # reads the fields from __slots__; a hand-written one names each field
    # twice more, in its signature and in a set_slot call
    tree = ast.parse(path.read_text(), filename=str(path))
    plain = [
        cls.name
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for stmt in cls.body
        if isinstance(stmt, ast.FunctionDef) and stmt.name == "__init__" and _only_sets_slots(stmt)
    ]
    assert plain == [], path.name


# each took a large share of ``import cohiggs, cohiggs.cli``, which every
# CLI request pays; statistics loads fractions, and re loads enum
IMPORT_COSTLY = {"argparse", "json", "fractions", "decimal", "statistics", "re"}


def _import_time_modules(body):
    # the modules a statement list imports while its module is imported: not
    # inside a function, nor in an ``except ImportError`` fallback
    for stmt in body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(stmt, ast.Import):
            yield from (alias.name for alias in stmt.names)
        elif isinstance(stmt, ast.ImportFrom):
            if not stmt.level:
                yield stmt.module
        elif isinstance(stmt, ast.Try):
            for part in (stmt.body, stmt.orelse, stmt.finalbody):
                yield from _import_time_modules(part)
            for handler in stmt.handlers:
                if not (isinstance(handler.type, ast.Name) and handler.type.id == "ImportError"):
                    yield from _import_time_modules(handler.body)
        else:
            for field in ("body", "orelse"):
                yield from _import_time_modules(getattr(stmt, field, []))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_costly_import_at_module_level(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    costly = sorted(
        name for name in _import_time_modules(tree.body) if name.partition(".")[0] in IMPORT_COSTLY
    )
    assert costly == [], path.name


def test_import_loads_neither_dataclasses_nor_inspect():
    # a fresh interpreter, since the test run itself has loaded them all;
    # nor re, which parse_group does without, nor __future__, since every
    # annotation evaluates as it stands
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import cohiggs, cohiggs.cli; "
        "print(sorted({'dataclasses', 'inspect', 're', '__future__'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code, str(src)], capture_output=True, text=True, check=True
    ).stdout
    assert out == "[]\n"


def _referenced(tree, skip=None):
    # names read as a Name or an Attribute, outside the top-level definition
    # of ``skip``; import statements name no Name node, so they never count
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for stmt in tree.body
        if not (isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and stmt.name == skip)
        for node in ast.walk(stmt)
        if isinstance(node, (ast.Name, ast.Attribute))
    }


def test_every_public_name_has_a_user_outside_the_tests():
    # cohiggs.__all__ exports what the library itself reads; a helper that
    # only the tests call belongs in tests/reference.py, and a slow reference
    # stays importable from its own module without being exported
    trees = [ast.parse(path.read_text()) for path in SOURCES if path.name != "__init__.py"]
    unused = [
        name
        for name in cohiggs.__all__
        if not any(name in _referenced(tree, skip=name) for tree in trees)
    ]
    assert unused == []
