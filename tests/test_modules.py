import ast
import subprocess
import sys
from pathlib import Path

import pytest

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
    # strata._factor_table owns the packed root format; a second module
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


def test_import_loads_neither_dataclasses_nor_inspect():
    # a fresh interpreter, since the test run itself has loaded both
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import cohiggs, cohiggs.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code, str(src)], capture_output=True, text=True, check=True
    ).stdout
    assert out == "[]\n"
