"""Mutation testing for ``src/cohiggs``: do the tests catch wrong code?

Run from the repository root, naming one module or more:

    python tests/mutate.py frozen oracle

Each mutant changes one node of the module's syntax tree: a comparison
flipped (``<`` and ``<=``, ``>`` and ``>=``, ``==`` and ``!=``, ``is`` and
``is not``, ``in`` and ``not in``), an integer constant plus one, or
``and`` swapped with ``or``.  The harness copies ``src``, ``tests`` and
``pyproject.toml`` to a temporary directory and writes one mutant at a
time into the copy.  For each it runs pytest on the module's
test files from ``TESTS``, one child process at a time, under a timeout,
stopping at the first failure.  Tests that already fail on the unmutated module are
deselected, so only a test that passes without the mutant can kill it.
Each child gets five times the unmutated run, and at least a minute; a
mutant that times out counts as killed.  A survivor listed in
``EQUIVALENT`` is reported apart with its reason; the exit code is 1 when
any other mutant survives.

A mutant is named ``file:scope:change#n in text``: the enclosing functions
and classes, the change, its index among the same change of the same text
in that scope, and the source text of the expression it sits in (the
outermost one below a statement).  The name does not move when lines
elsewhere in the file do, and an edit at the site renames the mutant.  An
``EQUIVALENT`` name that no mutant of its module has any more stops the
run, so a stale entry cannot excuse a new survivor.

Pytest does not collect this file, and it uses only the standard library.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# the test files run against each module's mutants, fastest killers first
TESTS = {
    "frozen": ["test_frozen.py", "test_modules.py", "test_oracle.py"],
    "lie": ["test_lie.py", "test_criterion.py", "test_strata.py", "test_cli.py"],
    "criterion": ["test_criterion.py", "test_glr.py", "test_symplectic.py", "test_acceptance.py"],
    "strata": ["test_strata.py", "test_acceptance.py", "test_cli.py"],
    "glr": ["test_glr.py", "test_oracle.py"],
    "symplectic": ["test_symplectic.py", "test_cli.py"],
    "poly": ["test_poly.py", "test_oracle.py"],
    "oracle": ["test_oracle.py", "test_cli.py", "test_acceptance.py", "test_adjoint_oracle.py"],
    "cli": ["test_cli.py", "test_acceptance.py"],
}

# survivors that behave exactly as the module does, by name, with the reason
EQUIVALENT = {
    "oracle.py:_kernel_head:0->1#0 in reversed(range(len(rows[0])))":
        "every row has the same length, and the oracle's matrices have at least 3 rows",
    "oracle.py:_kernel_head:0->1#1 in [0] * len(rows[0])":
        "every row has the same length, and the oracle's matrices have at least 3 rows",
    "oracle.py:_top_invariant_line:2->3#0 in _blocks(st, d - 2)":
        "the layout of H^0(E(-d + 3)) only adds a zero row at the end of each summand's block",
    "lie.py:build_root_system:Lt->LtE#0 in k < 0":
        "a raising by k = 0 gives back the root itself, which is already seen",
    "lie.py:build_root_system:0->1#0 in k < 0":
        "k < 1 is k <= 0, and a raising by k = 0 gives back the root itself, already seen",
    "lie.py:all_root_values:0->1#0 in [0] * (2 * len(positive))":
        "both slices overwrite every slot, so the fill value is never read",
    "poly.py:_univariate_gcd:0->1#1 in pow(a[0], p - 2, p) if a else 0":
        "with a empty the result is the empty list, and the inverse is never read",
    "poly.py:_is_prime:0->1#0 in (n - 1, 0)":
        "squaring once more only accepts on a^((n - 1) 2^j) = -1 mod n, which no odd n > 1 has",
    "poly.py:_is_prime:1->2#0 in (d // 2, s + 1)":
        "squaring further only accepts on a^((n - 1) 2^j) = -1 mod n, which no odd n > 1 has",
    "cli.py:<module>:512->513#0 in 512":
        "the chunk size only decides where the output is cut into writes, not its bytes",
    "cli.py:_central:0->1#0 in "
    "args.central if args.central is not None else (0,) * group.central_rank":
        "central degrees reach no output: simple roots vanish on the center, and strata "
        "checks only their count",
    "strata.py:_packed_counts:Lt->LtE#0 in top < 256":
        "under MAX_STRATA_RANK the largest highest-root value is 58 (E8), far below 256",
    "strata.py:_packed_counts:256->257#0 in top < 256":
        "under MAX_STRATA_RANK the largest highest-root value is 58 (E8), far below 256",
    "strata.py:_packed_counts:2->3#0 in ct.rank // 2":
        "the split only moves where the table is cut into two halves; the rows are the same",
    "strata.py:dimension_columns:0->1#0 in (0,) * group.semisimple_rank":
        "the probe only checks shape and dominance, which any nonnegative vector passes",
}

FLIPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.In: ast.NotIn, ast.NotIn: ast.In,
}


def mutation_sites(tree: ast.Module) -> list[tuple[str, str, int, ast.AST, str, object]]:
    """Every mutation of ``tree``, in source order, as ``(change, text,
    line, node, field, new)``: the mutant sets ``node.field`` to ``new``.
    ``change`` is prefixed with the enclosing scope; ``text`` is the
    source of the outermost expression below a statement that holds it."""
    sites = []

    def visit(node: ast.AST, scope: str, text: str | None) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope != "<module>" else node.name
        if isinstance(node, (ast.stmt, ast.excepthandler)):
            text = None
        elif text is None:
            text = ast.unparse(node)
        if isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                if type(op) in FLIPS:
                    new = FLIPS[type(op)]
                    ops = [*node.ops[:i], new(), *node.ops[i + 1 :]]
                    sites.append((f"{scope}:{type(op).__name__}->{new.__name__}", text,
                                  node.lineno, node, "ops", ops))
        elif isinstance(node, ast.BoolOp):
            new = ast.Or if isinstance(node.op, ast.And) else ast.And
            sites.append((f"{scope}:{type(node.op).__name__}->{new.__name__}", text,
                          node.lineno, node, "op", new()))
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            sites.append((f"{scope}:{node.value}->{node.value + 1}", text,
                          node.lineno, node, "value", node.value + 1))
        for child in ast.iter_child_nodes(node):
            visit(child, scope, text)

    visit(tree, "<module>", None)
    return sites


def _swap(node: ast.AST, field: str, value: object) -> object:
    old = getattr(node, field)
    setattr(node, field, value)
    return old


def mutants(module: str, root: Path = ROOT) -> list[tuple[str, int, str]]:
    """Each mutant of ``src/cohiggs/<module>.py`` under ``root`` as
    ``(name, line, source)``."""
    path = root / "src" / "cohiggs" / f"{module}.py"
    tree = ast.parse(path.read_text(), str(path))
    out, seen = [], {}
    for change, text, line, node, field, new in mutation_sites(tree):
        n = seen[change, text] = seen.get((change, text), -1) + 1
        old = _swap(node, field, new)
        source = ast.unparse(tree)
        _swap(node, field, old)
        out.append((f"{path.name}:{change}#{n} in {text}", line, source))
    return out


def run_tests(
    copy: Path, files: list[str], deselect: list[str], timeout: float, first: bool = True
) -> tuple[int | None, list[str], float]:
    """Run pytest in ``copy`` on ``files``, stopping at the first failure
    when ``first``; pytest's exit code (None on a timeout), the node ids
    that failed, and the seconds taken."""
    argv = [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider"]
    argv += ["-x"] * first
    argv += [f"tests/{name}" for name in files]
    for node in deselect:
        argv += ["--deselect", node]
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    start = time.perf_counter()
    child = subprocess.Popen(argv, cwd=copy, env=env, stdout=subprocess.PIPE,
                             stderr=subprocess.STDOUT, text=True, start_new_session=True)
    try:
        out, _ = child.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        # the tests may have started interpreters of their own
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        return None, [], time.perf_counter() - start
    # "FAILED <node id> - <message>"; a parametrized node id may hold spaces
    failed = [
        line.split(" ", 1)[1].split(" - ", 1)[0]
        for line in out.splitlines()
        if line.startswith(("FAILED ", "ERROR "))
    ]
    return child.returncode, failed, time.perf_counter() - start


Survivor = tuple[str, int, str]


def mutate_module(copy: Path, module: str) -> tuple[int, list[Survivor]]:
    """Run every mutant of ``module`` in ``copy``; the mutant count and the
    survivors as ``(name, line, status)``, status ``survived`` or
    ``equivalent``."""
    files = TESTS[module]
    target = copy / "src" / "cohiggs" / f"{module}.py"
    original = target.read_text()
    todo = mutants(module, copy)
    names = {name for name, _, _ in todo}
    stale = [n for n in EQUIVALENT if n.startswith(f"{module}.py:") and n not in names]
    if stale:
        raise SystemExit(f"{module}: EQUIVALENT names no mutant: {stale}")
    # the baseline goes through the same unparse as every mutant
    target.write_text(ast.unparse(ast.parse(original)))
    code, broken, base_s = run_tests(copy, files, [], 3600, first=False)
    # pytest exits 1 when tests fail, 2 to 5 when they could not run
    if code not in (0, 1):
        target.write_text(original)
        raise SystemExit(f"{module}: the unmutated tests did not run (exit {code})")
    if broken:
        print(f"{module}: deselected, failing without a mutant: {' '.join(broken)}")
    limit = max(60.0, 5 * base_s)
    survivors = []
    print(f"{module}: {len(todo)} mutants against {' '.join(files)}, {limit:.0f} s each")
    try:
        for name, line, source in todo:
            target.write_text(source)
            code, _, seconds = run_tests(copy, files, broken, limit)
            if code == 0:
                status = "equivalent" if name in EQUIVALENT else "survived"
                survivors.append((name, line, status))
            else:
                status = "timeout" if code is None else "killed"
            print(f"  {status:10} {name} (line {line}, {seconds:.1f} s)", flush=True)
    finally:
        target.write_text(original)
    return len(todo), survivors


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("modules", nargs="+", choices=sorted(TESTS), metavar="MODULE")
    args = parser.parse_args(argv)
    report = {}
    with tempfile.TemporaryDirectory(prefix="cohiggs-mutate-") as tmp:
        copy = Path(tmp)
        for part in ("src", "tests"):
            skip = shutil.ignore_patterns("__pycache__", "*.egg-info", "out")
            shutil.copytree(ROOT / part, copy / part, ignore=skip)
        shutil.copy2(ROOT / "pyproject.toml", copy / "pyproject.toml")
        for module in args.modules:
            report[module] = mutate_module(copy, module)
    real = 0
    print("\nsurvivors (file:scope:change#n in text, line):")
    for module, (total, survivors) in report.items():
        alive = [s for s in survivors if s[2] == "survived"]
        real += len(alive)
        equivalent = len(survivors) - len(alive)
        print(f"{module}: {total} mutants, {len(alive)} survived, {equivalent} equivalent")
        for name, line, status in survivors:
            note = f"  equivalent: {EQUIVALENT[name]}" if status == "equivalent" else ""
            print(f"  {name} (line {line}){note}")
    return 1 if real else 0


if __name__ == "__main__":
    sys.exit(main())
