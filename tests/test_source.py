"""Checks on the package's own source code."""

import ast
import subprocess
import sys
from functools import reduce
from pathlib import Path

import mret
import mret.cli


def test_package_has_no_assert_statements():
    # `python -O` strips assert statements, so the package checks with raises
    package = Path(mret.__file__).parent
    asserts = [
        f"{path.relative_to(package)}:{node.lineno}"
        for path in sorted(package.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert asserts == []


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # every `mret` invocation is a fresh process that imports the whole
    # package: `dataclasses` and the `inspect` it imports took more than half
    # of that import's time, so the records derive from `errors.Record` instead
    src = str(Path(mret.__file__).parents[1])
    loaded = subprocess.run(
        [sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); "
         "before = set(sys.modules); import mret.cli; print(*set(sys.modules) - before)", src],
        capture_output=True, text=True, check=True).stdout.split()
    assert "mret.cli" in loaded
    assert {"dataclasses", "inspect"}.isdisjoint(loaded)


def test_only_forks_decides_to_fork():
    # one module owns the fork decision: its callers pass their work and threshold
    package = Path(mret.__file__).parent
    calls = [
        f"{path.relative_to(package)}:{node.lineno}"
        for path in sorted(package.rglob("*.py")) if path.name != "forks.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Call)
        and ast.unparse(node.func).rpartition(".")[2] in ("fork", "may_fork")
    ]
    assert calls == []


def test_only_the_edge_table_parsers_and_the_reduction_build_unchecked_digraphs():
    # `graphs._trusted_digraph` skips the checks of `Digraph`: only callers
    # that have established them themselves may call it
    package = Path(mret.__file__).parent
    callers = [
        f"{path.relative_to(package)}:{func.name}"
        for path in sorted(package.rglob("*.py"))
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, ast.Name) and node.id == "_trusted_digraph"
    ]
    assert callers == ["graphs.py:_parse_edge_table", "graphs.py:_parse_edge_table_by_line",
                       "reduction.py:build_instance"]


def test_every_name_the_benchmark_reads_exists():
    # bench/*.py reads the package as `mret.<name>` chains, such as
    # `mret.evaluate_schedule` or `mret.cli.main`: each must resolve.  The
    # attribute names in tracing.wrap_targets' tuples are strings, not
    # reads, and the tracer records a missing one
    bench = Path(__file__).resolve().parents[1] / "bench"

    def chain(node):
        if isinstance(node, ast.Name):
            return [node.id]
        if isinstance(node, ast.Attribute):
            names = chain(node.value)
            return names and [*names, node.attr]
        return []

    reads = {
        ".".join(names)
        for path in sorted(bench.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Attribute) and (names := chain(node))[0:1] == ["mret"]
    }
    assert "mret.evaluate_schedule" in reads and "mret.cli.main" in reads
    missing = []
    for read in sorted(reads):
        try:
            reduce(getattr, read.split(".")[1:], mret)
        except AttributeError:
            missing.append(read)
    assert missing == []
