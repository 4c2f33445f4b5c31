"""Source-layout guards: one CSV writer, one random generator, no output formatting in the CLI."""

from __future__ import annotations

import ast
from pathlib import Path

import oddkit

SRC = Path(oddkit.__file__).parent


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def _callers(path: Path, callee: str) -> list[str | None]:
    """Per call to ``callee`` (a dotted name), the innermost function around it."""
    found: list[str | None] = []

    def visit(node: ast.AST, fn: str | None) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = node.name
        elif isinstance(node, ast.Call) and ast.unparse(node.func) == callee:
            found.append(fn)
        for child in ast.iter_child_nodes(node):
            visit(child, fn)

    visit(_tree(path), None)
    return found


def test_csv_writer_is_built_only_by_write_csv():
    callers = {path.name: _callers(path, "csv.writer") for path in SRC.glob("*.py")}
    assert {name: fns for name, fns in callers.items() if fns} == {"datasets.py": ["write_csv"]}


def test_anomaly_seeds_a_generator_only_in_the_draw_loop():
    assert _callers(SRC / "anomaly.py", "_rng") == ["_draw_and_accept"]


def test_cli_imports_neither_csv_nor_io():
    imported = set()
    for node in ast.walk(_tree(SRC / "cli.py")):
        if isinstance(node, ast.Import):
            imported |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.add(node.module.split(".")[0])
    assert not imported & {"csv", "io"}
