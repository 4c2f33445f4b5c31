"""Source-layout guards: one CSV writer, one random generator, one near-point
matcher, monitors on the array engine, no output formatting in the CLI."""

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


def test_only_the_registry_index_reads_the_sample_registry():
    """The registry is read in one place and matched through the one grid
    index, which the known-input monitor shares, so no second matcher scans
    the registry or the known inputs."""
    readers = []
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(_tree(path)):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                isinstance(node, ast.Attribute) and node.attr == "sample_registry"
                for node in ast.walk(fn)
            ):
                readers.append(f"{path.name}:{fn.name}")
    assert readers == ["classify.py:registry_matches"]
    grids = {path.name: set(_callers(path, "_grid_cells")) for path in SRC.glob("*.py")}
    assert {name: fns for name, fns in grids.items() if fns} == {"classify.py": {"near_matches"}}
    assert _callers(SRC / "classify.py", "near_matches") == ["registry_matches"]
    assert _callers(SRC / "monitors.py", "near_matches") == ["detect"]


def test_monitors_call_no_one_point_geometry():
    """Every monitor decides the whole stream on the array engine."""
    called = {
        ast.unparse(node.func).rsplit(".", 1)[-1]
        for node in ast.walk(_tree(SRC / "monitors.py"))
        if isinstance(node, ast.Call)
    }
    assert "region_containment" in called and "extreme_mask" in called
    assert not called & {"point_in_region", "params_at_extreme", "project", "coords", "normalize"}


def test_cli_imports_neither_csv_nor_io():
    imported = set()
    for node in ast.walk(_tree(SRC / "cli.py")):
        if isinstance(node, ast.Import):
            imported |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.add(node.module.split(".")[0])
    assert not imported & {"csv", "io"}
