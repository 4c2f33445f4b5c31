"""Source-layout guards: one CSV writer, one random generator, one vertex
enumeration and one vertex source, one polygon engine, one token cursor,
one near-point matcher, monitors on the array engine, every stage reading
its own coordinates, label objects built only at the API edges, spec
diagnostics built in one place, no output formatting in the CLI, and no
XML or URL library loaded by the CLI."""

from __future__ import annotations

import ast
import json
import os
import re
import subprocess
import sys
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


def _referrers(path: Path, name: str) -> set[str | None]:
    """The functions that name ``name``, as a variable or an attribute:
    that call it, or pass it on, as ``partial(name, ...)`` does."""
    found = set()

    def visit(node: ast.AST, fn: str | None) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = node.name
        elif isinstance(node, ast.Name) and node.id == name:
            found.add(fn)
        elif isinstance(node, ast.Attribute) and node.attr == name:
            found.add(fn)
        for child in ast.iter_child_nodes(node):
            visit(child, fn)

    visit(_tree(path), None)
    return found


def test_one_polygon_engine():
    """Polygon rows are decided by the exact engine only where
    region_containment sends them, and where the cell grid decides its
    cells' centres; the grid is built and read only in geometry.py."""
    for name, owners in (
        ("_polygon_codes", {"region_containment", "_cell_grid"}),
        ("_cell_grid", {"cell_grid"}),
        ("cell_grid", {"region_containment"}),
        ("_CellGrid", {"cell_grid", "_cell_grid", "_cell_codes"}),
        ("_cell_codes", {"region_containment"}),
    ):
        referrers = {path.name: _referrers(path, name) for path in SRC.glob("*.py")}
        assert {file: fns for file, fns in referrers.items() if fns} == {"geometry.py": owners}, name


def test_csv_writer_is_built_only_by_write_csv():
    callers = {path.name: _callers(path, "csv.writer") for path in SRC.glob("*.py")}
    assert {name: fns for name, fns in callers.items() if fns} == {"datasets.py": ["write_csv"]}


def test_one_vertex_enumeration_and_one_token_cursor():
    # every set of halfspace rows is solved in _flats; the rule-file parser
    # walks tokens with the spec parser's cursor, not one of its own
    callers = {path.name: _callers(path, "np.linalg.svd") for path in SRC.glob("*.py")}
    assert {name: fns for name, fns in callers.items() if fns} == {"geometry.py": ["_flats"]}
    assert _callers(SRC / "analysis.py", "_Parser") == ["parse_rules"]
    assert _callers(SRC / "analysis.py", "tokenize") == ["parse_rules"]


def test_one_vertex_source_for_polytopes():
    """Outside the spec parser and serializer, polytope vertices come from
    the halfspaces (region_pieces): every ``.vertices`` read is of a polygon
    region, or the vertex count of a face table."""
    reads = set()
    for path in SRC.glob("*.py"):
        if path.name == "dsl.py":
            continue
        for fn in ast.walk(_tree(path)):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                reads |= {
                    f"{path.name}:{fn.name}:{ast.unparse(node.value)}"
                    for node in ast.walk(fn)
                    if isinstance(node, ast.Attribute) and node.attr == "vertices"
                }
    assert reads == {
        "geometry.py:__init__:self.region",  # the node's geometry record
        "geometry.py:region_pieces:g.region",
        "geometry.py:_distance_outside:table",
    }


def test_geometry_keeps_no_cache_keyed_by_node():
    """A node's geometry lives in its record; no functools cache hashes a
    node on each call."""
    text = (SRC / "geometry.py").read_text(encoding="utf-8")
    names = {
        ast.unparse(node)
        for node in ast.walk(ast.parse(text))
        if isinstance(node, (ast.Name, ast.Attribute, ast.alias))
    }
    assert not {"lru_cache", "cache", "functools.lru_cache", "functools.cache"} & names
    assert "lru_cache" not in text and "@cache" not in text


def test_the_slack_code_calls_no_builtin_sum():
    """Since Python 3.12 ``sum()`` adds floats with compensation, so the
    one-point slacks would stop being the column fold of the array engine."""
    callers = set(_callers(SRC / "geometry.py", "sum"))
    assert not callers & {"_slacks", "point_in_region", "distance_to_boundary"}


def test_coverage_decides_on_no_probe_lattice():
    """Coverage checks the data rows, through the points' memo, and the grid
    cells it reports on; which bound slices the region reaches is decided
    from its vertices."""
    tree = _tree(SRC / "analysis.py")

    def checked(callee: str) -> set[str]:
        return {
            ast.unparse(node.args[0])
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and ast.unparse(node.func).endswith(callee)
        }

    assert checked("region_containment") == {"centers"}
    assert checked("point_codes") == {"points"}
    assert _callers(SRC / "analysis.py", "np.linspace") == []
    assert _callers(SRC / "analysis.py", "geometry.bounds_reached") == ["coverage_report"]
    assert _callers(SRC / "anomaly.py", "geometry.bounds_reached") == ["sample_region"]


def test_anomaly_seeds_a_generator_only_in_the_draw_loop():
    assert _callers(SRC / "anomaly.py", "_rng") == ["_draw_and_accept"]


def test_only_the_registry_index_reads_the_sample_registry():
    """The registry is read where the chain freezes it into a tuple and where
    its index is built, and matched through the one grid index type, which
    the known-input monitor shares, so no second matcher scans the registry
    or the known inputs."""
    readers = []
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(_tree(path)):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                isinstance(node, ast.Attribute) and node.attr == "sample_registry"
                for node in ast.walk(fn)
            ):
                readers.append(f"{path.name}:{fn.name}")
    assert sorted(readers) == ["classify.py:__post_init__", "classify.py:registry_matches"]
    grids = {path.name: set(_callers(path, "_grid_cells")) for path in SRC.glob("*.py")}
    assert {name: fns for name, fns in grids.items() if fns} == {"classify.py": {"_keys"}}
    assert _callers(SRC / "classify.py", "NearIndex") == ["registry_matches"]
    assert _callers(SRC / "monitors.py", "NearIndex") == ["detect"]


def test_monitors_call_no_one_point_geometry():
    """Every monitor decides the whole stream on the array engine; the range
    monitor reads the stream's containment codes from the points' memo."""
    called = {
        ast.unparse(node.func).rsplit(".", 1)[-1]
        for node in ast.walk(_tree(SRC / "monitors.py"))
        if isinstance(node, ast.Call)
    }
    assert "point_codes" in called and "extreme_mask" in called
    assert "region_containment" not in called
    assert not called & {"point_in_region", "params_at_extreme", "project", "coords", "normalize"}


def test_every_stage_reads_its_own_coordinates():
    """A function that takes points reads their coordinates itself: none takes
    a coordinate array (``X``, ``Y``, ``Z``) or a reader of one (a
    ``Callable``) from its caller beside them. The monitor chain counts
    category codes and keeps no per-run reader of coordinates."""
    passed = []
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(_tree(path)):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = [*fn.args.posonlyargs, *fn.args.args, *fn.args.kwonlyargs]
            if "points" not in {a.arg for a in args}:
                continue
            passed += [
                f"{path.name}:{fn.name}:{a.arg}"
                for a in args
                if a.arg in ("X", "Y", "Z", "coords_of") or "Callable" in ast.unparse(a.annotation or ast.Constant(None))
            ]
    assert passed == []
    imported = {
        alias.name
        for node in ast.walk(_tree(SRC / "monitors.py"))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    assert not imported & {"Counter", "cache", "partial", "Callable"}


def _builders(path: Path, cls: str) -> set[str | None]:
    """The functions that build ``cls``: that call it, or pass it to a call,
    as ``map(cls, ...)`` and ``repeat(cls)`` do."""
    found = set()

    def visit(node: ast.AST, fn: str | None) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = node.name
        elif isinstance(node, ast.Call) and cls in [ast.unparse(e) for e in (node.func, *node.args)]:
            found.add(fn)
        for child in ast.iter_child_nodes(node):
            visit(child, fn)

    visit(_tree(path), None)
    return found


def test_only_the_api_edges_build_label_objects():
    """Labelling and simulation work on code arrays: a LabelRow is built only
    when a Labels is iterated, and every Labels by _categorize or _label_rows;
    a MonitorVerdict and its MonitorDecisions only when ``verdicts`` is read."""
    for cls, owners in (
        ("LabelRow", {"classify.py": {"__iter__"}}),
        ("Labels", {"classify.py": {"_categorize", "_label_rows"}}),
        ("MonitorVerdict", {"monitors.py": {"verdicts"}}),
        ("MonitorDecision", {"monitors.py": {"verdicts"}}),
    ):
        builders = {path.name: _builders(path, cls) for path in SRC.glob("*.py")}
        assert {name: fns for name, fns in builders.items() if fns} == owners, cls


def test_spec_diagnostics_are_built_in_one_place_and_listed_alike():
    """Every spec check returns or yields a code and a message, and
    ``_diagnostic`` alone turns them into Diagnostics. The codes dsl.py
    emits, the ones its docstring lists and the README's diagnostic table
    are the same set."""
    assert _callers(SRC / "dsl.py", "Diagnostic") == ["_diagnostic"]
    tree = _tree(SRC / "dsl.py")
    emitted = {
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and re.fullmatch(r"[EW]\d{3}", node.value)
    }
    documented = set(re.findall(r"^    ([EW]\d{3}) ", ast.get_docstring(tree), re.M))
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    tabled = set(re.findall(r"^\| `([EW]\d{3})` \|", readme, re.M))
    assert len(emitted) == 18
    assert emitted == documented == tabled


def test_cli_imports_neither_csv_nor_io():
    imported = set()
    for node in ast.walk(_tree(SRC / "cli.py")):
        if isinstance(node, ast.Import):
            imported |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.add(node.module.split(".")[0])
    assert not imported & {"csv", "io"}


def test_cli_import_loads_no_xml_or_url_library():
    """Every CLI call imports oddkit.cli; the SVG writer needs no XML library,
    and xml.sax.saxutils would bring in urllib.request."""
    code = "import json, sys, oddkit.cli; print(json.dumps(sorted(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    loaded = json.loads(out.stdout)
    assert "oddkit.cli" in loaded
    banned = ("xml.etree", "xml.sax", "urllib.request")
    assert [m for m in loaded if m.startswith(banned)] == []
