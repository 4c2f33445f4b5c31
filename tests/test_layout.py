"""Source-layout guards: one CSV writer, one random generator, one vertex
enumeration and one vertex source, one polygon engine, one token cursor,
one near-point matcher, monitors on the array engine, every stage reading
its own coordinates, label objects built only at the API edges, spec
diagnostics built in one place, one reader of the category table, one
read-only helper, no output formatting in the CLI, no XML or URL library
loaded by the CLI, no parameter that a function never reads, a
boundary band set only where some caller varies it, each one-point function
kept by a named caller, a package ``__all__`` that lists what it
imports, and no exception type that nothing raises."""

from __future__ import annotations

import ast
import json
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import numpy as np

import oddkit
from oddkit import geometry

SRC = Path(oddkit.__file__).parent
ROOT = Path(__file__).parent.parent


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


def _referrers(path: Path, name: str, loads_only: bool = False) -> set[str | None]:
    """The functions that name ``name``, as a variable or an attribute:
    that call it, or pass it on, as ``partial(name, ...)`` does. With
    ``loads_only``, a name assigned to does not count."""
    found = set()

    def visit(node: ast.AST, fn: str | None) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = node.name
        elif isinstance(node, (ast.Name, ast.Attribute)) and name in (getattr(node, "id", None), getattr(node, "attr", None)):
            if not loads_only or isinstance(node.ctx, ast.Load):
                found.add(fn)
        for child in ast.iter_child_nodes(node):
            visit(child, fn)

    visit(_tree(path), None)
    return found


def test_one_polygon_engine():
    """Polygon rows are decided by the exact engine only where
    region_containment sends them, where the cell grid decides its cells'
    centres, and where point_in_region's cell leaves its point undecided; the
    grid is built and read only in geometry.py, by region_containment and by
    point_in_region's one-point lookup. The engine's edge offsets are also
    the polygon distance's, and no scalar twin of either is left."""
    for name, owners in (
        ("_polygon_codes", {"region_containment", "_cell_grid", "point_in_region"}),
        ("_edge_offsets", {"_polygon_codes", "distance_to_boundary"}),
        ("_cell_grid", {"cell_grid"}),
        ("cell_grid", {"region_containment", "point_in_region"}),
        ("_CellGrid", {"cell_grid", "_cell_grid", "_cell_codes", "_cell_code"}),
        ("_cell_codes", {"region_containment"}),
    ):
        referrers = {path.name: _referrers(path, name) for path in SRC.glob("*.py")}
        assert {file: fns for file, fns in referrers.items() if fns} == {"geometry.py": owners}, name
    defined = {fn.name for path in SRC.glob("*.py") for fn in ast.walk(_tree(path)) if isinstance(fn, ast.FunctionDef)}
    assert not defined & {"_polygon_distance", "_even_odd_inside"}
    assert not any(_referrers(path, "segments") for path in SRC.glob("*.py"))  # nor _NodeGeometry.segments


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
    one-point slacks would stop being the column fold of the array engine.
    A polytope's one-point functions are generated, and their source holds
    no data: the only float constant of the generated code is the fold's 0.0."""
    callers = set(_callers(SRC / "geometry.py", "sum"))
    assert not callers & {"_point_functions", "point_in_region", "distance_to_boundary"}
    for d in range(1, 7):
        members = [(np.full((faces, d), 0.3), np.full(faces, 0.7)) for faces in (1, 3)]
        for fn in geometry._point_functions([f"p{j}" for j in range(d)], (0.5,) * d, (2.0,) * d, members, None):
            codes = [fn.__code__, *(c for c in fn.__code__.co_consts if isinstance(c, types.CodeType))]
            assert not any("sum" in c.co_names for c in codes)
            assert {k for c in codes for k in c.co_consts if isinstance(k, float)} == {0.0}


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


def test_one_owner_per_rule():
    """No import cycle worked round with TYPE_CHECKING (Transform is a model
    type that anomaly re-exports); the geometric category table is read by
    one helper alone, which labels and samplers share; and one function
    makes arrays read-only."""
    files = sorted(SRC.glob("*.py"))
    assert [path.name for path in files if "TYPE_CHECKING" in path.read_text(encoding="utf-8")] == []
    assert oddkit.Transform is oddkit.anomaly.Transform is oddkit.model.Transform
    readers = {path.name: _referrers(path, "_GEOMETRIC", loads_only=True) for path in files}
    assert {name: fns for name, fns in readers.items() if fns} == {"classify.py": {"geometric_categories"}}
    definitions = [
        path.name
        for path in files
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.FunctionDef) and node.name == "_read_only"
    ]
    assert definitions == ["model.py"]


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
    assert len(emitted) == 20
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


def test_every_parameter_is_read():
    """A parameter whose function body never reads it is a setting that
    changes no output. ``self`` and ``cls`` are exempt."""
    unread = []
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(_tree(path)):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = fn.args
            params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
            body = fn.body if isinstance(fn.body, list) else [fn.body]
            read = {node.id for stmt in body for node in ast.walk(stmt) if isinstance(node, ast.Name)}
            unread += [
                f"{path.name}:{getattr(fn, 'name', 'lambda')}:{a.arg}"
                for a in params
                if a is not None and a.arg not in read and a.arg not in ("self", "cls")
            ]
    assert unread == []


def test_tol_only_where_a_caller_sets_it():
    """Every other function decides with the one band DEFAULT_TOL: a ``tol``
    that no caller sets to another value is a setting that changes no
    output. These are the functions a monitor's declared band, coverage's
    widened band or a test's sweep of bands reaches."""
    with_tol = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                if "tol" in {a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)}:
                    with_tol.append(prefix + child.name)
            visit(child, prefix + child.name + "." if isinstance(child, ast.ClassDef) else prefix)

    for path in sorted(SRC.glob("*.py")):
        visit(_tree(path), f"{path.stem}.")
    assert sorted(with_tol) == [
        "analysis.propose_odd_update",
        "classify.NearIndex.__init__",
        "classify._grid_cells",
        "dsl.monitor_problem",
        "geometry._NodeGeometry.cell_grid",
        "geometry._cell_grid",
        "geometry._polygon_codes",
        "geometry._union_codes",
        "geometry.extreme_mask",
        "geometry.point_codes",
        "geometry.point_in_region",
        "geometry.region_containment",
        "model.Points.recall",
    ]


def _namers(path: Path, name: str) -> set[str]:
    """The scopes whose code names ``name`` as a variable, an attribute or a
    string: ``Class.method``, ``function`` or ``<module>``."""
    found = set()

    def visit(node: ast.AST, scope: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = node.name if scope == "<module>" else f"{scope}.{node.name}"
        elif name in (getattr(node, "id", None), getattr(node, "attr", None)) or (
            isinstance(node, ast.Constant) and node.value == name
        ):
            found.add(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(_tree(path), "<module>")
    return found


# Each one-point function (a module-level function with a parameter annotated
# DataPoint), why it stays, and the scopes that keep it: every other
# one-point decision is the one row of a batch call.
_ONE_POINT = {
    "geometry.coords": ("the one-point coordinate read", ["src/oddkit/geometry.py:point_in_region"]),
    "geometry.point_in_region": (
        "registry_polytope calls it per point",
        ["bench/workloads.py:RegistryPolytope.run_pass"],
    ),
    "geometry.distance_to_boundary": (
        "registry_polytope calls it per point",
        ["bench/workloads.py:RegistryPolytope.run_pass"],
    ),
    "anomaly.inject_inlier": ("stream_generate calls it per point", ["bench/workloads.py:StreamGenerate.run_pass"]),
    "anomaly.make_novelty": ("stream_generate calls it per point", ["bench/workloads.py:StreamGenerate.run_pass"]),
    "geometry.project": (
        "the benchmark's tracer wraps it; it goes once the tracer stops",
        ["bench/spans.py:<module>"],
    ),
    "geometry.params_at_extreme": (
        "the benchmark's tracer wraps it; it goes once the tracer stops",
        ["bench/spans.py:<module>"],
    ),
    "classify.registry_match": (
        "the benchmark's tracer wraps it; it goes once the tracer stops",
        ["bench/spans.py:instrument"],
    ),
}


def test_each_one_point_function_has_a_caller():
    """A function deciding one point is kept only for a caller that needs
    one point at a time; a test labels one point as a one-row batch."""
    one_point = set()
    for path in sorted(SRC.glob("*.py")):
        for fn in _tree(path).body:
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = [*fn.args.posonlyargs, *fn.args.args, *fn.args.kwonlyargs]
            if any(a.annotation is not None and ast.unparse(a.annotation) == "DataPoint" for a in args):
                one_point.add(f"{path.stem}.{fn.name}")
    assert one_point == set(_ONE_POINT)
    for qualified, (_, keepers) in _ONE_POINT.items():
        name = qualified.split(".")[1]
        for keeper in keepers:
            path, scope = keeper.split(":")
            assert scope in _namers(ROOT / path, name), (qualified, keeper)


def test_all_lists_the_package_imports():
    """``oddkit.__all__`` names each public name the package binds, modules
    aside, once; ``from oddkit import *`` finds every one of them."""
    assert len(oddkit.__all__) == len(set(oddkit.__all__))
    public = {
        name for name, value in vars(oddkit).items() if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(oddkit.__all__) == public
    namespace: dict[str, object] = {}
    exec("from oddkit import *", namespace)
    assert set(namespace) - {"__builtins__"} == public


def test_every_error_type_is_raised():
    """Each ``OddkitError`` subclass in ``errors.py`` is raised somewhere in ``src/``."""
    defined = {
        name for name, value in vars(oddkit.errors).items()
        if isinstance(value, type) and issubclass(value, oddkit.OddkitError) and value is not oddkit.OddkitError
    }
    raised = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(ast.unparse(exc).rsplit(".", 1)[-1])
    assert defined - raised == set()
