"""The batch containment engine against the per-point path it replaced.

``ref_*`` below are the per-row implementations of classify_point,
classify_kind, label_rows and coverage_report as they were before the batch
engine; each batch result must equal them label for label. Containment and
range extremes are further checked against the independent oracles.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

import oddkit
from oddkit import analysis, classify, geometry, monitors
from oddkit.classify import OUTCOD_CATEGORY, Category, Kind, PointLabel, _raw_mismatch
from oddkit.model import (
    DEFAULT_TOL,
    Containment,
    ConvexPolytope,
    DataPoint,
    Level,
    OddNode,
    Parameter,
    Polygon2D,
    PolytopeUnion,
    Variant,
)

import oracles

PROBES_PER_NODE = 100_000
MIXED_ROWS = 20_000


# -- reference: the per-row path ------------------------------------------------


def ref_classify_point(p, node, chain_ctx=None, tol=DEFAULT_TOL, declared_transform=None):
    containment = geometry.point_in_region(p, node, tol)
    inside = containment != Containment.OUTSIDE
    on_boundary = containment == Containment.ON_BOUNDARY
    annotations: dict[str, str] = {}

    if p.provenance_raw:
        transforms = declared_transform
        if transforms is None and chain_ctx is not None:
            transforms = chain_ctx.declared_transform
        if transforms is None:
            raise oddkit.MissingTransform("no transform")
        mismatched = _raw_mismatch(p, node, transforms, tol)
        if mismatched and inside:
            annotations["raw_mismatch"] = "|".join(mismatched)
            return PointLabel(Category("Inlier"), on_boundary, annotations)

    if (
        chain_ctx is not None
        and chain_ctx.extended is not None
        and chain_ctx.extended.extends == node.name
        and p.hidden_values
        and inside
    ):
        combined = DataPoint(p.combined_values())
        try:
            outside_extended = (
                geometry.point_in_region(combined, chain_ctx.extended, tol)
                == Containment.OUTSIDE
            )
        except oddkit.MissingParameter:
            outside_extended = False
        if outside_extended:
            annotations["hidden"] = "|".join(sorted(p.hidden_values))
            return PointLabel(Category("Novelty"), on_boundary, annotations)

    k = len(geometry.params_at_extreme(p, node, tol))
    if inside:
        label = "Nominal" if k == 0 else ("EdgeCase" if k == 1 else "FeasibleCornerCase")
    else:
        label = "InfeasibleCornerCase" if k >= 2 else "Outlier"
    return PointLabel(Category(label), on_boundary, annotations)


def ref_classify_kind(p, chain, tol=DEFAULT_TOL):
    inside_mlm = (
        geometry.point_in_region(geometry.project(p, chain.mlm), chain.mlm, tol)
        != Containment.OUTSIDE
    )
    if inside_mlm:
        in_sample = bool(p.in_sample) or classify.registry_match(p, chain, tol)
        return Kind.IN_SAMPLE if in_sample else Kind.OUT_OF_SAMPLE
    inside_mlc = (
        geometry.point_in_region(geometry.project(p, chain.mlc), chain.mlc, tol)
        != Containment.OUTSIDE
    )
    return Kind.OUT_OF_MLMODD if inside_mlc else Kind.OUT_OF_MLCODD


def ref_label_rows(points, chain, tol=DEFAULT_TOL):
    rows = []
    for i, p in enumerate(points):
        kind = ref_classify_kind(p, chain, tol)
        node = classify.category_node(kind, chain)
        label = ref_classify_point(p, node, chain, tol)
        annotations = dict(label.annotations)
        category = label.category.label
        if kind == Kind.OUT_OF_MLCODD:
            annotations["mlc_category"] = category
            if chain.system_od is not None:
                sod_label = ref_classify_point(
                    geometry.project(p, chain.system_od), chain.system_od, chain, tol
                )
                annotations["sod_category"] = sod_label.category.label
            category = OUTCOD_CATEGORY
        rows.append((i, kind, category, node.name, label.on_boundary, annotations))
    return rows


def ref_coverage_report(points, node, grid=(20, 20), tol=DEFAULT_TOL, vertex_tol=1e-3):
    counts: dict[str, int] = {}
    normalized = []
    for p in points:
        label = ref_classify_point(p, node, None, tol, declared_transform=())
        counts[label.category.label] = counts.get(label.category.label, 0) + 1
        normalized.append(geometry.normalize(geometry.coords(p, node), node))

    vertices = geometry.region_vertices(node)
    matched = 0
    for v in vertices:
        v_hat = geometry.normalize(geometry.coords(v, node), node)
        if any(max(abs(a - b) for a, b in zip(v_hat, x)) <= vertex_tol for x in normalized):
            matched += 1

    feasible = covered = 0
    for idx, param in enumerate(node.parameters):
        other = node.parameters[1 - idx]
        for bound in (param.lo, param.hi):
            probe = np.linspace(other.lo, other.hi, 65)
            probes = [DataPoint({param.name: bound, other.name: float(g)}) for g in probe]
            if not any(
                geometry.point_in_region(q, node, tol) != Containment.OUTSIDE for q in probes
            ):
                continue
            feasible += 1
            bound_hat = (bound - param.lo) / param.span
            if any(
                abs(x[idx] - bound_hat) <= vertex_tol
                for x, p in zip(normalized, points)
                if geometry.point_in_region(p, node, max(tol, vertex_tol)) != Containment.OUTSIDE
            ):
                covered += 1

    nx, ny = grid
    cells = {
        (min(int(x[0] * nx), nx - 1), min(int(x[1] * ny), ny - 1))
        for x in normalized
        if 0.0 <= x[0] <= 1.0 and 0.0 <= x[1] <= 1.0
    }
    interior = occupied = 0
    for i in range(nx):
        for j in range(ny):
            (p0, n0), (p1, n1) = zip(node.parameters, grid)
            center = DataPoint(
                {
                    p0.name: p0.lo + (i + 0.5) / n0 * p0.span,
                    p1.name: p1.lo + (j + 0.5) / n1 * p1.span,
                }
            )
            if geometry.point_in_region(center, node, tol) == Containment.OUTSIDE:
                continue
            interior += 1
            occupied += (i, j) in cells
    return (
        counts,
        matched / len(vertices) if vertices else 0.0,
        covered / feasible if feasible else 0.0,
        occupied / interior if interior else 0.0,
    )


def outcome(fn, *args, **kwargs):
    """The value, or the exception type, of a call."""
    try:
        return fn(*args, **kwargs)
    except oddkit.OddkitError as exc:
        return type(exc)


def label_tuple(label: PointLabel):
    return (label.category.label, label.on_boundary, label.annotations)


def row_tuples(rows):
    """label_rows output in ref_label_rows' form, annotations included."""
    return [(r.row, r.kind, r.category, r.node, r.on_boundary, r.annotations) for r in rows]


# -- probe points: uniform, vertices, edges, faces, range extremes --------------


def _vertices(node) -> np.ndarray:
    if isinstance(node.region, Polygon2D):
        return np.array(node.region.vertices, dtype=float)
    return np.array([v for m in node.region.members for v in m.vertices], dtype=float)


def _boundary_pieces(node) -> tuple[list[tuple], list[np.ndarray]]:
    """Edges (vertex pairs) and faces (vertex sets) of the region's boundary."""
    region = node.region
    if isinstance(region, Polygon2D):
        v = np.array(region.vertices, dtype=float)
        edges = [(v[i], v[(i + 1) % len(v)]) for i in range(len(v))]
        return edges, [np.array(e) for e in edges]
    d = len(node.parameters)
    edges, faces = [], []
    for member in region.members:
        verts = np.array(member.vertices, dtype=float)
        tight = [
            {
                k
                for k, (a, b) in enumerate(member.halfspaces)
                if abs(np.dot(a, v) - b) <= 1e-9 * (1 + abs(b))
            }
            for v in verts
        ]
        for i, j in itertools.combinations(range(len(verts)), 2):
            if len(tight[i] & tight[j]) >= d - 1:
                edges.append((verts[i], verts[j]))
        for k in range(len(member.halfspaces)):
            faces.append(verts[[i for i in range(len(verts)) if k in tight[i]]])
    return edges, faces


def probe_points(node, seed: int, n: int = PROBES_PER_NODE) -> np.ndarray:
    """Seeded points: 60% uniform over the 20%-inflated box, 10% each snapped to
    vertices, edges, faces and range extremes (one axis, or every axis to a box
    corner), jittered by 0, 0.5, 0.95, 1.05 or 2 tol of each span."""
    rng = np.random.default_rng(seed)
    d = len(node.parameters)
    lo = np.array([p.lo for p in node.parameters])
    hi = np.array([p.hi for p in node.parameters])
    span = np.array([p.span for p in node.parameters])
    X = rng.uniform(lo - 0.2 * span, hi + 0.2 * span, size=(n, d))
    k = n // 10
    at_vertex, on_edge, on_face, at_extreme = (np.arange(i * k, (i + 1) * k) for i in range(4))

    verts = _vertices(node)
    X[at_vertex] = verts[rng.integers(len(verts), size=k)]
    edges, faces = _boundary_pieces(node)
    pick = rng.integers(len(edges), size=k)
    a = np.array([edges[e][0] for e in pick])
    b = np.array([edges[e][1] for e in pick])
    X[on_edge] = a + rng.uniform(size=(k, 1)) * (b - a)
    for r, f in zip(on_face, rng.integers(len(faces), size=k)):
        X[r] = rng.dirichlet(np.ones(len(faces[f]))) @ faces[f]
    axis = rng.integers(d, size=k)
    X[at_extreme, axis] = np.where(rng.integers(2, size=k) == 1, hi[axis], lo[axis])
    corners = at_extreme[::2]  # every axis at a bound
    X[corners] = np.where(rng.integers(2, size=(len(corners), d)) == 1, hi, lo)

    jitter = rng.choice([0.0, 0.0, 0.5, -0.5, 0.95, -0.95, 1.05, -1.05, 2.0, -2.0], size=(4 * k, d))
    X[: 4 * k] += jitter * DEFAULT_TOL * span
    return X


def corpus_nodes(base_doc, extended_doc, name):
    """The distinct nodes of that name over both corpus specs."""
    return {n for doc in (base_doc, extended_doc) for n in doc.nodes if n.name == name}


NODE_NAMES = ("SOD", "MLCODD_oper", "MLCODD_spec", "MLMODD", "MLMODD_ext")


@pytest.mark.parametrize("name", NODE_NAMES)
def test_region_containment_and_extremes_agree(base_doc, extended_doc, name):
    nodes = corpus_nodes(base_doc, extended_doc, name)
    assert nodes
    for node in nodes:
        names = node.parameter_names
        X = probe_points(node, seed=NODE_NAMES.index(name))
        rows = X.tolist()
        points = [DataPoint(dict(zip(names, row))) for row in rows]
        assert np.array_equal(geometry.coords_array(points, node), X)
        verdicts = [geometry.CONTAINMENT[c] for c in geometry.region_containment(X, node).tolist()]
        reported = [
            {n for n, f in zip(names, flags) if f}
            for flags in geometry.extreme_mask(X, node).tolist()
        ]
        assert set(verdicts) == set(Containment)
        assert sum(map(bool, reported)) >= PROBES_PER_NODE // 10

        scalar = [geometry.point_in_region(p, node) for p in points]
        scalar_extremes = [geometry.params_at_extreme(p, node) for p in points]
        bands = [(prm.lo, prm.hi, DEFAULT_TOL * prm.span) for prm in node.parameters]
        oracle_extremes = [
            {n for n, v, band in zip(names, row, bands) if oracles.at_range_bound(v, *band)}
            for row in rows
        ]
        if isinstance(node.region, Polygon2D):
            oracle_inside = [oracles.polygon_contains(row, node.region.vertices) for row in rows]
        else:
            oracle_inside = [oracles.union_contains(row, node.region.members) for row in rows]

        disagreements = [
            (i, check)
            for i in range(len(rows))
            for check, agrees in (
                ("point_in_region", verdicts[i] == scalar[i]),
                ("params_at_extreme", reported[i] == scalar_extremes[i]),
                ("range-bound oracle", reported[i] == oracle_extremes[i]),
                # the tolerance band is excluded from the containment oracle by design
                ("containment oracle", verdicts[i] == Containment.ON_BOUNDARY
                 or (verdicts[i] == Containment.INSIDE) == oracle_inside[i]),
            )
            if not agrees
        ]
        assert not disagreements, disagreements[:10]


def test_array_engine_chunks_and_empty_input(chain):
    X = probe_points(chain.mlm, seed=11, n=3 * geometry._CHUNK_ROWS + 5)
    whole = geometry.region_containment(X, chain.mlm)
    rows = [geometry.region_containment(X[i : i + 1], chain.mlm)[0] for i in range(0, len(X), 97)]
    assert whole[::97].tolist() == rows
    empty = geometry.coords_array([], chain.mlm)
    assert empty.shape == (0, 2)
    assert geometry.region_containment(empty, chain.mlm).shape == (0,)
    assert geometry.extreme_mask(empty, chain.mlm).shape == (0, 2)
    with pytest.raises(ValueError):
        geometry.region_containment(X, chain.mlm, tol=0.0)


def test_boundary_distance_ties_decided_as_the_scalar_path():
    """A point whose distance to the boundary is tol by math.hypot but one bit
    more by np.hypot still lies on the boundary."""
    rng = np.random.default_rng(5)
    a, b = rng.uniform(1e-10, 1e-9, size=(2, 20_000))
    exact = np.array([math.hypot(x, y) for x, y in zip(a.tolist(), b.tolist())])
    i = int(np.flatnonzero(np.hypot(a, b) > exact)[0])
    unit = (Parameter("X", "-", 0.0, 1.0), Parameter("Y", "-", 0.0, 1.0))
    square = OddNode("square", Level.MLM_ODD, unit, Polygon2D(((0, 0), (1, 0), (1, 1), (0, 1))))
    p = DataPoint({"X": -a[i], "Y": -b[i]})  # beyond the corner: both edges end there
    tol = exact[i]
    assert geometry.point_in_region(p, square, tol) == Containment.ON_BOUNDARY
    X = geometry.coords_array([p], square)
    assert geometry.region_containment(X, square, tol).tolist() == [geometry.ON_BOUNDARY]


# -- a mixed dataset with raw:, hidden: and in_sample columns ---------------------


def mixed_dataset(extended_doc, n: int = MIXED_ROWS, seed: int = 3) -> list[DataPoint]:
    """80% uniform over the 20%-inflated MLC box, 20% on the boundary pieces of
    MLMODD, MLCODD_spec and SOD; 5% carry raw:Alt (half of them corrupted), 5%
    hidden:Temp (half outside the extension), 10% in_sample=1, 10% in_sample=0."""
    rng = np.random.default_rng(seed)
    mlc = extended_doc.node("MLCODD_spec")
    lo = np.array([p.lo for p in mlc.parameters])
    span = np.array([p.span for p in mlc.parameters])
    X = rng.uniform(lo - 0.2 * span, lo + 1.2 * span, size=(n, 2))
    snapped = [
        probe_points(extended_doc.node(name), seed=s, n=n)
        for s, name in enumerate(("MLMODD", "MLCODD_spec", "SOD"))
    ]
    take = rng.choice(n, size=n // 5, replace=False)
    source = rng.integers(3, size=len(take))
    for r, src in zip(take, source):
        X[r] = snapped[src][rng.integers(4 * (n // 10))]

    lines = ["Mach,Alt,raw:Alt,hidden:Temp,in_sample"]
    for mach, alt in X.tolist():
        raw = hidden = ""
        u = rng.uniform()
        if u < 0.05:
            raw = repr(alt * 1.25) if rng.uniform() < 0.5 else repr(alt)
        elif u < 0.10:
            inside = rng.uniform() < 0.5
            hidden = repr(float(rng.uniform(-60, 15) if inside else rng.choice([-90.0, 40.0])))
        v = rng.uniform()
        flag = "1" if v < 0.1 else ("0" if v < 0.2 else "")
        lines.append(f"{mach!r},{alt!r},{raw},{hidden},{flag}")
    ds = oddkit.parse_dataset("\n".join(lines) + "\n", extended_doc.node("MLMODD"))
    assert ds.ok and len(ds.points) == n
    return ds.points


@pytest.fixture(scope="module")
def mixed(extended_doc):
    return mixed_dataset(extended_doc)


def test_label_rows_agree_label_for_label(mixed, chain):
    got = row_tuples(oddkit.label_rows(mixed, chain))
    want = ref_label_rows(mixed, chain)
    disagreements = [i for i, (g, w) in enumerate(zip(got, want)) if g != w]
    assert len(got) == len(want) and not disagreements, disagreements[:10]
    assert {kind for _, kind, *_ in got} == set(Kind)
    categories = {notes.get("mlc_category", category) for _, _, category, _, _, notes in got}
    assert categories == set(oddkit.CATEGORY_LABELS)


def test_label_rows_agree_with_a_sample_registry(mixed, extended_doc):
    points = mixed[:2000]
    registry = tuple(
        DataPoint({"Mach": p.values["Mach"] + 1e-12, "Alt": p.values["Alt"]}) for p in points[::7]
    )
    chain = oddkit.build_chain(extended_doc, sample_registry=registry)
    got = row_tuples(oddkit.label_rows(points, chain))
    assert got == ref_label_rows(points, chain)
    assert sum(r[1] == Kind.IN_SAMPLE for r in got) > len(registry) // 2


@pytest.mark.parametrize(
    "node_name, use_chain, declared",
    [
        ("MLMODD", True, None),
        ("MLCODD_spec", True, None),
        ("SOD", True, None),
        ("MLMODD", False, ()),
        ("MLMODD", False, (oddkit.Transform("scale", "Alt", factor=0.8),)),
        ("MLCODD_oper", False, (oddkit.Transform("offset", "Alt", offset=1.0),)),
    ],
)
def test_classify_points_agree_label_for_label(
    mixed, extended_doc, chain, node_name, use_chain, declared
):
    node = extended_doc.node(node_name)
    ctx = chain if use_chain else None
    labels = oddkit.classify_points(mixed, node, ctx, declared_transform=declared)
    got = [label_tuple(label) for label in labels]
    want = [label_tuple(ref_classify_point(p, node, ctx, DEFAULT_TOL, declared)) for p in mixed]
    disagreements = [i for i, (g, w) in enumerate(zip(got, want)) if g != w]
    assert len(got) == len(want) and not disagreements, disagreements[:10]


@pytest.mark.parametrize("node_name", ["MLMODD", "SOD"])
def test_coverage_report_agrees(mixed, extended_doc, node_name):
    node = extended_doc.node(node_name)
    points = mixed[:5000]
    got = analysis.coverage_report(points, node)
    counts, vertex, edge, interior = ref_coverage_report(points, node)
    assert got.counts == counts
    assert got.vertex_coverage == vertex
    assert got.edge_coverage == edge
    assert got.interior_grid_coverage == interior


def test_monitor_oracle_categories_agree(mixed, extended_doc, chain):
    decl = next(m for m in extended_doc.monitor_chains if m.name == "baseline")
    mons = monitors.build_monitors(decl.monitors, extended_doc)
    stub = monitors.build_stub(decl.stub, chain.mlm)
    points = mixed[:3000]
    got = oddkit.run_monitor_chain(points, chain, mons, stub)
    oracle = [ref_classify_point(p, chain.mlm, chain).category.label for p in points]
    want = oddkit.run_monitor_chain(points, chain, mons, stub, oracle_categories=oracle)
    assert got.metrics == want.metrics


# -- errors are raised as the per-row path raises them ----------------------------


def test_raw_provenance_without_transform_raises(extended_doc):
    mlm = extended_doc.node("MLMODD")
    raw = DataPoint({"Mach": 0.35, "Alt": 2000}, provenance_raw={"Alt": 20000})
    plain = DataPoint({"Mach": 0.1, "Alt": 100})
    lacking = DataPoint({"Mach": 0.1})
    for batch in ([raw], [plain, raw], [raw, lacking], [lacking, raw], [plain, lacking]):
        want = [outcome(ref_classify_point, p, mlm) for p in batch]
        first_error = next((w for w in want if isinstance(w, type)), None)
        got = outcome(oddkit.classify_points, batch, mlm)
        if first_error is None:
            assert [label_tuple(g) for g in got] == [label_tuple(w) for w in want]
        else:
            assert got is first_error, (batch, got, first_error)
    with pytest.raises(oddkit.MissingTransform):
        oddkit.classify_points([plain, raw], mlm)


def _box_node(name, level, params, variant=Variant.AS_SPECIFIED, allocates=None):
    d = len(params)
    halfspaces, vertices = [], []
    for j, p in enumerate(params):
        e = tuple(1.0 if k == j else 0.0 for k in range(d))
        halfspaces.append((e, p.hi))
        halfspaces.append((tuple(-v for v in e), -p.lo))
    for corner in itertools.product(*[(p.lo, p.hi) for p in params]):
        vertices.append(corner)
    region = PolytopeUnion((ConvexPolytope(tuple(halfspaces), tuple(vertices)),))
    return OddNode(name, level, tuple(params), region, variant=variant, allocates=allocates)


def test_parameters_only_mlc_or_sod_declare(extended_doc):
    """Rows inside the MLM never reach the MLC or SOD, so they need not carry
    parameters only those declare; rows that do reach them must."""
    mlm = extended_doc.node("MLMODD")
    mach, alt = mlm.parameters
    wind = Parameter("Wind", "kt", 0.0, 40.0)
    wide_mach = Parameter("Mach", "mach", 0.0, 0.7)
    mlc = _box_node("MLC3", Level.MLC_ODD, [mach, alt, wind])
    sod = _box_node("SOD3", Level.SYSTEM_OD, [wide_mach, alt, wind])
    chain = oddkit.Chain(mlm=mlm, mlc=mlc, system_od=sod)

    inside_mlm = [DataPoint({"Mach": 0.2, "Alt": 5000}), DataPoint({"Mach": 0.0, "Alt": 0.0})]
    rows = oddkit.label_rows(inside_mlm, chain)
    assert [(r.kind, r.category) for r in rows] == [
        (Kind.OUT_OF_SAMPLE, "Nominal"), (Kind.OUT_OF_SAMPLE, "FeasibleCornerCase")
    ]
    assert oddkit.classify_kind(inside_mlm[0], chain) == Kind.OUT_OF_SAMPLE

    reaching = [
        DataPoint({"Mach": 0.3, "Alt": 14900, "Wind": 10.0}),  # outside MLM, inside MLC
        DataPoint({"Mach": 0.6, "Alt": 5000, "Wind": 10.0}),  # OutCOD, inside SOD
        DataPoint({"Mach": 0.2, "Alt": 5000, "Wind": 50.0}),  # inside MLM
    ]
    got = row_tuples(oddkit.label_rows(inside_mlm + reaching, chain))
    assert got == ref_label_rows(inside_mlm + reaching, chain)
    assert got[3][1:3] == (Kind.OUT_OF_MLCODD, OUTCOD_CATEGORY)

    lacking = DataPoint({"Mach": 0.6, "Alt": 5000})  # outside MLM: the MLC needs Wind
    assert outcome(ref_label_rows, [*inside_mlm, lacking], chain) is oddkit.MissingParameter
    with pytest.raises(oddkit.MissingParameter):
        oddkit.label_rows([*inside_mlm, lacking], chain)
    with pytest.raises(oddkit.MissingParameter):
        oddkit.verify_set_algebra(inside_mlm, chain)  # the audit checks every row against the MLC


def test_hidden_values_not_covering_the_extension_are_not_novelty(extended_doc, chain):
    mlm = extended_doc.node("MLMODD")
    points = [
        DataPoint({"Mach": 0.3, "Alt": 14000}, hidden_values={"Wind": 99.0}),
        DataPoint({"Mach": 0.3, "Alt": 14000}, hidden_values={"Temp": 99.0}),
        DataPoint({"Mach": 0.3, "Alt": 14000}, hidden_values={"Temp": 0.0}),
    ]
    got = [label_tuple(lb) for lb in oddkit.classify_points(points, mlm, chain)]
    assert got == [label_tuple(ref_classify_point(p, mlm, chain)) for p in points]
    assert [g[0] for g in got] == ["Nominal", "Novelty", "Nominal"]
