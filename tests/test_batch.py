"""The batch containment engine against the per-point path it replaced.

``ref_*`` below are the per-row implementations of params_at_extreme,
classify_point, classify_kind, label_rows and coverage_report as they were
before the batch engine, the linear registry scan the grid-hash matcher
replaced, the per-row monitor loop the detection matrix replaced, and the
per-row categorisation (``ref_categorize``) the category codes replaced; each
batch result must equal them label for label. ``ref_coverage_report`` decides
which bound slices a polygon reaches edge by edge (``ref_slice_reached``). Containment and range extremes
are further checked against the independent oracles.
"""

from __future__ import annotations

import copy
import dataclasses
import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oddkit
from oddkit import analysis, classify, dsl, geometry, monitors
from oddkit.classify import CATEGORY_LABELS, OUTCOD_CATEGORY, Kind, LabelRow
from oddkit.model import (
    DEFAULT_TOL,
    Containment,
    ConvexPolytope,
    DataPoint,
    Level,
    OddNode,
    Parameter,
    Points,
    Polygon2D,
    PolytopeUnion,
    Variant,
)

import oracles

PROBES_PER_NODE = 100_000
MIXED_ROWS = 20_000


# -- reference: the per-row path ------------------------------------------------


def ref_params_at_extreme(p, node, tol=DEFAULT_TOL):
    x = geometry.coords(p, node)
    out = set()
    for v, param in zip(x, node.parameters):
        band = tol * param.span
        if min(abs(v - param.lo), abs(v - param.hi)) <= band:
            out.add(param.name)
    return out


def ref_raw_mismatch(p, node, transforms, tol):
    """Parameters whose declared-transform-of-raw disagrees with the recorded value."""
    expected = functools.reduce(lambda values, t: t.apply(values), transforms, dict(p.provenance_raw or {}))
    mismatched = []
    for name, exp in expected.items():
        if name not in p.values:
            continue
        try:
            span = node.parameter(name).span
        except KeyError:
            span = 1.0
        if abs(exp - p.values[name]) > tol * span:
            mismatched.append(name)
    return sorted(mismatched)


def ref_classify_point(p, node, chain_ctx=None, tol=DEFAULT_TOL, declared_transform=None):
    """(category, on_boundary, annotations) of one point."""
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
        mismatched = ref_raw_mismatch(p, node, transforms, tol)
        if mismatched and inside:
            annotations["raw_mismatch"] = "|".join(mismatched)
            return ("Inlier", on_boundary, annotations)

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
            return ("Novelty", on_boundary, annotations)

    k = len(ref_params_at_extreme(p, node, tol))
    if inside:
        label = "Nominal" if k == 0 else ("EdgeCase" if k == 1 else "FeasibleCornerCase")
    else:
        label = "InfeasibleCornerCase" if k >= 2 else "Outlier"
    return (label, on_boundary, annotations)


def ref_registry_match(p, chain, tol=DEFAULT_TOL):
    """Scan the whole registry; a non-finite coordinate, in ``p`` or in an
    entry, matches nothing, and entries lacking a parameter are skipped."""
    x = geometry._geometry(chain.mlm).normalize(geometry.coords(p, chain.mlm))
    if not all(map(math.isfinite, x)):
        return False
    for r in chain.sample_registry:
        try:
            y = geometry._geometry(chain.mlm).normalize(geometry.coords(r, chain.mlm))
        except oddkit.MissingParameter:
            continue
        if all(map(math.isfinite, y)) and max(abs(a - b) for a, b in zip(x, y)) <= tol:
            return True
    return False


def ref_classify_kind(p, chain, tol=DEFAULT_TOL):
    inside_mlm = (
        geometry.point_in_region(geometry.project(p, chain.mlm), chain.mlm, tol)
        != Containment.OUTSIDE
    )
    if inside_mlm:
        in_sample = bool(p.in_sample) or ref_registry_match(p, chain, tol)
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
        category, on_boundary, annotations = ref_classify_point(p, node, chain, tol)
        annotations = dict(annotations)
        if kind == Kind.OUT_OF_MLCODD:
            annotations["mlc_category"] = category
            if chain.system_od is not None:
                annotations["sod_category"] = ref_classify_point(
                    geometry.project(p, chain.system_od), chain.system_od, chain, tol
                )[0]
            category = OUTCOD_CATEGORY
        rows.append((i, kind, category, node.name, on_boundary, annotations))
    return rows


def ref_stub_evaluate(stub, p):
    """StubModel.evaluate as it was."""
    x = geometry.coords(p, stub.node)
    c0, c1, c2, c12 = stub.coefficients
    out = c0 + c1 * x[0] + c2 * x[1] + c12 * x[0] * x[1]
    if not math.isfinite(out):
        raise oddkit.StubEvaluationError(f"stub produced non-finite output at {p.values}")
    return float(out)


def ref_detect(monitor, p, chain, stub_output):
    """Monitor.detect for one point as it was, except that a known input or a
    point with a non-finite coordinate matches nothing (the scan's max()
    depended on which coordinate held a NaN), and that a range monitor
    decides with its own tol (it used the engine's default band)."""
    if monitor.kind == "range_monitor":
        return (
            geometry.point_in_region(geometry.project(p, monitor.node), monitor.node, monitor.tol)
            == Containment.OUTSIDE
        )
    if monitor.kind == "extreme_value_monitor":
        return bool(ref_params_at_extreme(geometry.project(p, monitor.node), monitor.node, monitor.tol))
    if monitor.kind == "known_input_monitor":
        node = monitor.node or chain.mlm
        x = geometry._geometry(node).normalize(geometry.coords(p, node))
        for known in monitor.known_inputs:
            y = geometry._geometry(node).normalize(geometry.coords(known, node))
            if not all(map(math.isfinite, x + y)):
                continue
            if max(abs(a - b) for a, b in zip(x, y)) <= monitor.tol:
                return True
        return False
    if monitor.kind == "cross_check_monitor":
        if not p.provenance_raw:
            return False
        node = monitor.node or chain.mlm
        names = [monitor.param] if monitor.param else sorted(p.provenance_raw)
        for name in names:
            if name not in p.provenance_raw or name not in p.values:
                continue
            try:
                span = node.parameter(name).span
            except KeyError:
                span = 1.0
            if abs(p.values[name] - p.provenance_raw[name]) / span > monitor.threshold:
                return True
        return False
    if stub_output is None:
        return False
    return not (monitor.lo <= stub_output <= monitor.hi)


def ref_run_monitor_chain(points, chain, chain_monitors, stub, seed=0):
    """run_monitor_chain's per-row loop as it was: the verdicts and the metrics."""
    oracle_categories = [label.category for label in oddkit.classify_points(points, chain.mlm, chain)]
    verdicts = []
    failover_latched = False
    for i, p in enumerate(points):
        if failover_latched:
            verdicts.append(monitors.MonitorVerdict(i, [], "mitigated", "failover", None, latched=True))
            continue
        decisions = []
        disposition = "processed_by_mlm"
        action = None
        stub_output = None
        for monitor in chain_monitors:
            if not monitor.input_side and stub_output is None:
                stub_output = ref_stub_evaluate(stub, p)
            detected = ref_detect(monitor, p, chain, stub_output)
            decisions.append(
                monitors.MonitorDecision(monitor.kind, detected, monitor.action if detected else None)
            )
            if detected:
                disposition = "mitigated"
                action = monitor.action
                if monitor.action == "failover":
                    failover_latched = True
                break
        if disposition == "processed_by_mlm" and stub_output is None:
            stub_output = ref_stub_evaluate(stub, p)
        verdicts.append(monitors.MonitorVerdict(i, decisions, disposition, action, stub_output))

    metrics = {"points": float(len(points)), "seed": float(seed)}
    per_cat_total: dict[str, int] = {}
    per_cat_detected: dict[str, int] = {}
    latched_count = 0
    for v, cat in zip(verdicts, oracle_categories):
        if v.latched:
            latched_count += 1
            continue
        per_cat_total[cat] = per_cat_total.get(cat, 0) + 1
        if any(d.detected for d in v.decisions):
            per_cat_detected[cat] = per_cat_detected.get(cat, 0) + 1
    for cat, total in sorted(per_cat_total.items()):
        metrics[f"detection_rate_{cat}"] = per_cat_detected.get(cat, 0) / total
    metrics["false_alarm_rate_nominal"] = (
        per_cat_detected.get("Nominal", 0) / per_cat_total["Nominal"]
        if per_cat_total.get("Nominal")
        else 0.0
    )
    metrics["failover_latched_points"] = float(latched_count)
    return verdicts, metrics


def ref_slice_reached(vertices, idx, bound_hat, tol):
    """Whether the normalized polygon comes within ``tol`` of the bound slice
    x[idx] = bound_hat, 0 <= x[other] <= 1, decided edge by edge: an edge
    crossing the slice, or an endpoint of one within ``tol`` of the other."""
    s0, s1 = [bound_hat, bound_hat], [bound_hat, bound_hat]
    s0[1 - idx], s1[1 - idx] = 0.0, 1.0

    def orient(p, q, r):
        v = (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
        return (v > 0) - (v < 0)

    for a, b in zip(vertices, vertices[1:] + vertices[:1]):
        if orient(a, b, s0) * orient(a, b, s1) < 0 and orient(s0, s1, a) * orient(s0, s1, b) < 0:
            return True
        ends = (oracles._segment_distance(a, s0, s1), oracles._segment_distance(b, s0, s1),
                oracles._segment_distance(s0, a, b), oracles._segment_distance(s1, a, b))
        if min(ends) <= tol:
            return True
    return False


def ref_coverage_report(points, node, grid=(20, 20), tol=DEFAULT_TOL, vertex_tol=1e-3):
    counts: dict[str, int] = {}
    normalized = []
    for p in points:
        category = ref_classify_point(p, node, None, tol, declared_transform=())[0]
        counts[category] = counts.get(category, 0) + 1
        normalized.append(geometry._geometry(node).normalize(geometry.coords(p, node)))

    assert isinstance(node.region, Polygon2D), "the reference reads a polygon's edges"
    vertices = [geometry._geometry(node).normalize(v) for v in node.region.vertices]
    matched = 0
    for v_hat in vertices:
        if any(max(abs(a - b) for a, b in zip(v_hat, x)) <= vertex_tol for x in normalized):
            matched += 1

    feasible = covered = 0
    for idx, param in enumerate(node.parameters):
        for bound in (param.lo, param.hi):
            bound_hat = (bound - param.lo) / param.span
            if not ref_slice_reached(vertices, idx, bound_hat, tol):
                continue
            feasible += 1
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


def ref_categorize(points, node, X, codes, chain_ctx, tol, transforms):
    """classify._categorize as it was, deciding row by row: a list of
    (category, on_boundary, annotations)."""
    inside = (codes != geometry.OUTSIDE).tolist()
    on_boundary = (codes == geometry.ON_BOUNDARY).tolist()
    decided = {}
    for i, p in enumerate(points):
        if p.provenance_raw and inside[i]:
            mismatched = ref_raw_mismatch(p, node, transforms, tol)
            if mismatched:
                decided[i] = ("Inlier", {"raw_mismatch": "|".join(mismatched)})

    ext = chain_ctx.extended if chain_ctx is not None else None
    if ext is not None and ext.extends == node.name:
        hidden = [
            i for i, p in enumerate(points) if p.hidden_values and inside[i] and i not in decided
        ]
        novel = classify._outside_extension(Points.of([points[i] for i in hidden]), ext)
        for i, outside in zip(hidden, novel):
            if outside:
                decided[i] = ("Novelty", {"hidden": "|".join(sorted(points[i].hidden_values))})

    extremes = geometry.extreme_mask(X, node, tol).sum(axis=1).tolist()
    labels = []
    for i in range(len(points)):
        if i in decided:
            label, annotations = decided[i]
        elif inside[i]:
            k = extremes[i]
            label, annotations = ("Nominal", "EdgeCase", "FeasibleCornerCase")[min(k, 2)], {}
        else:
            label, annotations = ("InfeasibleCornerCase" if extremes[i] >= 2 else "Outlier"), {}
        labels.append((label, on_boundary[i], annotations))
    return labels


def ref_categories(points, node, chain_ctx, tol=DEFAULT_TOL, transforms=()):
    """ref_categorize of every point against ``node``."""
    X = geometry.coords_array(points, node)
    return ref_categorize(points, node, X, geometry.region_containment(X, node, tol), chain_ctx, tol, transforms)


def ref_label_rows_by_node(points, chain, tol=DEFAULT_TOL):
    """label_rows as it was before category codes: ref_categorize per node,
    and the OutCOD rows projected on the SOD; in ref_label_rows' form."""
    kinds = [ref_classify_kind(p, chain, tol) for p in points]
    labels = [None] * len(points)
    for node in (chain.mlm, chain.mlc):
        rows = [i for i, kind in enumerate(kinds) if classify.category_node(kind, chain) is node]
        batch = [points[i] for i in rows]
        for i, label in zip(rows, ref_categories(batch, node, chain, tol, chain.declared_transform)):
            labels[i] = label
    out_cod = [i for i, kind in enumerate(kinds) if kind == Kind.OUT_OF_MLCODD]
    projected = [geometry.project(points[i], chain.system_od) for i in out_cod]
    sod = ref_categories(projected, chain.system_od, chain, tol, chain.declared_transform)
    sod_categories = {i: label for i, (label, _, _) in zip(out_cod, sod)}
    rows = []
    for i, (kind, (category, on_boundary, annotations)) in enumerate(zip(kinds, labels)):
        if kind == Kind.OUT_OF_MLCODD:
            annotations["mlc_category"] = category
            annotations["sod_category"] = sod_categories[i]
            category = OUTCOD_CATEGORY
        rows.append((i, kind, category, classify.category_node(kind, chain).name, on_boundary, annotations))
    return rows


def outcome(fn, *args, **kwargs):
    """The value, or the exception type, of a call."""
    try:
        return fn(*args, **kwargs)
    except oddkit.OddkitError as exc:
        return type(exc)


def label_tuple(label: LabelRow):
    """A classify_points label in ref_classify_point's form."""
    return (label.category, label.on_boundary, label.annotations)


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
        scalar_extremes = [ref_params_at_extreme(p, node) for p in points]
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
        one_row = [geometry.params_at_extreme(p, node) for p in points[::100]]
        assert one_row == scalar_extremes[::100]


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
    want = ref_label_rows(points, chain)
    assert got == want
    assert sum(r[1] == Kind.IN_SAMPLE for r in got) > len(registry) // 2

    # the audit decides training membership with the same matcher: swapping
    # InS and OutS on every third MLM row breaks exactly those rows
    kinds = [kind for _, kind, *_ in want]
    assert oddkit.verify_set_algebra(points, chain).holds
    assert oddkit.verify_set_algebra(points, chain, labels=kinds).holds
    swap = {Kind.IN_SAMPLE: Kind.OUT_OF_SAMPLE, Kind.OUT_OF_SAMPLE: Kind.IN_SAMPLE}
    swapped = [i for i, kind in enumerate(kinds) if kind in swap][::3]
    for i in swapped:
        kinds[i] = swap[kinds[i]]
    report = oddkit.verify_set_algebra(points, chain, labels=kinds)
    assert report.violations == [(i, "InS ∩ OutS = ∅") for i in swapped]
    assert {kinds[i] for i in swapped} == set(swap)


# -- the grid-hash registry matcher against the linear scan -----------------------

TOL_STEPS = (0.0, 1.0, -1.0, 1 + 1e-6, -(1 + 1e-6), 1 - 1e-6, -(1 - 1e-6), 0.5, -2.0)


def registry_case(node, seed: int, n: int = 200):
    """A registry and queries around it, in raw coordinates.

    Registry: the box's lower corner, n entries uniform over the box, n/4 with
    normalised coordinates on multiples of the 2·tol grid-cell edge, n/10
    duplicates, and n/10 entries lacking one parameter. Queries: the corner
    moved by -tol, 0 or +tol of each span in every combination (on a unit box
    these lie exactly tol away); every other complete entry moved by 0, ±tol,
    ±tol·(1 ± 1e-6), ±tol/2 or -2·tol of each span, a step drawn per axis; the
    entries lacking a parameter, completed; n uniform points.
    """
    rng = np.random.default_rng(seed)
    names = node.parameter_names
    d = len(names)
    lo = np.array([p.lo for p in node.parameters])
    span = np.array([p.span for p in node.parameters])
    uniform = lo + rng.uniform(size=(n, d)) * span
    cell = 2 * DEFAULT_TOL
    on_edges = lo + rng.integers(0, int(1 / cell), size=(n // 4, d)) * cell * span
    entries = np.vstack([lo, uniform, on_edges, uniform[: n // 10]])
    lacking = lo + rng.uniform(size=(n // 10, d)) * span
    registry = [DataPoint(dict(zip(names, row))) for row in entries.tolist()]
    for row, drop in zip(lacking.tolist(), rng.integers(d, size=len(lacking)).tolist()):
        registry.append(DataPoint({k: v for j, (k, v) in enumerate(zip(names, row)) if j != drop}))
    corner = lo + np.array(list(itertools.product((-1, 0, 1), repeat=d))) * DEFAULT_TOL * span
    steps = rng.choice(TOL_STEPS, size=(len(entries) - 1, d))
    moved = entries[1:] + steps * DEFAULT_TOL * span
    queries = np.vstack([corner, moved, lacking, lo + rng.uniform(size=(n, d)) * span])
    rng.shuffle(registry)
    return tuple(registry), [DataPoint(dict(zip(names, row))) for row in queries.tolist()]


def _unit_box_chain(d: int, registry) -> classify.Chain:
    unit = [Parameter(f"P{j}", "-", 0.0, 1.0) for j in range(d)]
    wide = [Parameter(f"P{j}", "-", -1.0, 2.0) for j in range(d)]
    return oddkit.Chain(
        mlm=_box_node("MLM3", Level.MLM_ODD, unit),
        mlc=_box_node("MLC3", Level.MLC_ODD, wide),
        sample_registry=registry,
    )


@pytest.mark.parametrize("node_name", ["MLMODD", "unit box, 3 parameters"])
def test_registry_matches_agree_with_the_scan(extended_doc, node_name):
    if node_name == "MLMODD":
        mlm = extended_doc.node("MLMODD")
        registry, queries = registry_case(mlm, seed=31)
        chain = oddkit.build_chain(extended_doc, sample_registry=registry)
    else:
        registry, queries = registry_case(_unit_box_chain(3, ()).mlm, seed=32)
        chain = _unit_box_chain(3, registry)
    X = geometry.coords_array(queries, chain.mlm)
    got = classify.registry_matches(X, chain).tolist()
    want = [ref_registry_match(p, chain) for p in queries]
    disagreements = [i for i, (g, w) in enumerate(zip(got, want)) if g != w]
    assert not disagreements, disagreements[:10]
    assert [classify.registry_match(p, chain) for p in queries[::5]] == want[::5]
    assert len(want) // 20 < sum(want) < len(want) // 2

    # the case reaches diagonal neighbour cells: some query lies within tol of
    # an entry whose grid cell differs from its own on every axis
    entries = geometry.coords_array(
        [r for r in registry if len(r.values) == len(chain.mlm.parameters)], chain.mlm
    )
    Q, R = geometry.normalize_array(X, chain.mlm), geometry.normalize_array(entries, chain.mlm)
    q_cells = np.array(classify._grid_cells(Q, DEFAULT_TOL))
    r_cells = np.array(classify._grid_cells(R, DEFAULT_TOL))
    near = np.abs(Q[:, None, :] - R[None, :, :]).max(axis=2) <= DEFAULT_TOL
    diagonal = (q_cells[:, None, :] != r_cells[None, :, :]).all(axis=2)
    assert (near & diagonal).any()
    assert np.array_equal(near.any(axis=1), np.array(want))


@pytest.mark.filterwarnings("error")
def test_registry_matches_far_outside_the_box():
    """Coordinates near the grid's clip limit and beyond float range of a
    cell index match as the scan matches them, without overflow."""
    limit = classify._CELL_LIMIT * 2 * DEFAULT_TOL
    firsts = [limit, limit * (1 - 1e-15), limit * (1 + 1e-15), -limit, 1e7, 1e300, -1e300]
    registry = tuple(DataPoint({"P0": x, "P1": 0.5, "P2": 0.5}) for x in firsts)
    chain = _unit_box_chain(3, registry)
    queries = [
        DataPoint({"P0": x + step, "P1": 0.5, "P2": 0.5 + step})
        for x in firsts
        for step in (0.0, 5e-10, -5e-10, 2e-9, -2e-9)
    ]
    X = geometry.coords_array(queries, chain.mlm)
    want = [ref_registry_match(p, chain) for p in queries]
    assert classify.registry_matches(X, chain).tolist() == want
    assert sum(want) > len(firsts) and not all(want)


def test_registry_matches_with_an_empty_registry(chain):
    queries = [DataPoint({"Mach": 0.225, "Alt": 14000}), DataPoint({"Mach": 0.9, "Alt": -50})]
    X = geometry.coords_array(queries, chain.mlm)
    assert classify.registry_matches(X, chain).tolist() == [False, False]
    assert [classify.registry_match(p, chain) for p in queries] == [False, False]
    assert classify.registry_matches(X[:0], chain).shape == (0,)


# Coordinates of the index property: multiples of the step, which put rows
# exactly one tol apart and on cell edges (multiples of 2·tol), free floats,
# and non-finite values.
def _index_coordinate(step):
    return st.one_of(
        st.integers(-8, 8).map(lambda k: k * step),
        st.floats(-3.0, 3.0),
        st.sampled_from([math.nan, math.inf, -math.inf]),
    )


@settings(max_examples=300)
@given(data=st.data())
def test_near_index_equals_the_pairwise_scan(data):
    d = data.draw(st.integers(1, 4), label="d")
    tol = data.draw(st.sampled_from([0.25, 0.1, DEFAULT_TOL, 0.0, -0.25]), label="tol")
    row = st.lists(_index_coordinate(abs(tol) or 0.25), min_size=d, max_size=d)
    R = data.draw(st.lists(row, max_size=12), label="R")
    if R:  # duplicate reference rows
        R += data.draw(st.lists(st.sampled_from(R), max_size=4), label="copies")
    Q = data.draw(st.lists(st.one_of(row, st.sampled_from(R or [[0.0] * d])), max_size=12), label="Q")
    node = _unit_box_chain(d, ()).mlm  # spans of 1: rows scale exactly
    R_arr, Q_arr = np.array(R, dtype=float).reshape(-1, d), np.array(Q, dtype=float).reshape(-1, d)
    want = oracles.near_matches(Q, R, [0.0] * d, [1.0] * d, tol)
    assert classify.NearIndex(R_arr, node, tol).matches(Q_arr).tolist() == want


def test_near_index_in_small_blocks_equals_the_pairwise_scan(extended_doc, monkeypatch):
    """Blocks of one query row, and cells shared by many reference rows."""
    mlm = extended_doc.node("MLMODD")
    registry, queries = registry_case(mlm, seed=33, n=60)
    R = geometry.coords_array([r for r in registry if len(r.values) == 2], mlm)
    Q = geometry.coords_array(queries, mlm)
    lo, span = [p.lo for p in mlm.parameters], [p.span for p in mlm.parameters]
    monkeypatch.setattr(classify, "_PAIR_BLOCK", 1)
    for tol in (DEFAULT_TOL, 0.05, 0.5):
        index = classify.NearIndex(R, mlm, tol)
        assert index.block == 1
        assert index.matches(Q).tolist() == oracles.near_matches(Q.tolist(), R.tolist(), lo, span, tol)


def test_a_chain_builds_its_registry_index_once(extended_doc, monkeypatch):
    registry, queries = registry_case(extended_doc.node("MLMODD"), seed=34, n=40)
    chain = oddkit.build_chain(extended_doc, sample_registry=registry)
    built = []

    class Counted(classify.NearIndex):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(classify, "NearIndex", Counted)
    first = oddkit.label_rows(queries, chain)
    for _ in range(3):
        assert row_tuples(oddkit.label_rows(queries, chain)) == row_tuples(first)
    assert oddkit.verify_set_algebra(queries, chain).holds
    assert len(built) == 1
    assert any(r.kind == Kind.IN_SAMPLE for r in first)
    with pytest.raises(dataclasses.FrozenInstanceError):
        chain.sample_registry = ()


def test_a_registry_list_changed_after_the_chain_is_built_is_not_read(extended_doc):
    registry, queries = registry_case(extended_doc.node("MLMODD"), seed=36, n=40)
    entries = list(registry)
    chain = oddkit.build_chain(extended_doc, sample_registry=entries)
    entries.extend(queries)  # would make every query in-sample
    assert chain.sample_registry == registry
    frozen = oddkit.build_chain(extended_doc, sample_registry=registry)
    got = oddkit.label_rows(queries, chain)
    assert row_tuples(got) == row_tuples(oddkit.label_rows(queries, frozen))
    assert any(r.kind != Kind.IN_SAMPLE for r in got)


def test_one_point_calls_and_labelling_hash_no_node(extended_doc, monkeypatch):
    """Every call reads the node's record, which is built without hashing the node."""
    fresh = {n.name: dataclasses.replace(n) for n in extended_doc.nodes}  # nodes without a record
    doc = dataclasses.replace(extended_doc, nodes=list(fresh.values()))
    registry, queries = registry_case(fresh["MLMODD"], seed=35, n=40)
    chain = oddkit.build_chain(doc, sample_registry=registry)

    def unhashable(node):
        raise AssertionError(f"node {node.name!r} hashed")

    monkeypatch.setattr(OddNode, "__hash__", unhashable)
    inside = DataPoint({"Mach": 0.2, "Alt": 7000.0, "Temp": 0.0})
    outside = DataPoint({"Mach": 0.5, "Alt": 7000.0, "Temp": 40.0})
    for name in ("MLMODD", "MLMODD_ext"):
        node = fresh[name]
        assert geometry.point_in_region(inside, node) == Containment.INSIDE
        assert geometry.point_in_region(outside, node) == Containment.OUTSIDE
        assert geometry.distance_to_boundary(outside, node) > 0
        X = geometry.coords_array([inside, outside], node)
        assert geometry.region_containment(X, node).tolist() == [geometry.INSIDE, geometry.OUTSIDE]
    assert len(oddkit.label_rows(queries, chain)) == len(queries)


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
    want = [ref_classify_point(p, node, ctx, DEFAULT_TOL, declared) for p in mixed]
    disagreements = [i for i, (g, w) in enumerate(zip(got, want)) if g != w]
    assert len(got) == len(want) and not disagreements, disagreements[:10]


@pytest.mark.parametrize("node_name", ["MLMODD", "SOD", "MLCODD_oper"])
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
    oracle = [ref_classify_point(p, chain.mlm, chain)[0] for p in points]
    want = oddkit.run_monitor_chain(points, chain, mons, stub, oracle_categories=oracle)
    assert got.metrics == want.metrics


# -- category codes against the per-row categorisation they replaced ------------


def test_label_rows_agree_with_ref_categorize(mixed, chain):
    # every fifth row also carries a Temp value with a raw Temp value: the
    # MLM and MLC views check it, the SOD view (which lacks Temp) does not
    points = [
        p
        if i % 5
        else DataPoint(
            {**p.values, "Temp": -20.0},
            {**(p.provenance_raw or {}), "Temp": -20.0 + i % 3},
            p.hidden_values,
            p.in_sample,
        )
        for i, p in enumerate(mixed[:8000])
    ]
    got = row_tuples(oddkit.label_rows(points, chain))
    want = ref_label_rows_by_node(points, chain)
    disagreements = [i for i, (g, w) in enumerate(zip(got, want)) if g != w]
    assert len(got) == len(want) and not disagreements, disagreements[:10]
    # every kind, every category, boundary rows and each annotation occur
    assert {kind for _, kind, *_ in want} == set(Kind)
    assert {notes.get("mlc_category", category) for _, _, category, _, _, notes in want} == set(
        oddkit.CATEGORY_LABELS
    )
    assert any(on_boundary for *_, on_boundary, _ in want)
    notes = {key for *_, annotations in want for key in annotations}
    assert notes == {"raw_mismatch", "hidden", "mlc_category", "sod_category"}
    parts = classify.partition_dataset(points, chain)
    want_parts = {}
    for i, kind, category, *_ in want:
        want_parts.setdefault((classify.KIND_SET[kind], category), []).append(i)
    assert parts == want_parts and list(parts) == [k for k in classify.full_key_space() if k in parts]


@pytest.mark.parametrize(
    "node_name, use_chain, declared",
    [
        ("MLMODD", True, None),
        ("MLCODD_spec", True, None),
        ("SOD", True, None),
        ("MLMODD", False, (oddkit.Transform("scale", "Alt", factor=0.8),)),
    ],
)
def test_classify_points_and_coverage_agree_with_ref_categorize(
    mixed, extended_doc, chain, node_name, use_chain, declared
):
    node = extended_doc.node(node_name)
    ctx = chain if use_chain else None
    points = mixed[:8000]
    got = [label_tuple(label) for label in oddkit.classify_points(points, node, ctx, declared_transform=declared)]
    transforms = chain.declared_transform if declared is None else declared
    want = ref_categories(points, node, ctx, DEFAULT_TOL, transforms)
    disagreements = [i for i, (g, w) in enumerate(zip(got, want)) if g != w]
    assert len(got) == len(want) and not disagreements, disagreements[:10]
    if not use_chain:
        return
    counts = {}
    for label, _, _ in ref_categories(points, node, None):
        counts[label] = counts.get(label, 0) + 1
    if len(node.parameters) == 2:
        got_counts = analysis.coverage_report(points, node).counts
        assert list(got_counts.items()) == list(counts.items())  # first-occurrence order too


def test_monitor_oracle_agrees_with_ref_categorize_row_for_row(mixed, extended_doc, chain):
    """Run alone, a row's metrics name its oracle category."""
    decl = next(m for m in extended_doc.monitor_chains if m.name == "baseline")
    mons = monitors.build_monitors(decl.monitors, extended_doc)
    stub = monitors.build_stub(decl.stub, chain.mlm)
    points = mixed[:4000]
    want = [label for label, _, _ in ref_categories(points, chain.mlm, chain, DEFAULT_TOL, chain.declared_transform)]
    rows = [i for cat in oddkit.CATEGORY_LABELS for i in [j for j, w in enumerate(want) if w == cat][:15]]
    assert {want[i] for i in rows} == set(oddkit.CATEGORY_LABELS)
    for i in rows:
        metrics = oddkit.run_monitor_chain([points[i]], chain, mons, stub).metrics
        assert [k for k in metrics if k.startswith("detection_rate_")] == [f"detection_rate_{want[i]}"]


def test_odd_node_value_semantics_exclude_parameter_names(extended_doc):
    """parameter_names is computed once per node and is not part of its value."""
    node = extended_doc.node("MLMODD_ext")
    values = tuple(getattr(node, f) for f in ("name", "level", "parameters", "region", "variant", "allocates", "extends"))
    assert node.parameter_names == ("Mach", "Alt", "Temp")
    assert hash(node) == hash(values)
    assert repr(node) == (
        "OddNode(name={!r}, level={!r}, parameters={!r}, region={!r}, variant={!r},"
        " allocates={!r}, extends={!r})".format(*values)
    )
    twin = OddNode(*values)
    assert twin == node and hash(twin) == hash(node) and twin is not node
    renamed = dataclasses.replace(node, name="other")
    assert renamed.parameter_names == node.parameter_names and renamed != node
    fewer = dataclasses.replace(node, parameters=node.parameters[:2], region=extended_doc.node("MLMODD").region)
    assert fewer.parameter_names == ("Mach", "Alt")
    assert copy.deepcopy(node) == node and copy.deepcopy(node).parameter_names == node.parameter_names
    with pytest.raises(ValueError, match="duplicate parameter names"):
        dataclasses.replace(node, parameters=node.parameters[:1] * 2)


# -- the monitor chain's detection matrix against the per-row loop ---------------

MONITOR_NODES = ("MLMODD", "MLCODD_spec", "SOD", "MLMODD_ext")
NON_FINITE = (math.nan, math.inf, -math.inf)


def monitor_case(doc, chain, rng):
    """A random monitor chain, stub and stream over (Mach, Alt, Temp).

    Rows: uniform over the 20%-inflated SOD box, on MLMODD's vertices and
    range bounds, on a known input moved by a multiple of 1e-6 of each MLM
    span, or with one coordinate NaN or ±inf; a fifth carry a raw Alt or Mach
    value. Stubs: bilinear, some overflowing on part of the box. Zero to four
    monitors of any kind and action, range and extreme monitors on polygon
    and polytope nodes.
    """
    sod, mlm = doc.node("SOD"), chain.mlm
    lo = np.array([p.lo for p in sod.parameters] + [-60.0])
    span = np.array([p.span for p in sod.parameters] + [75.0])
    vertices = [list(v) for v in mlm.region.vertices]
    bounds = [[p.lo, p.hi] for p in mlm.parameters]
    mlm_span = np.array([p.span for p in mlm.parameters])
    known = [
        (lo[:2] + rng.uniform(-0.1, 1.1, size=2) * span[:2]).tolist()
        for _ in range(int(rng.integers(1, 4)))
    ]
    if rng.uniform() < 0.2:
        known.append([math.nan, known[0][1]])

    c0 = float(rng.choice([0.0, 1.6e308, 1.75e308], p=[0.6, 0.2, 0.2]))
    c1 = float(rng.choice([1.0, 1e308]))
    coefficients = (c0, c1, 1e-4, float(rng.normal()))
    stub = monitors.StubModel(mlm, coefficients)

    def point():
        x = (lo + rng.uniform(-0.2, 1.2, size=3) * span).tolist()
        u = rng.uniform()
        if u < 0.1:
            x[:2] = vertices[rng.integers(len(vertices))]
        elif u < 0.2:
            j = int(rng.integers(2))
            x[j] = bounds[j][rng.integers(2)] + rng.choice([0.0, 1e-7, -1e-7]) * mlm.parameters[j].span
        elif u < 0.35:
            steps = rng.choice([0.0, 0.5, -0.5, 1.0, -1.0, 1 + 1e-6, 2.0], size=2)
            x[:2] = (np.array(known[rng.integers(len(known))]) + steps * 1e-6 * mlm_span).tolist()
        elif u < 0.45:
            x[rng.integers(3)] = NON_FINITE[rng.integers(3)]
        raw = None
        if rng.uniform() < 0.2:
            name, j = ("Alt", 1) if rng.uniform() < 0.7 else ("Mach", 0)
            raw = {name: x[j] * float(rng.choice([1.0, 1.01, 1.5, -1.0]))}
        return DataPoint(dict(zip(("Mach", "Alt", "Temp"), x)), provenance_raw=raw)

    def monitor():
        kind = dsl.MONITOR_KINDS[rng.integers(len(dsl.MONITOR_KINDS))]
        action = dsl.ACTIONS[rng.integers(len(dsl.ACTIONS))]
        node = doc.node(MONITOR_NODES[rng.integers(len(MONITOR_NODES))])
        if kind == "known_input_monitor":
            return monitors.Monitor(
                kind,
                node=None if rng.uniform() < 0.3 else mlm,
                tol=float(rng.choice([1e-6, 1e-3])),
                action=action,
                known_inputs=tuple(DataPoint(dict(zip(mlm.parameter_names, k))) for k in known),
            )
        if kind == "output_range_monitor":
            lo, hi = sorted(rng.uniform(-2, 4, size=2).tolist())
            return monitors.Monitor(kind, lo=lo, hi=hi, action=action)
        if kind == "cross_check_monitor":
            return monitors.Monitor(
                kind,
                node=mlm if rng.uniform() < 0.5 else None,
                param=[None, "Alt", "Mach"][rng.integers(3)],
                threshold=float(rng.choice([0.001, 0.05, 0.5])),
                action=action,
            )
        return monitors.Monitor(kind, node=node, tol=float(rng.choice([1e-6, 1e-3, 0.05])), action=action)

    chain_monitors = [monitor() for _ in range(int(rng.integers(0, 5)))]
    stream = [point() for _ in range(int(rng.integers(0, 30)))]
    return stream, chain_monitors, stub


def simulation_outcome(run, *args):
    """The verdicts, their CSV and the metrics of a run, or the type and
    message of its error. The per-row loop's CSV is written by the row-by-row
    oracle writer."""
    try:
        result = run(*args)
    except oddkit.OddkitError as exc:
        return type(exc), str(exc)
    if isinstance(result, monitors.SimulationResult):
        return result.verdicts, result.render_verdicts_csv(), result.metrics
    verdicts, metrics = result
    return verdicts, oracles.verdicts_csv(verdicts), metrics


@pytest.mark.parametrize("seed", [61, 62, 63])
def test_monitor_chain_agrees_with_the_per_row_loop(extended_doc, chain, seed):
    rng = np.random.default_rng(seed)
    seen: dict[str, int] = {}

    def count(what, happened=True):
        seen[what] = seen.get(what, 0) + bool(happened)

    for case in range(300):
        stream, chain_monitors, stub = monitor_case(extended_doc, chain, rng)
        got = simulation_outcome(oddkit.run_monitor_chain, stream, chain, chain_monitors, stub, seed)
        want = simulation_outcome(ref_run_monitor_chain, stream, chain, chain_monitors, stub, seed)
        assert got == want, (case, chain_monitors, stub, stream)

        count("raised", want[0] is oddkit.StubEvaluationError)
        count("empty stream", not stream)
        count("empty chain", not chain_monitors)
        for monitor in chain_monitors:
            count(monitor.kind)
            count(monitor.action)
        if want[0] is oddkit.StubEvaluationError:
            continue
        result = oddkit.run_monitor_chain(stream, chain, chain_monitors, stub)
        bad = ~np.isfinite(stub.outputs(geometry.coords_array(stream, stub.node)))
        count("latched", result.metrics["failover_latched_points"])
        for v, non_finite in zip(result.verdicts, bad.tolist()):
            if v.decisions and v.decisions[-1].detected:
                count(f"{v.decisions[-1].monitor} fired")
            count("non-finite output, latched row", non_finite and v.latched)
            count("non-finite output, unreached row", non_finite and not v.latched and v.stub_output is None)
        count("non-finite coordinate", any(not math.isfinite(v) for p in stream for v in p.values.values()))

    wanted = [
        "raised", "empty stream", "empty chain", "latched",
        "non-finite output, latched row", "non-finite output, unreached row", "non-finite coordinate",
        *dsl.MONITOR_KINDS, *dsl.ACTIONS, *(f"{kind} fired" for kind in dsl.MONITOR_KINDS),
    ]
    assert all(seen.get(what, 0) >= 3 for what in wanted), seen


# -- the columns of a parsed dataset against a list of its points ---------------


def test_columns_and_a_list_of_points_give_equal_outputs(mixed, extended_doc, chain):
    """Every stage reads the same columns whether it is given the parsed
    dataset's Points or a list of the DataPoints they give."""
    assert isinstance(mixed, Points)
    listed = list(mixed)
    rules = analysis.load_default_rules()
    decl = {m.name: m for m in extended_doc.monitor_chains}

    def outputs(points):
        labels = oddkit.label_rows(points, chain)
        out = {
            "label_rows": row_tuples(labels),
            "partition": classify.partition_dataset(points, chain),
            "analyze": analysis.analyze_partitions(points, chain, rules).render_csv(),
            "audit": oddkit.verify_set_algebra(points, chain).violations,
            "audit_labels": oddkit.verify_set_algebra(points, chain, labels=[r.kind for r in labels]).violations,
            "coverage": [analysis.coverage_report(points, extended_doc.node(n)).render_text() for n in ("MLMODD", "SOD")],
        }
        for name in ("MLMODD", "MLCODD_spec", "SOD"):
            labels = oddkit.classify_points(points, extended_doc.node(name), chain)
            out[name] = [label_tuple(label) for label in labels]
        scaled = oddkit.classify_points(points, chain.mlm, declared_transform=(oddkit.Transform("scale", "Alt", factor=0.8),))
        out["scaled"] = [label_tuple(label) for label in scaled]
        for name, d in decl.items():
            mons = monitors.build_monitors(d.monitors, extended_doc)
            sim = oddkit.run_monitor_chain(points, chain, mons, monitors.build_stub(d.stub, chain.mlm))
            out[name] = (sim.render_verdicts_csv(), sim.metrics)
        return out

    got, want = outputs(mixed), outputs(listed)
    assert got.keys() == want.keys()
    for key in got:
        assert got[key] == want[key], key
    assert got["audit_labels"] == got["audit"] == []


def test_verify_set_algebra_agrees_with_the_per_row_loop(mixed, extended_doc):
    """The audit's rule columns give the per-point loop's violations, for
    labels that break each rule, strings equal to a kind's value, labels
    that are no kind, and a label list shorter than the points."""
    registry = tuple(
        DataPoint({"Mach": p.values["Mach"], "Alt": p.values["Alt"] + 1e-6}) for p in mixed[::500]
    )
    chain = oddkit.build_chain(extended_doc, sample_registry=registry)
    kinds = [r.kind for r in oddkit.label_rows(mixed, chain)]
    labels = list(kinds)
    others = list(Kind)
    for i in range(0, len(labels), 37):
        labels[i] = others[(others.index(labels[i]) + 1 + i % 3) % 4]
    for i in range(5, len(labels), 61):
        labels[i] = labels[i].value  # a string equal to a kind's value is that kind
    for i, odd in zip(range(11, len(labels), 89), itertools.cycle([None, "x", 3, "ins", ("InS",)])):
        labels[i] = odd
    labels = labels[:-17]

    listed = list(mixed)
    X = np.array([[p.values["Mach"], p.values["Alt"]] for p in listed])
    R = np.array([[r.values["Mach"], r.values["Alt"]] for r in registry])
    params = chain.mlm.parameters
    matched = oracles.near_matches(X, R, [q.lo for q in params], [q.span for q in params], DEFAULT_TOL)
    verdicts = [
        (
            geometry.point_in_region(p, chain.mlm) != Containment.OUTSIDE,
            geometry.point_in_region(p, chain.mlc) != Containment.OUTSIDE,
            bool(p.in_sample) or match,
        )
        for p, match in zip(listed, matched)
    ]
    padded = list(itertools.zip_longest(range(len(listed)), labels))
    want = oracles.set_algebra_violations([label for _, label in padded], verdicts)
    got = oddkit.verify_set_algebra(mixed, chain, labels=labels)
    assert got.violations == want and not got.holds
    assert {rule for _, rule in want} == {
        "totality: unlabeled point", "InMOD = InS ∪ OutS", "InS ∩ OutS = ∅",
        "InMOD ∩ OutMOD = ∅", "InCOD = InMOD ∪ OutMOD", "InCOD ∩ OutCOD = ∅",
    }
    assert oddkit.verify_set_algebra(mixed, chain).violations == oracles.set_algebra_violations(
        [k.value for k in kinds], verdicts
    ) == []


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
            assert [label_tuple(g) for g in got] == want
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
    (first,) = oddkit.label_rows(inside_mlm[:1], chain)
    assert first.kind == Kind.OUT_OF_SAMPLE

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
    assert got == [ref_classify_point(p, mlm, chain) for p in points]
    assert [g[0] for g in got] == ["Nominal", "Novelty", "Nominal"]


def test_a_hidden_value_overrides_the_declared_value_of_its_name(extended_doc, chain):
    """The extension sees the declared values with the hidden ones laid over
    them, as DataPoint.combined_values merges them."""
    mlm = extended_doc.node("MLMODD")
    text = "Mach,Alt,hidden:Mach,hidden:Temp\n0.3,14000,0.45,0\n0.3,14000,0.1,0\n0.3,14000,0.45,\n0.3,14000,,0\n"
    ds = oddkit.parse_dataset(text, mlm)
    assert ds.ok and ds.points[0].hidden_values == {"Mach": 0.45, "Temp": 0.0}
    got = [label_tuple(lb) for lb in oddkit.classify_points(ds.points, mlm, chain)]
    assert got == [ref_classify_point(p, mlm, chain) for p in ds.points]
    # Mach 0.45 is outside the extension's range; without Temp the hidden
    # values do not cover the extension
    assert got == [
        ("Novelty", False, {"hidden": "Mach|Temp"}),
        ("Nominal", False, {}),
        ("Nominal", False, {}),
        ("Nominal", False, {}),
    ]


@pytest.mark.parametrize("node_name", [None, "MLMODD", "MLCODD_spec", "SOD"])
def test_serialize_labels_writes_the_rows_iterating_gives(mixed, extended_doc, chain, node_name):
    """The code-table writer against the row-by-row one: label_rows' rows, or
    the --node form of classify_points' rows."""
    if node_name is None:
        labels = oddkit.label_rows(mixed, chain)
    else:
        labels = oddkit.classify_points(mixed, extended_doc.node(node_name), chain)
        assert {(r.kind, r.node) for r in labels} == {(None, node_name)}
    rows = list(labels)
    assert len(rows) == len(labels) == len(mixed)
    assert any(r.annotations for r in rows) and any(r.on_boundary for r in rows)
    empty = [r.annotations for r in rows if not r.annotations]
    assert empty and len(set(map(id, empty))) == len(empty)  # a dict of its own per row
    assert oddkit.serialize_labels(labels) == oracles.labels_csv(labels)


# names a CSV cell must quote (a comma, a quote, a line end) beside plain ones
_CELL_TEXT = st.one_of(
    st.sampled_from(["Alt", "a,b", 'say "x"', "two\nlines", "cr\r", "k=v;w", "x|y"]),
    st.text(alphabet='ab,"\n\r;=| ', min_size=1, max_size=5),
)


@st.composite
def coded_labels(draw):
    """A Labels of either form, with OutCOD codes on some rows and Inlier or
    Novelty notes on some, both on a few."""
    n = draw(st.integers(0, 25))

    def column(codes, dtype=np.int8):
        return np.array(draw(st.lists(codes, min_size=n, max_size=n)), dtype=dtype)

    one_node = draw(st.booleans())
    kinds = None if one_node else column(st.integers(0, len(Kind) - 1))
    nodes = tuple(draw(st.lists(_CELL_TEXT, min_size=1 if one_node else 4, max_size=1 if one_node else 4)))
    categories = column(st.integers(0, len(CATEGORY_LABELS)))
    on_boundary = column(st.booleans(), bool)
    category = st.integers(0, len(CATEGORY_LABELS) - 1)
    mlc = column(st.one_of(st.just(-1), category))
    # an SOD code only on a row with an MLC code, and on every one or none
    sod = np.where((mlc >= 0) & draw(st.booleans()), column(category), -1).astype(np.int8)
    notes = draw(st.dictionaries(
        st.integers(0, n - 1) if n else st.nothing(),
        st.tuples(st.sampled_from(["raw_mismatch", "hidden"]), _CELL_TEXT).map(lambda kv: dict([kv])),
    ))
    return classify.Labels(categories, on_boundary, kinds, nodes, mlc, sod, notes)


@settings(max_examples=300)
@given(labels=coded_labels())
def test_serialize_labels_equals_the_row_by_row_writer(labels):
    """Node names and notes that need quoting, and rows whose note keys sort
    around ``mlc_category`` and ``sod_category``."""
    assert oddkit.serialize_labels(labels) == oracles.labels_csv(labels)


@settings(max_examples=60)
@given(data=st.data())
def test_labelling_writes_what_the_row_by_row_writer_writes(extended_doc, chain, data):
    """label_rows and classify_points on chains whose node names, and on
    points whose hidden names, need quoting."""
    name = data.draw(_CELL_TEXT)
    mlm = dataclasses.replace(chain.mlm, name=name + "-mlm")
    renamed = classify.Chain(
        mlm=mlm,
        mlc=dataclasses.replace(chain.mlc, name=name + "-mlc"),
        extended=dataclasses.replace(chain.extended, name=name + "-ext", extends=mlm.name),
        system_od=dataclasses.replace(chain.system_od, name=name + "-sod"),
    )
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    hidden_name = data.draw(_CELL_TEXT)
    lo, hi = np.array([0.0, -2000.0]), np.array([0.6, 40000.0])
    points = []
    for x in rng.uniform(lo, hi, size=(data.draw(st.integers(0, 40)), 2)).tolist():
        values = {"Mach": x[0], "Alt": x[1]}
        roll = rng.uniform()
        if roll < 0.3:
            points.append(DataPoint(values, hidden_values={"Temp": float(rng.uniform(-100, 100)), hidden_name: 1.0}))
        elif roll < 0.5:
            points.append(DataPoint(values, provenance_raw={"Alt": x[1] * float(rng.choice([1.0, 2.0]))}))
        else:
            points.append(DataPoint(values))
    for labels in (
        oddkit.label_rows(points, renamed),
        oddkit.classify_points(points, renamed.mlm, renamed),
        oddkit.classify_points(points, renamed.mlc, renamed),
    ):
        assert oddkit.serialize_labels(labels) == oracles.labels_csv(labels)


@st.composite
def coded_simulations(draw):
    """A SimulationResult of a chain whose monitor kinds and actions need quoting."""
    m = draw(st.integers(0, 4))
    kinds = tuple(draw(st.lists(_CELL_TEXT, min_size=m, max_size=m)))
    actions = tuple(draw(st.lists(_CELL_TEXT, min_size=m, max_size=m)))
    cases = np.array(draw(st.lists(st.integers(0, m + 1), max_size=25)), dtype=np.intp)
    outputs = draw(st.lists(st.floats(allow_nan=False), min_size=len(cases), max_size=len(cases)))
    latched = cases == m + 1
    evaluated = np.array(draw(st.lists(st.booleans(), min_size=len(cases), max_size=len(cases))), dtype=bool)
    stub_outputs = np.where(evaluated & ~latched, np.array(outputs, dtype=float), np.nan)
    return monitors.SimulationResult(kinds, actions, cases, stub_outputs, {})


@settings(max_examples=300)
@given(result=coded_simulations())
def test_render_verdicts_csv_equals_the_row_by_row_writer(result):
    assert result.render_verdicts_csv() == oracles.verdicts_csv(result.verdicts)
