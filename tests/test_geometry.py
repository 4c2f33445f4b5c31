from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oddkit
from oddkit import geometry
from oddkit.model import Containment, DataPoint

import oracles


def _polygon_nodes(doc):
    return [n for n in doc.nodes if isinstance(n.region, oddkit.Polygon2D)]


def test_oracle_agreement_on_polygon_nodes(extended_doc):
    rng = np.random.default_rng(42)
    for node in _polygon_nodes(extended_doc):
        (lo0, hi0), (lo1, hi1) = node.box
        # inflate beyond the box so outside points are exercised too
        xs = rng.uniform(lo0 - 0.3 * (hi0 - lo0), hi0 + 0.3 * (hi0 - lo0), 2000)
        ys = rng.uniform(lo1 - 0.3 * (hi1 - lo1), hi1 + 0.3 * (hi1 - lo1), 2000)
        for x, y in zip(xs, ys):
            p = DataPoint(dict(zip(node.parameter_names, (float(x), float(y)))))
            got = geometry.point_in_region(p, node)
            if got == Containment.ON_BOUNDARY:
                continue  # tolerance band: the oracle's call is ill-defined here
            want = oracles.polygon_contains((float(x), float(y)), node.region.vertices)
            assert (got == Containment.INSIDE) == want, (node.name, x, y)


def test_oracle_agreement_on_polytope_node(extended_doc):
    node = extended_doc.node("MLMODD_ext")
    rng = np.random.default_rng(7)
    for _ in range(2000):
        x = tuple(
            float(rng.uniform(p.lo - 0.3 * p.span, p.hi + 0.3 * p.span))
            for p in node.parameters
        )
        p = DataPoint(dict(zip(node.parameter_names, x)))
        got = geometry.point_in_region(p, node)
        if got == Containment.ON_BOUNDARY:
            continue
        want = oracles.union_contains(x, node.region.members)
        assert (got == Containment.INSIDE) == want, x


def test_boundary_points_report_on_boundary(extended_doc):
    node = extended_doc.node("MLMODD")
    for v in node.region.vertices:
        p = DataPoint(dict(zip(node.parameter_names, v)))
        assert geometry.point_in_region(p, node) == Containment.ON_BOUNDARY
    # midpoint of the bottom edge
    p = DataPoint({"Mach": 0.2, "Alt": 0.0})
    assert geometry.point_in_region(p, node) == Containment.ON_BOUNDARY


@given(scale=st.floats(min_value=1e-3, max_value=1e6), shift=st.floats(min_value=-1e5, max_value=1e5))
@settings(max_examples=50, deadline=None)
def test_containment_is_scale_invariant(scale, shift):
    # the same shape expressed in different units must classify identically
    verts = ((0.0, 0.0), (4.0, 0.0), (4.0, 3.0), (0.0, 3.0))
    probes = [(2.0, 1.5), (5.0, 1.0), (0.0, 1.5), (4.0, 3.0), (-1.0, -1.0)]
    base = oddkit.OddNode(
        "base",
        oddkit.Level.MLM_ODD,
        (oddkit.Parameter("x", "u", 0.0, 4.0), oddkit.Parameter("y", "u", 0.0, 3.0)),
        oddkit.Polygon2D(verts),
    )
    scaled = oddkit.OddNode(
        "scaled",
        oddkit.Level.MLM_ODD,
        (
            oddkit.Parameter("x", "u", shift, shift + 4.0 * scale),
            oddkit.Parameter("y", "u", shift, shift + 3.0 * scale),
        ),
        oddkit.Polygon2D(tuple((shift + x * scale, shift + y * scale) for x, y in verts)),
    )
    for px, py in probes:
        a = geometry.point_in_region(DataPoint({"x": px, "y": py}), base)
        b = geometry.point_in_region(
            DataPoint({"x": shift + px * scale, "y": shift + py * scale}), scaled
        )
        assert a == b, (px, py)


def test_params_at_extreme(extended_doc):
    node = extended_doc.node("MLMODD")
    assert geometry.params_at_extreme(DataPoint({"Mach": 0.0, "Alt": 0.0}), node) == {"Mach", "Alt"}
    assert geometry.params_at_extreme(DataPoint({"Mach": 0.1, "Alt": 0.0}), node) == {"Alt"}
    assert geometry.params_at_extreme(DataPoint({"Mach": 0.1, "Alt": 5000.0}), node) == set()
    # values far outside the range are not "at" the extreme
    assert geometry.params_at_extreme(DataPoint({"Mach": 0.9, "Alt": 5000.0}), node) == set()


def test_project_and_missing_parameter(extended_doc):
    node = extended_doc.node("MLMODD")
    p = DataPoint({"Mach": 0.1, "Alt": 100.0, "Temp": 3.0})
    assert geometry.project(p, node).values == {"Mach": 0.1, "Alt": 100.0}
    with pytest.raises(oddkit.MissingParameter):
        geometry.coords(DataPoint({"Mach": 0.1}), node)
    with pytest.raises(oddkit.MissingParameter) as exc:
        geometry.project(DataPoint({"Mach": 0.1}), node)
    assert exc.value.parameter == "Alt"


def test_distance_to_boundary_signs(extended_doc):
    node = extended_doc.node("MLMODD")
    interior = DataPoint({"Mach": 0.2, "Alt": 7000.0})
    vertex = DataPoint({"Mach": 0.0, "Alt": 0.0})
    assert geometry.distance_to_boundary(interior, node) > 0.01
    assert geometry.distance_to_boundary(vertex, node) == pytest.approx(0.0, abs=1e-12)


def _prism_probes(ext, mlm, rng):
    """Points over the 30%-inflated box of MLMODD_ext, plus points on its
    vertices, edges and faces, some pushed off them by small random steps."""
    lo = np.array([p.lo for p in ext.parameters])
    hi = np.array([p.hi for p in ext.parameters])
    span = hi - lo
    uniform = rng.uniform(lo - 0.3 * span, hi + 0.3 * span, size=(2000, 3))
    poly = np.array(mlm.region.vertices)
    caps = np.array([ext.parameters[2].lo, ext.parameters[2].hi])
    k = 400
    edge = rng.integers(len(poly), size=k)
    s = rng.uniform(0.0, 1.0, size=(k, 1))
    on_walls = poly[edge] + s * (np.roll(poly, -1, axis=0)[edge] - poly[edge])
    vertices = np.array([(*v, t) for v in poly for t in caps])
    vertical_edges = np.column_stack([poly[edge], rng.uniform(caps[0], caps[1], k)])
    cap_edges = np.column_stack([on_walls, rng.choice(caps, k)])
    walls = np.column_stack([on_walls, rng.uniform(caps[0], caps[1], k)])
    inner = uniform[:, :2][(uniform[:, :2] >= lo[:2]).all(axis=1) & (uniform[:, :2] <= hi[:2]).all(axis=1)]
    cap_faces = np.column_stack([inner, rng.choice(caps, len(inner))])
    snapped = np.vstack([vertices, vertical_edges, cap_edges, walls, cap_faces])
    step = rng.normal(size=snapped.shape) * span * rng.choice([0.0, 1e-9, 1e-6, 1e-3], (len(snapped), 1))
    return np.vstack([uniform, snapped, snapped + step])


def test_distance_to_boundary_is_exact_on_the_prism(extended_doc):
    # MLMODD_ext is MLMODD's (convex) polygon times the Temp interval
    ext = extended_doc.node("MLMODD_ext")
    mlm = extended_doc.node("MLMODD")
    ranges = [(p.lo, p.hi) for p in ext.parameters]
    temp = (ext.parameters[2].lo, ext.parameters[2].hi)
    X = _prism_probes(ext, mlm, np.random.default_rng(11))
    outside = 0
    for x in X.tolist():
        p = DataPoint(dict(zip(ext.parameter_names, x)))
        want = oracles.prism_boundary_distance(x, mlm.region.vertices, temp, ranges)
        assert geometry.distance_to_boundary(p, ext) == pytest.approx(want, rel=1e-9, abs=1e-12), x
        outside += not oracles.union_contains(x, ext.region.members)
    assert outside >= 1000


def test_distance_to_boundary_raises_when_the_step_bound_is_hit(extended_doc, monkeypatch):
    ext = extended_doc.node("MLMODD_ext")
    far = DataPoint({"Mach": 0.15, "Alt": 7000.0, "Temp": 40.0})  # nearest the cap's interior
    assert geometry.distance_to_boundary(far, ext) > 0.1
    monkeypatch.setattr(geometry, "_WOLFE_MAX_STEPS", 1)
    with pytest.raises(ArithmeticError):
        geometry.distance_to_boundary(far, ext)


def test_contains_node(extended_doc):
    ext = extended_doc.node("MLMODD_ext")
    mlm = extended_doc.node("MLMODD")
    mlc = extended_doc.node("MLCODD_spec")
    assert geometry.contains_node(ext, mlm).contained
    result = geometry.contains_node(mlc, mlm)  # MLC floor extends below the MLM
    assert not result.contained
    assert result.witness is not None
    with pytest.raises(oddkit.IncompatibleParameters):
        geometry.contains_node(mlm, ext)


def test_contains_node_probes_find_a_gap_between_vertices():
    # a U-shaped base with a 0.2-wide gap; every vertex of the extension's box
    # projects into the arms, so only an interior probe can show the gap
    text = """
odd "U" level mlm_odd {
  param x: u range [0, 1]
  param y: u range [0, 1]
  region polygon { (0,0) (1,0) (1,1) (0.6,1) (0.6,0.3) (0.4,0.3) (0.4,1) (0,1) }
}
odd "BOX" level mlm_odd extends "U" {
  param x: u range [0.1, 0.9]
  param y: u range [0.5, 0.9]
  param z: u range [0, 1]
  region polytope {
    halfspace 1 0 0 <= 0.9
    halfspace -1 0 0 <= -0.1
    halfspace 0 1 0 <= 0.9
    halfspace 0 -1 0 <= -0.5
    halfspace 0 0 1 <= 1
    halfspace 0 0 -1 <= 0
    vertex (0.1,0.5,0) vertex (0.9,0.5,0) vertex (0.9,0.9,0) vertex (0.1,0.9,0)
    vertex (0.1,0.5,1) vertex (0.9,0.5,1) vertex (0.9,0.9,1) vertex (0.1,0.9,1)
  }
}
"""
    doc = oddkit.parse_spec(text)
    base, box = doc.node("U"), doc.node("BOX")
    for v in geometry.region_vertices(box):
        assert geometry.point_in_region(geometry.project(v, base), base) != Containment.OUTSIDE
    assert [d.code for d in doc.errors] == ["E007"]
    result = geometry.contains_node(box, base)
    assert not result.contained
    assert geometry.point_in_region(result.witness, box) != Containment.OUTSIDE
    assert geometry.point_in_region(geometry.project(result.witness, base), base) == Containment.OUTSIDE
    assert "witness {'x'" in doc.errors[0].message


def test_region_vertices_deduplicates(extended_doc):
    ext = extended_doc.node("MLMODD_ext")
    verts = geometry.region_vertices(ext)
    assert len(verts) == 10
    mlm = extended_doc.node("MLMODD")
    assert len(geometry.region_vertices(mlm)) == 5
