from __future__ import annotations

import dataclasses
import itertools
import math

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import oddkit
from oddkit import geometry
from oddkit.cli import cli
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


def test_face_table_of_the_prism_is_built_once(extended_doc, monkeypatch):
    ext = dataclasses.replace(extended_doc.node("MLMODD_ext"))  # a node with no record yet
    builds = []
    build = geometry._face_tables
    monkeypatch.setattr(geometry, "_face_tables", lambda members: builds.append(members) or build(members))
    far = DataPoint({"Mach": 0.15, "Alt": 7000.0, "Temp": 40.0})  # nearest the cap's interior
    assert geometry.distance_to_boundary(far, ext) == pytest.approx(25 / 75, rel=1e-12)
    (table,) = geometry._geometry(ext).face_tables()
    # 10 vertices, 15 edges (5 per cap, 5 vertical) and 7 facets (5 walls, 2 caps)
    assert (table.faces, table.vertices) == (32, 10)
    geometry.distance_to_boundary(DataPoint({"Mach": 0.5, "Alt": -100.0, "Temp": -70.0}), ext)
    assert len(builds) == 1
    assert geometry._geometry(ext).face_tables() is geometry._geometry(ext).face_tables()


def _node(name, ranges, members):
    """A polytope-union node over parameters x0, x1, ... with the given ranges;
    ``members`` holds (halfspaces, vertices) pairs in raw coordinates."""
    params = tuple(oddkit.Parameter(f"x{i}", "u", lo, hi) for i, (lo, hi) in enumerate(ranges))
    region = oddkit.PolytopeUnion(tuple(oddkit.ConvexPolytope(tuple(h), tuple(v)) for h, v in members))
    return oddkit.OddNode(name, oddkit.Level.MLM_ODD, params, region)


def _box(lo, hi):
    d = len(lo)
    halfspaces = []
    for i in range(d):
        e = [0.0] * d
        e[i] = 1.0
        halfspaces += [(tuple(e), hi[i]), (tuple(-c for c in e), -lo[i])]
    corners = np.array(np.meshgrid(*zip(lo, hi), indexing="ij")).reshape(d, -1).T
    return halfspaces, [tuple(v) for v in corners.tolist()]


def _simplex_4d():
    # x_i >= lo_i and sum (x_i - lo_i) / s_i <= 1, under unequal spans
    lo, s = [0.0, -1.0, 10.0, 0.5], [1.0, 4.0, 0.01, 300.0]
    halfspaces = [(tuple(-1.0 if j == i else 0.0 for j in range(4)), -lo[i]) for i in range(4)]
    halfspaces.append((tuple(1 / si for si in s), 1 + sum(l / si for l, si in zip(lo, s))))
    verts = [tuple(lo)] + [tuple(l + (si if j == i else 0.0) for j, (l, si) in enumerate(zip(lo, s))) for i in range(4)]
    return _node("simplex", [(l, l + si) for l, si in zip(lo, s)], [(halfspaces, verts)])


def _octahedron():
    # |x| / r0 + |y| / r1 + |z| / r2 <= 1, plus x / r0 + y / r1 <= 1, which is
    # tight only along the edge (r0, 0, 0)-(0, r1, 0)
    r = (1.0, 3.0, 0.7)
    signs = [(sx, sy, sz) for sx in (1.0, -1.0) for sy in (1.0, -1.0) for sz in (1.0, -1.0)]
    halfspaces = [(tuple(si / ri for si, ri in zip(s, r)), 1.0) for s in signs]
    halfspaces.append(((1 / r[0], 1 / r[1], 0.0), 1.0))
    verts = [tuple(s * ri * (j == i) for j, ri in enumerate(r)) for i in range(3) for s in (1.0, -1.0)]
    return _node("octahedron", [(-1.0, 1.2), (-3.1, 3.0), (-0.7, 0.9)], [(halfspaces, verts)])


def _box_with_slack_halfspace():
    halfspaces, verts = _box([0.0, 0.0, -5.0], [2.0, 1.0, 5.0])
    halfspaces.append(((1.0, 1.0, 0.1), 10.0))  # tight nowhere: its most is 3.5
    return _node("box", [(0.0, 2.0), (0.0, 1.0), (-5.0, 5.0)], [(halfspaces, verts)])


def _box_with_a_clipped_corner():
    # the unit cube less the corner x + y + z > 3 - 3e-6, a facet 3e-6 across
    halfspaces, verts = _box([0.0] * 3, [1.0] * 3)
    halfspaces.append(((1.0, 1.0, 1.0), 3.0 - 3e-6))
    verts = verts[:-1] + [tuple(1.0 - 3e-6 * (j == i) for j in range(3)) for i in range(3)]
    return _node("clipped", [(0.0, 1.0)] * 3, [(halfspaces, verts)])


def _two_boxes():
    return _node(
        "union",
        [(0.0, 1.0)] * 3,
        [_box([0.0, 0.0, 0.0], [0.6, 0.6, 0.6]), _box([0.4, 0.2, 0.0], [1.0, 0.8, 1.0])],
    )


def _boundary_probes(node, rng, n_uniform=600):
    """Points over the 30%-inflated box, plus vertices, points on edges and
    points on facets of each member, each pushed off in a random direction
    by 0, 1e-9, 1e-6 and 1e-3 of the spans."""
    span = np.array([p.span for p in node.parameters])
    lo = np.array([p.lo for p in node.parameters])
    d = len(span)
    snapped = []
    for member in node.region.members:
        V = np.array(member.vertices)
        tight = [
            [i for i, v in enumerate(V) if abs(np.dot(a, v) - b) <= 1e-9 * (np.abs(a) @ span)]
            for a, b in member.halfspaces
        ]
        on = [{f for f, face in enumerate(tight) if i in face} for i in range(len(V))]
        edges = [(i, j) for i in range(len(V)) for j in range(i) if len(on[i] & on[j]) >= d - 1]
        snapped += list(V)
        for i, j in edges:
            t = rng.uniform(size=4)[:, None]
            snapped += list(V[i] + t * (V[j] - V[i]))
        for face in tight:
            if len(face) >= d:
                w = rng.dirichlet(np.ones(len(face)), size=8)
                snapped += list(w @ V[face])
    snapped = np.repeat(np.array(snapped), 4, axis=0)
    push = np.tile([0.0, 1e-9, 1e-6, 1e-3], len(snapped) // 4)[:, None]
    snapped += rng.normal(size=snapped.shape) * span * push
    uniform = rng.uniform(lo - 0.3 * span, lo + 1.3 * span, size=(n_uniform, d))
    return np.vstack([snapped, uniform])


def _triangle_prism(apex):
    # a prism over the triangle (0,0) (1,0) (1/3,1), its apex listed as given
    halfspaces = [((0.0, -1.0, 0.0), 0.0), ((-3.0, 1.0, 0.0), 0.0), ((1.5, 1.0, 0.0), 1.5),
                  ((0.0, 0.0, 1.0), 1.0), ((0.0, 0.0, -1.0), 0.0)]
    verts = [(x, y, z) for z in (0.0, 1.0) for x, y in ((0.0, 0.0), (1.0, 0.0), apex)]
    return _node("rounded", [(0.0, 1.0)] * 3, [(halfspaces, verts)])


def _hull_vertices(member, node):
    """The member's vertices from its halfspaces alone, normalized: the points
    where d independent halfspaces meet that satisfy all of them."""
    lo = np.array([p.lo for p in node.parameters])
    span = np.array([p.span for p in node.parameters])
    A = np.array([a for a, _ in member.halfspaces]) * span
    b = np.array([b for _, b in member.halfspaces]) - A @ (lo / span)
    b, A = b / np.linalg.norm(A, axis=1), A / np.linalg.norm(A, axis=1)[:, None]
    found = []
    for T in map(list, itertools.combinations(range(len(b)), A.shape[1])):
        if abs(np.linalg.det(A[T])) < 1e-9:
            continue
        v = np.linalg.solve(A[T], b[T])
        if (A @ v - b).max() <= 1e-9 and all(np.abs(v - w).max() > 1e-9 for w in found):
            found.append(v)
    return found


def _wolfe_distance(p, node):
    """distance_to_boundary with Wolfe's iteration for the outside members,
    over the vertices of their halfspaces."""
    xhat = geometry._geometry(node).normalize(geometry.coords(p, node))
    best = math.inf
    for (A, b), member in zip(geometry._geometry(node).members, node.region.members):
        margin = min(oracles.slacks(xhat, A, b))
        if margin < 0:
            margin = oracles.wolfe_distance(xhat, _hull_vertices(member, node))
        best = min(best, margin)
    return best


@pytest.mark.parametrize(
    "make",
    [None, _simplex_4d, _octahedron, _box_with_slack_halfspace, _two_boxes,
     lambda: _triangle_prism((0.333, 0.999))],
    ids=["prism", "simplex_4d", "octahedron", "box", "two_boxes", "inward_rounded_prism"],
)
def test_face_table_agrees_with_wolfe(make, extended_doc):
    node = extended_doc.node("MLMODD_ext") if make is None else make()
    X = _boundary_probes(node, np.random.default_rng(2024))
    outside = 0
    for x in X.tolist():
        p = DataPoint(dict(zip(node.parameter_names, x)))
        got, want = geometry.distance_to_boundary(p, node), _wolfe_distance(p, node)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-12), x
        assert got >= want - 1e-12, x
        outside += geometry.point_in_region(p, node) == Containment.OUTSIDE
    assert outside >= len(X) // 4


def test_face_table_resolves_a_clipped_corner():
    # Wolfe's stopping rule is relative to the farthest vertex, too coarse for
    # a point 1e-9 off a facet 3e-6 across, so the distances are in closed
    # form: off the facet's centre along its normal, the distance is the push
    node = _box_with_a_clipped_corner()
    assert geometry._geometry(node).face_tables()[0].faces == 32  # 10 vertices, 15 edges, 7 facets
    centre = np.full(3, 1.0 - 1e-6)
    for push in (1e-9, 1e-6, 1e-3):
        x = centre + push / math.sqrt(3.0)
        p = DataPoint(dict(zip(node.parameter_names, x.tolist())))
        assert geometry.distance_to_boundary(p, node) == pytest.approx(push, rel=1e-6)


@pytest.mark.parametrize("apex", [(0.333333, 1.0), (0.333, 0.999)], ids=["outward", "inward"])
def test_face_table_follows_the_halfspaces_under_rounded_vertices(apex):
    # the spec admits a listed vertex off its halfspaces by up to 1e-6
    # outward and by any amount inward; the table takes its faces from the
    # halfspaces, so both listings give the triangle's prism
    node = _triangle_prism(apex)
    assert geometry._geometry(node).face_tables()[0].faces == 20  # 6 vertices, 9 edges, 5 facets
    walls = [((0.0, 0.0), (1 / 3, 1.0), (-3.0, 1.0)), ((1.0, 0.0), (1 / 3, 1.0), (1.5, 1.0))]
    for start, end, normal in walls:
        start, end, normal = np.array(start), np.array(end), np.array(normal) / np.hypot(*normal)
        for s, z in np.random.default_rng(5).uniform(0.2, 0.8, size=(50, 2)).tolist():
            x = [*(start + s * (end - start) + 0.05 * normal), z]  # 0.05 off the wall
            p = DataPoint(dict(zip(node.parameter_names, x)))
            assert geometry.distance_to_boundary(p, node) == pytest.approx(0.05, rel=1e-12)


def _table_distance(p, node):
    """distance_to_boundary with every outside member's distance read from
    its face table."""
    g = geometry._geometry(node)
    xhat = g.normalize(geometry.coords(p, node))
    margins = [min(oracles.slacks(xhat, A, b)) for A, b in g.members]
    return min(m if m >= 0 else geometry._distance_outside(xhat, t) for m, t in zip(margins, g.face_tables()))


def _random_box_or_simplex(data):
    d = data.draw(st.integers(min_value=2, max_value=4), label="d")
    lo = data.draw(st.lists(st.floats(-100.0, 100.0), min_size=d, max_size=d), label="lo")
    span = data.draw(st.lists(st.floats(0.01, 1000.0), min_size=d, max_size=d), label="span")
    hi = [a + s for a, s in zip(lo, span)]
    if data.draw(st.booleans(), label="box"):
        return _node("box", list(zip(lo, hi)), [_box(lo, hi)])
    # x_i >= lo_i and sum (x_i - lo_i) / s_i <= 1
    halfspaces = [(tuple(-1.0 * (j == i) for j in range(d)), -lo[i]) for i in range(d)]
    halfspaces.append((tuple(1 / s for s in span), 1 + sum(a / s for a, s in zip(lo, span))))
    verts = [tuple(lo)] + [tuple(a + s * (j == i) for j, (a, s) in enumerate(zip(lo, span))) for i in range(d)]
    return _node("simplex", list(zip(lo, hi)), [(halfspaces, verts)])


@given(data=st.data(), seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60)
def test_a_facet_distance_agrees_with_the_face_table(data, seed, extended_doc):
    # points off the vertices, edges and facets of each member, pushed in a
    # random direction by 1e-9 to 1 of the spans: most nearest a facet, whose
    # violation is the distance, the rest nearest an edge or a vertex
    makers = [lambda: extended_doc.node("MLMODD_ext"), _simplex_4d, _octahedron, _box_with_slack_halfspace,
              _two_boxes, lambda: _triangle_prism((0.333, 0.999)), lambda: _random_box_or_simplex(data)]
    node = makers[data.draw(st.integers(min_value=0, max_value=len(makers) - 1), label="node")]()
    rng = np.random.default_rng(seed)
    snapped = _boundary_probes(node, rng, n_uniform=0)[::4]  # the probes not pushed
    span = np.array([p.span for p in node.parameters])
    X = snapped[rng.integers(len(snapped), size=12)]
    X += rng.normal(size=X.shape) * span * 10.0 ** rng.uniform(-9.0, 0.0, size=(len(X), 1))
    for x in X.tolist():
        p = DataPoint(dict(zip(node.parameter_names, x)))
        xhat = geometry._geometry(node).normalize(x)
        got, scale = geometry.distance_to_boundary(p, node), max(1.0, *map(abs, xhat))
        assert abs(got - _table_distance(p, node)) <= 1e-14 * scale, x
        assert got >= _wolfe_distance(p, node) - 1e-12, x


def test_a_point_beyond_a_box_corner_is_at_the_corner_distance():
    # x is beyond two or three facets, so no facet's projection is in the box
    node = _node("cube", [(0.0, 1.0)] * 3, [_box([0.0] * 3, [1.0] * 3)])
    for x, want in [((1.3, 1.4, 0.5), 0.5), ((1.2, 1.2, 0.5), 0.2 * math.sqrt(2.0)),
                    ((1.3, -0.4, 1.2), math.sqrt(0.09 + 0.16 + 0.04))]:
        p = DataPoint(dict(zip(node.parameter_names, x)))
        assert geometry.distance_to_boundary(p, node) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("d", range(1, 7))
def test_compiled_slacks_fold_the_products_left_to_right_from_zero(d):
    # as _union_codes adds them column by column; since Python 3.12 sum() adds
    # floats with compensation and differs in the last bit for about one 3-term
    # dot product in five. A one-face member's distance is its slack's
    # magnitude, which the facet decides, so each face gets its own functions.
    rng = np.random.default_rng(7 + d)
    A = rng.normal(size=(60, d)) * 10.0 ** rng.uniform(-3, 3, size=(60, d))
    A[rng.random(A.shape) < 0.1] = 0.0
    b = rng.normal(size=60)
    X = rng.normal(size=(20, d)) * 10.0 ** rng.uniform(-3, 3, size=(20, d))
    s = X[:, :1] * A[:, 0]
    for j in range(1, d):
        s = s + X[:, j : j + 1] * A[:, j]
    want = np.abs(b - s)
    names, got = [f"x{j}" for j in range(d)], np.empty(want.shape)
    for f in range(len(b)):
        _, distance = geometry._point_functions(names, (0.0,) * d, (1.0,) * d, [(A[f : f + 1], b[f : f + 1])], None)
        got[:, f] = [distance(dict(zip(names, x))) for x in X.tolist()]
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    folded = np.abs([oracles.slacks(x, A, b) for x in X.tolist()])
    assert np.array_equal(got.view(np.uint64), folded.view(np.uint64))


def _shifted_union(node, shifts):
    """The node's member and a copy of it moved by each (axis, distance) in raw units."""
    (member,) = node.region.members
    members = [member]
    for axis, t in shifts:
        halfspaces = tuple((a, b + a[axis] * t) for a, b in member.halfspaces)
        vertices = tuple(tuple(c + t * (j == axis) for j, c in enumerate(v)) for v in member.vertices)
        members.append(oddkit.ConvexPolytope(halfspaces, vertices))
    return dataclasses.replace(node, region=oddkit.PolytopeUnion(tuple(members)))


@given(data=st.data(), seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_the_generated_one_point_functions_agree_with_the_engine_and_the_member_loop(data, seed):
    # a box or simplex alone, or with one or two copies moved along an axis by
    # its span (touching) or half of it (overlapping); probes snapped to
    # vertices, edges and facets and pushed off by 0 to 1e-3, then some with a
    # coordinate NaN, infinite or 1e300
    node = _random_box_or_simplex(data)
    d = len(node.parameters)
    moves = st.tuples(st.integers(0, d - 1), st.sampled_from([1.0, 0.5, -0.5, -1.0]))
    shifts = data.draw(st.lists(moves, max_size=2), label="shifts")
    node = _shifted_union(node, [(axis, f * node.parameters[axis].span) for axis, f in shifts])
    rng = np.random.default_rng(seed)
    X = _boundary_probes(node, rng, n_uniform=40)
    X = X[rng.choice(len(X), size=min(len(X), 200), replace=False)]
    odd = rng.choice(len(X), size=len(X) // 5, replace=False)
    extremes = [math.nan, math.inf, -math.inf, 1e300, -1e300]
    X[odd, rng.integers(d, size=len(odd))] = rng.choice(extremes, size=len(odd))
    contains, distance = geometry._geometry(node).point_functions()
    for tol in (oddkit.DEFAULT_TOL, 1e-3):
        want = [geometry.CONTAINMENT[c] for c in geometry.region_containment(X, node, tol).tolist()]
        assert [contains(dict(zip(node.parameter_names, x)), tol) for x in X.tolist()] == want
    got = np.array([distance(dict(zip(node.parameter_names, x))) for x in X.tolist()])
    ref = np.array([oracles.polytope_distance(x, node) for x in X.tolist()])
    assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))


@pytest.mark.parametrize(
    "call", [geometry.point_in_region, geometry.distance_to_boundary], ids=["contains", "distance"]
)
def test_the_generated_functions_read_values_as_coords_does(call, extended_doc):
    node = extended_doc.node("MLMODD_ext")
    with pytest.raises(oddkit.MissingParameter) as exc:
        call(DataPoint({"Mach": 0.1}), node)
    assert exc.value.parameter == "Alt"
    for bad in ("fast", None, [1.0]):
        values = {"Mach": 0.1, "Alt": bad, "Temp": 0.0}
        with pytest.raises(Exception) as want:
            geometry.coords(DataPoint(values), node)
        with pytest.raises(want.type) as got:
            call(DataPoint(values), node)
        assert str(got.value) == str(want.value)
    # a string value and an extra key are read as today
    text = DataPoint({"Mach": "0.2", "Alt": 7000.0, "Temp": 0.0, "note": "x"})
    assert call(text, node) == call(DataPoint({"Mach": 0.2, "Alt": 7000.0, "Temp": 0.0}), node)


def test_parameter_names_never_enter_the_generated_source():
    names = ['a"b', "c'}{d", "e\nf", "g)\n    raise SystemExit"]
    node = _node("quoted", [(0.0, 1.0)] * 4, [_box([0.0] * 4, [1.0] * 4)])
    params = tuple(dataclasses.replace(p, name=n) for p, n in zip(node.parameters, names))
    node = dataclasses.replace(node, parameters=params)
    assert node.parameter_names == tuple(names)
    inside, outside = DataPoint(dict(zip(names, [0.5] * 4))), DataPoint(dict(zip(names, [0.5, 0.5, 0.5, 1.5])))
    assert geometry.point_in_region(inside, node) == Containment.INSIDE
    assert geometry.point_in_region(outside, node) == Containment.OUTSIDE
    assert geometry.distance_to_boundary(inside, node) == 0.5
    assert geometry.distance_to_boundary(outside, node) == 0.5
    with pytest.raises(oddkit.MissingParameter) as exc:
        geometry.distance_to_boundary(DataPoint({names[0]: 0.5}), node)
    assert exc.value.parameter == names[1]


@pytest.mark.parametrize("node_name", ["MLMODD", "MLMODD_ext"])
def test_distance_to_boundary_of_non_finite_coordinates(node_name, extended_doc):
    node = extended_doc.node(node_name)
    base = {"Mach": 0.45, "Alt": 7000.0, "Temp": 0.0}
    for name in node.parameter_names:
        assert math.isnan(geometry.distance_to_boundary(DataPoint({**base, name: math.nan}), node))
        for value in (math.inf, -math.inf):
            assert geometry.distance_to_boundary(DataPoint({**base, name: value}), node) == math.inf
    # Mach / 0.4 overflows; Alt / 15000 does not: the polygon's math.hypot
    # keeps its distance finite, and the polytope's squared distance overflows
    assert geometry.distance_to_boundary(DataPoint({**base, "Mach": 1e308}), node) == math.inf
    for alt in (-1e308, 1e200):
        huge = geometry.distance_to_boundary(DataPoint({**base, "Alt": alt}), node)
        if isinstance(node.region, oddkit.Polygon2D):
            assert huge == pytest.approx(abs(alt) / 15000, rel=1e-12)
        else:
            assert huge == math.inf


def test_distance_to_boundary_at_the_end_of_the_float_range():
    # the table's sums over coordinates of +-1.79e308 meet inf - inf, and the
    # NaN excess must not pass a face as feasible
    d = 8
    w = (1.0, 1.2, 1.4, 1.6, 1.8, 2.0, 1.1, 1.3)
    halfspaces = [(tuple(-1.0 * (j == i) for j in range(d)), 0.0) for i in range(d)] + [(w, 1.0)]
    verts = [(0.0,) * d] + [tuple(1 / w[i] * (j == i) for j in range(d)) for i in range(d)]
    node = _node("simplex_8d", [(0.0, 1.0)] * d, [(halfspaces, verts)])
    big = 1.79e308
    for x in itertools.product((big, -big, 0.5), repeat=d):
        if max(map(abs, x)) == big:
            p = DataPoint(dict(zip(node.parameter_names, x)))
            assert geometry.distance_to_boundary(p, node) == math.inf, x


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
    # projects into the arms, so only a point between vertices can show the gap
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
    assert (geometry.region_containment(geometry.region_vertices(box)[:, :2], base) != geometry.OUTSIDE).all()
    assert [d.code for d in doc.errors] == ["E007"]
    result = geometry.contains_node(box, base)
    assert not result.contained
    assert geometry.point_in_region(result.witness, box) != Containment.OUTSIDE
    assert geometry.point_in_region(geometry.project(result.witness, base), base) == Containment.OUTSIDE
    assert "witness {'x'" in doc.errors[0].message


_NOTCH_SPEC = """
odd "BASE" level mlm_odd {{
  param x: u range [0, 1]
  param y: u range [0, 1]
  region polygon {{ (0,0) (1,0) (1,1) ({hi},1) ({hi},0.05) ({lo},0.05) ({lo},1) (0,1) }}
}}
odd "EXT" level mlm_odd extends "BASE" {{
  param x: u range [0, 1]
  param y: u range [0, 1]
  param z: u range [0, 1]
  region polytope {{
    halfspace 1 0 0 <= 0.9
    halfspace -1 0 0 <= -0.1
    halfspace 0 1 0 <= 0.9
    halfspace 0 -1 0 <= -0.1
    halfspace 0 0 1 <= 1
    halfspace 0 0 -1 <= 0
    vertex (0.1,0.1,0) vertex (0.9,0.1,0) vertex (0.9,0.9,0) vertex (0.1,0.9,0)
    vertex (0.1,0.1,1) vertex (0.9,0.1,1) vertex (0.9,0.9,1) vertex (0.1,0.9,1)
  }}
}}
"""


@pytest.mark.parametrize("lo,hi", [("0.3295", "0.3305"), ("0.4995", "0.5005")])
def test_contains_node_finds_a_notch_off_any_lattice(lo, hi, tmp_path):
    # a notch 0.001 wide cut down from the top of the base; the extension's box
    # spans it, so (x, 0.5) of its projection lies outside the base
    text = _NOTCH_SPEC.format(lo=lo, hi=hi)
    doc = oddkit.parse_spec(text)
    assert [d.code for d in doc.errors] == ["E007"]
    base, ext = doc.node("BASE"), doc.node("EXT")
    result = geometry.contains_node(ext, base)
    assert result.contained is False
    w = result.witness.values
    assert oracles.polytope_contains(tuple(w[n] for n in ext.parameter_names), ext.region.members[0].halfspaces)
    assert not oracles.polygon_contains((w["x"], w["y"]), base.region.vertices)
    assert float(lo) < w["x"] < float(hi)
    spec = tmp_path / "notch.odd"
    spec.write_text(text)
    assert CliRunner().invoke(cli, ["validate", str(spec)]).exit_code == 1


def test_contains_node_reads_the_halfspaces_not_the_listed_vertices():
    # the extension's box reaches x = 0.9, past the base's edge at x = 0.8995,
    # but its listed vertices are rounded inward to x = 0.899, inside the base
    text = _NOTCH_SPEC.format(lo="0.3295", hi="0.3305").replace("(0.9,", "(0.899,")
    text = text.replace("(1,0) (1,1) (0.3305,1) (0.3305,0.05) (0.3295,0.05) (0.3295,1)", "(0.8995,0) (0.8995,1)")
    doc = oddkit.parse_spec(text)
    base, ext = doc.node("BASE"), doc.node("EXT")
    assert base.region.vertices == ((0, 0), (0.8995, 0), (0.8995, 1), (0, 1))
    assert max(v[0] for v in ext.region.members[0].vertices) == 0.899
    result = geometry.contains_node(ext, base)
    assert result.contained is False
    assert result.witness.values["x"] == pytest.approx(0.9)


def test_contains_node_tests_only_the_vertices_against_a_single_member(monkeypatch):
    # an 8-parameter box over a 7-parameter one: a single convex member grown
    # by tol holds the hull of the points it holds, so the 2^8 vertices decide
    # and no chord point is built
    base = _node("base", [(0.0, 1.0)] * 7, [_box([0.0] * 7, [1.0] * 7)])
    ext = _node("ext", [(0.0, 1.0)] * 8, [_box([0.0] * 8, [1.0] * 8)])
    rows = []
    engine = geometry.region_containment
    monkeypatch.setattr(geometry, "region_containment", lambda X, *args: rows.append(len(X)) or engine(X, *args))
    assert geometry.contains_node(ext, base).contained is True
    assert rows == [2**8]
    # a failing vertex is the witness, as when the chords followed it
    base = _node("base", [(0.0, 1.0)] * 2, [_box([0.0] * 2, [1.0] * 2)])
    inner = _node("inner", [(0.0, 2.0), (0.0, 1.0), (0.0, 1.0)], [_box([0.5, 0.2, 0.0], [1.5, 0.8, 1.0])])
    result = geometry.contains_node(inner, base)
    assert result.contained is False
    assert result.witness.values == {"x0": 1.5, "x1": 0.8, "x2": 1.0}


def _star_polygon(gaps, radii):
    """A simple polygon: vertices at increasing angles around (0.5, 0.5)."""
    angles = np.cumsum(gaps) / np.sum(gaps) * 2 * math.pi
    return tuple((0.5 + r * math.cos(a), 0.5 + r * math.sin(a)) for a, r in zip(angles, radii))


@given(
    data=st.data(),
    sides=st.integers(min_value=8, max_value=16),
    corner=st.tuples(*[st.floats(min_value=0.25, max_value=0.65)] * 2),
    size=st.tuples(*[st.floats(min_value=0.01, max_value=0.3)] * 2),
    simplex=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=100)
def test_contains_node_never_misses_a_sampled_witness(data, sides, corner, size, simplex, seed):
    # a box or a corner simplex over (x0, x1, x2) against a random simple
    # polygon over (x0, x1): every sampled inner point whose projection is outside the
    # base must be matched by a "not contained" verdict with a true witness
    gaps = data.draw(st.lists(st.floats(min_value=0.5, max_value=1.0), min_size=sides, max_size=sides))
    radii = data.draw(st.lists(st.floats(min_value=0.05, max_value=0.45), min_size=sides, max_size=sides))
    base = oddkit.OddNode(
        "base",
        oddkit.Level.MLM_ODD,
        (oddkit.Parameter("x0", "u", 0.0, 1.0), oddkit.Parameter("x1", "u", 0.0, 1.0)),
        oddkit.Polygon2D(_star_polygon(gaps, radii)),
    )
    (x0, y0), (a, b) = corner, size
    rng = np.random.default_rng(seed)
    if simplex:
        halfspaces = [((-1.0, 0.0, 0.0), -x0), ((0.0, -1.0, 0.0), -y0), ((0.0, 0.0, -1.0), 0.0),
                      ((1 / a, 1 / b, 1.0), 1 + x0 / a + y0 / b)]
        verts = [(x0, y0, 0.0), (x0 + a, y0, 0.0), (x0, y0 + b, 0.0), (x0, y0, 1.0)]
        X = rng.dirichlet(np.ones(4), 300) @ np.array(verts)
    else:
        halfspaces, verts = _box([x0, y0, 0.0], [x0 + a, y0 + b, 1.0])
        X = rng.uniform([x0, y0, 0.0], [x0 + a, y0 + b, 1.0], (300, 3))
    inner = _node("inner", [(0.0, 1.0)] * 3, [(halfspaces, verts)])
    result = geometry.contains_node(inner, base)
    assert result.contained is not None
    if (geometry.region_containment(X[:, :2], base) == geometry.OUTSIDE).any():
        assert result.contained is False
    if result.contained is False:
        w = result.witness
        assert geometry.point_in_region(w, inner) != Containment.OUTSIDE
        assert geometry.point_in_region(geometry.project(w, base), base) == Containment.OUTSIDE


def test_region_vertices_deduplicates(extended_doc):
    # the prism's 10 vertices and the polygon's 5, from the halfspaces and the listed loop
    assert geometry.region_vertices(extended_doc.node("MLMODD_ext")).shape == (10, 3)
    assert geometry.region_vertices(extended_doc.node("MLMODD")).tolist() == [
        list(v) for v in extended_doc.node("MLMODD").region.vertices
    ]
    # two unit squares side by side share the edge x = 1: its two vertices are kept once
    union = _node("pair", [(0.0, 2.0), (0.0, 1.0)], [_box([0.0, 0.0], [1.0, 1.0]), _box([1.0, 0.0], [2.0, 1.0])])
    verts = geometry.region_vertices(union)
    assert sorted(map(tuple, verts.tolist())) == pytest.approx(
        [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0), (2.0, 0.0), (2.0, 1.0)], abs=1e-12
    )


def test_listed_vertices_come_back_exactly(extended_doc):
    # solved from the spec's own rows, with box-bound coordinates set to the
    # bound, the prism's vertices are its listed ones to the last bit
    ext = extended_doc.node("MLMODD_ext")
    (listed,) = [member.vertices for member in ext.region.members]
    assert sorted(map(tuple, geometry.region_vertices(ext).tolist())) == sorted(listed)
    corners = oddkit.sample_region(ext, 20, "feasible_corner", seed=0)
    assert (0.2, 15000.0, 15.0) in [tuple(p.values.values()) for p in corners]
