"""The polygon cell grid: a call deciding at least as many rows as the grid
has cells reads each row's code from its cell, and sends only the rows of
undecided cells, and non-finite or huge rows, to the exact engine. Every
code must be the exact engine's, row for row. A one-point point_in_region
reads the same grid and sends the rest to the same engine, and must give
the scalar reference's verdict, as distance_to_boundary must give its
distance to the last bit."""

from __future__ import annotations

import dataclasses
import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oddkit import geometry
from oddkit.model import DEFAULT_TOL, DataPoint, Level, OddNode, Parameter, Polygon2D

from oracles import exact_polygon_containment, polygon_distance
from test_batch import probe_points
from test_geometry_bits import FIXTURE, POLYGONS

THRESHOLD = geometry._GRID_CELLS
CORPUS = ("MLMODD", "MLCODD_spec", "MLCODD_oper", "SOD")
# tiny, the default, wide, wider than a cell, and wider than the polygon
TOLS = (1e-300, DEFAULT_TOL, 1e-3, 0.05, 2.0)


def exact_codes(X: np.ndarray, node: OddNode, tol: float) -> np.ndarray:
    """The exact engine's codes of every row, with no grid."""
    decide = partial(geometry._polygon_codes, edges=geometry._geometry(node).edges, tol=tol)
    return geometry._by_chunk(decide, geometry.normalize_array(X, node), np.empty(len(X), dtype=np.int8))


def assert_grid_agrees(X: np.ndarray, node: OddNode, tol: float) -> None:
    assert len(X) >= THRESHOLD
    codes = geometry.region_containment(X, node, tol)
    assert tol in geometry._geometry(node).cells
    expected = exact_codes(X, node, tol)
    wrong = np.flatnonzero(codes != expected)
    assert wrong.size == 0, [(X[i].tolist(), int(codes[i]), int(expected[i])) for i in wrong[:5]]


def assert_one_point_agrees(X: np.ndarray, node: OddNode, tol: float) -> None:
    """point_in_region of each row, one call per row, is the scalar
    reference's verdict; the first call builds the node's grid for ``tol``."""
    names = node.parameter_names
    wrong = [
        (x, got, expected)
        for x in map(tuple, X.tolist())
        if (got := geometry.point_in_region(DataPoint(dict(zip(names, x))), node, tol))
        != (expected := exact_polygon_containment(x, node, tol))
    ]
    assert tol in geometry._geometry(node).cells
    assert not wrong, wrong[:5]


def on_unit_box(node: OddNode) -> OddNode:
    """The node's polygon in normalized coordinates, over the unit box, where
    normalizing is exact: a row built at a normalized place stays there."""
    unit = tuple(Parameter(p.name, "-", 0.0, 1.0) for p in node.parameters)
    vertices = tuple(geometry._geometry(node).normalize(v) for v in node.region.vertices)
    return OddNode(node.name, node.level, unit, Polygon2D(vertices))


def uniform_rows(node: OddNode, rng: np.random.Generator, n: int = THRESHOLD) -> np.ndarray:
    """Rows uniform over the node's box inflated by 20% of its spans."""
    lo, hi = np.array(node.box).T
    span = hi - lo
    return rng.uniform(lo - 0.2 * span, hi + 0.2 * span, size=(n, 2))


def near_band_rows(vertices: np.ndarray, tol: float, rng: np.random.Generator, per: int = 64) -> np.ndarray:
    """Points tol plus or minus up to 4 ulps away from seeded points on each
    edge, along its normal on both sides, and from each vertex in seeded
    directions."""
    ends = np.roll(vertices, -1, axis=0)
    scale = tol + np.arange(-4, 5) * math.ulp(tol)
    rows = []
    for a, b in zip(vertices, ends):
        along = b - a
        length = math.hypot(*along)
        if length == 0.0:
            continue
        normal = np.array([-along[1], along[0]]) / length
        feet = a + rng.uniform(size=(per, 1)) * along
        for side in (1.0, -1.0):
            rows.append((feet[:, None] + side * scale[None, :, None] * normal).reshape(-1, 2))
    angles = rng.uniform(0.0, 2.0 * math.pi, size=(len(vertices), per))
    unit = np.stack([np.cos(angles), np.sin(angles)], axis=-1)
    rows.append((vertices[:, None, None] + scale[None, None, :, None] * unit[:, :, None]).reshape(-1, 2))
    return np.vstack(rows)


@pytest.fixture(scope="module")
def corpus(extended_doc):
    return {name: extended_doc.node(name) for name in CORPUS}


@pytest.mark.parametrize("tol", TOLS)
@pytest.mark.parametrize("name", CORPUS)
def test_corpus_polygons_get_the_exact_engines_codes(corpus, name, tol):
    """Uniform rows over the inflated box, and the probes of the array-engine
    tests: vertices, edges and range extremes, jittered around DEFAULT_TOL."""
    node = dataclasses.replace(corpus[name])
    rng = np.random.default_rng(CORPUS.index(name))
    X = np.vstack([uniform_rows(node, rng), probe_points(node, seed=CORPUS.index(name), n=THRESHOLD)])
    assert_grid_agrees(X, node, tol)
    assert_one_point_agrees(X, node, tol)


@pytest.mark.parametrize("tol", TOLS)
@pytest.mark.parametrize("name", CORPUS)
def test_rows_tol_from_the_boundary_and_on_cell_lines(corpus, name, tol):
    node = on_unit_box(corpus[name])
    rng = np.random.default_rng(7)
    U = np.vstack([uniform_rows(node, rng), near_band_rows(np.array(node.region.vertices), tol, rng)])
    assert_grid_agrees(U, node, tol)
    assert_one_point_agrees(U, node, tol)

    grid = geometry._geometry(node).cells[tol]
    side = len(grid.codes)
    lines = np.array(grid.origin)[:, None] + np.arange(side + 1) * np.array(grid.width)[:, None]  # (2, side + 1)
    lines = np.hstack([lines, np.nextafter(lines, -np.inf), np.nextafter(lines, np.inf)])
    xs, ys = (rng.uniform(lines[k].min(), lines[k].max(), size=THRESHOLD) for k in (0, 1))
    on_lines = np.vstack([
        np.column_stack([rng.choice(lines[0], THRESHOLD), ys]),
        np.column_stack([xs, rng.choice(lines[1], THRESHOLD)]),
        np.stack(np.meshgrid(lines[0], lines[1]), axis=-1).reshape(-1, 2),  # cell corners
    ])
    assert_grid_agrees(on_lines, node, tol)
    assert_one_point_agrees(on_lines[::8], node, tol)


def test_non_finite_and_huge_rows_go_to_the_exact_engine(corpus):
    node = dataclasses.replace(corpus["MLMODD"])
    rng = np.random.default_rng(3)
    X = uniform_rows(node, rng, n=2 * THRESHOLD)
    specials = [math.nan, math.inf, -math.inf, 1e300, -1e308, 1e140, -1e100]
    picked = rng.integers(len(X), size=(len(specials), 64))
    for value, rows in zip(specials, picked):
        X[rows[:32], 0] = value
        X[rows[32:], 1] = value
    X[:len(specials) ** 2] = [(u, v) for u in specials for v in specials]
    for tol in TOLS:
        assert_grid_agrees(X, node, tol)
        assert_one_point_agrees(X, node, tol)


@st.composite
def polygons(draw):
    """Star-shaped simple polygons about the centre of the unit box, with
    random radii (so non-convex) and squeezed into a thin band or not."""
    n = draw(st.integers(3, 12))
    turn = st.floats(0.0, 2.0 * math.pi, exclude_max=True)
    angles = sorted(draw(st.lists(turn, min_size=n, max_size=n, unique=True)))
    radii = draw(st.lists(st.floats(0.02, 0.45), min_size=n, max_size=n))
    thin = draw(st.sampled_from([1.0, 1e-2, 1e-5]))
    return tuple((0.5 + r * math.cos(t), 0.5 + thin * r * math.sin(t)) for t, r in zip(angles, radii))


@settings(max_examples=40)  # derandomized by the conftest profile
@given(vertices=polygons(), tol=st.sampled_from(TOLS), seed=st.integers(0, 2**16))
def test_random_simple_polygons_get_the_exact_engines_codes(vertices, tol, seed):
    unit = (Parameter("x", "-", 0.0, 1.0), Parameter("y", "-", 0.0, 1.0))
    node = OddNode("P", Level.MLM_ODD, unit, Polygon2D(vertices))
    rng = np.random.default_rng(seed)
    V = np.array(vertices)
    lo, hi = V.min(axis=0), V.max(axis=0)
    span = np.maximum(hi - lo, 1e-9)
    U = np.vstack([
        rng.uniform(lo - 0.2 * span, hi + 0.2 * span, size=(THRESHOLD, 2)),
        near_band_rows(V, tol, rng, per=16),
    ])
    assert_grid_agrees(U, node, tol)
    assert_one_point_agrees(U, node, tol)


def test_stored_polygon_probes_tiled_past_the_threshold_give_the_stored_codes(extended_doc):
    with np.load(FIXTURE) as stored:
        for name in POLYGONS:
            node = dataclasses.replace(extended_doc.node(name))
            X, codes = stored[f"{name}.X"], stored[f"{name}.region_containment"]
            reps = -(-THRESHOLD // len(X))
            assert np.array_equal(geometry.region_containment(np.tile(X, (reps, 1)), node), np.tile(codes, reps))
            assert DEFAULT_TOL in geometry._geometry(node).cells


def test_the_grid_is_built_only_at_the_threshold(corpus):
    node = dataclasses.replace(corpus["SOD"])
    X = uniform_rows(node, np.random.default_rng(1))
    geometry.region_containment(X[: THRESHOLD - 1], node, 1e-3)
    assert geometry._geometry(node).cells == {}
    geometry.region_containment(X, node, 1e-3)
    assert set(geometry._geometry(node).cells) == {1e-3}
    geometry.region_containment(X[:1], node)
    assert set(geometry._geometry(node).cells) == {1e-3}


def test_one_point_and_batch_calls_share_one_grid(corpus, monkeypatch):
    node = dataclasses.replace(corpus["MLCODD_oper"])
    X = uniform_rows(node, np.random.default_rng(4))
    read = []

    def reading(lookup):
        def wrapper(*args):
            read.append(args[-1])  # the grid
            return lookup(*args)
        return wrapper

    monkeypatch.setattr(geometry, "_cell_code", reading(geometry._cell_code))
    monkeypatch.setattr(geometry, "_cell_codes", reading(geometry._cell_codes))
    geometry.point_in_region(DataPoint(dict(zip(node.parameter_names, X[0].tolist()))), node, 1e-3)
    geometry.region_containment(X, node, 1e-3)
    (grid,) = geometry._geometry(node).cells.values()
    assert len(read) == 2 and all(r is grid for r in read)


@pytest.mark.parametrize("name", ("MLMODD", "MLCODD_spec", "SOD"))
def test_the_grid_decides_most_rows(corpus, name, monkeypatch):
    """Of rows uniform over the 20%-inflated MLC box, at most 15% reach the
    exact engine once the grid is built."""
    node = dataclasses.replace(corpus[name])
    X = uniform_rows(corpus["MLCODD_spec"], np.random.default_rng(2), n=5 * THRESHOLD)
    expected = geometry.region_containment(X, node)  # builds the grid
    exact = geometry._polygon_codes
    decided = []

    def counting(xhat, *args, **kwargs):
        decided.append(len(xhat))
        return exact(xhat, *args, **kwargs)

    monkeypatch.setattr(geometry, "_polygon_codes", counting)
    assert np.array_equal(geometry.region_containment(X, node), expected)
    assert 0 < sum(decided) <= 0.15 * len(X)


def snapped_probes(vertices: np.ndarray, grid: geometry._CellGrid, tol: float, rng: np.random.Generator) -> np.ndarray:
    """The vertices, seeded points on each edge and on the grid's cell lines,
    each pushed off in a seeded direction by 0, tol, 1e-6 and 1e-3; then a
    fifth of the rows get a NaN, infinite or +-1e300 coordinate, or two."""
    t = rng.uniform(size=(len(vertices), 3, 1))
    on_edges = (vertices[:, None] + t * (np.roll(vertices, -1, axis=0) - vertices)[:, None]).reshape(-1, 2)
    side = len(grid.codes)
    k = rng.integers(side + 1, size=(16, 2))
    lines = np.array(grid.origin) + k * np.array(grid.width)
    free = np.array(grid.origin) + rng.uniform(0, side, size=(16, 2)) * np.array(grid.width)
    on_lines = np.vstack([np.column_stack([lines[:, 0], free[:, 1]]), np.column_stack([free[:, 0], lines[:, 1]])])
    snapped = np.repeat(np.vstack([vertices, on_edges, on_lines]), 4, axis=0)
    angles = rng.uniform(0.0, 2.0 * math.pi, size=len(snapped))
    push = np.tile([0.0, tol, 1e-6, 1e-3], len(snapped) // 4)
    X = snapped + push[:, None] * np.column_stack([np.cos(angles), np.sin(angles)])
    special = rng.choice([math.nan, math.inf, -math.inf, 1e300, -1e300], size=X.shape)
    rows = rng.random(len(X)) < 0.2
    columns = rng.integers(3, size=len(X))  # x, y or both
    X[rows & (columns != 1), 0] = special[rows & (columns != 1), 0]
    X[rows & (columns != 0), 1] = special[rows & (columns != 0), 1]
    return X


@pytest.mark.parametrize("tol", TOLS)
@settings(max_examples=20)  # derandomized by the conftest profile
@given(vertices=polygons(), seed=st.integers(0, 2**16))
def test_one_point_polygon_calls_match_the_scalar_reference(vertices, seed, tol):
    """Per probe, distance_to_boundary is the reference's segment distance bit
    for bit (NaN for NaN), and point_in_region is both region_containment's
    code of the row and the reference's verdict."""
    unit = (Parameter("x", "-", 0.0, 1.0), Parameter("y", "-", 0.0, 1.0))
    node = OddNode("P", Level.MLM_ODD, unit, Polygon2D(vertices))
    X = snapped_probes(np.array(vertices), geometry._geometry(node).cell_grid(tol), tol, np.random.default_rng(seed))
    for row in X:
        x = tuple(row.tolist())
        p = DataPoint(dict(zip(node.parameter_names, x)))
        assert geometry.distance_to_boundary(p, node).hex() == polygon_distance(x, node).hex(), x
        verdict = geometry.point_in_region(p, node, tol)
        assert verdict == geometry.CONTAINMENT[geometry.region_containment(row[None], node, tol)[0]], x
        assert verdict == exact_polygon_containment(x, node, tol), x
