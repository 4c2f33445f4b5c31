"""Computational-geometry primitives over ODD regions.

All distances and tolerances are expressed in normalized parameter units:
each axis is scaled by its admissible span, so results are invariant under
rescaling a parameter together with its range and region coordinates.

Polygon containment over many rows reads each row's code from a grid of
cells kept per node and ``tol`` (see :func:`_cell_grid`): a cell that no
edge comes within ``tol`` plus a slack of takes its centre's code, which is
then every row's in it, and only the rows of the other cells, and rows with
a non-finite or huge coordinate, go to the exact engine. A call of fewer
rows than the grid has cells decides every row exactly.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass, replace
from functools import partial
from itertools import combinations, repeat
from operator import add, ge, mul, sub, truediv
from typing import NamedTuple

import numpy as np

from .errors import IncompatibleParameters, MissingParameter
from .model import (
    DEFAULT_TOL,
    Containment,
    DataPoint,
    OddNode,
    Points,
    Polygon2D,
    PolytopeUnion,
)


def coords(p: DataPoint, node: OddNode) -> tuple[float, ...]:
    """Extract the node's parameter values from a data point, in order."""
    values, out = p.values, []
    for name in node.parameter_names:
        if name not in values:
            raise MissingParameter(name)
        out.append(float(values[name]))
    return tuple(out)


def normalize(x: tuple[float, ...], node: OddNode) -> tuple[float, ...]:
    return _geometry(node).normalize(x)


# -- polygon helpers ---------------------------------------------------------


def _edges(verts):
    n = len(verts)
    for i in range(n):
        yield verts[i], verts[(i + 1) % n]


def polygon_area(verts) -> float:
    """Signed area (shoelace); positive for counterclockwise loops."""
    total = 0.0
    for (x1, y1), (x2, y2) in _edges(verts):
        total += x1 * y2 - x2 * y1
    return total / 2.0


def _segments_intersect(a, b, c, d) -> bool:
    """True if open segments ab and cd properly intersect."""

    def orient(p, q, r):
        v = (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
        return (v > 0) - (v < 0)

    o1, o2 = orient(a, b, c), orient(a, b, d)
    o3, o4 = orient(c, d, a), orient(c, d, b)
    return o1 != o2 and o3 != o4 and 0 not in (o1, o2, o3, o4)


def polygon_is_simple(verts) -> bool:
    """No two non-adjacent edges intersect."""
    edges = list(_edges(verts))
    n = len(edges)
    for i in range(n):
        for j in range(i + 1, n):
            if j == i + 1 or (i == 0 and j == n - 1):
                continue
            if _segments_intersect(*edges[i], *edges[j]):
                return False
    return True


def _polygon_distance(px: float, py: float, segments) -> float:
    """Distance from (px, py) to the nearest of the polygon's edge segments."""
    dists = []
    for ax, ay, _, dx, dy, denom in segments:
        t = 0.0 if denom == 0.0 else max(0.0, min(1.0, ((px - ax) * dx + (py - ay) * dy) / denom))
        dists.append(math.hypot(px - (ax + t * dx), py - (ay + t * dy)))
    return min(dists)


def _even_odd_inside(px: float, py: float, segments) -> bool:
    inside = False
    for ax, ay, by, dx, dy, _ in segments:
        if (ay > py) != (by > py) and px < ax + (py - ay) * dx / dy:
            inside = not inside
    return inside


# -- polytope helpers --------------------------------------------------------


def _slacks(xhat, rows) -> list[float]:
    """Signed slack ``b - a.xhat`` of each face of a member's ``(columns, b)``,
    folded left to right from 0.0 as :func:`_union_codes` adds the columns;
    since Python 3.12, ``sum()`` adds floats with compensation."""
    columns, b = rows
    dots = repeat(0.0)
    for column, x in zip(columns, xhat):
        dots = map(add, dots, map(mul, column, repeat(x)))
    return list(map(sub, b, dots))


# Rows whose smallest singular value is below this (rows are unit vectors)
# are dependent, as a redundant halfspace tight along an edge is with the
# edge's two facets.
_RANK_RCOND = 1e-9
# The meeting point of d independent rows is a vertex when it exceeds no
# halfspace by more than this, and a row is tight on the vertex when its
# slack is within this; far above the rounding error of the solve.
_VERTEX_SLACK = 1e-9
# A face's projection is a point of the polytope when it exceeds no halfspace
# by more than this times max(1, |xhat|), the scale of its rounding error.
_FEASIBLE_SLACK = 1e-12
# Up to this |xhat| no face table entry or square overflows (weights and
# offsets are O(1)), and up to this violation v a facet decides: v * v is finite.
_NO_OVERFLOW = 1e150


class _FaceTable(NamedTuple):
    """One convex member's faces, stacked for one matrix product per point.

    With ``z = xhat @ weights + offsets``, the first ``faces * d`` entries
    of z hold ``p_f - xhat`` face by face, where p_f is the projection of
    xhat onto face f's affine hull; the vertices come first, as faces whose
    projection is the vertex itself. The rest of z holds ``A p_f - b`` for
    the faces after the vertices, and ``starts`` indexes its first entry of
    each face.
    """

    weights: np.ndarray
    offsets: np.ndarray
    starts: np.ndarray
    faces: int
    vertices: int


def _flats(A: np.ndarray, b: np.ndarray, k: int):
    """Every set T of k independent rows, as index rows, with the projector
    M and offset c of its flat {p : A_T p = b_T}, whose projection of x is
    M x + c; all sets are solved in one batch."""
    T = np.array(list(combinations(range(len(b)), k)), dtype=int).reshape(-1, k)
    u, s, vt = np.linalg.svd(A[T], full_matrices=False)
    T, u, s, vt = (a[s[:, -1] >= _RANK_RCOND] for a in (T, u, s, vt))
    c = np.einsum("tji,tj->ti", vt, np.einsum("tji,tj->ti", u, b[T]) / s)
    return T, np.eye(A.shape[1]) - vt.transpose(0, 2, 1) @ vt, c


def _vertices(A: np.ndarray, b: np.ndarray) -> dict[frozenset, tuple[np.ndarray, np.ndarray]]:
    """The vertices of {x : A x <= b} (unit rows), keyed by their tight rows:
    the flats of d independent rows that exceed no row by more than the
    slack, a vertex on more than d rows kept once, with its first set's rows."""
    T, _, x = _flats(A, b, A.shape[1])
    excess = x @ A.T - b
    vertices = {}
    for row in np.flatnonzero(excess.max(axis=1) <= _VERTEX_SLACK):
        vertices.setdefault(frozenset(np.flatnonzero(excess[row] >= -_VERTEX_SLACK).tolist()), (x[row], T[row]))
    return vertices


def _face_tables(members) -> tuple[_FaceTable, ...]:
    """Per union member, as unit rows ``(A, b)``: its normalized face table.

    The table comes from the halfspaces alone, which decide containment;
    the listed vertices play no part, since the spec admits a listed vertex
    rounded into the member. A face's affine hull is {p : A_T p = b_T} for
    a set T of independent rows tight on the face, so the table holds that
    flat for every set of up to d independent rows tight on some vertex.
    Every face of a polyhedron with a vertex contains one, so each face's
    flat is in the table; without a vertex, every flat is.
    """
    tables = []
    for A, b in members:
        d = A.shape[1]
        vertices = _vertices(A, b)
        M, c = np.empty((0, d, d)), np.empty((0, d))
        for k in range(d - 1, 0, -1):
            T, M_k, c_k = _flats(A, b, k)
            keep = [not vertices or any(t.issuperset(row) for t in vertices) for row in T.tolist()]
            M, c = np.concatenate([M, M_k[keep]]), np.concatenate([c, c_k[keep]])
        V = np.reshape([x for x, _ in vertices.values()], (-1, d))
        # p - x = (M - I) x + c, and A p - b = A M x + (A c - b); M is symmetric
        weights = np.hstack([
            np.tile(-np.eye(d), len(V)),
            (M - np.eye(d)).transpose(1, 0, 2).reshape(d, -1),
            (M @ A.T).transpose(1, 0, 2).reshape(d, -1),
        ])
        offsets = np.concatenate([V.ravel(), c.ravel(), (c @ A.T - b).ravel()])
        starts = np.arange(len(M)) * len(b)
        tables.append(_FaceTable(*map(_read_only, (weights, offsets, starts)), len(V) + len(M), len(V)))
    return tuple(tables)


def _read_only(a) -> np.ndarray:
    a = a if isinstance(a, np.ndarray) else np.array(a, dtype=float)
    a.flags.writeable = False  # shared by every caller through the node's record
    return a


class _NodeGeometry:
    """What one node's geometry calls read, built once per node by
    :func:`_geometry`: the bounds as tuples and as arrays, and the normalized
    polygon's edges (``segments`` for one point, ``edges`` for the engine)
    or each member's unit rows (``rows`` as ``(columns, b)`` tuples,
    ``members`` as ``(A, b)`` arrays) and their Gram matrix ``A A^T`` with
    a unit diagonal (``grams``, tuples). The face tables, the region pieces
    and a polygon's cell grids come on first use."""

    def __init__(self, node: OddNode):
        params, self.region = node.parameters, node.region
        self.lo_t, self.span_t = tuple(p.lo for p in params), tuple(p.span for p in params)
        self.lo, self.hi, self.span = map(_read_only, (self.lo_t, [p.hi for p in params], self.span_t))
        self.tables, self.pieces, self.cells = None, {}, {}
        if isinstance(self.region, Polygon2D):
            verts = [self.normalize(v) for v in self.region.vertices]
            (ax, ay), (bx, by) = np.array(verts).T, np.array(verts[1:] + verts[:1]).T
            dx, dy = bx - ax, by - ay
            sq = dx * dx + dy * dy
            self.segments = tuple(zip(*(v.tolist() for v in (ax, ay, by, dx, dy, sq))))
            # the squared lengths and rises with zeros replaced by 1: see _polygon_codes
            edges = (ax, ay, by, dx, dy, np.where(sq == 0.0, 1.0, sq), np.where(dy == 0.0, 1.0, dy))
            self.edges = tuple(map(_read_only, edges))
        else:
            units = [list(map(self._unit_row, m.halfspaces)) for m in self.region.members]
            self.members = tuple((_read_only([a for a, _ in m]), _read_only([b for _, b in m])) for m in units)
            self.rows = tuple((tuple(zip(*A.tolist())), tuple(b.tolist())) for A, b in self.members)
            # unit rows: the diagonal is 1.0 exactly, so a face's check against itself passes
            grams = (np.where(np.eye(len(A), dtype=bool), 1.0, A @ A.T) for A, _ in self.members)
            self.grams = tuple(tuple(map(tuple, G.tolist())) for G in grams)

    def _unit_row(self, halfspace) -> tuple[tuple[float, ...], float]:
        a, b = halfspace  # a.x <= b, in normalized coordinates as a unit row
        a_n = [ai * s for ai, s in zip(a, self.span_t)]
        b_n = b - sum(ai * lo for ai, lo in zip(a, self.lo_t))
        norm = math.sqrt(sum(v * v for v in a_n)) or 1.0
        return tuple(v / norm for v in a_n), b_n / norm

    def normalize(self, x) -> tuple[float, ...]:
        return tuple(map(truediv, map(sub, x, self.lo_t), self.span_t))

    def face_tables(self) -> tuple[_FaceTable, ...]:
        if self.tables is None:
            self.tables = _face_tables(self.members)
        return self.tables

    def cell_grid(self, tol: float) -> _CellGrid | None:
        if tol not in self.cells:
            self.cells[tol] = _cell_grid(self.edges, tol)
        return self.cells[tol]


def _geometry(node: OddNode) -> _NodeGeometry:
    """The node's geometry record, built on the first call and kept on the
    node, so later calls neither hash the node nor rebuild an array."""
    g = node.compiled
    if g is None:
        g = _NodeGeometry(node)
        object.__setattr__(node, "compiled", g)
    return g


def _distance_outside(xhat, table: _FaceTable) -> float:
    """Distance from a finite point outside a convex member to the member.

    The nearest point lies in the relative interior of one face, where it
    is the projection onto that face's affine hull; any other projection
    that lies in the member is a point of it, so no nearer. So the distance
    is the least over the vertices, which lie in the member, and over the
    projections that exceed no halfspace by more than the slack. A point so
    far that its squared distances overflow gives inf. Near the end of the
    float range a sum can meet inf - inf, and a NaN excess counts as
    infeasible.
    """
    d, scale = len(xhat), max(1.0, *map(abs, xhat))
    with np.errstate(over="ignore", invalid="ignore") if scale > _NO_OVERFLOW else nullcontext():
        z = np.dot(xhat, table.weights) + table.offsets
        diff = z[: table.faces * d]
        sq = (diff * diff).reshape(table.faces, d).sum(axis=1)
        excess = np.maximum.reduceat(z[table.faces * d :], table.starts)
    sq[table.vertices :][~(excess <= _FEASIBLE_SLACK * scale)] = math.inf
    return math.sqrt(sq.min(initial=math.inf))


# -- public operations -------------------------------------------------------


def point_in_region(
    p: DataPoint, node: OddNode, tol: float = DEFAULT_TOL
) -> Containment:
    """Closed-region containment test with an explicit boundary band.

    Points within ``tol`` (normalized) of the boundary report
    ``ON_BOUNDARY``; category logic treats those as inside.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    g = _geometry(node)
    xhat = g.normalize(coords(p, node))
    if isinstance(node.region, Polygon2D):
        if _polygon_distance(*xhat, g.segments) <= tol:
            return Containment.ON_BOUNDARY
        return Containment.INSIDE if _even_odd_inside(*xhat, g.segments) else Containment.OUTSIDE

    on_boundary = False
    for rows in g.rows:
        margin = min(_slacks(xhat, rows))
        if margin > tol:
            return Containment.INSIDE
        if margin >= -tol:
            on_boundary = True
    return Containment.ON_BOUNDARY if on_boundary else Containment.OUTSIDE


def params_at_extreme(
    p: DataPoint, node: OddNode, tol: float = DEFAULT_TOL
) -> set[str]:
    """Parameters whose value sits at an admissible-range bound within tolerance.

    Values strictly outside [lo, hi] by more than the tolerance band are never
    at an extreme. The one-row case of :func:`extreme_mask`.
    """
    flags = extreme_mask(np.array([coords(p, node)]), node, tol)[0].tolist()
    return {name for name, at in zip(node.parameter_names, flags) if at}


# -- array engine ------------------------------------------------------------
#
# Batch forms of point_in_region and params_at_extreme over an (n, d) array of
# raw coordinates in node-parameter order, deciding every row as the scalar
# functions do (for finite coordinates). One region_containment call costs
# several point_in_region calls, so callers that handle one point at a time
# keep point_in_region.

# Codes returned by region_containment; CONTAINMENT[code] is the enum value.
INSIDE, ON_BOUNDARY, OUTSIDE = 0, 1, 2
CONTAINMENT = (Containment.INSIDE, Containment.ON_BOUNDARY, Containment.OUTSIDE)

# Rows per block: bounds the (rows x edges) and (rows x faces) temporaries.
_CHUNK_ROWS = 4096


def coords_array(points: Points | list[DataPoint], node: OddNode) -> np.ndarray:
    """The node's parameter values of each point, as an (n, d) float array,
    read-only.

    Raises MissingParameter for the first point lacking a parameter, naming
    the parameter as :func:`coords` does.
    """
    X, present = Points.of(points).values.select(node.parameter_names)
    if not present.all():
        row = present[np.flatnonzero(~present.all(axis=1))[0]]
        raise MissingParameter(node.parameter_names[row.argmin()])
    return X


def normalize_array(X: np.ndarray, node: OddNode) -> np.ndarray:
    """Rows of raw coordinates in node-parameter order, scaled as by :func:`normalize`."""
    g = _geometry(node)
    with np.errstate(over="ignore"):  # an overflow gives inf, decided as such
        return (X - g.lo) / g.span


def denormalize_array(U: np.ndarray, node: OddNode) -> np.ndarray:
    """Rows of normalized coordinates as raw ones: ``lo + U * span``."""
    g = _geometry(node)
    return g.lo + U * g.span


def _by_chunk(decide, X: np.ndarray, out: np.ndarray) -> np.ndarray:
    # non-finite or huge coordinates give NaN or inf intermediates (inf * 0,
    # overflow); the comparisons decide those rows, so the warnings say nothing
    with np.errstate(invalid="ignore", over="ignore"):
        for start in range(0, len(X), _CHUNK_ROWS):
            stop = start + _CHUNK_ROWS
            out[start:stop] = decide(X[start:stop])
    return out


def _polygon_codes(xhat: np.ndarray, edges: tuple[np.ndarray, ...], tol: float) -> np.ndarray:
    """Segment distance and even-odd crossing, broadcast over rows x edges.

    With the zero divisors replaced by 1, a degenerate edge gets t = 0 as in
    the scalar path, and a horizontal edge, which no row straddles, gets an
    unused crossing.
    """
    ax, ay, by, dx, dy, sq, rise = edges
    px, py = xhat[:, :1], xhat[:, 1:]
    ry = py - ay
    t = np.minimum(np.maximum(((px - ax) * dx + ry * dy) / sq, 0.0), 1.0)
    ex, ey = px - (ax + t * dx), py - (ay + t * dy)
    dist = np.hypot(ex, ey)
    # np.hypot and math.hypot can differ in the last bit: near tol, use the scalar's
    for r, e in zip(*np.nonzero(np.abs(dist - tol) <= 4 * math.ulp(tol))):
        dist[r, e] = math.hypot(ex[r, e], ey[r, e])
    on_boundary = (dist <= tol).any(axis=1)
    straddles = (ay > py) != (by > py)
    inside = (straddles & (px < ax + ry * dx / rise)).sum(axis=1) % 2 == 1
    return np.where(on_boundary, ON_BOUNDARY, np.where(inside, INSIDE, OUTSIDE))


# Cells per side of a polygon's cell grid. A call that decides at least as
# many rows as the grid has cells builds and reads one: building it costs
# about as much as deciding that many rows exactly.
_GRID_SIDE = 64
_GRID_CELLS = _GRID_SIDE * _GRID_SIDE
# An edge within tol plus this, times the grid's scale, of a cell leaves the
# cell undecided; far above the rounding error of a row's distance or crossing.
_CELL_SLACK = 1e-12


class _CellGrid(NamedTuple):
    """A polygon's grid of normalized cells for one ``tol``: cell (i, j) spans
    ``origin + [i, i + 1] x [j, j + 1] * width``, and ``codes[i, j]`` is the
    code of every row in it, or -1 where it is undecided. The outer ring of
    cells lies beyond the padding and takes every row past it."""

    origin: np.ndarray
    width: np.ndarray
    codes: np.ndarray


def _cell_grid(edges: tuple[np.ndarray, ...], tol: float) -> _CellGrid | None:
    """The grid of G x G cells over the edges' bounding box padded by tol and
    twice the slack, in a ring of one cell, or None when ``tol`` is too
    large for a finite grid.

    A cell is decided when no edge meets it grown by ``reach = tol + slack``
    on every side. Then every row in the cell, or a rounding error away, is
    farther than tol from every edge and joined to the centre by a segment
    no edge crosses, so it gets the centre's code. Per axis, edge and slab
    of grown cells, the Liang-Barsky parameter interval of the edge within
    the slab is clipped; an edge meets cell (i, j) where the intervals of
    column i and row j overlap within [0, 1]. A finite row past the padding
    is farther than tol from every edge and on the near side of no crossing,
    so outside, as the ring's cells are.
    """
    ax, ay, by, dx, dy, _, _ = edges
    a, d = np.array([ax, ay]), np.array([dx, dy])  # (2, edges)
    lo, hi = np.minimum(a, a + d).min(axis=1), np.maximum(a, a + d).max(axis=1)
    slack = _CELL_SLACK * max(1.0, tol, *np.abs(lo), *np.abs(hi))
    reach, pad = tol + slack, tol + 2.0 * slack
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        width = (hi - lo + 2.0 * pad) / _GRID_SIDE
        origin = lo - pad - width
        if not np.isfinite([width, origin]).all():
            return None
        lines = origin[:, None] + np.arange(_GRID_SIDE + 3) * width[:, None]
        lower, upper = lines[:, :-1, None] - reach, lines[:, 1:, None] + reach  # (2, G + 2, 1)
        flat, within = d[:, None] == 0.0, (lower <= a[:, None]) & (a[:, None] <= upper)
        t0, t1 = (lower - a[:, None]) / d[:, None], (upper - a[:, None]) / d[:, None]
        enter = np.where(flat, np.where(within, 0.0, np.inf), np.minimum(t0, t1))  # (2, G + 2, edges)
        leave = np.where(flat, np.where(within, 1.0, -np.inf), np.maximum(t0, t1))
        start = np.maximum(np.maximum(enter[0][:, None], enter[1][None]), 0.0)  # (G + 2, G + 2, edges)
        stop = np.minimum(np.minimum(leave[0][:, None], leave[1][None]), 1.0)
        centres = np.stack(np.meshgrid(*(lines[:, :-1] + width[:, None] / 2), indexing="ij"), axis=-1)
        codes = _polygon_codes(centres.reshape(-1, 2), edges, tol).reshape(start.shape[:2])
    codes = np.where((start <= stop).any(axis=2), -1, codes).astype(np.int8)
    return _CellGrid(*map(_read_only, (origin, width, codes)))


def _cell_codes(xhat: np.ndarray, grid: _CellGrid) -> tuple[np.ndarray, np.ndarray]:
    """The code of each row the grid decides, and the indices of the rest:
    rows in undecided cells, and rows with a coordinate that is NaN, infinite
    or beyond the overflow bound. Rows past the grid are clamped to its ring."""
    side = len(grid.codes)
    cells = np.zeros(len(xhat), dtype=np.intp)
    with np.errstate(over="ignore"):
        for column, origin, width in zip(xhat.T, grid.origin.tolist(), grid.width.tolist()):
            k = np.fmin(np.fmax((column - origin) / width, 0.0), side - 1.0)  # NaN gives 0.0
            cells = cells * side + k.astype(np.intp)
    codes = grid.codes.ravel().take(cells)
    return codes, np.flatnonzero((codes < 0) | ~(np.abs(xhat) <= _NO_OVERFLOW).all(axis=1))


def _union_codes(xhat: np.ndarray, members, tol: float) -> np.ndarray:
    """Per member, slack summed column by column in _slacks' order."""
    inside = np.zeros(len(xhat), dtype=bool)
    near = np.zeros(len(xhat), dtype=bool)
    for A, b in members:
        s = xhat[:, :1] * A[:, 0]
        for j in range(1, A.shape[1]):
            s = s + xhat[:, j : j + 1] * A[:, j]
        margin = (b - s).min(axis=1)
        inside |= margin > tol
        near |= margin >= -tol
    return np.where(inside, INSIDE, np.where(near, ON_BOUNDARY, OUTSIDE))


def region_containment(
    X: np.ndarray, node: OddNode, tol: float = DEFAULT_TOL
) -> np.ndarray:
    """Containment code (INSIDE, ON_BOUNDARY, OUTSIDE) of each row of ``X``.

    ``X`` holds raw coordinates in node-parameter order, as from
    :func:`coords_array`; row i's code is :func:`point_in_region`'s verdict.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    g, xhat = _geometry(node), normalize_array(X, node)
    if isinstance(node.region, Polygon2D):
        decide = partial(_polygon_codes, edges=g.edges, tol=tol)
        grid = g.cell_grid(tol) if len(X) >= _GRID_CELLS else None
        if grid is not None:  # the exact engine decides only the rows the grid leaves
            codes, rest = _cell_codes(xhat, grid)
            codes[rest] = _by_chunk(decide, xhat[rest], np.empty(len(rest), dtype=np.int8))
            return codes
    else:
        decide = partial(_union_codes, members=g.members, tol=tol)
    return _by_chunk(decide, xhat, np.empty(len(X), dtype=np.int8))


def point_codes(points: Points, node: OddNode, tol: float = DEFAULT_TOL) -> np.ndarray:
    """:func:`region_containment` of every point's coordinates in ``node``,
    read-only: decided once per points, node and ``tol`` and kept in the
    points' memo, so every stage asking it of the same points reads it."""

    def decide():
        return _read_only(region_containment(coords_array(points, node), node, tol))

    return points.recall("codes", node, tol, decide)


def extreme_mask(X: np.ndarray, node: OddNode, tol: float = DEFAULT_TOL) -> np.ndarray:
    """(n, d) flags: row i's parameter j lies within ``tol`` times its span
    of its lo or hi bound."""
    g = _geometry(node)
    lo, hi, band = g.lo, g.hi, tol * g.span

    def decide(x):
        return np.minimum(np.abs(x - lo), np.abs(x - hi)) <= band

    return _by_chunk(decide, X, np.empty(X.shape, dtype=bool))


def distance_to_boundary(
    p: DataPoint, node: OddNode, tol: float = DEFAULT_TOL
) -> float:
    """Minimal normalized distance from the point to the region boundary.

    Inside a polytope member this is the member's minimal face slack; outside
    it, the exact distance to the member. That is the violation v of the most
    violated face k when ``xhat - v a_k`` exceeds no face, as no point of the
    member is nearer than v; otherwise it comes from the member's face table
    (see :func:`_distance_outside`). A NaN coordinate gives NaN, and an infinite
    one, or one so far that its squared distance overflows, gives inf. For polytope
    unions with overlapping members this is the distance to the nearest
    member boundary, which upper-bounds the union-boundary distance.
    """
    g = _geometry(node)
    xhat = g.normalize(coords(p, node))
    if isinstance(node.region, Polygon2D):
        return _polygon_distance(*xhat, g.segments)
    if not all(map(math.isfinite, xhat)):
        return math.nan if any(map(math.isnan, xhat)) else math.inf
    best = math.inf
    for i, (rows, gram) in enumerate(zip(g.rows, g.grams)):
        slacks = _slacks(xhat, rows)
        margin = min(slacks)
        if not margin >= 0:  # outside, or a NaN slack where sums met inf - inf
            # xhat - v a_k, v = -margin, exceeds face j by -slacks[j] - v (a_j . a_k)
            k = slacks.index(margin)
            if margin >= -_NO_OVERFLOW and all(map(ge, slacks, map(mul, gram[k], repeat(margin)))):
                margin = -margin
            else:
                margin = _distance_outside(xhat, g.face_tables()[i])
        best = min(best, margin)
    return best


@dataclass(frozen=True)
class ContainsResult:
    """``contained`` is None when undecided; see :func:`contains_node`."""

    contained: bool | None
    witness: DataPoint | None = None


def project(p: DataPoint, node: OddNode) -> DataPoint:
    """Restrict a data point to the node's parameters."""
    try:
        vals = {name: p.values[name] for name in node.parameter_names}
    except KeyError as exc:
        raise MissingParameter(exc.args[0]) from None
    return DataPoint(vals, p.provenance_raw, p.hidden_values, p.in_sample)


def region_pieces(node: OddNode, grow: float = 0.0) -> tuple[np.ndarray, ...]:
    """Vertices, in raw coordinates, of each piece of the region within its
    box: the polygon, or each member with its box rows added and its own
    halfspaces moved out by ``grow`` (normalized). A member's vertices come
    from its halfspaces; the spec admits listed vertices rounded inward. A
    vertex's rows are found in normalized coordinates, then solved as the
    spec writes them, and a coordinate held by a box row is that bound.
    """
    g = _geometry(node)
    if grow in g.pieces:
        return g.pieces[grow]
    if isinstance(node.region, Polygon2D):
        pieces = [g.region.vertices]
    else:
        d, pieces = len(g.lo), []
        E, top = np.vstack([np.eye(d), -np.eye(d)]), np.concatenate([(g.hi - g.lo) / g.span, np.zeros(d)])
        # box row j in raw coordinates, and the bound it holds coordinate j % d at
        raw_top, bound = np.concatenate([g.hi, -g.lo]), np.concatenate([g.hi, g.lo])
        for (A, b), member in zip(g.members, g.region.members):
            b = b + grow
            # a box row that a member row already implies only adds sets of rows to solve
            box = np.flatnonzero(~((A[:, None] == E).all(axis=2) & (b[:, None] <= top)).any(axis=0))
            vertices = _vertices(np.vstack([A, E[box]]), np.concatenate([b, top[box]]))
            a_raw, b_raw = map(np.array, zip(*member.halfspaces))
            b_raw = b_raw + grow * np.linalg.norm(a_raw * g.span, axis=1)
            a_raw, b_raw = np.vstack([a_raw, E[box]]), np.concatenate([b_raw, raw_top[box]])
            T = np.array([rows for _, rows in vertices.values()], dtype=int).reshape(-1, d)
            V = np.linalg.solve(a_raw[T], b_raw[T][..., None])[..., 0] + 0.0  # + 0.0: no -0.0
            for V_k, tight in zip(V, vertices):
                for j in box[[row - len(A) for row in tight if row >= len(A)]].tolist():
                    V_k[j % d] = bound[j]
            pieces.append(V)
    g.pieces[grow] = tuple(map(_read_only, pieces))
    return g.pieces[grow]


def region_vertices(node: OddNode, tol: float = DEFAULT_TOL) -> np.ndarray:
    """The vertices of :func:`region_pieces`, clipped to the box, as one (V, d)
    array in raw coordinates; a vertex within ``tol`` (normalized, L∞) of an
    earlier one it keeps is dropped."""
    V = np.clip(np.vstack(region_pieces(node)), *np.array(node.box).T)
    V_hat = normalize_array(V, node)
    kept: list[int] = []
    for i, v in enumerate(V_hat):
        if not kept or np.abs(V_hat[kept] - v).max(axis=1).min() > tol:
            kept.append(i)
    return V[kept]


def bounds_reached(node: OddNode, tol: float = DEFAULT_TOL) -> np.ndarray:
    """(d, 2) flags: whether the region within its box, grown by the boundary
    band ``tol``, reaches parameter j's lo (column 0) or hi (column 1) bound
    within ``tol`` times its span. A coordinate is least and greatest over a
    polygon or a convex piece at a vertex, so the vertices of
    ``region_pieces(node, tol)`` decide it."""
    g = _geometry(node)
    V = np.clip(np.vstack(region_pieces(node, tol)), g.lo, g.hi)
    band = tol * g.span
    return np.column_stack([(V - g.lo <= band).any(axis=0), (g.hi - V <= band).any(axis=0)])


def contains_node(inner: OddNode, outer: OddNode, tol: float = DEFAULT_TOL) -> ContainsResult:
    """Decide whether ``inner``'s region, within its box, projects into ``outer``'s.

    A convex piece of ``inner`` (see :func:`region_pieces`) projects onto the
    hull of its projected vertices, bounded by chords between them; a polygon
    is bounded by its edges. Along a chord, containment in ``outer`` changes
    only where it crosses an edge line or halfspace plane of ``outer``, so the
    endpoints and the midpoints between crossings decide it. The witness is
    the first failing point, vertices first. With none failing, the answer is
    ``contained`` when ``outer`` is a simple polygon, a single member or one
    parameter, or when each piece's projected vertices lie in one member of
    the union; otherwise it is undecided (None).
    """
    missing = set(outer.parameter_names) - set(inner.parameter_names)
    if missing:
        raise IncompatibleParameters(
            f"outer node {outer.name!r} has parameters absent from inner "
            f"{inner.name!r}: {sorted(missing)}"
        )
    columns = [inner.parameter_names.index(name) for name in outer.parameter_names]
    pieces = region_pieces(inner)
    if isinstance(inner.region, Polygon2D):  # its edges project onto the boundary
        starts, ends = pieces[0], np.roll(pieces[0], -1, axis=0)
    else:  # one lift per projected vertex: the others add only chords inside the hull
        lifts = [V[np.sort(np.unique(V[:, columns], axis=0, return_index=True)[1])] for V in pieces]
        pairs = [(V[i], V[j]) for V in lifts for i, j in combinations(range(len(V)), 2)]
        starts, ends = np.reshape(pairs, (-1, 2, len(inner.parameters))).transpose(1, 0, 2)
    if isinstance(outer.region, Polygon2D):
        ax, ay, _, dx, dy, _, _ = _geometry(outer).edges
        N, c = np.column_stack([-dy, dx]), dx * ay - dy * ax
    else:
        N, c = (np.concatenate(part) for part in zip(*_geometry(outer).members))
    p0, p1 = (normalize_array(P[:, columns], outer) for P in (starts, ends))
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (c - p0 @ N.T) / ((p1 - p0) @ N.T)  # crossings; 0 and 1 are the endpoints
    t = np.sort(np.hstack([np.zeros((len(t), 1)), np.where((t > 0) & (t < 1), t, 1.0)]), axis=1)
    chords = starts[:, None] + (t[:, :-1, None] + t[:, 1:, None]) / 2 * (ends - starts)[:, None]
    X = np.vstack([*pieces, chords.reshape(-1, len(inner.parameters))])
    failing = np.flatnonzero(region_containment(X[:, columns], outer, tol) == OUTSIDE)
    if len(failing):
        return ContainsResult(False, DataPoint(dict(zip(inner.parameter_names, X[failing[0]].tolist()))))
    if isinstance(outer.region, Polygon2D) or len(outer.region.members) == 1 or len(columns) == 1:
        return ContainsResult(True)
    members = [replace(outer, region=PolytopeUnion((m,))) for m in outer.region.members]
    fits = [any((region_containment(V[:, columns], m, tol) != OUTSIDE).all() for m in members) for V in pieces]
    return ContainsResult(True if all(fits) else None)
