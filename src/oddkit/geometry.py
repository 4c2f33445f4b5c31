"""Computational-geometry primitives over ODD regions.

All distances and tolerances are expressed in normalized parameter units:
each axis is scaled by its admissible span, so results are invariant under
rescaling a parameter together with its range and region coordinates.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .errors import IncompatibleParameters, MissingParameter
from .model import (
    DEFAULT_TOL,
    Containment,
    ConvexPolytope,
    DataPoint,
    OddNode,
    Polygon2D,
    PolytopeUnion,
)


def coords(p: DataPoint, node: OddNode) -> tuple[float, ...]:
    """Extract the node's parameter values from a data point, in order."""
    out = []
    for param in node.parameters:
        if param.name not in p.values:
            raise MissingParameter(param.name)
        out.append(float(p.values[param.name]))
    return tuple(out)


def normalize(x: tuple[float, ...], node: OddNode) -> tuple[float, ...]:
    return tuple((v - p.lo) / p.span for v, p in zip(x, node.parameters))


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


def _even_odd_inside(pt, verts) -> bool:
    x, y = pt
    inside = False
    for (x1, y1), (x2, y2) in _edges(verts):
        if (y1 > y) != (y2 > y):
            x_cross = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
            if x < x_cross:
                inside = not inside
    return inside


def _point_segment_distance(pt, a, b) -> float:
    px, py = pt
    ax, ay = a
    bx, by = b
    dx, dy = bx - ax, by - ay
    denom = dx * dx + dy * dy
    if denom == 0.0:
        t = 0.0
    else:
        t = max(0.0, min(1.0, ((px - ax) * dx + (py - ay) * dy) / denom))
    cx, cy = ax + t * dx, ay + t * dy
    return math.hypot(px - cx, py - cy)


def _polygon_boundary_distance(pt, verts) -> float:
    return min(_point_segment_distance(pt, a, b) for a, b in _edges(verts))


@lru_cache(maxsize=256)
def _normalized_polygon(node: OddNode) -> tuple[tuple[float, float], ...]:
    region = node.region
    return tuple(normalize(v, node) for v in region.vertices)


# -- polytope helpers --------------------------------------------------------


@lru_cache(maxsize=256)
def _normalized_halfspaces(node: OddNode):
    """Per union member: unit-norm rows (A, b) of A.xhat <= b in normalized coords."""
    members = []
    for member in node.region.members:
        rows = []
        for a, b in member.halfspaces:
            a_n = [ai * p.span for ai, p in zip(a, node.parameters)]
            b_n = b - sum(ai * p.lo for ai, p in zip(a, node.parameters))
            norm = math.sqrt(sum(v * v for v in a_n)) or 1.0
            rows.append((tuple(v / norm for v in a_n), b_n / norm))
        members.append(tuple(rows))
    return tuple(members)


def _member_margin(xhat, rows) -> float:
    """Minimal signed slack over the member's faces; >= 0 means inside."""
    return min(b - sum(ai * xi for ai, xi in zip(a, xhat)) for a, b in rows)


# Major plus minor cycles of _distance_to_hull; a hull of a few dozen
# vertices in a handful of dimensions takes well under 100.
_WOLFE_MAX_STEPS = 1000
_WOLFE_EPS = 1e-12


def _distance_to_hull(xhat, verts_hat) -> float:
    """Euclidean distance from a point to the convex hull of vertices.

    Wolfe's nearest-point algorithm ("Finding the nearest point in a
    polytope", Math. Prog. 1976) on the vertices shifted by ``-xhat``: a
    corral of affinely independent vertices grows by the vertex that most
    decreases the distance (major cycle) and drops the vertices whose weight
    would turn negative (minor cycles).
    """
    P = np.asarray(verts_hat, dtype=float) - np.asarray(xhat, dtype=float)
    sq = (P * P).sum(axis=1)
    corral, w = [int(np.argmin(sq))], np.ones(1)
    major = True
    for _ in range(_WOLFE_MAX_STEPS):
        if major:
            x = w @ P[corral]
            j = int(np.argmin(P @ x))
            if x @ x - P[j] @ x <= _WOLFE_EPS * sq.max() or j in corral:
                return math.sqrt(float(x @ x))
            corral.append(j)
            w = np.append(w, 0.0)
        # weights of the least-norm point of the corral's affine hull: G v = c 1
        # with G = Q Q^T under sum(v) = 1, and adding 1 1^T to G keeps it regular
        Q = P[corral]
        v = np.linalg.solve(Q @ Q.T + 1.0, np.ones(len(corral)))
        v /= v.sum()
        major = bool((v > 0).all())
        if major:
            w = v
            continue
        # move from w towards v until the first weight reaches zero, then drop it
        falling = v < w
        theta = min(1.0, (w[falling] / (w[falling] - v[falling])).min(initial=1.0))
        w = (1 - theta) * w + theta * v
        keep = w > _WOLFE_EPS
        corral = [c for c, k in zip(corral, keep) if k]
        w = w[keep] / w[keep].sum()
    raise ArithmeticError(
        f"nearest point of a {len(P)}-vertex hull not found in {_WOLFE_MAX_STEPS} steps"
    )


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
    xhat = normalize(coords(p, node), node)
    region = node.region
    if isinstance(region, Polygon2D):
        verts = _normalized_polygon(node)
        if _polygon_boundary_distance(xhat, verts) <= tol:
            return Containment.ON_BOUNDARY
        return Containment.INSIDE if _even_odd_inside(xhat, verts) else Containment.OUTSIDE

    on_boundary = False
    for rows in _normalized_halfspaces(node):
        margin = _member_margin(xhat, rows)
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
    flags = extreme_mask(coords_array([p], node), node, tol)[0].tolist()
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


def coords_array(points: list[DataPoint], node: OddNode) -> np.ndarray:
    """The node's parameter values of each point, as an (n, d) float array.

    Raises MissingParameter for the first point lacking a parameter, naming
    the parameter as :func:`coords` does.
    """
    names = node.parameter_names
    values_of = operator.itemgetter(*names)
    try:
        rows = [values_of(p.values) for p in points]
    except KeyError as exc:
        raise MissingParameter(exc.args[0]) from None
    return np.array(rows, dtype=float).reshape(len(rows), len(names))


def normalize_array(X: np.ndarray, node: OddNode) -> np.ndarray:
    """Rows of raw coordinates in node-parameter order, scaled as by :func:`normalize`."""
    lo = np.array([p.lo for p in node.parameters])
    span = np.array([p.span for p in node.parameters])
    with np.errstate(over="ignore"):  # an overflow gives inf, decided as such
        return (X - lo) / span


def _by_chunk(decide, X: np.ndarray, out: np.ndarray) -> np.ndarray:
    # non-finite or huge coordinates give NaN or inf intermediates (inf * 0,
    # overflow); the comparisons decide those rows, so the warnings say nothing
    with np.errstate(invalid="ignore", over="ignore"):
        for start in range(0, len(X), _CHUNK_ROWS):
            stop = start + _CHUNK_ROWS
            out[start:stop] = decide(X[start:stop])
    return out


@lru_cache(maxsize=256)
def _polygon_edges(node: OddNode) -> tuple[np.ndarray, ...]:
    """Per edge of the normalized polygon: start (ax, ay), end ordinate by,
    direction (dx, dy), and dx*dx + dy*dy and dy with zeros replaced by 1."""
    verts = _normalized_polygon(node)
    (ax, ay), (bx, by) = np.array(verts).T, np.array(verts[1:] + verts[:1]).T
    dx, dy = bx - ax, by - ay
    sq = dx * dx + dy * dy
    edges = (ax, ay, by, dx, dy, np.where(sq == 0.0, 1.0, sq), np.where(dy == 0.0, 1.0, dy))
    for a in edges:
        a.flags.writeable = False  # shared by every caller through the cache
    return edges


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


def _union_codes(xhat: np.ndarray, members, tol: float) -> np.ndarray:
    """Per member, slack summed column by column in _member_margin's order."""
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
    if isinstance(node.region, Polygon2D):
        decide = partial(_polygon_codes, edges=_polygon_edges(node), tol=tol)
    else:
        members = [
            (np.array([a for a, _ in rows]), np.array([b for _, b in rows]))
            for rows in _normalized_halfspaces(node)
        ]
        decide = partial(_union_codes, members=members, tol=tol)
    return _by_chunk(decide, normalize_array(X, node), np.empty(len(X), dtype=np.int8))


def extreme_mask(X: np.ndarray, node: OddNode, tol: float = DEFAULT_TOL) -> np.ndarray:
    """(n, d) flags: row i's parameter j lies within ``tol`` times its span
    of its lo or hi bound."""
    lo = np.array([p.lo for p in node.parameters])
    hi = np.array([p.hi for p in node.parameters])
    band = np.array([tol * p.span for p in node.parameters])

    def decide(x):
        return np.minimum(np.abs(x - lo), np.abs(x - hi)) <= band

    return _by_chunk(decide, X, np.empty(X.shape, dtype=bool))


def region_vertices(node: OddNode, tol: float = DEFAULT_TOL) -> list[DataPoint]:
    """Region vertices as data points; polytope-union vertices are deduplicated."""
    names = node.parameter_names
    region = node.region
    if isinstance(region, Polygon2D):
        return [DataPoint(dict(zip(names, v))) for v in region.vertices]
    seen: list[tuple[float, ...]] = []
    out = []
    for member in region.members:
        for v in member.vertices:
            v_hat = normalize(v, node)
            if any(
                max(abs(a - b) for a, b in zip(v_hat, s)) <= tol for s in seen
            ):
                continue
            seen.append(v_hat)
            out.append(DataPoint(dict(zip(names, v))))
    return out


def distance_to_boundary(
    p: DataPoint, node: OddNode, tol: float = DEFAULT_TOL
) -> float:
    """Minimal normalized distance from the point to the region boundary.

    For polytope unions with overlapping members this is the distance to the
    nearest member boundary, which upper-bounds the union-boundary distance.
    """
    xhat = normalize(coords(p, node), node)
    region = node.region
    if isinstance(region, Polygon2D):
        return _polygon_boundary_distance(xhat, _normalized_polygon(node))
    best = math.inf
    for rows, member in zip(_normalized_halfspaces(node), region.members):
        margin = _member_margin(xhat, rows)
        if margin >= 0:
            d = margin
        else:
            verts_hat = [normalize(v, node) for v in member.vertices]
            d = _distance_to_hull(xhat, verts_hat)
        best = min(best, d)
    return best


@dataclass(frozen=True)
class ContainsResult:
    contained: bool
    witness: DataPoint | None = None


def project(p: DataPoint, node: OddNode) -> DataPoint:
    """Restrict a data point to the node's parameters."""
    try:
        vals = {name: p.values[name] for name in node.parameter_names}
    except KeyError as exc:
        raise MissingParameter(exc.args[0]) from None
    return DataPoint(vals, p.provenance_raw, p.hidden_values, p.in_sample)


# Interior probes of contains_node: Halton indices are drawn in blocks until
# this many land inside the inner region or _PROBE_LIMIT indices are spent.
_PROBES = 128
_PROBE_BLOCK = 256
_PROBE_LIMIT = 200 * _PROBES


def _halton(start: int, count: int, dim: int) -> np.ndarray:
    """Unscrambled Halton points ``start .. start+count-1`` in [0, 1)^dim:
    column j is the radical inverse of the index in the j-th prime."""
    # the first dim primes; the k-th prime is below 4k^2
    primes = [b for b in range(2, 4 * dim * dim) if all(b % q for q in range(2, int(b**0.5) + 1))]
    primes = primes[:dim]
    out = np.zeros((count, dim))
    for j, base in enumerate(primes):
        i = np.arange(start, start + count)
        f = 1.0 / base
        while i.any():
            out[:, j] += (i % base) * f
            i //= base
            f /= base
    return out


def contains_node(inner: OddNode, outer: OddNode, tol: float = DEFAULT_TOL) -> ContainsResult:
    """Sampling check that ``inner``'s region lies within ``outer``'s.

    Checks all inner vertices, then Halton probes of ``inner``'s box (from
    index 1, unscrambled) until 128 of them lie inside ``inner``'s region.
    This is a sampling check, not a decision procedure: a ``contained``
    verdict can be wrong for adversarial geometry, a ``not_contained``
    witness never is. The witness is the first failing vertex, else the
    first failing probe in sequence order.
    """
    missing = set(outer.parameter_names) - set(inner.parameter_names)
    if missing:
        raise IncompatibleParameters(
            f"outer node {outer.name!r} has parameters absent from inner "
            f"{inner.name!r}: {sorted(missing)}"
        )
    lo, hi = np.array(inner.box).T
    X = coords_array(region_vertices(inner), inner)
    wanted = len(X) + _PROBES
    for start in range(1, _PROBE_LIMIT + 1, _PROBE_BLOCK):
        if len(X) >= wanted:
            break
        probes = lo + _halton(start, _PROBE_BLOCK, len(lo)) * (hi - lo)
        X = np.vstack([X, probes[region_containment(probes, inner, tol) != OUTSIDE]])
    columns = [inner.parameter_names.index(name) for name in outer.parameter_names]
    failing = np.flatnonzero(region_containment(X[:wanted, columns], outer, tol) == OUTSIDE)
    if len(failing):
        witness = dict(zip(inner.parameter_names, X[failing[0]].tolist()))
        return ContainsResult(False, DataPoint(witness))
    return ContainsResult(True, None)
