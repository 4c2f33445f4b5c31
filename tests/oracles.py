"""Independent geometry oracles used to audit the library's containment code.

Deliberately implemented with different algorithms than the package: polygon
membership uses the winding number (the package uses even-odd crossing), and
polytope membership evaluates halfspaces directly in raw coordinates (the
package normalizes and unit-scales the rows), and range extremes are two
interval tests (the package takes the distance to the nearer bound), and the
boundary distance of a polygon-times-interval prism is computed in closed form
(the package projects onto every face's affine hull), and the distance from
an outside point to a convex polytope is found by Wolfe's nearest-point
iteration over its vertices (the package evaluates a precomputed face table),
and near matches are found by comparing every pair of rows (the package
looks candidates up in a grid of sorted cell keys).
"""

from __future__ import annotations

import math

import numpy as np


def winding_number(pt: tuple[float, float], vertices) -> int:
    """Winding number of the closed polygon around ``pt``."""
    x, y = pt
    wn = 0
    n = len(vertices)
    for i in range(n):
        x1, y1 = vertices[i]
        x2, y2 = vertices[(i + 1) % n]
        cross = (x2 - x1) * (y - y1) - (x - x1) * (y2 - y1)
        if y1 <= y:
            if y2 > y and cross > 0:
                wn += 1
        elif y2 <= y and cross < 0:
            wn -= 1
    return wn


def polygon_contains(pt: tuple[float, float], vertices) -> bool:
    return winding_number(pt, vertices) != 0


def polytope_contains(x: tuple[float, ...], halfspaces) -> bool:
    """Direct a.x <= b evaluation in raw coordinates, no scaling tricks."""
    return all(
        sum(ai * xi for ai, xi in zip(a, x)) <= b for a, b in halfspaces
    )


def union_contains(x: tuple[float, ...], members) -> bool:
    return any(polytope_contains(x, m.halfspaces) for m in members)


def at_range_bound(v: float, lo: float, hi: float, band: float) -> bool:
    """Within ``band`` of either end of [lo, hi], tested as two closed intervals."""
    return lo - band <= v <= lo + band or hi - band <= v <= hi + band


def _segment_distance(p, a, b) -> float:
    """Distance from p to segment ab, by projecting onto the segment's line."""
    (px, py), (ax, ay), (bx, by) = p, a, b
    ux, uy = bx - ax, by - ay
    t = ((px - ax) * ux + (py - ay) * uy) / (ux * ux + uy * uy)
    t = min(1.0, max(0.0, t))
    return math.dist(p, (ax + t * ux, ay + t * uy))


def prism_boundary_distance(x, vertices, t_bounds, ranges) -> float:
    """Distance from ``x = (u, v, t)`` to the boundary of the prism
    ``polygon(vertices) x [t_bounds]``, every axis scaled to its range.

    Inside, the nearest boundary point is on the polygon's side walls or on
    a cap; outside, the prism is a product set, so the distance combines the
    distance to the polygon and to the interval in quadrature.
    """
    (u0, u1), (v0, v1), (t0, t1) = ranges
    u, v = (x[0] - u0) / (u1 - u0), (x[1] - v0) / (v1 - v0)
    t = (x[2] - t0) / (t1 - t0)
    lo, hi = ((b - t0) / (t1 - t0) for b in t_bounds)
    poly = [((a - u0) / (u1 - u0), (b - v0) / (v1 - v0)) for a, b in vertices]
    to_wall = min(_segment_distance((u, v), poly[i - 1], poly[i]) for i in range(len(poly)))
    in_polygon = polygon_contains((u, v), poly)
    if in_polygon and lo <= t <= hi:
        return min(to_wall, t - lo, hi - t)
    return math.hypot(0.0 if in_polygon else to_wall, max(lo - t, t - hi, 0.0))


# Major plus minor cycles of wolfe_distance; a hull of a few dozen vertices in
# a handful of dimensions takes well under 100.
WOLFE_MAX_STEPS = 1000
WOLFE_EPS = 1e-12


def wolfe_distance(x, vertices) -> float:
    """Euclidean distance from a point to the convex hull of vertices.

    Wolfe's nearest-point algorithm ("Finding the nearest point in a
    polytope", Math. Prog. 1976) on the vertices shifted by ``-x``: a corral
    of affinely independent vertices grows by the vertex that most decreases
    the distance (major cycle) and drops the vertices whose weight would turn
    negative (minor cycles).
    """
    P = np.asarray(vertices, dtype=float) - np.asarray(x, dtype=float)
    sq = (P * P).sum(axis=1)
    corral, w = [int(np.argmin(sq))], np.ones(1)
    major = True
    for _ in range(WOLFE_MAX_STEPS):
        if major:
            y = w @ P[corral]
            j = int(np.argmin(P @ y))
            if y @ y - P[j] @ y <= WOLFE_EPS * sq.max() or j in corral:
                return math.sqrt(float(y @ y))
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
        keep = w > WOLFE_EPS
        corral = [c for c, k in zip(corral, keep) if k]
        w = w[keep] / w[keep].sum()
    raise ArithmeticError(f"nearest point of a {len(P)}-vertex hull not found in {WOLFE_MAX_STEPS} steps")


def near_matches(Q, R, lo, span, tol) -> list[bool]:
    """Per row of ``Q``: does some row of ``R`` lie within ``tol`` of it in
    every coordinate scaled as ``(x - lo) / span``? Every pair of rows is
    compared; a row with a non-finite scaled coordinate matches nothing."""

    def scaled(rows):
        out = []
        for row in rows:
            x = [(v - l) / s for v, l, s in zip(row, lo, span)]
            out.append(x if all(map(math.isfinite, x)) else None)
        return out

    refs = [r for r in scaled(R) if r is not None]
    return [
        q is not None and any(all(abs(a - b) <= tol for a, b in zip(q, r)) for r in refs)
        for q in scaled(Q)
    ]
