"""Independent geometry oracles used to audit the library's containment code.

Deliberately implemented with different algorithms than the package: polygon
membership uses the winding number (the package uses even-odd crossing), and
polytope membership evaluates halfspaces directly in raw coordinates (the
package normalizes and unit-scales the rows), and range extremes are two
interval tests (the package takes the distance to the nearer bound), and the
boundary distance of a polygon-times-interval prism is computed in closed form
(the package runs a nearest-point search over the polytope's vertices).
"""

from __future__ import annotations

import math


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
