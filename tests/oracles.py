"""Independent geometry oracles used to audit the library's containment code.

Deliberately implemented with different algorithms than the package: polygon
membership uses the winding number (the package uses even-odd crossing), and
polytope membership evaluates halfspaces directly in raw coordinates (the
package normalizes and unit-scales the rows), and range extremes are two
interval tests (the package takes the distance to the nearer bound).
"""

from __future__ import annotations


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
