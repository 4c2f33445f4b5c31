"""Deterministic SVG rendering of 2-parameter ODD regions and labeled points.

Output contains no timestamps or random identifiers: the same inputs always
produce byte-identical SVG, and the structure (one ``path.region`` per node,
one ``circle.pt`` per point, a legend entry per present category) is stable
enough to assert on with an XML parser.
"""

from __future__ import annotations

import math

import numpy as np

from . import geometry
from .dsl import fmt
from .model import DataPoint, OddNode, Polygon2D

CATEGORY_COLORS = {
    "Nominal": "#2b8a3e",
    "EdgeCase": "#e8590c",
    "FeasibleCornerCase": "#5f3dc4",
    "InfeasibleCornerCase": "#c92a2a",
    "Outlier": "#862e9c",
    "Inlier": "#1971c2",
    "Novelty": "#e64980",
    "Any": "#495057",
}

_NODE_COLORS = ("#1864ab", "#2b8a3e", "#e67700", "#9c36b5", "#0b7285", "#a61e4d")

_WIDTH = 720
_HEIGHT = 540
_MARGIN = 40.0

# ElementTree's escaping of attribute values and of text. The document is
# written as strings: one Element per point would cost more than the rest of
# the render, and xml.sax.saxutils would import urllib.request on every CLI start.
_ATTRIB_ESCAPES = str.maketrans(
    {"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;", "\r": "&#13;", "\n": "&#10;", "\t": "&#09;"}
)
_TEXT_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})


def _attrs(attrs: dict[str, str]) -> str:
    return "".join(f' {k}="{v.translate(_ATTRIB_ESCAPES)}"' for k, v in attrs.items())


def _element(tag: str, attrs: dict[str, str], content: str = "") -> str:
    """One element as ElementTree writes it; ``content`` is its serialised
    children or escaped text, and an element without any is self-closed."""
    if content:
        return f"<{tag}{_attrs(attrs)}>{content}</{tag}>"
    return f"<{tag}{_attrs(attrs)} />"


def _text(tag: str, attrs: dict[str, str], text: str) -> str:
    return _element(tag, attrs, text.translate(_TEXT_ESCAPES))


def _member_loops(node: OddNode) -> list[list[tuple[float, float]]]:
    """One loop per nonempty piece of :func:`geometry.region_pieces`; a convex
    piece's vertices are put in order by their angle about its centroid."""
    loops = [[tuple(v) for v in V.tolist()] for V in geometry.region_pieces(node) if len(V)]
    if not loops:
        raise ValueError(f"node {node.name!r} has no region within its box to draw")
    if not isinstance(node.region, Polygon2D):
        for pts in loops:
            cx = sum(p[0] for p in pts) / len(pts)
            cy = sum(p[1] for p in pts) / len(pts)
            pts.sort(key=lambda p: math.atan2(p[1] - cy, p[0] - cx))
    return loops


def render_svg(
    nodes: list[OddNode],
    labeled_points: list[tuple[DataPoint, str]] | None = None,
) -> str:
    """Render regions and labeled points; nodes must share two parameters."""
    nodes = [n for n in nodes if len(n.parameters) == 2]
    if not nodes:
        raise ValueError("nothing to render: no 2-parameter nodes")
    names = nodes[0].parameter_names
    for n in nodes:
        if n.parameter_names != names:
            raise ValueError("rendered nodes must share the same two parameters")
    a, b = names
    # three flat lists, not a tuple per point for the garbage collector to track
    px: list[float] = []
    py: list[float] = []
    cats: list[str] = []
    for p, cat in labeled_points or ():
        if a in p.values and b in p.values:
            px.append(p.values[a])
            py.append(p.values[b])
            cats.append(cat)

    loops = [_member_loops(n) for n in nodes]
    xs = [x for node_loops in loops for loop in node_loops for x, _ in loop] + px
    ys = [y for node_loops in loops for loop in node_loops for _, y in loop] + py
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    sx = (_WIDTH - 2 * _MARGIN) / ((x1 - x0) or 1.0)
    sy = (_HEIGHT - 2 * _MARGIN) / ((y1 - y0) or 1.0)

    def to_px(x: float, y: float) -> tuple[float, float]:
        return (_MARGIN + (x - x0) * sx, _HEIGHT - _MARGIN - (y - y0) * sy)

    regions = []
    for i, (node, node_loops) in enumerate(zip(nodes, loops)):
        color = _NODE_COLORS[i % len(_NODE_COLORS)]
        parts = []
        for loop in node_loops:
            px_loop = [to_px(x, y) for x, y in loop]
            parts.append("M " + " L ".join(f"{fmt(x)} {fmt(y)}" for x, y in px_loop) + " Z")
        regions.append(
            _element(
                "path",
                {
                    "class": "region",
                    "id": f"region-{node.name}",
                    "d": " ".join(parts),
                    "fill": color,
                    "fill-opacity": "0.08",
                    "stroke": color,
                    "stroke-width": "1.5",
                },
            )
        )
        lx, ly = to_px(*node_loops[0][0])
        regions.append(
            _text(
                "text",
                {"class": "region-label", "x": fmt(lx + 4), "y": fmt(ly - 4), "fill": color, "font-size": "11"},
                node.name,
            )
        )

    # the same float operations as to_px, one array at a time, formatted as fmt does
    cxs = (_MARGIN + (np.array(px, dtype=float) - x0) * sx).tolist()
    cys = (_HEIGHT - _MARGIN - (np.array(py, dtype=float) - y0) * sy).tolist()
    present = list(dict.fromkeys(cats))
    classes = {cat: f"pt cat-{cat}".translate(_ATTRIB_ESCAPES) for cat in present}
    fills = {cat: CATEGORY_COLORS.get(cat, "#343a40") for cat in present}
    circles = [
        f'<circle class="{classes[cat]}" cx="{cx:.9g}" cy="{cy:.9g}" r="4"'
        f' fill="{fills[cat]}" fill-opacity="0.85" />'
        for cat, cx, cy in zip(cats, cxs, cys)
    ]

    legend = []
    for i, cat in enumerate(sorted(present)):
        y = _MARGIN / 2 + 16 * i
        rect = _element(
            "rect",
            {"x": fmt(_WIDTH - 190), "y": fmt(y - 9), "width": "10", "height": "10", "fill": fills[cat]},
        )
        text = _text("text", {"x": fmt(_WIDTH - 175), "y": fmt(y), "font-size": "11"}, cat)
        legend.append(_element("g", {"class": f"legend-entry cat-{cat}"}, rect + text))

    svg = _element(
        "svg",
        {
            "xmlns": "http://www.w3.org/2000/svg",
            "width": str(_WIDTH),
            "height": str(_HEIGHT),
            "viewBox": f"0 0 {_WIDTH} {_HEIGHT}",
        },
        _text("title", {}, f"{a} vs {b}")
        + _element("g", {"class": "regions"}, "".join(regions))
        + _element("g", {"class": "points"}, "".join(circles))
        + _element("g", {"class": "legend"}, "".join(legend)),
    )
    return svg + "\n"
