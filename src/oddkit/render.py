"""Deterministic SVG rendering of 2-parameter ODD regions and labeled points.

Output contains no timestamps or random identifiers: the same inputs always
produce byte-identical SVG, and the structure (one ``path.region`` per node,
one ``circle.pt`` per point, a legend entry per present category) is stable
enough to assert on with an XML parser.
"""

from __future__ import annotations

import math
import xml.etree.ElementTree as ET

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


def _member_loops(node: OddNode) -> list[list[tuple[float, float]]]:
    region = node.region
    if isinstance(region, Polygon2D):
        return [[tuple(v) for v in region.vertices]]
    loops = []
    for member in region.members:
        pts = [tuple(v) for v in member.vertices]
        cx = sum(p[0] for p in pts) / len(pts)
        cy = sum(p[1] for p in pts) / len(pts)
        pts.sort(key=lambda p: math.atan2(p[1] - cy, p[0] - cx))
        loops.append(pts)
    return loops


def render_svg(
    nodes: list[OddNode],
    labeled_points: list[tuple[DataPoint, str]] | None = None,
) -> str:
    """Render regions and labeled points; nodes must share two parameters."""
    nodes = [n for n in nodes if len(n.parameters) == 2]
    if not nodes:
        raise ValueError("nothing to render: no 2-parameter nodes")
    labeled_points = labeled_points or []
    names = nodes[0].parameter_names
    for n in nodes:
        if n.parameter_names != names:
            raise ValueError("rendered nodes must share the same two parameters")

    xs: list[float] = []
    ys: list[float] = []
    for n in nodes:
        for loop in _member_loops(n):
            for x, y in loop:
                xs.append(x)
                ys.append(y)
    for p, _cat in labeled_points:
        if names[0] in p.values and names[1] in p.values:
            xs.append(p.values[names[0]])
            ys.append(p.values[names[1]])
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    sx = (_WIDTH - 2 * _MARGIN) / ((x1 - x0) or 1.0)
    sy = (_HEIGHT - 2 * _MARGIN) / ((y1 - y0) or 1.0)

    def to_px(x: float, y: float) -> tuple[float, float]:
        return (_MARGIN + (x - x0) * sx, _HEIGHT - _MARGIN - (y - y0) * sy)

    svg = ET.Element(
        "svg",
        {
            "xmlns": "http://www.w3.org/2000/svg",
            "width": str(_WIDTH),
            "height": str(_HEIGHT),
            "viewBox": f"0 0 {_WIDTH} {_HEIGHT}",
        },
    )
    title = ET.SubElement(svg, "title")
    title.text = f"{names[0]} vs {names[1]}"

    regions = ET.SubElement(svg, "g", {"class": "regions"})
    for i, node in enumerate(nodes):
        color = _NODE_COLORS[i % len(_NODE_COLORS)]
        parts = []
        for loop in _member_loops(node):
            px = [to_px(x, y) for x, y in loop]
            parts.append(
                "M "
                + " L ".join(f"{fmt(x)} {fmt(y)}" for x, y in px)
                + " Z"
            )
        ET.SubElement(
            regions,
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
        lx, ly = to_px(*_member_loops(node)[0][0])
        label = ET.SubElement(
            regions,
            "text",
            {"class": "region-label", "x": fmt(lx + 4), "y": fmt(ly - 4), "fill": color, "font-size": "11"},
        )
        label.text = node.name

    pts = ET.SubElement(svg, "g", {"class": "points"})
    present: list[str] = []
    for p, cat in labeled_points:
        if names[0] not in p.values or names[1] not in p.values:
            continue
        cx, cy = to_px(p.values[names[0]], p.values[names[1]])
        color = CATEGORY_COLORS.get(cat, "#343a40")
        ET.SubElement(
            pts,
            "circle",
            {
                "class": f"pt cat-{cat}",
                "cx": fmt(cx),
                "cy": fmt(cy),
                "r": "4",
                "fill": color,
                "fill-opacity": "0.85",
            },
        )
        if cat not in present:
            present.append(cat)

    legend = ET.SubElement(svg, "g", {"class": "legend"})
    for i, cat in enumerate(sorted(present)):
        y = _MARGIN / 2 + 16 * i
        entry = ET.SubElement(legend, "g", {"class": f"legend-entry cat-{cat}"})
        ET.SubElement(
            entry,
            "rect",
            {
                "x": fmt(_WIDTH - 190),
                "y": fmt(y - 9),
                "width": "10",
                "height": "10",
                "fill": CATEGORY_COLORS.get(cat, "#343a40"),
            },
        )
        text = ET.SubElement(
            entry, "text", {"x": fmt(_WIDTH - 175), "y": fmt(y), "font-size": "11"}
        )
        text.text = cat

    return ET.tostring(svg, encoding="unicode") + "\n"
