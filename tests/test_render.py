from __future__ import annotations

import dataclasses
import xml.etree.ElementTree as ET

import pytest

import oddkit

SVG_NS = "{http://www.w3.org/2000/svg}"


def _render_corpus(extended_doc, golden_dataset, chain):
    nodes = [n for n in extended_doc.nodes if len(n.parameters) == 2]
    rows = oddkit.label_rows(golden_dataset.points, chain)
    labeled = [(p, r.category) for p, r in zip(golden_dataset.points, rows)]
    return oddkit.render_svg(nodes, labeled)


def test_svg_structure(extended_doc, golden_dataset, chain):
    svg = _render_corpus(extended_doc, golden_dataset, chain)
    root = ET.fromstring(svg)
    paths = root.findall(f".//{SVG_NS}path[@class='region']")
    assert len(paths) == 4
    assert {p.get("id") for p in paths} == {
        "region-SOD",
        "region-MLCODD_oper",
        "region-MLCODD_spec",
        "region-MLMODD",
    }
    circles = root.findall(f".//{SVG_NS}circle")
    assert len(circles) == 12
    categories = {c.get("class").split("cat-")[1] for c in circles}
    assert categories == {"Nominal", "EdgeCase", "FeasibleCornerCase", "Inlier", "Novelty", "Any"}
    legend_entries = root.findall(f".//{SVG_NS}g[@class='legend']/{SVG_NS}g")
    legend_cats = {g.get("class").split("cat-")[1] for g in legend_entries}
    assert legend_cats == categories


def test_svg_is_deterministic(extended_doc, golden_dataset, chain):
    a = _render_corpus(extended_doc, golden_dataset, chain)
    b = _render_corpus(extended_doc, golden_dataset, chain)
    assert a == b
    # no volatile content
    assert "date" not in a.lower() and "time" not in a.lower()


def test_render_rejects_incompatible_nodes(extended_doc):
    with pytest.raises(ValueError):
        oddkit.render_svg([extended_doc.node("MLMODD_ext")])
    with pytest.raises(ValueError):
        oddkit.render_svg([])


def test_render_polytope_node_via_projection_free_loop(extended_doc):
    # a 2-parameter polytope node renders through its vertex hull
    doc = oddkit.parse_spec(
        """
odd "BOX" level mlm_odd {
  param x: u range [0, 1]
  param y: u range [0, 1]
  region polytope {
    halfspace 1 0 <= 1
    halfspace -1 0 <= 0
    halfspace 0 1 <= 1
    halfspace 0 -1 <= 0
    vertex (0,0) vertex (1,0) vertex (1,1) vertex (0,1)
  }
}
"""
    )
    assert doc.ok
    svg = oddkit.render_svg(doc.nodes)
    root = ET.fromstring(svg)
    assert root.find(f".//{SVG_NS}path[@id='region-BOX']") is not None


def _corners(svg: str) -> set[str]:
    d = ET.fromstring(svg).find(f".//{SVG_NS}path[@class='region']").get("d")
    return set(d.removeprefix("M ").removesuffix(" Z").split(" L "))


def test_render_draws_polytopes_from_their_halfspaces(rounded_square_text):
    # the square's listed vertices are rounded inward; its drawn loop is the box
    square = oddkit.parse_spec(rounded_square_text).node("SQ")
    box = dataclasses.replace(square, region=oddkit.Polygon2D(((0, 0), (1, 0), (1, 1), (0, 1))))
    assert _corners(oddkit.render_svg([square])) == _corners(oddkit.render_svg([box]))


def test_render_refuses_a_polytope_outside_its_box():
    # within the E006 band of the box, but no point of it is in the box:
    # validation reports it, and render refuses a node built without parsing
    off = """
odd "OFF" level mlm_odd {
  param x: u range [0, 1]
  param y: u range [0, 1]
  region polytope {
    halfspace -1 0 <= -1.0000005
    halfspace 1 0 <= 1.0000006
    halfspace 0 1 <= 1
    halfspace 0 -1 <= 0
    vertex (1.0000005, 0) vertex (1.0000006, 0) vertex (1.0000006, 1) vertex (1.0000005, 1)
  }
}
"""
    doc = oddkit.parse_spec(off)
    assert [(d.code, d.line) for d in doc.diagnostics] == [("E006", 5)]
    assert "no point within the parameter box" in doc.diagnostics[0].message
    assert doc.nodes == []
    member = oddkit.ConvexPolytope(
        (((-1.0, 0.0), -1.0000005), ((1.0, 0.0), 1.0000006), ((0.0, 1.0), 1.0), ((0.0, -1.0), 0.0)),
        ((1.0000005, 0.0), (1.0000006, 0.0), (1.0000006, 1.0), (1.0000005, 1.0)),
    )
    params = (oddkit.Parameter("x", "u", 0.0, 1.0), oddkit.Parameter("y", "u", 0.0, 1.0))
    node = oddkit.OddNode("OFF", oddkit.Level.MLM_ODD, params, oddkit.PolytopeUnion((member,)))
    with pytest.raises(ValueError, match="no region within its box"):
        oddkit.render_svg([node])


def test_svg_matches_the_golden_file(extended_doc, golden_dataset, chain, data_dir):
    svg = _render_corpus(extended_doc, golden_dataset, chain)
    assert svg == (data_dir / "golden_render.svg").read_text(encoding="utf-8")


def test_markup_characters_round_trip(extended_doc):
    """A node name and a category holding XML markup characters come back
    from an XML parser unchanged."""
    name = 'A&B<"c">'
    node = dataclasses.replace(extended_doc.node("MLMODD"), name=name)
    cat = "x<&>\"y'"
    svg = oddkit.render_svg([node], [(oddkit.DataPoint({"Mach": 0.2, "Alt": 7000.0}), cat)])
    root = ET.fromstring(svg)
    path = root.find(f".//{SVG_NS}path[@class='region']")
    assert path.get("id") == f"region-{name}"
    assert root.find(f".//{SVG_NS}text[@class='region-label']").text == name
    assert root.find(f".//{SVG_NS}circle").get("class") == f"pt cat-{cat}"
    assert root.find(f".//{SVG_NS}g[@class='legend']/{SVG_NS}g/{SVG_NS}text").text == cat
