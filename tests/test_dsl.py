from __future__ import annotations

import pytest

import oddkit
from oddkit import dsl


def test_corpus_round_trip(extended_spec_text):
    doc = oddkit.parse_spec(extended_spec_text)
    assert doc.ok
    text = oddkit.serialize_spec(doc)
    again = oddkit.parse_spec(text)
    assert again.ok
    assert doc.structurally_equal(again)
    # canonical form is a fixed point
    assert oddkit.serialize_spec(again) == text


def _codes(doc):
    return [d.code for d in doc.diagnostics]


def test_duplicate_node_name_e002():
    text = """
odd "A" level mlm_odd {
  param x: u range [0, 1]
  param y: u range [0, 1]
  region polygon { (0,0) (1,0) (1,1) }
}
odd "A" level mlm_odd {
  param x: u range [0, 1]
  param y: u range [0, 1]
  region polygon { (0,0) (1,0) (1,1) }
}
"""
    doc = oddkit.parse_spec(text)
    assert "E002" in _codes(doc)
    assert not doc.ok


def test_unresolved_reference_e003():
    text = """
odd "A" level mlm_odd allocates "NOPE" {
  param x: u range [0, 1]
  param y: u range [0, 1]
  region polygon { (0,0) (1,0) (1,1) }
}
"""
    doc = oddkit.parse_spec(text)
    assert "E003" in _codes(doc)


def test_degenerate_polygon_e004():
    text = """
odd "A" level mlm_odd {
  param x: u range [0, 1]
  param y: u range [0, 1]
  region polygon { (0,0) (1,0) }
}
"""
    doc = oddkit.parse_spec(text)
    assert "E004" in _codes(doc)


def test_self_intersecting_polygon_e004():
    text = """
odd "A" level mlm_odd {
  param x: u range [0, 1]
  param y: u range [0, 1]
  region polygon { (0,0) (1,1) (1,0) (0,1) }
}
"""
    doc = oddkit.parse_spec(text)
    assert "E004" in _codes(doc)


def test_range_violation_e005():
    text = """
odd "A" level mlm_odd {
  param x: u range [1, 0]
  param y: u range [0, 1]
  region polygon { (0,0) (1,0) (1,1) }
}
"""
    doc = oddkit.parse_spec(text)
    assert "E005" in _codes(doc)


def test_region_outside_box_e006():
    text = """
odd "A" level mlm_odd {
  param x: u range [0, 1]
  param y: u range [0, 1]
  region polygon { (0,0) (2,0) (2,1) }
}
"""
    doc = oddkit.parse_spec(text)
    assert "E006" in _codes(doc)


def test_extends_containment_e007():
    text = """
odd "BASE" level mlm_odd {
  param x: u range [0, 1]
  param y: u range [0, 1]
  region polygon { (0,0) (0.5,0) (0.5,1) (0,1) }
}
odd "EXT" level mlm_odd extends "BASE" {
  param x: u range [0, 1]
  param y: u range [0, 1]
  param z: u range [0, 1]
  region polytope {
    halfspace 1 0 0 <= 1
    halfspace -1 0 0 <= 0
    halfspace 0 1 0 <= 1
    halfspace 0 -1 0 <= 0
    halfspace 0 0 1 <= 1
    halfspace 0 0 -1 <= 0
    vertex (0,0,0) vertex (1,0,0) vertex (1,1,0) vertex (0,1,0)
    vertex (0,0,1) vertex (1,0,1) vertex (1,1,1) vertex (0,1,1)
  }
}
"""
    doc = oddkit.parse_spec(text)
    assert "E007" in _codes(doc)


def test_extends_without_new_parameter_e007():
    text = """
odd "BASE" level mlm_odd {
  param x: u range [0, 1]
  param y: u range [0, 1]
  region polygon { (0,0) (1,0) (1,1) (0,1) }
}
odd "EXT" level mlm_odd extends "BASE" {
  param x: u range [0, 1]
  param y: u range [0, 1]
  region polygon { (0,0) (1,0) (1,1) (0,1) }
}
"""
    doc = oddkit.parse_spec(text)
    assert "E007" in _codes(doc)


def test_allocation_cycle_e008():
    text = """
odd "A" level mlc_odd allocates "B" {
  param x: u range [0, 1]
  param y: u range [0, 1]
  region polygon { (0,0) (1,0) (1,1) }
}
odd "B" level mlc_odd allocates "A" {
  param x: u range [0, 1]
  param y: u range [0, 1]
  region polygon { (0,0) (1,0) (1,1) }
}
"""
    doc = oddkit.parse_spec(text)
    assert "E008" in _codes(doc)


def test_multiple_system_od_e009():
    node = """
odd "%s" level system_od {
  param x: u range [0, 1]
  param y: u range [0, 1]
  region polygon { (0,0) (1,0) (1,1) }
}
"""
    doc = oddkit.parse_spec(node % "A" + node % "B")
    assert "E009" in _codes(doc)


def test_unknown_attribute_w001_is_not_fatal():
    text = """
odd "A" level mlm_odd flavor vanilla {
  param x: u range [0, 1]
  param y: u range [0, 1]
  comment here
  region polygon { (0,0) (1,0) (1,1) }
}
"""
    doc = oddkit.parse_spec(text)
    assert "W001" in _codes(doc)
    assert doc.ok
    assert doc.node("A") is not None


def test_recovery_continues_after_bad_block():
    text = """
odd "BROKEN" level nosuchlevel {
  param x: u range [0, 1]
  param y: u range [0, 1]
  region polygon { (0,0) (1,0) (1,1) }
}
odd "GOOD" level mlm_odd {
  param x: u range [0, 1]
  param y: u range [0, 1]
  region polygon { (0,0) (1,0) (1,1) }
}
"""
    doc = oddkit.parse_spec(text)
    assert not doc.ok
    # the good node is still parsed and reported alongside the error
    assert any(n.name == "GOOD" for n in doc.nodes)
    assert any(d.code == "E001" for d in doc.errors)


def test_diagnostics_carry_position():
    doc = oddkit.parse_spec('odd "A" level wat {\n}\n')
    err = doc.errors[0]
    assert err.line >= 1 and err.col >= 1
    assert "wat" in str(err)


def test_monitorchain_parsing(extended_doc):
    chains = {c.name: c for c in extended_doc.monitor_chains}
    assert set(chains) == {"baseline", "input_only"}
    baseline = chains["baseline"]
    assert baseline.stub.kind == "bilinear"
    assert [m.kind for m in baseline.monitors] == [
        "range_monitor",
        "extreme_value_monitor",
        "output_range_monitor",
    ]
    assert baseline.monitors[1].action == "replace"
    assert baseline.monitors[1].action_value == 0.0
    assert chains["input_only"].monitors[0].threshold == 0.5


def test_monitorchain_unknown_node_e003():
    text = """
odd "A" level mlm_odd {
  param x: u range [0, 1]
  param y: u range [0, 1]
  region polygon { (0,0) (1,0) (1,1) }
}
monitorchain "m" {
  stub bilinear 0 1 1 0
  monitor range_monitor node "GHOST" action filter
}
"""
    doc = oddkit.parse_spec(text)
    assert "E003" in _codes(doc)


def test_monitor_input_arity_e010():
    text = """
odd "A" level mlm_odd {
  param x: u range [0, 1]
  param y: u range [0, 1]
  region polygon { (0,0) (1,0) (1,1) }
}
monitorchain "m" {
  stub bilinear 0 1 1 0
  monitor known_input_monitor node "A" input (0.2) input (0.1, 0.5) input (0.1, 0.7, 99)
}
"""
    doc = oddkit.parse_spec(text)
    assert _codes(doc) == ["E010", "E010"]
    assert "input (0.2,) has 1 value(s)" in doc.diagnostics[0].message
    assert "input (0.1, 0.7, 99.0) has 3 value(s)" in doc.diagnostics[1].message
    well_formed = text.replace("input (0.2) ", "").replace(" input (0.1, 0.7, 99)", "")
    assert oddkit.parse_spec(well_formed).ok


def test_fmt_is_9_significant_digits():
    assert dsl.fmt(0.1) == "0.1"
    assert dsl.fmt(1 / 3) == "0.333333333"
    assert dsl.fmt(15000) == "15000"
