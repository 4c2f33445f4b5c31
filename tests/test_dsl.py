from __future__ import annotations

import dataclasses
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import oddkit
from oddkit import dsl, geometry, monitors
from oddkit.cli import cli


def test_corpus_round_trip(extended_spec_text):
    doc = oddkit.parse_spec(extended_spec_text)
    assert doc.ok
    text = oddkit.serialize_spec(doc)
    again = oddkit.parse_spec(text)
    assert again.ok
    assert (again.nodes, again.monitor_chains) == (doc.nodes, doc.monitor_chains)
    # canonical form is a fixed point
    assert oddkit.serialize_spec(again) == text


def test_serialize_keeps_every_digit_a_number_needs():
    # 9 significant digits once rounded 0.1234567891, and an unbounded
    # monitor range was written as "-inf" and "inf", which do not parse
    doc = oddkit.parse_spec(
        'odd "N" {\n  param x: u range [0, 0.1234567891]\n  param y: u range [0, 1]\n'
        "  region polygon { (0, 0) (0.1234567891, 0) (0, 1) }\n}\n"
        'monitorchain "c" {\n  stub bilinear 1 2 0 0\n  monitor output_range_monitor lo -1e400 hi 1e400 action mask\n}\n'
    )
    assert doc.ok
    text = oddkit.serialize_spec(doc)
    assert "range [0, 0.1234567891]" in text and "(0.1234567891, 0)" in text and "lo -1e999 hi 1e999" in text
    again = oddkit.parse_spec(text)
    assert (again.nodes, again.monitor_chains) == (doc.nodes, doc.monitor_chains)


_NUMBER = st.floats(-1e6, 1e6)


def _at(draw, lo, hi, a, b):
    """A full-precision point of [lo, hi], at a fraction of it drawn from [a, b]."""
    return lo + draw(st.floats(a, b)) * (hi - lo)


@st.composite
def _box(draw, names, around=()):
    """Parameters over full-precision ranges: (lo, hi, param line) per name.
    With ``around``, a box of the same names, each range is that one widened
    by its span on each side."""
    params = []
    for j, name in enumerate(names):
        if around:
            lo, hi, _ = around[j]
            lo, hi = lo - (hi - lo), hi + (hi - lo)
        else:
            lo = draw(_NUMBER)
            hi = lo + draw(st.floats(1e-3, 1e6))
        dist = draw(st.sampled_from(["", "uniform", "triangular", "histogram"]))
        if dist == "triangular":
            dist += "(%r, %r, %r)" % tuple(_at(draw, lo, hi, a, a + 0.3) for a in (0, 0.35, 0.7))
        elif dist == "histogram":
            edges = [_at(draw, lo, hi, a, a + 0.2) for a in (0, 0.4, 0.8)]
            weights = [draw(st.floats(1e-3, 1e3)), draw(st.floats(0, 1e3))]
            dist += "(" + ", ".join(map(repr, edges + weights)) + ")"
        unit = draw(st.sampled_from(["m", "ft", "mach", "C"]))
        klass = draw(st.sampled_from([c.value for c in oddkit.DimensionClass]))
        line = f"param {name}: {unit} range [{lo!r}, {hi!r}] class {klass}" + (f" dist {dist}" if dist else "")
        params.append((lo, hi, line))
    return params


@st.composite
def _polygon(draw, box, margin=0.0):
    """One vertex near each corner, ``margin`` to 0.3 of the box's spans in,
    counterclockwise: simple, not thin, and holding the box's middle."""
    a, b = (margin, 0.3), (0.7, 1 - margin)
    corners = [(a, a), (b, a), (b, b), (a, b)]
    vertices = [tuple(_at(draw, lo, hi, *part) for (lo, hi, _), part in zip(box, corner)) for corner in corners]
    return "region polygon {\n" + "".join(f"    {v!r}\n" for v in vertices) + "  }"


@st.composite
def _polytope(draw, box, inner):
    """A member over a sub-box of ``box``: one scaled halfspace per face and
    the sub-box's corners as its vertex list."""
    bins = [(0.35, 0.45), (0.55, 0.65)] if inner else [(0, 0.1), (0.9, 1)]
    sub = [[_at(draw, lo, hi, *part) for part in bins] for lo, hi, _ in box]
    lines = []
    for i, bounds in enumerate(sub):
        for sign, bound in zip((-1, 1), bounds):
            scale = sign * draw(st.floats(0.1, 100))
            row = " ".join(repr(scale) if j == i else "0" for j in range(len(box)))
            lines.append(f"halfspace {row} <= {scale * bound!r}")
    lines += [f"vertex {corner!r}" for corner in itertools.product(*sub)]
    return "region polytope {\n" + "".join(f"    {line}\n" for line in lines) + "  }"


@st.composite
def _monitor(draw, kind):
    """A monitor of ``kind`` on node M, with every option."""
    positive = st.floats(1e-6, 1e6)
    numbers = [f"{key} {draw(_NUMBER)!r}" for key in ("lo", "hi")]
    numbers += [f"{key} {draw(positive)!r}" for key in ("threshold", "tol")]
    inputs = [f"input ({draw(_NUMBER)!r}, {draw(_NUMBER)!r})" for _ in range(draw(st.integers(1, 2)))]
    action = draw(st.sampled_from(dsl.ACTIONS)) + draw(st.one_of(st.just(""), _NUMBER.map(lambda v: f" {v!r}")))
    return " ".join([f'monitor {kind} node "M" param p0', *numbers, *inputs, f"action {action}"])


@st.composite
def _valid_spec(draw):
    """A valid spec that uses every production: every level, variant, class
    and distribution; polygon and one- and two-member polytope regions;
    allocates and extends; a bilinear stub, and each monitor kind with every
    option. Its numbers carry all the digits a float has. Each node lies in
    the one it allocates to: S's polygon holds S's box's middle third, the
    box of C and M; C's first member holds M's polygon's vertices."""
    variants = st.sampled_from([v.value for v in oddkit.Variant])
    box, ext = draw(_box(["p0", "p1"])), draw(_box(["p2"]))
    system = draw(_box(["p0", "p1"], box))
    union = "\n  ".join(draw(_polytope(box, False)) for _ in range(draw(st.integers(1, 2))))
    nodes = [
        ("S", "level system_od", system, draw(_polygon(system))),
        ("C", 'level subsystem_odd allocates "S"', box, union),
        ("M", 'level mlc_odd allocates "C"', box, draw(_polygon(box, 0.1))),
        # within M's polygon, which holds the middle of its box
        ("X", 'level mlm_odd extends "M"', box + ext, draw(_polytope(box + ext, True))),
    ]
    blocks = [
        f'odd "{name}" {head} variant {draw(variants)} {{\n' + "".join(f"  {line}\n" for _, _, line in params)
        + f"  {region}\n}}\n"
        for name, head, params, region in nodes
    ]
    stub = " ".join(repr(draw(_NUMBER)) for _ in range(4))
    monitors = "".join(f"  {draw(_monitor(kind))}\n" for kind in dsl.MONITOR_KINDS)
    blocks.append(f'monitorchain "c" {{\n  stub bilinear {stub}\n{monitors}}}\n')
    return "\n".join(blocks)


@settings(max_examples=50)
@given(_valid_spec())
def test_parse_serialize_parse_is_the_identity_on_generated_specs(text):
    doc = oddkit.parse_spec(text)
    assert doc.ok, [str(d) for d in doc.diagnostics]
    canonical = oddkit.serialize_spec(doc)
    again = oddkit.parse_spec(canonical)
    assert again.ok
    assert (again.nodes, again.monitor_chains) == (doc.nodes, doc.monitor_chains)
    assert oddkit.serialize_spec(again) == canonical


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
  region polygon { (0,0) (1,1) (1,0) (0,0.5) }
}
"""
    # a bowtie with nonzero signed area (-0.25), so the simplicity test decides it
    doc = oddkit.parse_spec(text)
    assert [str(d) for d in doc.diagnostics] == ["error E004 at 5:3: node 'A': polygon is self-intersecting"]


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


@pytest.mark.parametrize(
    "old, new",
    [("param Temp: C range [-60, 15]", "param Temp: C range [-60, 1e999]"),  # the polytope node
     ("param Alt: ft range [0, 15000]", "param Alt: ft range [-1e999, 15000]"),  # the first polygon node
     ("param Temp: C range [-60, 15]", "param Temp: C range [-1e308, 1e308]")],  # hi - lo overflows
    ids=["polytope", "polygon", "span"],
)
def test_a_range_that_is_not_finite_is_e005_at_the_parameter(old, new, extended_spec_text, tmp_path):
    # an infinite bound once validated ok over a polytope, and the sampler and
    # the boundary distance then raised; over a polygon it read as a zero-area
    # region; a span that overflows made the spec checks raise LinAlgError
    text = extended_spec_text.replace(old, new, 1)
    line = text[: text.index(new)].count("\n") + 1
    doc = oddkit.parse_spec(text)
    assert [(d.code, d.line, d.col) for d in doc.errors] == [("E005", line, 3)]
    spec = tmp_path / "infinite.odd"
    spec.write_text(text, encoding="utf-8")
    assert CliRunner().invoke(cli, ["validate", str(spec)]).exit_code == 1


@pytest.mark.parametrize(
    "row",
    ["halfspace 1 1e400 0 <= 0.4",  # an infinite coefficient
     "halfspace 1 1e305 0 <= 0.4",  # finite, but not once scaled by the Alt span
     "halfspace 1e308 1e308 0 <= 0.4"],
    ids=["infinite", "scaled", "both"],
)
def test_a_halfspace_not_finite_once_scaled_is_e004(row, extended_spec_text, tmp_path):
    # the scaled row once overflowed in the region checks: parse_spec raised
    # LinAlgError, and validate exited 3
    text = extended_spec_text.replace("halfspace 1 0 0 <= 0.4", row, 1)
    line = text[: text.index("region polytope")].count("\n") + 1  # the member's 'region' line
    doc = oddkit.parse_spec(text)
    assert [(d.code, d.line, d.col) for d in doc.errors] == [("E004", line, 3)]
    spec = tmp_path / "halfspace.odd"
    spec.write_text(text, encoding="utf-8")
    result = CliRunner().invoke(cli, ["validate", str(spec)])
    assert result.exit_code == 1
    assert "E004" in result.output and "not finite once scaled" in result.output


def test_an_infinite_halfspace_bound_stays_valid(extended_spec_text):
    text = extended_spec_text.replace("halfspace 1 0 0 <= 0.4", "halfspace 1 0 0 <= 1e400", 1)
    doc = oddkit.parse_spec(text)
    assert doc.ok
    assert len(oddkit.sample_region(doc.node("MLMODD_ext"), 5, "nominal_interior", seed=0)) == 5


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


def test_a_listed_vertex_in_the_box_spares_the_vertex_enumeration(monkeypatch):
    """A polytope member with a listed vertex in its box and its halfspaces
    has a point in the box, so parsing solves no sets of rows: at 8
    parameters and 8 halfspaces there would be C(24, 8) = 735,471 of them."""
    params = "\n".join(f"  param x{j}: u range [0, 1]" for j in range(8))
    rows = "\n".join(
        "    halfspace " + " ".join("1" if k == j else "0" for k in range(8)) + f" <= 0.{j + 1}"
        for j in range(8)
    )
    text = f"""
odd "P8" level mlm_odd {{
{params}
  region polytope {{
{rows}
    vertex ({", ".join(["0"] * 8)}) vertex ({", ".join(["0.1"] + ["0"] * 7)})
  }}
}}
"""
    solved = []
    monkeypatch.setattr(geometry, "_flats", lambda *args: solved.append(args))
    doc = oddkit.parse_spec(text)
    assert doc.ok, doc.diagnostics
    assert len(doc.node("P8").parameters) == 8
    assert solved == []


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


_UNION_BASE_SPEC = """
odd "BASE" level mlm_odd {
  param x: u range [0, 1]
  param y: u range [0, 1]
  region polytope {
    halfspace 1 0 <= 0.6
    halfspace -1 0 <= 0
    halfspace 0 1 <= 1
    halfspace 0 -1 <= 0
    vertex (0,0) vertex (0.6,0) vertex (0.6,1) vertex (0,1)
  }
  region polytope {
    halfspace 1 0 <= 1
    halfspace -1 0 <= -0.4
    halfspace 0 1 <= 1
    halfspace 0 -1 <= 0
    vertex (0.4,0) vertex (1,0) vertex (1,1) vertex (0.4,1)
  }
}
odd "EXT" level mlm_odd extends "BASE" {
  param x: u range [0, 2]
  param y: u range [0, 1]
  param z: u range [0, 1]
  region polytope {
    halfspace 1 0 0 <= HI
    halfspace -1 0 0 <= -0.1
    halfspace 0 1 0 <= 0.9
    halfspace 0 -1 0 <= -0.1
    halfspace 0 0 1 <= 1
    halfspace 0 0 -1 <= 0
    vertex (0.1,0.1,0) vertex (HI,0.1,0) vertex (HI,0.9,0) vertex (0.1,0.9,0)
    vertex (0.1,0.1,1) vertex (HI,0.1,1) vertex (HI,0.9,1) vertex (0.1,0.9,1)
  }
}
"""


@pytest.mark.parametrize(
    "hi,codes",
    [
        ("0.5", []),  # the projection fits in the first member
        ("0.9", ["W002"]),  # it lies in the union, across both members
        ("1.2", ["E007"]),  # a chord leaves the union
    ],
)
def test_extends_union_base_decided_or_w002(hi, codes):
    # over two parameters a union of several members need not be simply
    # connected, so passing every chord point decides nothing by itself
    doc = oddkit.parse_spec(_UNION_BASE_SPEC.replace("HI", hi))
    assert [d.code for d in doc.diagnostics] == codes
    assert doc.ok == (codes != ["E007"])


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


def renamed_alt(base_spec_text: str) -> str:
    """The base corpus with MLMODD's Alt renamed Altitude: MLCODD_spec, which
    MLMODD allocates to, still reads Alt."""
    old = "  param Alt: ft range [0, 15000]"
    assert base_spec_text.count(old) == 1
    return base_spec_text.replace(old, "  param Altitude: ft range [0, 15000]")


def test_allocation_to_a_parent_with_a_parameter_the_node_lacks_e017(base_spec_text):
    doc = oddkit.parse_spec(renamed_alt(base_spec_text))
    message = "node 'MLMODD' allocates to 'MLCODD_spec' but lacks its parameter(s) ['Alt']"
    assert [(d.code, d.line, d.message) for d in doc.diagnostics] == [("E017", 39, message)]


def widened_mlm(base_spec_text: str) -> str:
    """The base corpus with MLMODD's Mach range, and its polygon's 0.4
    vertices, widened to 0.6: MLCODD_spec, which MLMODD allocates to, stops
    at 0.4."""
    head, mlm = base_spec_text.split('odd "MLMODD"')
    mlm = mlm.replace("range [0, 0.4]", "range [0, 0.6]").replace("(0.4, ", "(0.6, ")
    return head + 'odd "MLMODD"' + mlm


def lowered_mlc(base_spec_text: str) -> str:
    """The base corpus with MLCODD_oper reaching down to Alt -3000, below
    the -2000 of SOD, which it allocates to."""
    head, rest = base_spec_text.split('odd "MLCODD_oper"')
    oper, tail = rest.split('odd "MLCODD_spec"')
    return head + 'odd "MLCODD_oper"' + oper.replace("-1300", "-3000") + 'odd "MLCODD_spec"' + tail


ALLOCATION_VIOLATIONS = [
    (widened_mlm, 39, "projection of 'MLMODD' leaves parent region 'MLCODD_spec' (witness {'Mach': 0.6, 'Alt': 0.0})"),
    (lowered_mlc, 15, "projection of 'MLCODD_oper' leaves parent region 'SOD' (witness {'Mach': 0.0, 'Alt': -3000.0})"),
]


@pytest.mark.parametrize("mutate, line, message", ALLOCATION_VIOLATIONS)
def test_a_node_that_leaves_the_node_it_allocates_to_e018(base_spec_text, mutate, line, message):
    doc = oddkit.parse_spec(mutate(base_spec_text))
    assert [(d.code, d.line, d.message) for d in doc.diagnostics] == [("E018", line, message)]
    assert not doc.ok


_UNION_PARENT_SPEC = _UNION_BASE_SPEC.split('odd "EXT"')[0] + """
odd "KID" level mlm_odd allocates "BASE" {
  param x: u range [0, 2]
  param y: u range [0, 1]
  region polygon { (0.1, 0.1) (HI, 0.1) (HI, 0.9) (0.1, 0.9) }
}
"""


@pytest.mark.parametrize(
    "hi,codes",
    [
        ("0.5", []),  # the child fits in the first member
        ("0.9", ["W002"]),  # it lies in the union, across both members
        ("1.2", ["E018"]),  # an edge leaves the union
    ],
)
def test_allocation_to_a_union_parent_decided_or_w002(hi, codes):
    doc = oddkit.parse_spec(_UNION_PARENT_SPEC.replace("HI", hi))
    assert [d.code for d in doc.diagnostics] == codes
    if codes == ["W002"]:
        assert doc.diagnostics[0].message == "E018 undecided: the projection of 'KID' fits in no one member of 'BASE'"


def _lattice_box(draw):
    """A box of [0, 1]^2 with corners on the 1/8 lattice: (x0, x1, y0, y1)."""
    x0, x1 = sorted(draw(st.lists(st.integers(0, 8), min_size=2, max_size=2, unique=True)))
    y0, y1 = sorted(draw(st.lists(st.integers(0, 8), min_size=2, max_size=2, unique=True)))
    return x0 / 8, x1 / 8, y0 / 8, y1 / 8


def _box_region(box, polygon: bool) -> str:
    x0, x1, y0, y1 = box
    if polygon:
        return f"region polygon {{ ({x0}, {y0}) ({x1}, {y0}) ({x1}, {y1}) ({x0}, {y1}) }}"
    faces = f"halfspace 1 0 <= {x1} halfspace -1 0 <= {-x0} halfspace 0 1 <= {y1} halfspace 0 -1 <= {-y0}"
    return f"region polytope {{ {faces} vertex ({x0}, {y0}) vertex ({x1}, {y0}) vertex ({x1}, {y1}) vertex ({x0}, {y1}) }}"


@settings(max_examples=150)
@given(data=st.data())
def test_e018_exactly_when_a_child_corner_leaves_the_parent_box(data):
    child, parent = _lattice_box(data.draw), _lattice_box(data.draw)
    regions = [_box_region(box, data.draw(st.booleans())) for box in (parent, child)]
    text = "".join(
        f'odd "{name}" level {level} {{\n  param x: u range [0, 1]\n  param y: u range [0, 1]\n  {region}\n}}\n'
        for name, level, region in zip(("P", "C"), ("mlc_odd", 'mlm_odd allocates "P"'), regions)
    )
    x0, x1, y0, y1 = parent
    corners = itertools.product(child[:2], child[2:])
    outside = any(not (x0 <= x <= x1 and y0 <= y <= y1) for x, y in corners)
    assert [d.code for d in oddkit.parse_spec(text).diagnostics] == (["E018"] if outside else [])


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


@pytest.mark.parametrize(
    "param",
    [
        "param x: u range [0, 1] class bogus dist uniform",
        "param x: u range [0, 1] dist triangular(,,)",
        "param x: u range [0, 1] dist triangular(0, 0.5 1) class operational",
        "param x: u range [0, 1] dist bogus(0, 1)",
        "param x: u range [0 1] class operational",
    ],
)
def test_a_bad_param_line_is_one_e001_and_skipped_to_its_end(param):
    # once, a bad class or dist value left the rest of its line to be warned
    # about as unknown constructs, and each bad dist argument was one more E001
    text = f'odd "N" {{\n  {param}\n  param y: u range [0, 1]\n  region polygon {{ (0,0) (1,0) (1,1) }}\n}}\n'
    doc = oddkit.parse_spec(text)
    assert [(d.code, d.line) for d in doc.diagnostics] == [("E001", 2)]
    assert doc.nodes == []


def test_a_param_that_did_not_parse_spares_its_region_the_checks(extended_spec_text, tmp_path):
    # the region was checked against the parameters that did parse: a 3-D
    # polytope with one of them lost read as "3 coefficients, expected 2"
    temp = "param Temp: C range [-60, 15] class "
    text = extended_spec_text.replace(temp + "environmental", temp + "bogus")
    doc = oddkit.parse_spec(text)
    assert [d.code for d in doc.diagnostics] == ["E001"]
    assert "MLMODD_ext" not in [n.name for n in doc.nodes]
    spec = tmp_path / "lost_param.odd"
    spec.write_text(text, encoding="utf-8")
    assert CliRunner().invoke(cli, ["validate", str(spec)]).exit_code == 1


def test_node_checks_are_reported_at_the_nodes_own_declaration():
    text = """odd "A" extends "Nope" {
  param x: u range [0, 1]
  param y: u range [0, 1]
  region polygon { (0,0) (1,0) (1,1) }
}

odd "A" {
  param x: u range [0, 1]
  param y: u range [0, 1]
  region polygon { (0,0) (1,0) (1,1) }
}
"""
    assert [str(d) for d in oddkit.parse_spec(text).diagnostics] == [
        "error E002 at 7:1: duplicate node name 'A'",
        "error E003 at 1:1: node 'A' references unknown node 'Nope'",
    ]


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
    # both point at the monitor's keyword
    assert [(d.line, d.col) for d in doc.diagnostics] == [(9, 3), (9, 3)]
    well_formed = text.replace("input (0.2) ", "").replace(" input (0.1, 0.7, 99)", "")
    assert oddkit.parse_spec(well_formed).ok
    unknown = well_formed.replace('  stub', '  monitor range_monitor node "B" action filter\n  stub')
    doc = oddkit.parse_spec(unknown)
    assert _codes(doc) == ["E003"]
    assert (doc.diagnostics[0].line, doc.diagnostics[0].col) == (8, 3)
    # the position is not part of a declaration's value
    chain = doc.monitor_chains[0]
    assert (chain.line, chain.col) == (7, 1)
    assert chain == dataclasses.replace(chain, line=1, col=1)
    assert chain.monitors[1] == dataclasses.replace(chain.monitors[1], line=1, col=1)


_MONITOR_SPEC = """
odd "A" level mlm_odd {{
  param x: u range [0, 1]
  param y: u range [0, 1]
  region polygon {{ (0,0) (1,0) (1,1) }}
}}
monitorchain "m" {{
  {stub}
  monitor {monitor}
}}
"""
_STUB = "stub bilinear 0 1 1 0"


@pytest.mark.parametrize(
    "stub, monitor, code",
    [
        (_STUB, 'bogus_kind node "A" action filter', "E001"),
        (_STUB, 'range_monitor node "A" action explode', "E001"),
        ("stub table 0 1 1 0", 'range_monitor node "A" action filter', "E001"),
        (_STUB, 'range_monitor node "A" tol -1 action filter', "E012"),
        (_STUB, 'cross_check_monitor node "A" threshold 0 action filter', "E012"),
        (_STUB, 'known_input_monitor node "A" action filter', "E013"),
        (_STUB, "extreme_value_monitor action filter", "E014"),
        (_STUB, "known_input_monitor input (0.1, 0.5) action filter", "E014"),
        ("stub bilinear 0 1 1", 'range_monitor node "A" action filter', "E015"),
        ("stub bilinear 0 1 1 1e999", 'range_monitor node "A" action filter', "E015"),
        ("", 'range_monitor node "A" action filter', "E016"),
    ],
)
def test_monitorchain_rules(stub, monitor, code, tmp_path):
    """Each rule a monitor or stub must keep is a coded error at parse time,
    with the message building the chain raises; validate exits 1."""
    text = _MONITOR_SPEC.format(stub=stub, monitor=monitor)
    doc = oddkit.parse_spec(text)
    assert _codes(doc) == [code]
    error = doc.errors[0]
    assert (error.line, error.col) == ((9, 3) if stub == _STUB else (7, 1))
    decl = doc.monitor_chains[0]
    with pytest.raises(ValueError) as raised:
        monitors.build_stub(decl.stub, doc.node("A"))
        monitors.build_monitors(decl.monitors, doc)
    assert error.message == f"monitorchain 'm': {raised.value}"
    spec = tmp_path / "monitors.odd"
    spec.write_text(text)
    result = CliRunner().invoke(cli, ["validate", str(spec)])
    assert result.exit_code == 1
    assert f"error {code} at {error.line}:{error.col}" in result.output


def test_corpus_monitorchains_keep_every_rule(extended_doc):
    assert extended_doc.diagnostics == []
    for decl in extended_doc.monitor_chains:
        monitors.build_stub(decl.stub, extended_doc.node("MLMODD"))
        monitors.build_monitors(decl.monitors, extended_doc)


_DIST_SPEC = """
odd "D" level mlm_odd {{
  param x: u range [0, 1] dist {dist}
  param y: u range [0, 1]
  region polygon {{ (0,0) (1,0) (1,1) (0,1) }}
}}
"""


@pytest.mark.parametrize(
    "dist",
    [
        "uniform(0, 1)",
        "triangular(1)",
        "triangular(0.5, 0.2, 0.8)",
        "triangular(0.5, 0.5, 0.5)",
        "triangular(0, 1, 2)",
        "histogram(0, 1)",
        "histogram(0, 0.5, 1, 1)",
        "histogram(0.5, 0, 1, 1, 1)",
        "histogram(0, 0.5, 1, -1, 2)",
        "histogram(0, 0.5, 1, 0, 0)",
        "histogram(0, 0.5, 1, 1e308, 1e308)",
        "histogram(-1, 0.5, 1, 1, 1)",
        "triangular(0, 0.5, 1e400)",
    ],
)
def test_undrawable_distribution_e011(dist, tmp_path):
    text = _DIST_SPEC.format(dist=dist)
    doc = oddkit.parse_spec(text)
    assert _codes(doc) == ["E011"]
    assert (doc.errors[0].line, doc.errors[0].col) == (3, 32)
    spec = tmp_path / "dist.odd"
    spec.write_text(text)
    runner = CliRunner()
    assert runner.invoke(cli, ["validate", str(spec)]).exit_code == 1
    args = ["generate", str(spec), "--node", "D", "--mode", "nominal_interior", "-n", "5", "--seed", "0"]
    result = runner.invoke(cli, args)
    assert result.exit_code == 1, result.output


@pytest.mark.parametrize(
    "dist", ["uniform", "triangular(0, 1, 1)", "triangular(0.2, 0.5, 0.9)", "histogram(0, 0.5, 1, 0, 1)"]
)
def test_drawable_distribution_is_accepted(dist):
    doc = oddkit.parse_spec(_DIST_SPEC.format(dist=dist))
    assert doc.ok
    points = oddkit.sample_region(doc.node("D"), 200, "nominal_interior", seed=0)
    assert all(0 <= p.values["x"] <= 1 for p in points)


def test_fmt_is_9_significant_digits():
    assert dsl.fmt(0.1) == "0.1"
    assert dsl.fmt(1 / 3) == "0.333333333"
    assert dsl.fmt(15000) == "15000"


DATA = Path(__file__).parent / "data"
# a '{' inside a monitorchain body: the parser once warned on it forever
_BRACE_IN_MONITORCHAIN = {
    ("flight_envelope_extended.odd", "duplicate", 77),
    ("flight_envelope_extended.odd", "delete", 82),
    ("flight_envelope_extended.odd", "duplicate", 84),
}


def _line_mutations(keep=lambda mutation: mutation not in _BRACE_IN_MONITORCHAIN):
    """(label, text) of each corpus spec with one line deleted and with one
    line duplicated, for the mutations ``keep`` accepts."""
    for name in ("flight_envelope.odd", "flight_envelope_extended.odd"):
        lines = (DATA / name).read_text(encoding="utf-8").splitlines(keepends=True)
        for i in range(len(lines)):
            for op, mutated in (("delete", lines[:i] + lines[i + 1 :]), ("duplicate", lines[: i + 1] + lines[i:])):
                if keep((name, op, i + 1)):
                    yield f"{name} {op} {i + 1}", "".join(mutated)


def _token_deletions():
    """(label, diagnostics) of each corpus spec, and of the packaged rule
    file, with one token deleted."""
    rules = Path(oddkit.__file__).parent / "data" / "erla_rules.txt"
    for path, diagnose in (
        (DATA / "flight_envelope.odd", lambda text: oddkit.parse_spec(text).diagnostics),
        (DATA / "flight_envelope_extended.odd", lambda text: oddkit.parse_spec(text).diagnostics),
        (rules, lambda text: oddkit.parse_rules(text)[2]),
    ):
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        tokens, _ = dsl.tokenize("".join(lines))
        for i, tok in enumerate(tokens):
            line = lines[tok.line - 1]
            cut = line[: tok.col - 1] + line[tok.col - 1 + len(tok.value) :]
            text = "".join(lines[: tok.line - 1] + [cut] + lines[tok.line :])
            yield f"{path.name} delete token {i + 1}", diagnose(text)


def test_line_mutations_of_the_corpus_keep_the_golden_diagnostics():
    # and the token deletions, with the rule file's
    for golden, mutations in (
        ("golden_diagnostics.txt", ((label, oddkit.parse_spec(text).diagnostics) for label, text in _line_mutations())),
        ("golden_token_diagnostics.txt", _token_deletions()),
    ):
        found = [f"{label}: {d}" for label, diagnostics in mutations for d in diagnostics]
        assert found == (DATA / golden).read_text(encoding="utf-8").splitlines(), golden


def test_a_keyword_value_comes_from_the_keyword_line():
    # 'class' at the end of its line once took 'region' as its value: five
    # diagnostics, and the region parsed as unknown constructs
    text = 'odd "N" {\n  param x: u range [0, 1]\n  param y: u range [0, 1] class\n  region polygon {\n'
    text += "    (0, 0)\n    (1, 0)\n    (0, 1)\n  }\n}\n"
    assert [str(d) for d in oddkit.parse_spec(text).diagnostics] == ["error E001 at 3:27: expected ident, got end of line"]
    (decl,) = dsl._Parser(dsl.tokenize(text)[0]).document()
    assert decl["polygon"][0] == ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))


@pytest.mark.parametrize(
    "old, new, expected",
    [
        ('level mlm_odd variant as_specified allocates "MLCODD_spec" {', 'variant as_specified allocates "MLCODD_spec" level\n{', "ident"),
        ('level mlm_odd variant as_specified allocates "MLCODD_spec" {', 'level mlm_odd allocates "MLCODD_spec" variant\n{', "ident"),
        ('allocates "MLCODD_spec" {', "allocates\n{", "string"),
        ('extends "MLMODD" {', "extends\n{", "string"),
        ("class environmental\n", "class\n", "ident"),
        ("dist uniform\n", "dist\n", "ident"),
        ("stub bilinear 1 2 0.001 0\n", "stub\n", "ident"),
        ("monitor output_range_monitor lo -100 hi 100 action mask\n", "monitor\n", "ident"),
        ('node "MLMODD" action filter\n', "action filter node\n", "string"),
        ("param Alt threshold 0.5 action failover\n", "threshold 0.5 action failover param\n", "ident"),
        ("lo -100 hi 100 action mask\n", "lo -100 action mask hi\n", "number"),
        ("tol 1e-06 action replace 0\n", "action replace 0 tol\n", "number"),
        ('node "MLMODD" action filter\n', 'node "MLMODD" action filter input\n', "("),
        ('node "MLMODD" action filter\n', 'node "MLMODD" action\n', "ident"),
    ],
    ids=["level", "variant", "allocates", "extends", "class", "dist", "stub", "monitor", "node", "param", "hi",
         "tol", "input", "action"],
)
def test_a_line_that_ends_before_a_keyword_value_is_one_e001_at_the_keyword(old, new, expected, extended_spec_text):
    # the value was taken from the next line, and the diagnostics that
    # followed depended on what that line held
    text = extended_spec_text.replace(old, new, 1)
    at = text.index(new) + new.index("\n")  # just past the keyword
    keyword = text[:at].split()[-1]
    line, col = text[:at].count("\n") + 1, at - text.rindex("\n", 0, at) - len(keyword)
    diagnostics = [(d.code, d.line, d.col, d.message) for d in oddkit.parse_spec(text).diagnostics]
    assert diagnostics == [("E001", line, col, f"expected {expected}, got end of line")]


_SQUARE = """odd "N" level mlm_odd {
  param x: u range [0, 1]
  param y: u range [0, 1]
  region polytope {
    halfspace 1 0 <= 1
    halfspace 0 1 <= 1
    halfspace -1 0 <= 0
    halfspace 0 -1 <= 0
    vertex (0, 0) vertex (1, 0) vertex (1, 1) vertex (0, 1)
  }
}
"""


@pytest.mark.parametrize(
    "old, new, expected, at",
    [
        ("halfspace 1 0 <= 1\n", "halfspace 1 0 <=\n", "number", "5:5"),
        ("vertex (0, 1)\n", "vertex (0, 1\n", ")", "9:47"),
    ],
    ids=["halfspace", "vertex"],
)
def test_a_polytope_item_is_read_within_its_line(old, new, expected, at):
    # the item once read on into the next line, reported what it found there,
    # and the region block it lost gave an E004 "has no region" as well
    diagnostics = oddkit.parse_spec(_SQUARE.replace(old, new, 1)).diagnostics
    assert [str(d) for d in diagnostics] == [f"error E001 at {at}: expected {expected}, got end of line"]


@pytest.mark.parametrize(
    "old, new, expected",
    [
        ("    vertex (0, 0) vertex (1, 0) vertex (1, 1) vertex (0, 1)\n", "",
         "error E004 at 4:3: node 'N': polytope needs halfspaces and an explicit vertex list"),
        ("vertex (0, 0)", "vertex (0, 0, 0)", "error E004 at 4:3: node 'N': vertex has 3 coordinates, expected 2"),
        ("vertex (1, 1)", "vertex (2, 1)",
         "error E006 at 4:3: node 'N': polytope vertex (2.0, 1.0) outside the parameter box"),
        ("halfspace 1 0 <= 1", "halfspace 1 0 <= 0.5",
         "error E004 at 4:3: node 'N': vertex (1.0, 0.0) violates halfspace (1.0, 0.0) <= 0.5"),
        ("  }\n}", "  }\n  region polygon { (0, 0) (1, 0) (1, 1) }\n}",
         "error E004 at 11:3: node mixes polygon and polytope regions"),
        ("param y: u", "param y: u $", "error E001 at 3:14: unexpected character '$'"),
    ],
    ids=["no-vertices", "vertex-arity", "vertex-outside-box", "vertex-violates-halfspace", "mixed-regions", "stray-char"],
)
def test_each_region_and_token_diagnostic_is_reported(old, new, expected):
    assert old in _SQUARE
    assert [str(d) for d in oddkit.parse_spec(_SQUARE.replace(old, new, 1)).diagnostics] == [expected]


def test_a_rule_field_is_read_within_its_line():
    # 'kinds [InMOD&InS' once read 'categories' as a kind and reported the next line's '['
    text = "rule {\n  kinds [InMOD&InS\n  categories [Nominal]\n  E [x]\n}\n"
    assert [str(d) for d in oddkit.parse_rules(text)[2]] == ["error E001 at 2:3: expected ], got end of line"]


def test_a_brace_in_a_monitorchain_body_ends_the_block(tmp_path):
    repro = 'monitorchain "a" {\n  stub bilinear 1 2 0 0\nmonitorchain "b" {\n  stub bilinear 1 2 0 0\n}\n'
    texts = [repro] + [text for _, text in _line_mutations(keep=_BRACE_IN_MONITORCHAIN.__contains__)]
    assert len(texts) == 4
    specs = []
    for i, text in enumerate(texts):
        specs.append(tmp_path / f"brace{i}.odd")
        specs[-1].write_text(text, encoding="utf-8")
    # in child processes, so a parser that loops fails here instead of hanging
    # the suite; the loop grew its diagnostics list by about 60 MB/s
    search_path = [str(Path(oddkit.__file__).parent.parent), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, search_path))}
    code = (
        "import json, sys, time\n"
        "from oddkit.dsl import parse_spec\n"
        "for path in sys.argv[1:]:\n"
        "    text = open(path, encoding='utf-8').read()\n"
        "    start = time.perf_counter()\n"
        "    doc = parse_spec(text)\n"
        "    print(json.dumps([time.perf_counter() - start, [d.code for d in doc.errors]]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, *map(str, specs)], capture_output=True, text=True, env=env, timeout=10
    )
    assert proc.returncode == 0, proc.stderr
    for line in proc.stdout.splitlines():
        seconds, errors = json.loads(line)
        assert seconds < 1.0 and "E001" in errors
    for spec in specs:
        command = [sys.executable, "-m", "oddkit.cli", "validate", str(spec)]
        proc = subprocess.run(command, capture_output=True, text=True, env=env, timeout=10)
        assert proc.returncode == 1 and "error E001" in proc.stderr + proc.stdout
