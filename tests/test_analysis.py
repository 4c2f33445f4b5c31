from __future__ import annotations

from importlib import resources

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oddkit
from oddkit import analysis
from oddkit.analysis import NotApplicable, full_key_space, load_default_rules
from oddkit.model import DataPoint, Points

import oracles


def test_full_key_space_has_22_cells():
    keys = full_key_space()
    assert len(keys) == 22
    assert ("OutCOD", "Any") in keys
    assert ("InMOD&InS", "Nominal") in keys
    assert ("OutCOD", "Nominal") not in keys


def test_default_rule_base_is_total():
    rules = load_default_rules()
    for key in full_key_space():
        assert rules.lookup(key) is not None


def test_default_rule_base_pins_known_cells():
    rules = load_default_rules()
    nominal_ins = rules.lookup(("InMOD&InS", "Nominal"))
    assert "mlm-underperformance-on-specific-inputs" in nominal_ins.effects
    assert "failover" in nominal_ins.architecture
    edge_outmod = rules.lookup(("InCOD&OutMOD", "EdgeCase"))
    assert "mlm-shall-not-process" in edge_outmod.requirements
    inlier = rules.lookup(("InMOD&OutS", "Inlier"))
    assert "dissimilar-inputs-cross-check" in inlier.architecture
    outlier_outs = rules.lookup(("InMOD&OutS", "Outlier"))
    assert isinstance(outlier_outs, NotApplicable)


def test_unvalidated_rule_base_refuses_lookup():
    rules, nas, diags = analysis.parse_rules(
        "rule { kinds [OutCOD] categories [Any] E [x] R [x] L [x] A [x] }"
    )
    assert not any(d.severity == "error" for d in diags)
    # an incomplete rule base is refused when built, so no lookup can reach it
    with pytest.raises(ValueError, match="uncovered cell"):
        analysis.RuleBase(rules, nas)


def test_packaged_rules_parse_cleanly():
    text = resources.files("oddkit").joinpath("data/erla_rules.txt").read_text("utf-8")
    rules, nas, diags = analysis.parse_rules(text)
    assert diags == []
    assert (len(rules), len(nas)) == (9, 3)


@pytest.mark.parametrize(
    "text,where,parsed",
    [
        ("rule { kinds [OutCOD] categories [Any]", (1, 38), 0),  # unclosed at end of file
        ("rule kinds [x] }\nrule { kinds [OutCOD] categories [Any] }", (1, 6), 1),  # no '{'
        ("rule { E [ { ] }\nrule { kinds [OutCOD] categories [Any] }", (1, 12), 1),  # '{' as an item
    ],
)
def test_rule_file_errors_report_once_and_resume(text, where, parsed):
    rules, _, diags = analysis.parse_rules(text)
    assert [(d.code, d.line, d.col) for d in diags] == [("E001", *where)]
    assert len(rules) == parsed


def test_overlapping_rules_rejected():
    text = """
rule { kinds [OutCOD] categories [Any] E [x] R [x] L [x] A [x] }
rule { kinds [OutCOD] categories [Any] E [y] R [y] L [y] A [y] }
"""
    rules, nas, _ = analysis.parse_rules(text)
    with pytest.raises(ValueError, match="overlapping cell"):
        analysis.RuleBase(rules, nas)


def test_unknown_cell_rejected():
    rules, nas, _ = analysis.parse_rules(
        "rule { kinds [OutCOD] categories [Nominal] E [x] R [x] L [x] A [x] }"
    )
    with pytest.raises(ValueError, match="unknown cell"):
        analysis.RuleBase(rules, nas)


def test_analyze_partitions_golden(golden_dataset, chain):
    report = analysis.analyze_partitions(golden_dataset.points, chain, load_default_rules())
    keys = [s.key for s in report.sections]
    assert keys == sorted(keys, key=lambda k: full_key_space().index(k))
    by_key = {s.key: s for s in report.sections}
    assert by_key[("OutCOD", "Any")].count == 3
    assert "mlc-shall-not-process" in by_key[("OutCOD", "Any")].erla.requirements
    text = report.render_text()
    assert "partition InMOD&InS x Nominal: 1 point(s)" in text
    csv_text = report.render_csv()
    assert csv_text.splitlines()[0].startswith("kind_set,category,count")
    assert len(csv_text.splitlines()) == len(report.sections) + 1


def test_coverage_report(golden_dataset, extended_doc):
    node = extended_doc.node("MLMODD")
    report = analysis.coverage_report(golden_dataset.points, node)
    # golden rows hit (0,0), (0.4,0) of the 5 polygon vertices
    assert report.vertex_coverage == pytest.approx(2 / 5)
    assert 0.0 < report.edge_coverage <= 1.0
    assert 0.0 < report.interior_grid_coverage < 0.1
    assert report.empty_required_partitions == []
    text = report.render_text()
    assert "vertex_coverage=0.4" in text
    assert "count_Nominal=3" in text


def test_coverage_counts_a_bound_slice_reached_at_one_vertex(extended_doc):
    # SOD reaches Alt = 16000 only at its vertex (0.2, 16000)
    node = extended_doc.node("SOD")
    points = [DataPoint({"Mach": 0.0, "Alt": 5000.0}), DataPoint({"Mach": 0.7, "Alt": 5000.0}),
              DataPoint({"Mach": 0.3, "Alt": -2000.0})]
    assert analysis.coverage_report(points, node).edge_coverage == 0.75
    points.append(DataPoint({"Mach": 0.2, "Alt": 16000.0}))
    assert analysis.coverage_report(points, node).edge_coverage == 1.0


def test_coverage_reads_the_halfspaces_of_a_square_listed_rounded_inward(rounded_square_text):
    doc = oddkit.parse_spec(rounded_square_text)
    assert doc.ok
    points = [DataPoint({"x": 0.0, "y": 0.0}), DataPoint({"x": 1.0, "y": 1.0}), DataPoint({"x": 0.5, "y": 0.0})]
    report = analysis.coverage_report(points, doc.node("SQ"))
    # the corner rows the classifier finds cover two of the four box corners
    assert report.counts == {"FeasibleCornerCase": 2, "EdgeCase": 1}
    assert report.vertex_coverage == 0.5
    assert report.edge_coverage == 1.0  # (0, 0) and (1, 1) lie on all four bounds


def test_coverage_flags_empty_required_partitions(extended_doc):
    node = extended_doc.node("MLMODD")
    points = [DataPoint({"Mach": 0.2, "Alt": 7000.0})]
    report = analysis.coverage_report(points, node)
    assert report.empty_required_partitions == ["EdgeCase", "FeasibleCornerCase"]


@pytest.mark.parametrize("vertices", [0, 1, 7])
def test_vertex_cover_equals_the_reduce_over_rows_by_vertices_by_coordinates(vertices):
    rng = np.random.default_rng(vertices)
    V = rng.random((vertices, 2))
    X = rng.uniform(-0.2, 1.2, (400, 2))
    # rows on the first half of the vertices; one off each of the others in
    # x, by half a tolerance and by one and a half in turn; one at each of
    # those with a NaN or infinite y; and NaN and infinite rows
    half, rest = vertices // 2, vertices - vertices // 2
    X[: 5 * half] = np.repeat(V[:half], 5, axis=0)
    X[100 : 100 + rest] = V[half:] + np.outer(np.resize([0.5, 1.5], rest), [analysis._VERTEX_TOL, 0])
    X[200 : 200 + rest] = np.column_stack([V[half:, 0], rng.choice([np.nan, np.inf, -np.inf], rest)])
    X[np.arange(300, 360, 2), rng.integers(2, size=30)] = rng.choice([np.nan, np.inf, -np.inf], 30)
    X[361:370] = [np.nan, np.inf]
    expected = (np.abs(X[:, None] - V).max(axis=2) <= analysis._VERTEX_TOL).any(axis=0)
    assert analysis._vertices_covered(X, V).tolist() == expected.tolist()
    assert expected[: half + 1].all() and not expected[half + 1 : half + 2].any()


def test_coverage_requires_2d_node(extended_doc, golden_dataset):
    with pytest.raises(ValueError):
        analysis.coverage_report(golden_dataset.points, extended_doc.node("MLMODD_ext"))


def test_propose_odd_update(extended_doc):
    mlc = extended_doc.node("MLCODD_spec")
    observed = [
        DataPoint({"Mach": 0.45, "Alt": 1000.0}),
        DataPoint({"Mach": 0.5, "Alt": 2000.0}),
        DataPoint({"Mach": 0.2, "Alt": 3000.0}),
    ]
    proposal = analysis.propose_odd_update(observed, mlc)
    assert len(proposal.range_changes) == 1
    change = proposal.range_changes[0]
    assert change.parameter == "Mach"
    assert change.bound == "hi"
    assert change.current == 0.4
    assert change.proposed == pytest.approx(0.5, abs=1e-9)
    assert change.evidence_count == 2
    assert "propose Mach hi: 0.4 -> 0.5" in proposal.render_text()


def test_propose_odd_update_flags_hidden_parameters(extended_doc):
    mlc = extended_doc.node("MLCODD_spec")
    observed = [DataPoint({"Mach": 0.2, "Alt": 1000.0}, hidden_values={"Temp": 20.0})]
    proposal = analysis.propose_odd_update(observed, mlc)
    assert proposal.new_parameter_candidates == ["Temp"]
    assert proposal.range_changes == []


def test_propose_odd_update_empty_input(extended_doc):
    with pytest.raises(oddkit.EmptyInput):
        analysis.propose_odd_update([], extended_doc.node("MLCODD_spec"))


_TOLS = (oddkit.DEFAULT_TOL, 1e-3, 0.0)


@st.composite
def observed_points(draw, node):
    """Points whose values sit inside, beyond, exactly at and just past each
    bound's band (for every tolerance of ``_TOLS``), are NaN or infinite, or
    are missing, with hidden values named after a parameter or not."""
    special = [math.nan, math.inf, -math.inf]
    for p in node.parameters:
        for tol in _TOLS:
            band = tol * p.span
            for edge, out in ((p.hi + band, math.inf), (p.lo - band, -math.inf)):
                special += [edge, math.nextafter(edge, out), math.nextafter(edge, -out)]
    values = {}
    for p in node.parameters:
        if draw(st.integers(0, 5)):  # a value is missing now and then
            wide = st.floats(p.lo - p.span, p.hi + p.span)
            values[p.name] = draw(st.one_of(wide, st.sampled_from(special)))
    if draw(st.booleans()):
        values["Temp"] = draw(st.floats(-100, 100))  # a value no parameter names
    names = st.sampled_from(["Temp", "Wind", *node.parameter_names])
    hidden = draw(st.dictionaries(names, st.floats(allow_infinity=False), max_size=2)) or None
    return DataPoint(values, hidden_values=hidden)


@settings(max_examples=300)
@given(data=st.data())
def test_propose_odd_update_equals_the_point_by_point_reference(extended_doc, data):
    node = extended_doc.node("MLCODD_spec")
    tol = data.draw(st.sampled_from(_TOLS))
    observed = data.draw(st.lists(observed_points(node), min_size=1, max_size=12))
    expected = oracles.propose_odd_update(observed, node, tol)
    for given_points in (observed, Points.of(observed)):
        proposal = analysis.propose_odd_update(given_points, node, tol)
        assert proposal == expected
        assert proposal.render_text() == expected.render_text()


def test_propose_odd_update_reads_a_parsed_dataset(extended_doc):
    """A hidden column without a value in any row names no candidate."""
    node = extended_doc.node("MLCODD_spec")
    text = "Mach,Alt,hidden:Temp,hidden:Wind\n0.5,1000,,3\n0.45,-2000,,\n0.2,16000,,\n"
    ds = oddkit.parse_dataset(text, node)
    proposal = analysis.propose_odd_update(ds.points, node)
    assert proposal == oracles.propose_odd_update(list(ds.points), node, oddkit.DEFAULT_TOL)
    assert proposal.new_parameter_candidates == ["Wind"]
    assert [(c.parameter, c.bound, c.evidence_count) for c in proposal.range_changes] == [
        ("Mach", "hi", 2), ("Alt", "hi", 1), ("Alt", "lo", 1)
    ]
