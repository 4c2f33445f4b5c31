"""The per-``Points`` memo: a parsed dataset's containment codes and labels
are decided once and shared by every stage, and sharing them changes no
output, no error and no array a caller can write."""

from __future__ import annotations

import dataclasses
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oddkit
from oddkit import analysis, classify, geometry, monitors, render
from oddkit.model import DataPoint, Points

STAGES = ("labels", "partitions", "analysis", "audit", "audit_all", "coverage", "simulation", "svg")


def mixed_text(doc, rng: np.random.Generator, n: int) -> str:
    """A dataset CSV: rows uniform over the inflated MLC box, snapped to the
    vertices, edges and range bounds of the 2-D nodes, with raw:Alt,
    hidden:Temp and in_sample cells, and some rows excluded (E103)."""
    mlc = doc.node("MLCODD_spec")
    lo, hi = np.array(mlc.box).T
    span = hi - lo
    nodes = [doc.node(name) for name in ("MLMODD", "MLCODD_spec", "SOD")]
    lines = ["Mach,Alt,raw:Alt,hidden:Temp,in_sample"]
    for _ in range(n):
        x = rng.uniform(lo - 0.2 * span, hi + 0.2 * span)
        node = nodes[rng.integers(len(nodes))]
        verts = np.array(node.region.vertices)
        how = rng.integers(5)
        if how == 1:
            x = verts[rng.integers(len(verts))]
        elif how == 2:
            j = rng.integers(len(verts))
            x = verts[j] + rng.uniform() * (verts[(j + 1) % len(verts)] - verts[j])
        elif how == 3:
            k = rng.integers(2)
            x[k] = node.box[k][rng.integers(2)]
        mach, alt = x.tolist()
        raw = hidden = flag = ""
        roll = rng.uniform()
        if roll < 0.15:
            raw = repr(alt * float(rng.choice([1.0, 1.25])))
        elif roll < 0.3:
            hidden = repr(float(rng.uniform(-90.0, 40.0)))
        if rng.uniform() < 0.2:
            flag = str(rng.choice(["1", "0"]))
        cells = [repr(mach), repr(alt), raw, hidden, flag]
        if rng.uniform() < 0.05:
            cells[rng.integers(2)] = "zz"  # unparseable: excluded
        elif rng.uniform() < 0.03:
            cells.append("1")  # more cells than the header: excluded
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def run_stages(points: Points, chain, doc, audit_kinds, order) -> dict[str, object]:
    """Each stage of a labelling pass over ``points``, in ``order``, as text."""
    nodes_2d = [n for n in doc.nodes if len(n.parameters) == 2]
    scenario = next(c for c in doc.monitor_chains if c.name == "baseline")
    rules = analysis.load_default_rules()

    def stage(name):
        if name == "labels":
            return classify.serialize_labels(classify.label_rows(points, chain))
        if name == "partitions":
            return classify.serialize_partitions(classify.partition_dataset(points, chain))
        if name == "analysis":
            return analysis.analyze_partitions(points, chain, rules).render_csv()
        if name == "audit":
            report = classify.verify_set_algebra(points, chain, labels=audit_kinds)
            return report.holds, report.violations
        if name == "audit_all":
            report = classify.verify_set_algebra(points, chain)
            return report.holds, report.violations
        if name == "coverage":
            return analysis.coverage_report(points, chain.mlm).render_text()
        if name == "simulation":
            mons = monitors.build_monitors(scenario.monitors, doc)
            sim = monitors.run_monitor_chain(points, chain, mons, monitors.build_stub(scenario.stub, chain.mlm))
            return sim.render_verdicts_csv() + sim.render_metrics()
        labeled = [(p, r.category) for p, r in zip(points, classify.label_rows(points, chain))]
        return render.render_svg(nodes_2d, labeled)

    return {name: stage(name) for name in order}


@settings(max_examples=25)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 60), order=st.permutations(STAGES))
def test_stages_sharing_one_parse_write_what_fresh_parses_write(extended_doc, chain, seed, n, order):
    """The label_batch stage sequence, and a drawn order of it, on one shared
    parse give byte for byte what each stage gives on a parse of its own;
    the audit checks a label per row but the last few."""
    text = mixed_text(extended_doc, np.random.default_rng(seed), n)

    def parse() -> Points:
        ds = oddkit.parse_dataset(text, chain.mlm)
        assert ds.ok
        return ds.points

    kinds = [r.kind for r in classify.label_rows(parse(), chain)]
    audit_kinds = kinds[: max(len(kinds) - 3, 0)]
    fresh = {name: run_stages(parse(), chain, extended_doc, audit_kinds, [name])[name] for name in STAGES}
    assert run_stages(parse(), chain, extended_doc, audit_kinds, STAGES) == fresh
    assert run_stages(parse(), chain, extended_doc, audit_kinds, order) == fresh


@pytest.fixture()
def points(extended_doc):
    text = mixed_text(extended_doc, np.random.default_rng(7), 200)
    return oddkit.parse_dataset(text, extended_doc.node("MLMODD")).points


def test_memoized_arrays_are_read_only(points, chain):
    codes = geometry.point_codes(points, chain.mlm)
    labels = classify.label_rows(points, chain)
    one_node = classify.classify_points(points, chain.mlm, chain)
    arrays = [codes, one_node.categories, one_node.on_boundary]
    arrays += [labels.categories, labels.on_boundary, labels.kinds, labels.mlc_categories, labels.sod_categories]
    for a in arrays:
        with pytest.raises(ValueError):
            a[:1] = 0
    # a row's annotations are its own: writing them changes no other stage's
    annotated = min(labels.notes)
    before = classify.serialize_labels(labels)
    next(r for r in labels if r.row == annotated).annotations["x"] = "y"
    assert "x" not in list(classify.label_rows(points, chain))[annotated].annotations
    assert classify.serialize_labels(labels) == before


def test_one_decision_per_stage_sequence(points, chain, extended_doc, monkeypatch):
    """A labelling pass decides the MLM over every row once, and labels once;
    the MLC and SOD are decided only for the rows that reach them."""
    decided, bodies = Counter(), Counter()
    region_containment, label_body = geometry.region_containment, classify._label_rows

    def counting(X, node, tol=oddkit.DEFAULT_TOL):
        decided[node.name, tol, len(X)] += 1
        return region_containment(X, node, tol)

    def counting_body(*args):
        bodies["label_rows"] += 1
        return label_body(*args)

    monkeypatch.setattr(geometry, "region_containment", counting)
    monkeypatch.setattr(classify, "_label_rows", counting_body)
    kinds = [r.kind for r in classify.label_rows(points, chain)]
    run_stages(points, chain, extended_doc, kinds, [name for name in STAGES if name != "audit_all"])
    assert decided["MLMODD", oddkit.DEFAULT_TOL, len(points)] == 1
    assert bodies["label_rows"] == 1
    inside = int((geometry.point_codes(points, chain.mlm) != geometry.OUTSIDE).sum())
    assert decided["MLCODD_spec", oddkit.DEFAULT_TOL, len(points) - inside] == 1


def test_a_call_that_raises_keeps_nothing(points, chain, extended_doc):
    wind = oddkit.Parameter("Wind", "kt", 0.0, 40.0)
    windy = dataclasses.replace(chain.mlm, parameters=(*chain.mlm.parameters, wind))
    for _ in range(2):
        with pytest.raises(oddkit.MissingParameter):
            geometry.point_codes(points, windy)
        with pytest.raises(ValueError):
            geometry.point_codes(points, chain.mlm, 0.0)
    assert points.memo == {}
    windy_mlc = dataclasses.replace(chain.mlc, parameters=(*chain.mlc.parameters, wind))
    windy_chain = dataclasses.replace(chain, mlc=windy_mlc, sample_registry=(), extended=None)
    for _ in range(2):
        with pytest.raises(oddkit.MissingParameter):
            classify.label_rows(points, windy_chain)
    assert [key[0] for key in points.memo] == ["codes"]  # the MLM codes were decided


def test_entries_belong_to_the_very_node_and_chain(points, chain):
    twin = dataclasses.replace(chain.mlm)
    assert twin == chain.mlm and twin is not chain.mlm
    codes = geometry.point_codes(points, chain.mlm)
    assert geometry.point_codes(points, chain.mlm) is codes
    assert geometry.point_codes(points, chain.mlm, 1e-6) is not codes
    twin_codes = geometry.point_codes(points, twin)
    assert twin_codes is not codes and twin_codes.tolist() == codes.tolist()
    labels = classify.label_rows(points, chain)
    assert classify.label_rows(points, chain) is labels
    other = dataclasses.replace(chain)
    assert classify.label_rows(points, other) is not labels
    assert classify.serialize_labels(classify.label_rows(points, other)) == classify.serialize_labels(labels)


def test_taken_and_listed_points_start_with_an_empty_memo(points, chain):
    classify.label_rows(points, chain)
    assert points.memo
    assert Points.of(points) is points
    for other in (points.take(np.arange(5)), points[:5], Points.of(list(points)), Points.of([DataPoint({})])):
        assert other.memo == {}
