from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oddkit
from oddkit import geometry
from oddkit.classify import (
    KIND_SET,
    Kind,
    category_node,
    registry_match,
    registry_matches,
)
from oddkit.model import DataPoint


def label(p, node, chain=None, **kw):
    """``p``'s label against ``node``, as the one row of a batch."""
    (row,) = oddkit.classify_points([p], node, chain, **kw)
    return row


def cat(p, node, chain=None, **kw):
    return label(p, node, chain, **kw).category


def kind(p, chain):
    """``p``'s kind in the chain, as the one row of a batch."""
    (row,) = oddkit.label_rows([p], chain)
    return row.kind


def test_geometric_categories(extended_doc):
    mlm = extended_doc.node("MLMODD")
    assert cat(DataPoint({"Mach": 0.225, "Alt": 14000}), mlm) == "Nominal"
    assert cat(DataPoint({"Mach": 0.1, "Alt": 0}), mlm) == "EdgeCase"
    assert cat(DataPoint({"Mach": 0.0, "Alt": 0}), mlm) == "FeasibleCornerCase"
    assert cat(DataPoint({"Mach": 0.0, "Alt": 15000}), mlm) == "InfeasibleCornerCase"
    assert cat(DataPoint({"Mach": 0.4, "Alt": -1300}), mlm) == "Outlier"


def test_boundary_counts_as_inside(extended_doc):
    mlm = extended_doc.node("MLMODD")
    row = label(DataPoint({"Mach": 0.1, "Alt": 0}), mlm)
    assert row.on_boundary
    assert row.category == "EdgeCase"


def test_inlier_requires_declared_transform(extended_doc, chain):
    mlm = extended_doc.node("MLMODD")
    p = DataPoint({"Mach": 0.35, "Alt": 2000}, provenance_raw={"Alt": 20000})
    with pytest.raises(oddkit.MissingTransform):
        label(p, mlm)  # no chain, no transform declared
    # identity declaration: recorded 2000 vs raw 20000 mismatch -> Inlier
    assert cat(p, mlm, chain) == "Inlier"
    # a declared /10 scaling explains the recorded value -> geometric category
    explain = (oddkit.Transform("scale", "Alt", factor=0.1),)
    assert cat(p, mlm, declared_transform=explain) == "Nominal"


def test_novelty_requires_extension_context(extended_doc, chain):
    mlm = extended_doc.node("MLMODD")
    p = DataPoint({"Mach": 0.3, "Alt": 14000}, hidden_values={"Temp": 20})
    assert cat(p, mlm, chain) == "Novelty"
    # without the chain there is no extension node: plain geometric category
    assert cat(p, mlm) == "Nominal"
    # hidden value inside the extension region is not novelty
    q = DataPoint({"Mach": 0.3, "Alt": 14000}, hidden_values={"Temp": 5})
    assert cat(q, mlm, chain) == "Nominal"


def test_two_extension_nodes_are_ambiguous(two_extensions_text):
    """With two nodes extending the MLM, neither is the extension: taking the
    first would leave the other's hidden parameter never Novelty."""
    doc = oddkit.parse_spec(two_extensions_text)
    assert doc.ok, [str(d) for d in doc.diagnostics]
    with pytest.raises(ValueError, match="cannot infer extension node: found 2 candidate nodes"):
        oddkit.build_chain(doc)


def test_anomaly_labels_are_categories():
    assert {"Outlier", "Novelty"} <= oddkit.ANOMALY_LABELS < set(oddkit.CATEGORY_LABELS)
    assert "Nominal" not in oddkit.ANOMALY_LABELS


def test_classify_kind(chain):
    assert kind(DataPoint({"Mach": 0.225, "Alt": 14000}, in_sample=True), chain) == Kind.IN_SAMPLE
    assert kind(DataPoint({"Mach": 0.225, "Alt": 14000}), chain) == Kind.OUT_OF_SAMPLE
    assert kind(DataPoint({"Mach": 0.1, "Alt": -650}), chain) == Kind.OUT_OF_MLMODD
    assert kind(DataPoint({"Mach": 0.6, "Alt": 5000}), chain) == Kind.OUT_OF_MLCODD


def test_sample_registry(extended_doc):
    registry = (DataPoint({"Mach": 0.225, "Alt": 14000}),)
    chain = oddkit.build_chain(extended_doc, sample_registry=registry)
    assert kind(DataPoint({"Mach": 0.225, "Alt": 14000}), chain) == Kind.IN_SAMPLE
    assert kind(DataPoint({"Mach": 0.226, "Alt": 14000}), chain) == Kind.OUT_OF_SAMPLE


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_coordinates_match_nothing(extended_doc, bad):
    """Whichever coordinate holds it, in the query or in the entry, a
    non-finite value matches nothing; none reaches the grid, where casting it
    to a cell index would warn."""
    good = {"Mach": 0.225, "Alt": 14000}
    chain = oddkit.build_chain(extended_doc, sample_registry=(DataPoint(good),))
    for name in good:
        query = DataPoint({**good, name: bad})
        assert not registry_match(query, chain)
        poisoned = oddkit.build_chain(extended_doc, sample_registry=(query,))
        assert not registry_match(DataPoint(good), poisoned)
        assert not registry_match(query, poisoned)
    queries = [DataPoint({**good, "Alt": bad}), DataPoint(good), DataPoint({**good, "Mach": bad})]
    X = geometry.coords_array(queries, chain.mlm)
    assert registry_matches(X, chain).tolist() == [False, True, False]


def test_category_node(chain):
    assert category_node(Kind.IN_SAMPLE, chain) is chain.mlm
    assert category_node(Kind.OUT_OF_SAMPLE, chain) is chain.mlm
    assert category_node(Kind.OUT_OF_MLMODD, chain) is chain.mlc
    assert category_node(Kind.OUT_OF_MLCODD, chain) is chain.mlc


def test_golden_labels(golden_dataset, chain, golden_labels_text):
    rows = oddkit.label_rows(golden_dataset.points, chain)
    assert oddkit.serialize_labels(rows) == golden_labels_text


def test_partition_dataset(golden_dataset, chain):
    parts = oddkit.partition_dataset(golden_dataset.points, chain)
    assert parts[("InMOD&InS", "Nominal")] == [0]
    assert parts[("InMOD&OutS", "EdgeCase")] == [1]
    assert parts[("InMOD&OutS", "FeasibleCornerCase")] == [2, 3]
    assert parts[("InCOD&OutMOD", "FeasibleCornerCase")] == [4]
    assert parts[("InCOD&OutMOD", "Nominal")] == [5]
    assert parts[("OutCOD", "Any")] == [6, 7, 11]
    assert parts[("InMOD&OutS", "Inlier")] == [8]
    assert parts[("InMOD&OutS", "Novelty")] == [9]
    assert parts[("InMOD&OutS", "Nominal")] == [10]
    assert sum(len(v) for v in parts.values()) == 12
    assert list(parts) == [key for key in oddkit.full_key_space() if key in parts]


def test_kind_set_row_labels():
    assert KIND_SET[Kind.IN_SAMPLE] == "InMOD&InS"
    assert KIND_SET[Kind.OUT_OF_SAMPLE] == "InMOD&OutS"
    assert KIND_SET[Kind.OUT_OF_MLMODD] == "InCOD&OutMOD"
    assert KIND_SET[Kind.OUT_OF_MLCODD] == "OutCOD"


def test_set_algebra_on_golden(golden_dataset, chain):
    report = oddkit.verify_set_algebra(golden_dataset.points, chain)
    assert report.holds, report.violations


def test_set_algebra_flags_corrupted_labels(golden_dataset, chain):
    labels = [row.kind for row in oddkit.label_rows(golden_dataset.points, chain)]
    labels[0] = Kind.OUT_OF_MLCODD  # lie about an in-MLMODD point
    report = oddkit.verify_set_algebra(golden_dataset.points, chain, labels=labels)
    assert not report.holds
    assert any(row == 0 for row, _ in report.violations)


def test_set_algebra_reports_points_beyond_the_labels(chain):
    inside = [DataPoint({"Mach": 0.2, "Alt": a}) for a in (1000.0, 5000.0, 9000.0)]
    report = oddkit.verify_set_algebra(inside, chain, labels=[Kind.OUT_OF_SAMPLE])
    assert not report.holds
    assert report.violations == [(1, "totality: unlabeled point"), (2, "totality: unlabeled point")]
    with pytest.raises(ValueError, match="4 labels for 3 points"):
        oddkit.verify_set_algebra(inside, chain, labels=[Kind.OUT_OF_SAMPLE] * 4)


def test_build_chain_rejects_broken_allocation(extended_spec_text):
    text = extended_spec_text.replace('allocates "MLCODD_spec" ', "")
    doc = oddkit.parse_spec(text)
    assert doc.ok
    with pytest.raises(ValueError):
        oddkit.build_chain(doc)


def test_build_chain_stops_on_an_allocation_cycle(extended_spec_text, tmp_path):
    # MLMODD -> MLCODD_oper -> SOD -> MLCODD_oper, which never reaches MLCODD_spec
    text = extended_spec_text.replace('allocates "MLCODD_spec" {', 'allocates "MLCODD_oper" {')
    text = text.replace("level system_od variant as_specified {", 'level system_od allocates "MLCODD_oper" {')
    spec = tmp_path / "cycle.odd"
    spec.write_text(text, encoding="utf-8")
    # in a child process, so a walk that loops fails here instead of hanging the suite
    search_path = [str(Path(oddkit.__file__).parent.parent), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, search_path))}
    code = (
        "import sys, oddkit\n"
        "doc = oddkit.parse_spec(open(sys.argv[1], encoding='utf-8').read())\n"
        "print(sorted({d.code for d in doc.errors}))\n"
        "try:\n"
        "    oddkit.build_chain(doc)\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code, str(spec)], capture_output=True, text=True, env=env, timeout=10)
    assert proc.returncode == 0, proc.stderr
    # E018: SOD does not lie in MLCODD_oper, to which the cycle allocates it
    assert proc.stdout.splitlines() == ["['E008', 'E018']", "allocation cycle through node 'MLCODD_oper'"]


def test_chain_level_checks(extended_doc):
    sod = extended_doc.node("SOD")
    mlc = extended_doc.node("MLCODD_spec")
    with pytest.raises(ValueError):
        oddkit.Chain(mlm=sod, mlc=mlc)
