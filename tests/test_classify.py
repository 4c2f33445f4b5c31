from __future__ import annotations

import math

import numpy as np
import pytest

import oddkit
from oddkit import geometry
from oddkit.classify import (
    KIND_SET,
    Kind,
    category_node,
    classify_kind,
    registry_match,
    registry_matches,
)
from oddkit.model import DataPoint


def cat(p, node, chain=None, **kw):
    return oddkit.classify_point(p, node, chain, **kw).category.label


def test_geometric_categories(extended_doc):
    mlm = extended_doc.node("MLMODD")
    assert cat(DataPoint({"Mach": 0.225, "Alt": 14000}), mlm) == "Nominal"
    assert cat(DataPoint({"Mach": 0.1, "Alt": 0}), mlm) == "EdgeCase"
    assert cat(DataPoint({"Mach": 0.0, "Alt": 0}), mlm) == "FeasibleCornerCase"
    assert cat(DataPoint({"Mach": 0.0, "Alt": 15000}), mlm) == "InfeasibleCornerCase"
    assert cat(DataPoint({"Mach": 0.4, "Alt": -1300}), mlm) == "Outlier"


def test_boundary_counts_as_inside(extended_doc):
    mlm = extended_doc.node("MLMODD")
    label = oddkit.classify_point(DataPoint({"Mach": 0.1, "Alt": 0}), mlm)
    assert label.on_boundary
    assert label.category.label == "EdgeCase"


def test_inlier_requires_declared_transform(extended_doc, chain):
    mlm = extended_doc.node("MLMODD")
    p = DataPoint({"Mach": 0.35, "Alt": 2000}, provenance_raw={"Alt": 20000})
    with pytest.raises(oddkit.MissingTransform):
        oddkit.classify_point(p, mlm)  # no chain, no transform declared
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


def test_category_is_single_and_anomaly_flags():
    assert oddkit.Category("Outlier").anomaly
    assert oddkit.Category("Novelty").anomaly
    assert not oddkit.Category("Nominal").anomaly
    with pytest.raises(ValueError):
        oddkit.Category("Weird")


def test_classify_kind(chain):
    assert classify_kind(DataPoint({"Mach": 0.225, "Alt": 14000}, in_sample=True), chain) == Kind.IN_SAMPLE
    assert classify_kind(DataPoint({"Mach": 0.225, "Alt": 14000}), chain) == Kind.OUT_OF_SAMPLE
    assert classify_kind(DataPoint({"Mach": 0.1, "Alt": -650}), chain) == Kind.OUT_OF_MLMODD
    assert classify_kind(DataPoint({"Mach": 0.6, "Alt": 5000}), chain) == Kind.OUT_OF_MLCODD


def test_sample_registry(extended_doc):
    registry = (DataPoint({"Mach": 0.225, "Alt": 14000}),)
    chain = oddkit.build_chain(extended_doc, sample_registry=registry)
    assert classify_kind(DataPoint({"Mach": 0.225, "Alt": 14000}), chain) == Kind.IN_SAMPLE
    assert classify_kind(DataPoint({"Mach": 0.226, "Alt": 14000}), chain) == Kind.OUT_OF_SAMPLE


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
    labels = [classify_kind(p, chain) for p in golden_dataset.points]
    labels[0] = Kind.OUT_OF_MLCODD  # lie about an in-MLMODD point
    report = oddkit.verify_set_algebra(golden_dataset.points, chain, labels=labels)
    assert not report.holds
    assert any(row == 0 for row, _ in report.violations)


def test_build_chain_rejects_broken_allocation(extended_spec_text):
    text = extended_spec_text.replace('allocates "MLCODD_spec" ', "")
    doc = oddkit.parse_spec(text)
    assert doc.ok
    with pytest.raises(ValueError):
        oddkit.build_chain(doc)


def test_chain_level_checks(extended_doc):
    sod = extended_doc.node("SOD")
    mlc = extended_doc.node("MLCODD_spec")
    with pytest.raises(ValueError):
        oddkit.Chain(mlm=sod, mlc=mlc)
