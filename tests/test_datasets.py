from __future__ import annotations

import pytest

import oddkit


@pytest.fixture()
def node(extended_doc):
    return extended_doc.node("MLMODD")


def test_golden_dataset_parses(golden_dataset):
    assert len(golden_dataset) == 12
    p0 = golden_dataset.points[0]
    assert p0.values == {"Mach": 0.225, "Alt": 14000.0}
    assert p0.in_sample is True
    p8 = golden_dataset.points[8]
    assert p8.provenance_raw == {"Alt": 20000.0}
    p9 = golden_dataset.points[9]
    assert p9.hidden_values == {"Temp": 20.0}


def test_missing_parameter_column_e101(node):
    ds = oddkit.parse_dataset("Mach\n0.1\n", node)
    assert not ds.ok
    assert any(d.code == "E101" for d in ds.diagnostics)
    assert len(ds) == 0


def test_duplicate_column_e102(node):
    ds = oddkit.parse_dataset("Mach,Alt,Mach\n0.1,5,0.1\n", node)
    assert not ds.ok
    assert any(d.code == "E102" for d in ds.diagnostics)


def test_bad_row_excluded_e103_others_kept(node):
    ds = oddkit.parse_dataset("Mach,Alt\n0.1,5\noops,5\n0.2,nan\n0.3,7\n", node)
    assert ds.ok  # row problems are warnings, not fatal
    codes = [d.code for d in ds.diagnostics]
    assert codes.count("E103") == 2
    assert [p.values["Mach"] for p in ds.points] == [0.1, 0.3]


def test_unrecognized_column_w101_kept_as_extra(node):
    ds = oddkit.parse_dataset("Mach,Alt,note\n0.1,5,hello\n", node)
    assert ds.ok
    assert any(d.code == "W101" for d in ds.diagnostics)
    assert ds.extras[0] == {"note": "hello"}


def test_leading_comment_lines_skipped(node):
    ds = oddkit.parse_dataset("# seed=99\n# anything\nMach,Alt\n0.1,5\n", node)
    assert ds.ok
    assert len(ds) == 1


def test_locale_independent_numbers_rejected(node):
    ds = oddkit.parse_dataset("Mach,Alt\n0.1,1_000\n\"0,2\",5\n", node)
    assert [d.code for d in ds.diagnostics].count("E103") == 2
    assert len(ds) == 0


def test_serialize_round_trip(golden_dataset, node):
    text = oddkit.serialize_dataset(golden_dataset.points, node, seed=0)
    assert text.startswith("# seed=0\n")
    again = oddkit.parse_dataset(text, node)
    assert again.ok
    assert len(again) == len(golden_dataset)
    for a, b in zip(golden_dataset.points, again.points):
        assert a.values == b.values
        assert (a.provenance_raw or {}) == (b.provenance_raw or {})
        assert (a.hidden_values or {}) == (b.hidden_values or {})
        assert a.in_sample == b.in_sample


def test_bytes_with_a_byte_order_mark_parse(golden_text, golden_dataset, node):
    ds = oddkit.parse_dataset(b"\xef\xbb\xbf" + golden_text.encode("utf-8"), node)
    assert ds.ok and not ds.diagnostics
    assert [p.values for p in ds.points] == [p.values for p in golden_dataset.points]
