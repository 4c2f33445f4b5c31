from __future__ import annotations

import csv
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oddkit
from oddkit.model import DataPoint, Points

import oracles


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
    assert ds.points.extras[0] == {"note": "hello"}


def test_leading_comment_lines_skipped(node):
    ds = oddkit.parse_dataset("# seed=99\n# anything\nMach,Alt\n0.1,5\n", node)
    assert ds.ok
    assert len(ds) == 1


@pytest.mark.parametrize("breaker", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
def test_a_comment_line_ends_only_at_a_newline(node, breaker):
    """str.splitlines would also end a line at these; the CSV reader does not."""
    text = f"# note{breaker}x\nMach,Alt\n0.1,5\n0.2,oops\n"
    ds = oddkit.parse_dataset(text, node)
    assert [(d.code, d.line) for d in ds.diagnostics] == [("E103", 4)]
    assert list(ds.points) == [DataPoint({"Mach": 0.1, "Alt": 5.0})]
    diagnostics, points, _ = oracles.parse_rows(text, node.parameter_names)
    assert [(d.severity, d.code, d.message, d.line, d.col) for d in ds.diagnostics] == diagnostics
    assert list(ds.points) == points


def test_e103_names_the_line_a_record_starts_on(node):
    """Quoted cells spanning lines, in the header and before and after each
    excluded row, move the rows after them down by their line ends."""
    text = '# seed\nMach,Alt,"no\nte"\n0.1,5,"a\nb\nc"\n0.2,zz,\n0.3,6,"d\r\ne"\n\n0.4,yy,\n0.5,7,"f\ng"\n'
    ds = oddkit.parse_dataset(text, node)
    assert [(d.code, d.line, d.col) for d in ds.diagnostics] == [("W101", 2, 3), ("E103", 7, 1), ("E103", 11, 1)]
    assert [p.values for p in ds.points] == [{"Mach": m, "Alt": a} for m, a in ((0.1, 5.0), (0.3, 6.0), (0.5, 7.0))]
    diagnostics, _, _ = oracles.parse_rows(text, node.parameter_names)
    assert [(d.severity, d.code, d.message, d.line, d.col) for d in ds.diagnostics] == diagnostics
    example = oddkit.parse_dataset('Mach,Alt,note\n0.1,5,"a\nb\nc"\n0.2,zz,\n', node)
    assert [(d.code, d.line) for d in example.diagnostics] == [("W101", 1), ("E103", 5)]


# a cell one character over csv's field limit, on which csv.reader raises
_OVER_LIMIT = "y" * (csv.field_size_limit() + 1)


def test_a_record_with_a_cell_over_the_field_limit_is_e103(node):
    # the reader drops the rest of the line it raised on, here the end of a
    # quoted cell that spans lines, and goes on from the next line
    text = f'Mach,Alt,note\n0.1,5,{_OVER_LIMIT}\n0.2,6,x\n0.3,7,"a\nb{_OVER_LIMIT}"\n0.4,8\n'
    ds = oddkit.parse_dataset(text, node)
    message = f"row excluded: field larger than field limit ({csv.field_size_limit()})"
    assert ds.ok
    assert [(d.code, d.line, d.message) for d in ds.diagnostics if d.code == "E103"] == [
        ("E103", 2, message), ("E103", 4, message),
    ]
    assert [p.values["Mach"] for p in ds.points] == [0.2, 0.4]
    diagnostics, points, _ = oracles.parse_rows(text, node.parameter_names)
    assert [(d.severity, d.code, d.message, d.line, d.col) for d in ds.diagnostics] == diagnostics
    assert list(ds.points) == points


def test_a_header_with_a_cell_over_the_field_limit_is_e101(node):
    text = f"# seed=1\nMach,Alt,{_OVER_LIMIT}\n0.1,5,x\n"
    ds = oddkit.parse_dataset(text, node)
    assert not ds.ok and len(ds) == 0
    assert [(d.code, d.line) for d in ds.diagnostics] == [("E101", 2)]
    assert "unreadable header row" in ds.diagnostics[0].message
    diagnostics, _, _ = oracles.parse_rows(text, node.parameter_names)
    assert [(d.severity, d.code, d.message, d.line, d.col) for d in ds.diagnostics] == diagnostics


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


def test_str_with_a_byte_order_mark_parses(node):
    ds = oddkit.parse_dataset("\ufeffMach,Alt\n0.1,5\n", node)
    assert ds.ok and not ds.diagnostics
    assert [p.values for p in ds.points] == [{"Mach": 0.1, "Alt": 5.0}]


@pytest.mark.parametrize("data", ["Mach,Alt\r0.1,5\r# c\r0.2,6", b"Mach,Alt\r0.1,5\r# c\r0.2,6"])
def test_lines_ending_in_a_lone_cr_parse_as_the_cli_reads_them(node, tmp_path, data):
    """Library input is read with universal newlines, as the CLI reads a file."""
    path = tmp_path / "data.csv"
    path.write_bytes(data.encode() if isinstance(data, str) else data)
    ds = oddkit.parse_dataset(data, node)
    assert ds.diagnostics == oddkit.parse_dataset(path.read_text(encoding="utf-8"), node).diagnostics
    assert [p.values for p in ds.points] == [{"Mach": 0.1, "Alt": 5.0}, {"Mach": 0.2, "Alt": 6.0}]
    assert [d.line for d in ds.diagnostics] == [3]  # "# c" after the header is a row, excluded


def test_a_row_longer_than_the_header_is_e103(node):
    # an unquoted comma decimal splits one cell in two
    ds = oddkit.parse_dataset("Mach,Alt\n0,2,5\n0.1,5\n", node)
    assert [(d.code, d.line, d.message) for d in ds.diagnostics] == [
        ("E103", 2, "row excluded: 3 cells for the 2 columns of the header")
    ]
    assert [p.values for p in ds.points] == [{"Mach": 0.1, "Alt": 5.0}]


def test_a_hidden_column_without_a_name_is_w101(node):
    ds = oddkit.parse_dataset("Mach,Alt,hidden:\n0,2,5\n", node)
    assert [(d.code, d.message) for d in ds.diagnostics] == [
        ("W101", "unrecognized column 'hidden:' ignored")
    ]
    assert ds.points[0].hidden_values is None
    assert ds.points.extras == {0: {"hidden:": "5"}}


def test_points_are_read_only_columns(golden_dataset):
    points = golden_dataset.points
    assert isinstance(points, Points) and len(points) == 12
    assert points.values.names == ("Mach", "Alt")
    assert points.in_sample.tolist() == [1] + [0] * 11
    for a in (points.values.data, points.raw.present, points.hidden.data, points.in_sample):
        with pytest.raises(ValueError):
            a[0] = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        points.extras = {}
    every = list(points)
    assert [points[i] for i in range(-12, 0)] == every
    assert list(points[::5]) == every[::5] and isinstance(points[::5], Points)
    assert list(points[8:][:2]) == every[8:10]
    with pytest.raises(IndexError):
        points[12]


def test_a_list_of_points_keeps_absent_and_nan_apart():
    given_points = [
        DataPoint({"Mach": 0.1, "Alt": math.nan}, {"Alt": math.nan}, None, True),
        DataPoint({"Mach": 0.2}, None, {"Temp": 3.0, "Mach": 0.5}, False),
        DataPoint({}, {}, {}, None),
        DataPoint({"Alt": 7, "note": "x"}, None, None, 1),
    ]
    points = Points.of(given_points)
    assert Points.of(points) is points
    assert points.values.names == ("Mach", "Alt")  # "note" is no number
    assert points.values.present.tolist() == [[True, True], [True, False], [False, False], [False, True]]
    assert points.raw.present.tolist() == [[True], [False], [False], [False]]
    again = list(points)
    assert again[1:3] == [given_points[1], DataPoint({})]
    assert again[3] == DataPoint({"Alt": 7.0}, in_sample=True)
    assert math.isnan(again[0].values["Alt"]) and math.isnan(again[0].provenance_raw["Alt"])


# -- the columnar parser against the row-by-row reference ----------------------

# cells each column reads (but an empty parameter cell), and cells that
# may fail; a row has at most one of the latter
_READABLE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr), st.sampled_from(["", " ", " 2.5\t", "7"])
)
_TRICKY = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from([
        "1_000", "1__0", "0,2", "nan", "NaN", "-nan", "inf", "-Infinity", "1e400", "-1e400", "5.",
        ".5", "+2", "0x10", "abc", "1e-400", "\u0661\u0662", "\u00a01\u00a0", "\t", "",
    ]),
)
_FLAGS = st.sampled_from(["", "1", "0", "true", "TRUE", " True ", "false", "F", "t", "yes", "NO", " "])
_TRICKY_FLAGS = st.sampled_from(["maybe", "2", "y", "\u0130", "tru e"])
# a quoted extra cell may span lines, so a record may too, and a cell over
# the field limit makes the reader raise on its record
_EXTRAS = st.one_of(
    st.sampled_from(["", " ", " \t", " a ", "x\ny", "\n\n", _OVER_LIMIT, "x\n" + _OVER_LIMIT]),
    st.text(alphabet="ab _,\"\n", max_size=4),
)
_COLUMNS = ["Mach", "Alt", "raw:Alt", "raw:Mach", "raw:Temp", "hidden:Temp", "hidden:Mach", "hidden:",
            "in_sample", "note", " Mach", "Alt "]


def _quoted(cell: str, quote: bool) -> str:
    return '"' + cell.replace('"', '""') + '"' if quote or '"' in cell else cell


@st.composite
def dataset_texts(draw):
    header = draw(st.lists(st.sampled_from(_COLUMNS), min_size=1, max_size=6))
    if draw(st.booleans()):  # most datasets name every parameter
        header = ["Mach", "Alt"] + [c for c in header if c.strip() not in ("Mach", "Alt")]
        header = draw(st.permutations(header))
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["row", "row", "row", "blank", "comment"]))
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", " ", ",,"])))
            continue
        if kind == "comment":
            lines.append("# " + draw(_EXTRAS))
            continue
        width = max(len(header) + draw(st.sampled_from([0, 0, 0, -1, -2, 1, 2])), 0)
        tricky = draw(st.integers(-1, width - 1))
        cells = []
        for j in range(width):
            col = header[j].strip() if j < len(header) else "note"
            if col in ("note", "hidden:"):
                strategy = _EXTRAS
            elif col == "in_sample":
                strategy = _TRICKY_FLAGS if j == tricky else _FLAGS
            else:
                strategy = _TRICKY if j == tricky else _READABLE
            cells.append(_quoted(draw(strategy), draw(st.booleans())))
        lines.append(",".join(cells))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = newline.join(lines) + draw(st.sampled_from([newline, ""]))
    comments = ["# seed=1" + newline, "\ufeff# a" + newline + "#b" + newline, "# a\x0cb\x85c\u2028d" + newline]
    prefix = draw(st.sampled_from(["", "\ufeff", *comments]))
    return prefix + text


@settings(max_examples=400)
@given(text=dataset_texts())
def test_parse_equals_the_row_by_row_reference(extended_doc, text):
    node = extended_doc.node("MLMODD")
    ds = oddkit.parse_dataset(text, node)
    diagnostics, points, extras = oracles.parse_rows(text, node.parameter_names)
    assert [(d.severity, d.code, d.message, d.line, d.col) for d in ds.diagnostics] == diagnostics
    assert len(ds.points) == len(points)
    assert list(ds.points) == points
    assert [ds.points[i] for i in range(len(points))] == points
    assert ds.points.extras == {i: extra for i, extra in enumerate(extras) if extra}
    assert oddkit.parse_dataset(text.encode("utf-8"), node).diagnostics == ds.diagnostics


def test_parse_reads_every_in_sample_spelling(node):
    spellings = ["1", "true", "TRUE", " t ", "Yes", "0", "false", "F", "no", " NO ", ""]
    text = "Mach,Alt,in_sample\n" + "".join(f"0.1,5,{s}\n" for s in spellings)
    ds = oddkit.parse_dataset(text, node)
    assert not ds.diagnostics
    assert [p.in_sample for p in ds.points] == [True] * 5 + [False] * 5 + [None]
    assert ds.points.in_sample.tolist() == [1] * 5 + [0] * 5 + [-1]
