from __future__ import annotations

import csv
import dataclasses
import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from click.testing import CliRunner
from hypothesis import strategies as st

import oddkit
from oddkit import datasets
from oddkit.cli import cli
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


def test_an_empty_text_is_e101(node):
    ds = oddkit.parse_dataset("", node)
    assert not ds.ok and len(ds) == 0
    assert [str(d) for d in ds.diagnostics] == ["error E101 at 1:1: empty dataset: no header row"]


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


def test_unrecognized_column_w101_ignored(node):
    ds = oddkit.parse_dataset("Mach,Alt,note\n0.1,5,hello\n", node)
    assert ds.ok
    assert any(d.code == "W101" for d in ds.diagnostics)
    assert list(ds.points) == [DataPoint({"Mach": 0.1, "Alt": 5.0})]


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
    diagnostics, points = oracles.parse_rows(text, node.parameter_names)
    assert [(d.severity, d.code, d.message, d.line, d.col) for d in ds.diagnostics] == diagnostics
    assert list(ds.points) == points


def test_e103_names_the_line_a_record_starts_on(node):
    """Quoted cells spanning lines, in the header and before and after each
    excluded row, move the rows after them down by their line ends."""
    text = '# seed\nMach,Alt,"no\nte"\n0.1,5,"a\nb\nc"\n0.2,zz,\n0.3,6,"d\r\ne"\n\n0.4,yy,\n0.5,7,"f\ng"\n'
    ds = oddkit.parse_dataset(text, node)
    assert [(d.code, d.line, d.col) for d in ds.diagnostics] == [("W101", 2, 3), ("E103", 7, 1), ("E103", 11, 1)]
    assert [p.values for p in ds.points] == [{"Mach": m, "Alt": a} for m, a in ((0.1, 5.0), (0.3, 6.0), (0.5, 7.0))]
    diagnostics, _ = oracles.parse_rows(text, node.parameter_names)
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
    diagnostics, points = oracles.parse_rows(text, node.parameter_names)
    assert [(d.severity, d.code, d.message, d.line, d.col) for d in ds.diagnostics] == diagnostics
    assert list(ds.points) == points


@pytest.mark.parametrize(
    "text, e103_lines",
    [
        # the reader raises on line 2 inside a quoted cell that closes on line 4
        (f'Mach,Alt,note\n0.1,5,"<{_OVER_LIMIT}>\n0.2,6000\nend"\n0.3,7000,z\n', [2]),
        # line 4 closes that cell and opens one that closes on line 6; the
        # later E103 counts the skipped lines
        (f'Mach,Alt,a,b\n0.1,5,"<{_OVER_LIMIT}>\n0.2,6000\nend","c\n0.25,6500\nd"\n0.3,7000,z,w\n0.4,x\n', [2, 8]),
    ],
    ids=["closed_later", "closing_line_opens_another"],
)
def test_a_quoted_cell_left_open_by_a_failed_record_is_skipped_to_its_end(node, text, e103_lines):
    ds = oddkit.parse_dataset(text, node)
    assert [d.line for d in ds.diagnostics if d.code == "E103"] == e103_lines
    assert [(p.values["Mach"], p.values["Alt"]) for p in ds.points] == [(0.3, 7000.0)]
    diagnostics, points = oracles.parse_rows(text, node.parameter_names)
    assert [(d.severity, d.code, d.message, d.line, d.col) for d in ds.diagnostics] == diagnostics
    assert list(ds.points) == points


def test_a_header_with_a_cell_over_the_field_limit_is_e101(node):
    text = f"# seed=1\nMach,Alt,{_OVER_LIMIT}\n0.1,5,x\n"
    ds = oddkit.parse_dataset(text, node)
    assert not ds.ok and len(ds) == 0
    assert [(d.code, d.line) for d in ds.diagnostics] == [("E101", 2)]
    assert "unreadable header row" in ds.diagnostics[0].message
    diagnostics, _ = oracles.parse_rows(text, node.parameter_names)
    assert [(d.severity, d.code, d.message, d.line, d.col) for d in ds.diagnostics] == diagnostics


def test_locale_independent_numbers_rejected(node):
    ds = oddkit.parse_dataset("Mach,Alt\n0.1,1_000\n\"0,2\",5\n", node)
    assert [d.code for d in ds.diagnostics].count("E103") == 2
    assert len(ds) == 0


# values the writer formats: ints, a negative zero, the least subnormal,
# huge magnitudes and ordinary floats
_WRITTEN = st.sampled_from([0, 3, -7, 0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 0.1, 14000.0]) | st.floats(
    allow_nan=False, allow_infinity=False
)


@st.composite
def written_points(draw, names):
    """Points with every parameter of ``names``, and raw values, hidden values
    (under names CSV must quote) and in_sample flags each present or absent."""

    def values(keys):
        chosen = draw(st.lists(st.sampled_from(keys), unique=True, max_size=len(keys)))
        return {key: draw(_WRITTEN) for key in chosen}

    hidden = ["Temp", "a,b", 'q"x', "line\nend", " pad "]
    return [
        DataPoint(
            {name: draw(_WRITTEN) for name in names},
            provenance_raw=draw(st.none() | st.just(values(list(names)))),
            hidden_values=draw(st.none() | st.just(values(hidden))),
            in_sample=draw(st.sampled_from([None, True, False])),
        )
        for _ in range(draw(st.integers(0, 8)))
    ]


@settings(max_examples=150)
@given(data=st.data(), seed=st.none() | st.integers(0, 2**31))
def test_serialize_dataset_equals_the_row_by_row_writer(extended_doc, data, seed):
    for node in (extended_doc.node("MLMODD"), extended_doc.node("MLMODD_ext")):
        points = data.draw(written_points(node.parameter_names))
        expected = oracles.dataset_csv(points, node, seed)
        assert oddkit.serialize_dataset(points, node, seed) == expected
        assert oddkit.serialize_dataset(iter(points), node, seed) == expected
        assert oddkit.serialize_dataset(Points.of(points), node, seed) == expected


def test_serialize_dataset_quotes_a_rows_only_empty_cell():
    """As csv writes it, a row whose one cell is empty is ``""``, so it reads
    back as a row rather than a blank line."""
    node = oddkit.OddNode("empty", oddkit.Level.MLM_ODD, (), oddkit.Polygon2D(((0.0, 0.0),)))
    points = [DataPoint({}, hidden_values={"h": 1.0}), DataPoint({})]
    assert oddkit.serialize_dataset(points, node) == oracles.dataset_csv(points, node) == 'hidden:h\n1\n""\n'
    assert oddkit.serialize_dataset([DataPoint({})] * 2, node) == oracles.dataset_csv([DataPoint({})] * 2, node) == "\n\n\n"


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
    assert ds.points.hidden.names == ()


def test_points_are_read_only_columns(golden_dataset):
    points = golden_dataset.points
    assert isinstance(points, Points) and len(points) == 12
    assert points.values.names == ("Mach", "Alt")
    assert points.in_sample.tolist() == [1] + [0] * 11
    for a in (points.values.data, points.raw.present, points.hidden.data, points.in_sample):
        with pytest.raises(ValueError):
            a[0] = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        points.values = points.raw
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
# a quoted cell of an unrecognized column may span lines, so a record may
# too, and a cell over the field limit makes the reader raise on its record
_UNRECOGNIZED = st.one_of(
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
            lines.append("# " + draw(_UNRECOGNIZED))
            continue
        width = max(len(header) + draw(st.sampled_from([0, 0, 0, -1, -2, 1, 2])), 0)
        tricky = draw(st.integers(-1, width - 1))
        cells = []
        for j in range(width):
            col = header[j].strip() if j < len(header) else "note"
            if col in ("note", "hidden:"):
                strategy = _UNRECOGNIZED
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
    diagnostics, points = oracles.parse_rows(text, node.parameter_names)
    assert [(d.severity, d.code, d.message, d.line, d.col) for d in ds.diagnostics] == diagnostics
    assert len(ds.points) == len(points)
    assert list(ds.points) == points
    assert [ds.points[i] for i in range(len(points))] == points
    assert oddkit.parse_dataset(text.encode("utf-8"), node).diagnostics == ds.diagnostics


# cells of unrecognized columns without a quote; a cell over the field
# limit makes a line too long for the slice path
_QUOTE_FREE_UNRECOGNIZED = st.sampled_from(["", " ", " \t", " a ", "a_b", "#", ",", _OVER_LIMIT])


@st.composite
def quote_free_texts(draw):
    """Dataset texts without a quote: half of them rectangular (every line
    of the body has the header's width, blank ones too), which the slice
    path reads unless a line is over the field limit, the others ragged.
    Most headers are valid: they name Mach and Alt once each."""
    header = draw(st.lists(st.sampled_from(_COLUMNS), min_size=1, max_size=6, unique_by=str.strip))
    if draw(st.integers(0, 3)):
        header = ["Mach", "Alt"] + [c for c in header if c.strip() not in ("Mach", "Alt")]
        header = draw(st.permutations(header))
    rectangular = draw(st.booleans())
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 8))):
        if draw(st.integers(0, 3)) == 0:  # a blank line
            lines.append("," * (len(header) - 1) if rectangular else draw(st.sampled_from(["", " ", ",,", "#"])))
            continue
        width = len(header) if rectangular else max(len(header) + draw(st.sampled_from([0, 0, -1, -2, 1, 2])), 0)
        tricky = draw(st.integers(-1, width - 1))
        cells = []
        for j in range(width):
            col = header[j].strip() if j < len(header) else "note"
            if col in ("note", "hidden:", "raw:Temp"):
                strategy = _QUOTE_FREE_UNRECOGNIZED
            elif col == "in_sample":
                strategy = _TRICKY_FLAGS if j == tricky else _FLAGS
            else:
                strategy = _TRICKY if j == tricky else _READABLE
            cells.append(draw(strategy.filter(lambda cell: not rectangular or "," not in cell)))
        lines.append(",".join(cells))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = newline.join(lines) + draw(st.sampled_from([newline, ""]))
    comments = ["# seed=1" + newline, "\ufeff# a" + newline + "#b" + newline, "# a\x0cb\x85c\u2028d" + newline]
    nul = "# \0" + newline  # a NUL sends the whole text to csv.reader
    return draw(st.sampled_from(["", "\ufeff", *comments, nul])) + text


@settings(max_examples=400)
@given(text=quote_free_texts())
def test_quote_free_parse_equals_the_row_by_row_reference(extended_doc, text):
    node = extended_doc.node("MLMODD")
    ds = oddkit.parse_dataset(text, node)
    diagnostics, points = oracles.parse_rows(text, node.parameter_names)
    assert [(d.severity, d.code, d.message, d.line, d.col) for d in ds.diagnostics] == diagnostics
    assert list(ds.points) == points
    assert oddkit.parse_dataset(text.encode("utf-8"), node).diagnostics == ds.diagnostics


def test_each_text_takes_its_reader_path(node, monkeypatch):
    """csv.reader yields only the header of a rectangular quote-free text,
    whose columns are slices of one split; every record of a ragged one, or
    of one with a line over the field limit, a line each; and every record
    of a quoted one, reading the text after the "#" lines."""
    rectangular = "# seed=1\nMach,Alt,in_sample,note\n0.1,5,1,a\n0.2,oops,,\n,,,\n0.3,6,0,b"
    ragged = "Mach,Alt,note\n0.1,5\n\n0.2,6,x,y\n0.3,7,z\n"
    long = f"Mach,Alt,note\n0.1,5,{_OVER_LIMIT}\n0.2,6,x\n"
    quoted = '# a\nMach,Alt,note\n0.1,5,"a\nb"\n0.2,oops,\n'
    texts = (rectangular, ragged, long, quoted)
    expected = [oracles.parse_rows(text, node.parameter_names) for text in texts]
    read, reader = [], csv.reader

    class Recording:
        def __init__(self, lines):
            self.reader, self.rows = reader(lines), []
            read.append((type(lines), self.rows))

        def __iter__(self):
            return self

        def __next__(self):
            row = next(self.reader)
            self.rows.append(list(row))  # the parser pads a short row in place
            return row

        line_num = property(lambda self: self.reader.line_num)

    monkeypatch.setattr(datasets.csv, "reader", Recording)
    got = []
    for text in texts:
        ds = oddkit.parse_dataset(text, node)
        got.append(([(d.severity, d.code, d.message, d.line, d.col) for d in ds.diagnostics], list(ds.points)))
    assert got == expected
    header = ["Mach", "Alt", "note"]
    assert read == [
        (list, [["Mach", "Alt", "in_sample", "note"]]),
        (list, [header, ["0.1", "5"], [], ["0.2", "6", "x", "y"], ["0.3", "7", "z"]]),
        (list, [header, ["0.2", "6", "x"]]),  # the reader raised on the line before
        (io.StringIO, [header, ["0.1", "5", "a\nb"], ["0.2", "oops", ""]]),
    ]


def test_parse_reads_every_in_sample_spelling(node):
    spellings = ["1", "true", "TRUE", " t ", "Yes", "0", "false", "F", "no", " NO ", ""]
    text = "Mach,Alt,in_sample\n" + "".join(f"0.1,5,{s}\n" for s in spellings)
    ds = oddkit.parse_dataset(text, node)
    assert not ds.diagnostics
    assert [p.in_sample for p in ds.points] == [True] * 5 + [False] * 5 + [None]
    assert ds.points.in_sample.tolist() == [1] * 5 + [0] * 5 + [-1]


# -- unrecognized columns are never read ------------------------------------------

# cells a column reads and cells it cannot; a row whose parameter and
# optional cells are all blank is skipped, with or without inserted columns
_PARAM_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["7", " 2.5\t", "abc", "nan", "1_0", "0,2", "1e400", "+2", "", " "]),
)
_OPTIONAL_CELLS = {"raw:Alt": _PARAM_CELLS, "hidden:Temp": _PARAM_CELLS, "in_sample": st.one_of(_FLAGS, _TRICKY_FLAGS)}
# names no other column has, nor one of their own
_INSERTED_NAMES = ["id", "note", "raw:Temp", "hidden:", "a,b", 'say "x"']
_INSERTED_CELLS = st.one_of(st.just(""), st.text(alphabet='ab 1,"\n', max_size=6))


@st.composite
def texts_with_inserted_columns(draw):
    """A well-formed dataset text, and the same rows with 1-3 unrecognized
    columns inserted anywhere: (text, text with them, the line each record
    of the latter starts on, the inserted columns' header positions)."""
    header = ["Mach", "Alt", *draw(st.lists(st.sampled_from(list(_OPTIONAL_CELLS)), unique=True))]
    header = draw(st.permutations(header))

    def cell(strategy):
        text = draw(strategy)
        return _quoted(text, draw(st.booleans()) or "," in text or "\n" in text)

    strategies = [_OPTIONAL_CELLS.get(col, _PARAM_CELLS) for col in header]
    rows = [[cell(c) for c in strategies] for _ in range(draw(st.integers(0, 8)))]
    names = draw(st.lists(st.sampled_from(_INSERTED_NAMES), min_size=1, max_size=3, unique=True))
    width = len(header) + len(names)
    inserted = sorted(draw(st.lists(st.integers(0, width - 1), min_size=len(names), max_size=len(names), unique=True)))
    wide_header, wide_rows = list(header), [list(row) for row in rows]
    for at, name in zip(inserted, names):
        wide_header.insert(at, _quoted(name, "," in name))
        for row in wide_rows:
            row.insert(at, cell(_INSERTED_CELLS))
    records = [",".join(header)] + [",".join(row) for row in rows]
    wide = [",".join(wide_header)] + [",".join(row) for row in wide_rows]
    starts = [1 + sum(r.count("\n") + 1 for r in wide[:i]) for i in range(len(wide))]
    return "\n".join(records) + "\n", "\n".join(wide) + "\n", starts, inserted


def _columns_bits(points):
    return [(c.names, c.data.tobytes(), c.present.tobytes()) for c in (points.values, points.raw, points.hidden)]


@settings(max_examples=300)
@given(case=texts_with_inserted_columns())
def test_unrecognized_columns_change_nothing_but_their_w101(extended_doc, case):
    text, wide, starts, inserted = case
    node = extended_doc.node("MLMODD")
    plain, ds = oddkit.parse_dataset(text, node), oddkit.parse_dataset(wide, node)
    assert _columns_bits(ds.points) == _columns_bits(plain.points)
    assert ds.points.in_sample.tobytes() == plain.points.in_sample.tobytes()
    w101 = [d for d in ds.diagnostics if d.code == "W101"]
    assert [(d.line, d.col) for d in w101] == [(1, at + 1) for at in inserted]
    # a record's line moves by the line ends of the quoted cells before it
    moved = [dataclasses.replace(d, line=starts[d.line - 1]) for d in plain.diagnostics]
    assert [d for d in ds.diagnostics if d.code != "W101"] == moved


def _mixed_rows(n: int, seed: int) -> list[str]:
    """Seeded rows over the 20%-inflated SOD box, a few with raw and hidden
    values or cells that exclude them."""
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n):
        mach, alt = rng.uniform(-0.14, 0.84), rng.uniform(-5600, 19600)
        raw = repr(alt * 1.5) if i % 7 == 0 else ""
        hidden = repr(rng.uniform(-60, 15)) if i % 5 == 0 else ""
        rows.append(f"{mach!r},{'oops' if i % 97 == 0 else repr(alt)},{raw},{hidden},{i % 3 == 0:d}")
    return rows


def test_classify_and_partition_ignore_unrecognized_columns(data_dir, tmp_path, golden_text):
    """The CLI's outputs on a file with unrecognized columns equal, byte for
    byte, those on the file without them."""
    header = "Mach,Alt,raw:Alt,hidden:Temp,in_sample"
    files = {"golden": golden_text, "mixed": "\n".join([header, *_mixed_rows(500, 3)]) + "\n"}
    runner, spec_path = CliRunner(), str(data_dir / "flight_envelope_extended.odd")
    for name, text in files.items():
        lines = text.splitlines()
        first = next(i for i, line in enumerate(lines) if not line.startswith("#"))
        cells = ["id,note"] + [f'{i},"a, ""b""\nc"' for i in range(len(lines) - first - 1)]
        wide = lines[:first] + [f"{cell},{line}" for cell, line in zip(cells, lines[first:])]
        plain_path, wide_path = tmp_path / f"{name}.csv", tmp_path / f"{name}_wide.csv"
        plain_path.write_text(text, encoding="utf-8")
        wide_path.write_text("\n".join(wide) + "\n", encoding="utf-8")
        for command in ("classify", "partition"):
            plain = runner.invoke(cli, [command, spec_path, str(plain_path)])
            got = runner.invoke(cli, [command, spec_path, str(wide_path)])
            assert plain.exit_code == got.exit_code == 0, got.output
            assert got.stdout == plain.stdout and plain.stdout


def test_a_parsed_dataset_keeps_no_memory_for_an_unrecognized_column(node):
    header, rows = "Mach,Alt,raw:Alt,hidden:Temp,in_sample", _mixed_rows(20_000, 4)
    texts = [header + "\n" + "\n".join(rows) + "\n"]
    texts.append(f"id,{header}\n" + "\n".join(f"{i},{row}" for i, row in enumerate(rows)) + "\n")
    kept, lengths = [], []
    for text in texts:
        oddkit.parse_dataset(text, node)  # fills the interpreter's free lists, which tracemalloc would count
        tracemalloc.start()
        ds = oddkit.parse_dataset(text, node)
        kept.append(tracemalloc.get_traced_memory()[0])
        tracemalloc.stop()
        lengths.append(len(ds))
    assert lengths[0] == lengths[1] > 19_000
    assert kept[1] <= 1.25 * kept[0], kept
