"""CSV dataset ingestion and emission.

Datasets are RFC-4180 CSV with a required header row. Columns map to
parameters by exact name; recognized special columns are ``raw:<param>``
(pre-processing value), ``hidden:<name>`` (hidden-parameter value), and
``in_sample`` (0/1/true/false). Other columns are reported with a warning
and ignored: their cells are never read. A row whose recognized cells are
all blank is skipped, as a blank line is. Lines starting with ``#`` before
the header are skipped (generators record their seed there).

In a text with no ``"`` and no NUL each line is a record: when every line
has the header's width and none is over ``csv``'s field limit, one split of
the joined lines gives every cell and each column is a slice of them, and
otherwise ``csv.reader`` reads the lines. Any other text ``csv.reader``
reads as a whole, since a quoted cell may span lines. Either reading cuts
each record to its recognized cells as it reads it. Each column is then
converted as a whole into the columns of a :class:`~oddkit.model.Points`;
only the rows whose conversion fails are read again cell by cell, for
their diagnostic.

Diagnostic codes: E101 missing parameter column or unreadable header, E102
duplicate column, E103 row excluded (unparseable, longer than the header or
with a cell over csv's field limit; at its first line), W101 unrecognized column.

After a record it raises on, ``csv.reader`` reads on at the next line; while
that record's lines hold an odd number of ``"``, a quoted cell is open and its
lines are skipped (a ``"`` inside an unquoted cell, ``ab"c``, defeats the count).
"""

from __future__ import annotations

import csv
import io
import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from itertools import compress, repeat
from operator import itemgetter

import numpy as np

from .dsl import Diagnostic, fmt
from .model import DataPoint, OddNode, Points, columns

_TRUE = {"1", "true", "t", "yes"}
_FALSE = {"0", "false", "f", "no"}
# in_sample codes of the cells _boolean needs neither strip nor lower for;
# any other cell is read by _boolean
_FLAG_CELLS = {"": -1, **dict.fromkeys(_TRUE, 1), **dict.fromkeys(_FALSE, 0)}
# roles of dataset columns
_PARAM, _RAW, _HIDDEN, _IN_SAMPLE = "param", "raw", "hidden", "in_sample"


@dataclass
class Dataset:
    points: Points
    diagnostics: list[Diagnostic] = field(default_factory=list)

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "error"]

    @property
    def ok(self) -> bool:
        return not self.errors

    def __len__(self) -> int:
        return len(self.points)


def parse_dataset(data: str | bytes, node: OddNode) -> Dataset:
    """Parse a CSV dataset against a node's parameter list.

    Row order is preserved. Rows with unparseable numerics, rows with more
    cells than the header and records with a cell over ``csv``'s field
    limit are excluded and reported individually; header problems are fatal
    (no points returned). A leading byte-order mark is skipped, and lines
    may end in ``\\n``, ``\\r\\n`` or ``\\r``, in ``str`` and ``bytes`` alike.
    """
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    data = data.removeprefix("\ufeff")
    if "\r" in data:  # universal newlines, as the CLI reads a file
        data = data.replace("\r\n", "\n").replace("\r", "\n")
    diagnostics: list[Diagnostic] = []
    if '"' in data or "\0" in data:  # a record may span lines: csv.reader finds where it ends
        # skip the "#" lines before the header; only "\n" ends a line, as for csv.reader
        text, skipped, start = io.StringIO(data), 0, 0
        while text.readline().startswith("#"):
            skipped, start = skipped + 1, text.tell()
        text.seek(start)
        reader, records = csv.reader(text), None
    else:  # each line is a record; not splitlines, which also ends a line at "\x0c", "\x85", ...
        records = data.split("\n")
        if not records[-1]:
            records.pop()  # what follows the last line end
        skipped = next((i for i, line in enumerate(records) if not line.startswith("#")), len(records))
        del records[:skipped]
        reader = csv.reader(records)
    try:
        header = [h.strip() for h in next(reader)]
    except StopIteration:
        return Dataset(Points.of(()), [Diagnostic("error", "E101", "empty dataset: no header row", 1, 1)])
    except csv.Error as exc:  # a cell over the field limit
        message = f"unreadable header row: {exc}"
        return Dataset(Points.of(()), [Diagnostic("error", "E101", message, skipped + 1, 1)])

    seen = set()
    for i, col in enumerate(header):
        if col in seen:
            diagnostics.append(
                Diagnostic("error", "E102", f"duplicate column {col!r}", skipped + 1, i + 1)
            )
        seen.add(col)

    # each column's role and the key of its value, decided once; None for an
    # unrecognized column, whose cells are never read
    names, column_roles = node.parameter_names, []
    for i, col in enumerate(header):
        if col in names:
            role = _PARAM, col
        elif col == "in_sample":
            role = _IN_SAMPLE, col
        elif col.startswith("raw:") and col[4:] in names:
            role = _RAW, col[4:]
        elif col.startswith("hidden:") and col[7:]:
            role = _HIDDEN, col[7:]
        else:
            role = None
            diagnostics.append(
                Diagnostic(
                    "warning", "W101", f"unrecognized column {col!r} ignored", skipped + 1, i + 1
                )
            )
        column_roles.append(role)
    for name in names:
        if name not in header:
            diagnostics.append(
                Diagnostic("error", "E101", f"missing required parameter column {name!r}", skipped + 1, 1)
            )
    if any(d.severity == "error" for d in diagnostics):
        return Dataset(Points.of(()), diagnostics)

    roles = [role for role in column_roles if role]
    width, cut = len(header), None if all(column_roles) else column_roles
    if records is not None and (
        set(map(str.count, records, repeat(","))) <= {width - 1} and max(map(len, records)) <= csv.field_size_limit()
    ):  # every line has width cells: column j is every width-th cell after the header's
        n, body = len(records) - 1, ",".join(records)
        records.clear()  # body holds their text: free the lines before the split
        cells = body.split(",")
        cols = [cells[width + j :: width] for j, role in enumerate(column_roles) if role]
        starts, excluded = range(skipped + 2, skipped + 2 + n), []
    else:
        # each record cut to the recognized cells as it is read: a longer one is
        # excluded (or skipped if blank), and a shorter one padded with empty cells
        table, starts, excluded, line = [], [], [], skipped + reader.line_num + 1
        lines, extra = None, 0  # the text's lines, split at the first csv.Error; the lines skipped after one
        while True:
            try:
                for row in reader:
                    if len(row) > width:
                        if "".join(row).strip():
                            excluded.append((line, f"{len(row)} cells for the {width} columns of the header"))
                    else:
                        if len(row) < width:
                            row += [""] * (width - len(row))
                        table.append(row if cut is None else tuple(compress(row, cut)))
                        starts.append(line)
                    line = skipped + extra + reader.line_num + 1
                break
            except csv.Error as exc:  # a cell over the field limit; the reader reads on at the next line
                excluded.append((line, str(exc)))
                lines = lines or data.split("\n")
                quotes = sum(map(str.count, lines[line - 1 : skipped + extra + reader.line_num], repeat('"')))
                while quotes % 2 and (rest := text.readline()):  # a quoted cell is open: skip its lines
                    quotes, extra = quotes + rest.count('"'), extra + 1
                line = skipped + extra + reader.line_num + 1
        cols, n = [list(map(itemgetter(j), table)) for j in range(len(roles))], len(table)

    points, bad = _read_columns(cols, roles, n)
    # a row that failed, read cell by cell: its first failing cell names the
    # problem; a row with every recognized cell blank is skipped
    for r in bad.tolist():
        message = _row_error([column[r] for column in cols], roles)
        if message is not None:
            excluded.append((starts[r], message))
    for line, message in sorted(excluded):
        diagnostics.append(Diagnostic("warning", "E103", f"row excluded: {message}", line, 1))
    return Dataset(points, diagnostics)


def _read_columns(cols: list[list[str]], roles, n: int) -> tuple[Points, np.ndarray]:
    """The points of the ``n`` rows that every column reads, and the rows
    some column cannot read; ``cols[j]`` holds the cells of the column with
    the role ``roles[j]``. Each column is read as a whole; a cell that is
    empty, or only whitespace, is an absent value (NaN)."""
    failed = np.zeros(n, dtype=bool)
    read: dict[str, dict[str, np.ndarray]] = {_PARAM: {}, _RAW: {}, _HIDDEN: {}}
    flags = np.full(n, -1, dtype=np.int8)
    for column, (role, key) in zip(cols, roles):
        if role == _PARAM:
            read[role][key], failing = _numbers(column)
            failed |= failing
        elif role in read:
            filled = [r for r in compress(range(n), column) if not column[r].isspace()]
            read[role][key] = np.full(n, np.nan)
            read[role][key][filled], failing = _numbers([column[r] for r in filled])
            failed[filled] |= failing
        else:  # _IN_SAMPLE
            flags = np.fromiter(map(_FLAG_CELLS.get, column, repeat(2)), dtype=np.int8, count=n)
            for r in np.flatnonzero(flags == 2).tolist():
                cell = column[r].strip()
                try:
                    flags[r] = -1 if not cell else _boolean(cell)
                except ValueError:
                    failed[r] = True

    good = np.flatnonzero(~failed)

    def stacked(by_name: dict[str, np.ndarray]):
        data = [values[good] for values in by_name.values()]
        return columns(tuple(by_name), np.column_stack(data) if data else np.empty((len(good), 0)))

    points = Points(*map(stacked, read.values()), flags[good])
    return points, np.flatnonzero(failed)


def _numbers(cells) -> tuple[np.ndarray, np.ndarray]:
    """Each cell read as :func:`_number` reads it, NaN where that fails, and
    where it fails."""
    try:
        values = np.fromiter(map(float, cells), dtype=float, count=len(cells))
    except ValueError:
        values = np.array([_float_or_nan(cell) for cell in cells], dtype=float)
    failed = ~np.isfinite(values)
    if "_" in "".join(cells):
        failed |= np.array(["_" in cell for cell in cells], dtype=bool)
    return values, failed


def _float_or_nan(cell: str) -> float:
    try:
        return float(cell)
    except ValueError:
        return math.nan


def _row_error(row: Sequence[str], roles) -> str | None:
    """Why a row is excluded, from its first failing cell as :func:`_number`
    and :func:`_boolean` read it; None for a blank row."""
    if not "".join(row).strip():
        return None
    try:
        for cell, (role, key) in zip(row, roles):
            cell = cell.strip()
            if role == _PARAM and not cell:
                raise ValueError(f"empty value for parameter {key!r}")
            if not cell:
                continue
            if role == _IN_SAMPLE:
                _boolean(cell)
            else:
                _number(cell)
    except ValueError as exc:
        return str(exc)
    return None


def _number(cell: str) -> float:
    # locale-independent: only '.' decimal separator is accepted
    if "," in cell or "_" in cell:
        raise ValueError(f"unparseable numeric {cell!r}")
    try:
        value = float(cell)
    except ValueError:
        raise ValueError(f"unparseable numeric {cell!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"non-finite numeric {cell!r}")
    return value


def _boolean(cell: str) -> bool:
    low = cell.lower()
    if low in _TRUE:
        return True
    if low in _FALSE:
        return False
    raise ValueError(f"unparseable in_sample flag {cell!r}")


def write_csv(header: Iterable[str], rows: Iterable[Iterable]) -> str:
    """RFC-4180 CSV text of a header row and the rows after it, ending lines in ``\\n``.

    ``rows`` is consumed once, so a generator builds no list of all rows.
    """
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def serialize_dataset(
    points: list[DataPoint], node: OddNode, seed: int | None = None
) -> str:
    """Write points in the dataset CSV format, including provenance columns."""
    raw_cols = sorted({name for p in points if p.provenance_raw for name in p.provenance_raw})
    hidden_cols = sorted({name for p in points if p.hidden_values for name in p.hidden_values})
    has_in_sample = any(p.in_sample is not None for p in points)

    header = list(node.parameter_names)
    header += [f"raw:{c}" for c in raw_cols]
    header += [f"hidden:{c}" for c in hidden_cols]
    if has_in_sample:
        header.append("in_sample")

    def row(p: DataPoint) -> list[str]:
        cells = [fmt(p.values[name]) for name in node.parameter_names]
        for c in raw_cols:
            v = (p.provenance_raw or {}).get(c)
            cells.append("" if v is None else fmt(v))
        for c in hidden_cols:
            v = (p.hidden_values or {}).get(c)
            cells.append("" if v is None else fmt(v))
        if has_in_sample:
            cells.append("" if p.in_sample is None else ("1" if p.in_sample else "0"))
        return cells

    return ("" if seed is None else f"# seed={seed}\n") + write_csv(header, map(row, points))
