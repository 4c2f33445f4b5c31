"""CSV dataset ingestion and emission.

Datasets are RFC-4180 CSV with a required header row. Columns map to
parameters by exact name; recognized special columns are ``raw:<param>``
(pre-processing value), ``hidden:<param>`` (hidden-parameter value), and
``in_sample`` (0/1/true/false). Other columns are kept as opaque per-row
extras and reported with a warning. Lines starting with ``#`` before the
header are skipped (generators record their seed there).

Diagnostic codes: E101 missing required parameter column, E102 duplicate
column, E103 unparseable row (row excluded), W101 unrecognized column.
"""

from __future__ import annotations

import csv
import io
import math
from collections.abc import Iterable
from dataclasses import dataclass, field

from .dsl import Diagnostic, fmt
from .model import DataPoint, OddNode

_TRUE = {"1", "true", "t", "yes"}
_FALSE = {"0", "false", "f", "no"}
# roles of dataset columns
_PARAM, _RAW, _HIDDEN, _IN_SAMPLE, _EXTRA = "param", "raw", "hidden", "in_sample", "extra"


@dataclass
class Dataset:
    points: list[DataPoint] = field(default_factory=list)
    extras: list[dict[str, str]] = field(default_factory=list)
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

    Row order is preserved. Rows with unparseable numerics are excluded and
    reported individually; header problems are fatal (no points returned).
    A leading byte-order mark is skipped, in ``str`` and ``bytes`` alike.
    """
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    data = data.removeprefix("\ufeff")
    ds = Dataset()
    lines = data.splitlines(keepends=True)
    skipped = 0
    while skipped < len(lines) and lines[skipped].startswith("#"):
        skipped += 1
    reader = csv.reader(io.StringIO("".join(lines[skipped:])))
    try:
        header = next(reader)
    except StopIteration:
        ds.diagnostics.append(Diagnostic("error", "E101", "empty dataset: no header row", 1, 1))
        return ds
    header = [h.strip() for h in header]

    seen = set()
    for i, col in enumerate(header):
        if col in seen:
            ds.diagnostics.append(
                Diagnostic("error", "E102", f"duplicate column {col!r}", skipped + 1, i + 1)
            )
        seen.add(col)

    # each column's role, decided once: (cell index, role, key of its value)
    names = node.parameter_names
    roles = []
    for i, col in enumerate(header):
        if col in names:
            roles.append((i, _PARAM, col))
        elif col == "in_sample":
            roles.append((i, _IN_SAMPLE, col))
        elif col.startswith("raw:") and col[4:] in names:
            roles.append((i, _RAW, col[4:]))
        elif col.startswith("hidden:"):
            roles.append((i, _HIDDEN, col[7:]))
        else:
            roles.append((i, _EXTRA, col))
            ds.diagnostics.append(
                Diagnostic(
                    "warning", "W101", f"unrecognized column {col!r} ignored", skipped + 1, i + 1
                )
            )
    for name in names:
        if name not in header:
            ds.diagnostics.append(
                Diagnostic("error", "E101", f"missing required parameter column {name!r}", skipped + 1, 1)
            )
    if not ds.ok:
        return ds

    for rownum, row in enumerate(reader):
        if not "".join(row).strip():
            continue
        if len(row) < len(header):
            row += [""] * (len(header) - len(row))
        values: dict[str, float] = {}
        raw: dict[str, float] = {}
        hidden: dict[str, float] = {}
        in_sample: bool | None = None
        extras: dict[str, str] = {}
        try:
            for i, role, key in roles:
                cell = row[i].strip()
                if role == _PARAM:
                    if not cell:
                        raise ValueError(f"empty value for parameter {key!r}")
                    values[key] = _number(cell)
                elif not cell:
                    continue
                elif role == _RAW:
                    raw[key] = _number(cell)
                elif role == _HIDDEN:
                    hidden[key] = _number(cell)
                elif role == _IN_SAMPLE:
                    in_sample = _boolean(cell)
                else:
                    extras[key] = cell
        except ValueError as exc:
            line = skipped + 2 + rownum
            ds.diagnostics.append(
                Diagnostic("warning", "E103", f"row excluded: {exc}", line, 1)
            )
            continue
        ds.points.append(
            DataPoint(values, provenance_raw=raw or None, hidden_values=hidden or None, in_sample=in_sample)
        )
        ds.extras.append(extras)
    return ds


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
