"""Domain types for parameters, transforms, regions, ODD nodes, and data points.

All types are immutable value objects; geometric operations over them live
in :mod:`oddkit.geometry`. A set of data points is held column by column as
:class:`Points`.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple, TypeVar

import numpy as np

DEFAULT_TOL = 1e-9


class DimensionClass(str, Enum):
    ENVIRONMENTAL = "environmental"
    OPERATIONAL = "operational"
    SYSTEM_HEALTH = "system_health"


class Level(str, Enum):
    SYSTEM_OD = "system_od"
    SUBSYSTEM_ODD = "subsystem_odd"
    MLC_ODD = "mlc_odd"
    MLM_ODD = "mlm_odd"


class Variant(str, Enum):
    AS_SPECIFIED = "as_specified"
    AS_OPERATED = "as_operated"


@dataclass(frozen=True)
class Distribution:
    """Named occurrence distribution attached to a parameter.

    ``uniform`` takes no arguments, ``triangular`` takes (lo, mode, hi), and
    ``histogram`` takes n+1 bin edges followed by n bin weights.
    """

    kind: str
    args: tuple[float, ...] = ()


@dataclass(frozen=True)
class Parameter:
    name: str
    unit: str
    lo: float
    hi: float
    dimension_class: DimensionClass = DimensionClass.OPERATIONAL
    distribution: Distribution | None = None

    def __post_init__(self):
        if not (self.lo <= self.hi):
            raise ValueError(f"parameter {self.name!r}: lo {self.lo} > hi {self.hi}")

    @property
    def span(self) -> float:
        # Guard against zero-span parameters so normalization stays finite.
        return (self.hi - self.lo) or 1.0


@dataclass(frozen=True)
class Transform:
    """Invertible per-parameter preprocessing step.

    ``scale`` multiplies by ``factor``, ``offset`` adds ``offset``, and
    ``unit_swap`` is a scale by a unit-conversion factor (kept distinct so
    reports can name the error mechanism).
    """

    kind: str  # "scale" | "offset" | "unit_swap"
    parameter: str
    factor: float = 1.0
    offset: float = 0.0

    def __post_init__(self):
        if self.kind not in ("scale", "offset", "unit_swap"):
            raise ValueError(f"unknown transform kind {self.kind!r}")
        if self.kind in ("scale", "unit_swap") and self.factor == 0.0:
            raise ValueError("scale factor must be nonzero")
        if not (math.isfinite(self.factor) and math.isfinite(self.offset)):
            raise ValueError("factor and offset must be finite")

    def __call__(self, x):
        """The transformed value of ``x``, a number or an array of them."""
        return x + self.offset if self.kind == "offset" else x * self.factor

    def apply(self, values: dict[str, float]) -> dict[str, float]:
        return {name: self(v) if name == self.parameter else v for name, v in values.items()}

    def inverse(self) -> Transform:
        if self.kind == "offset":
            return Transform("offset", self.parameter, offset=-self.offset)
        return Transform(self.kind, self.parameter, factor=1.0 / self.factor)


@dataclass(frozen=True)
class Polygon2D:
    """Simple (possibly non-convex) polygon over the node's two parameters.

    Vertices form an open loop: the closing edge back to the first vertex is
    implicit.
    """

    vertices: tuple[tuple[float, float], ...]


@dataclass(frozen=True)
class ConvexPolytope:
    """Intersection of halfspaces a.x <= b with an explicit vertex list."""

    halfspaces: tuple[tuple[tuple[float, ...], float], ...]
    vertices: tuple[tuple[float, ...], ...]


@dataclass(frozen=True)
class PolytopeUnion:
    members: tuple[ConvexPolytope, ...]


Region = Polygon2D | PolytopeUnion


@dataclass(frozen=True)
class OddNode:
    name: str
    level: Level
    parameters: tuple[Parameter, ...]
    region: Region
    variant: Variant = Variant.AS_SPECIFIED
    allocates: str | None = None
    extends: str | None = None
    # derived from ``parameters``, so left out of equality, hashing and repr
    parameter_names: tuple[str, ...] = field(init=False, repr=False, compare=False)
    # geometry record built by oddkit.geometry on first use, left out likewise
    compiled: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        names = tuple(p.name for p in self.parameters)
        if len(set(names)) != len(names):
            raise ValueError(f"node {self.name!r}: duplicate parameter names")
        object.__setattr__(self, "parameter_names", names)

    def parameter(self, name: str) -> Parameter:
        for p in self.parameters:
            if p.name == name:
                return p
        raise KeyError(name)

    @property
    def box(self) -> tuple[tuple[float, float], ...]:
        """Per-parameter admissible (lo, hi) pairs, in declaration order."""
        return tuple((p.lo, p.hi) for p in self.parameters)


class Containment(str, Enum):
    INSIDE = "inside"
    ON_BOUNDARY = "on_boundary"
    OUTSIDE = "outside"


@dataclass
class DataPoint:
    """A vector of parameter values with optional provenance.

    ``provenance_raw`` carries pre-processing values (the inlier mechanism),
    ``hidden_values`` carries values of parameters absent from the declared
    ODD (the novelty mechanism), and ``in_sample`` flags training membership.
    Extra keys in ``values`` are permitted and ignored by geometric
    operations.
    """

    values: dict[str, float]
    provenance_raw: dict[str, float] | None = None
    hidden_values: dict[str, float] | None = None
    in_sample: bool | None = None

    def combined_values(self) -> dict[str, float]:
        """Declared values merged with hidden-parameter values."""
        merged = dict(self.values)
        if self.hidden_values:
            merged.update(self.hidden_values)
        return merged


class Columns(NamedTuple):
    """Named value columns of a set of points: ``data[i, j]`` is row i's value
    of ``names[j]``, NaN where ``present[i, j]`` is False. A row without a
    value and a row whose value is NaN stay apart."""

    names: tuple[str, ...]
    data: np.ndarray
    present: np.ndarray

    def select(self, names: tuple[str, ...]) -> tuple[np.ndarray, np.ndarray]:
        """The data and presence of ``names``, in that order; a name that is
        not a column is absent from every row."""
        if names == self.names:
            return self.data, self.present
        data = np.full((len(self.data), len(names)), np.nan)
        present = np.zeros(data.shape, dtype=bool)
        for j, name in enumerate(names):
            if name in self.names:
                k = self.names.index(name)
                data[:, j], present[:, j] = self.data[:, k], self.present[:, k]
        return data, present

    def row(self, i: int) -> dict[str, float]:
        values, present = self.data[i].tolist(), self.present[i].tolist()
        return {name: v for name, v, has in zip(self.names, values, present) if has}

    def dicts(self, keep_empty: bool = False) -> list[dict[str, float] | None]:
        """Per row, its values by name; a row without any gets None, or an
        empty dict with ``keep_empty``. Filled a column at a time, which
        costs a fraction of a dict built per row."""
        if keep_empty:
            out: list[dict[str, float] | None] = [{} for _ in range(len(self.data))]
        else:
            out = [None] * len(self.data)
            for i in np.flatnonzero(self.present.any(axis=1)).tolist():
                out[i] = {}
        for name, column, present in zip(self.names, self.data.T, self.present.T):
            rows = np.flatnonzero(present)
            for i, v in zip(rows.tolist(), column[rows].tolist()):
                out[i][name] = v
        return out

    def take(self, rows) -> Columns:
        return Columns(self.names, *map(_read_only, (self.data[rows], self.present[rows])))


def columns(names: tuple[str, ...], data: np.ndarray, present: np.ndarray | None = None) -> Columns:
    """Read-only columns; without ``present``, a NaN entry is an absent value."""
    if present is None:
        present = ~np.isnan(data)
    return Columns(names, _read_only(data), _read_only(present))


def _read_only(a) -> np.ndarray:
    """``a`` made read-only, as every caller may share it; a list or tuple
    becomes a float array first."""
    a = a if isinstance(a, np.ndarray) else np.array(a, dtype=float)
    a.flags.writeable = False
    return a


# DataPoint.in_sample per code of Points.in_sample: 0, 1 and -1 (unset)
_FLAGS = (False, True, None)

T = TypeVar("T")


@dataclass(frozen=True, eq=False)
class Points(Sequence):
    """Data points held column by column, read-only.

    ``values``, ``raw`` and ``hidden`` hold what :class:`DataPoint` keeps in
    ``values``, ``provenance_raw`` and ``hidden_values``; ``in_sample`` holds
    an int8 code per row: 1, 0, or -1 where the flag is unset. Indexing and
    iterating build :class:`DataPoint` objects equal to the ones the columns
    came from; a slice is a :class:`Points` of the selected rows.

    ``memo`` keeps what :meth:`recall` decided about these points, such as
    their containment codes in a node and their labels against a chain, so
    every stage handed the same points reads it; it starts empty.
    """

    values: Columns
    raw: Columns
    hidden: Columns
    in_sample: np.ndarray
    memo: dict[tuple, tuple[object, object]] = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        _read_only(self.in_sample)

    @classmethod
    def of(cls, points: Iterable[DataPoint]) -> Points:
        """``points`` as columns; a :class:`Points` is returned as it is.
        Values that are not numbers are left out."""
        if isinstance(points, Points):
            return points
        points = list(points)
        flags = [-1 if p.in_sample is None else int(bool(p.in_sample)) for p in points]
        return cls(
            _gather([p.values for p in points]),
            _gather([p.provenance_raw or {} for p in points]),
            _gather([p.hidden_values or {} for p in points]),
            np.array(flags, dtype=np.int8),
        )

    def __len__(self) -> int:
        return len(self.in_sample)

    def recall(self, what: str, owner: object, tol: float, decide: Callable[[], T]) -> T:
        """What ``decide()`` gives for these points, decided on the first call
        per ``what``, ``owner`` (a node or a chain) and ``tol`` and kept in
        ``memo``; what it gives must be read-only, as every caller shares it.
        An entry is keyed by the owner's id, keeps the owner, and is returned
        only for that very object. A ``decide`` that raises keeps nothing."""
        key = (what, id(owner), tol)
        entry = self.memo.get(key)
        if entry is not None and entry[0] is owner:
            return entry[1]
        value = decide()
        self.memo[key] = (owner, value)
        return value

    def __getitem__(self, key):
        if isinstance(key, slice):
            return self.take(np.arange(len(self))[key])
        i = range(len(self))[key]
        return DataPoint(
            self.values.row(i),
            self.raw.row(i) or None,
            self.hidden.row(i) or None,
            _FLAGS[self.in_sample[i]],
        )

    def __iter__(self) -> Iterator[DataPoint]:
        flags = map(_FLAGS.__getitem__, self.in_sample.tolist())
        return map(DataPoint, self.values.dicts(True), self.raw.dicts(), self.hidden.dicts(), flags)

    def take(self, rows) -> Points:
        """The points of ``rows``, an index array, in that order."""
        rows = np.asarray(rows, dtype=np.intp)
        return Points(self.values.take(rows), self.raw.take(rows), self.hidden.take(rows), self.in_sample[rows])


def _gather(dicts: list[dict[str, float]]) -> Columns:
    """The columns of one field of a list of points, in first-seen name order."""
    names, data, present = [], [], []
    for name in dict.fromkeys(name for d in dicts for name in d):
        has = [name in d for d in dicts]
        try:
            data.append(np.array([d[name] if h else math.nan for d, h in zip(dicts, has)], dtype=float))
        except (TypeError, ValueError):  # not a number
            continue
        names.append(name)
        present.append(has)
    if not names:
        return columns((), np.empty((len(dicts), 0)), np.empty((len(dicts), 0), dtype=bool))
    return columns(tuple(names), np.array(data).T, np.array(present, dtype=bool).T)
