"""Data-category and kind classification relative to an ODD allocation chain."""

from __future__ import annotations

import itertools
from collections.abc import Collection, Iterator
from dataclasses import dataclass, field
from enum import Enum
from functools import cache, cached_property
from typing import NamedTuple

import numpy as np

from . import geometry
from .datasets import write_csv
from .errors import MissingTransform
from .model import DEFAULT_TOL, DataPoint, Level, OddNode, Points, Transform, Variant


class Kind(str, Enum):
    IN_SAMPLE = "InS"
    OUT_OF_SAMPLE = "OutS"
    OUT_OF_MLMODD = "OutMOD"
    OUT_OF_MLCODD = "OutCOD"


# row labels of the partition tables: derived kind-set per atomic kind
KIND_SET = {
    Kind.IN_SAMPLE: "InMOD&InS",
    Kind.OUT_OF_SAMPLE: "InMOD&OutS",
    Kind.OUT_OF_MLMODD: "InCOD&OutMOD",
    Kind.OUT_OF_MLCODD: "OutCOD",
}

KIND_SET_LABELS = tuple(KIND_SET.values())

CATEGORY_LABELS = (
    "Nominal",
    "EdgeCase",
    "FeasibleCornerCase",
    "InfeasibleCornerCase",
    "Outlier",
    "Inlier",
    "Novelty",
)

ANOMALY_LABELS = frozenset({"Inlier", "Outlier", "InfeasibleCornerCase", "Novelty"})

# categories are indistinct at OutCOD from the MLC standpoint; they collapse
# to a single bucket whose rule-base column is labeled "Any"
OUTCOD_CATEGORY = "Any"

PartitionKey = tuple[str, str]  # (kind-set label, category label)


def full_key_space() -> list[PartitionKey]:
    """Every (kind-set, category) cell, in the order partition tables list them."""
    # OutCOD, the last kind set, has one cell
    keys = [(kind_set, cat) for kind_set in KIND_SET_LABELS[:-1] for cat in CATEGORY_LABELS]
    return [*keys, (KIND_SET_LABELS[-1], OUTCOD_CATEGORY)]


# a category code is an index into _CATEGORY_NAMES; label_rows gives OutCOD
# rows the code of OUTCOD_CATEGORY, one past the categories
_CATEGORY_NAMES = CATEGORY_LABELS + (OUTCOD_CATEGORY,)
_INLIER = CATEGORY_LABELS.index("Inlier")
_NOVELTY = CATEGORY_LABELS.index("Novelty")
_OUTCOD = len(CATEGORY_LABELS)


@dataclass(frozen=True)
class Chain:
    """An MLM/MLC allocation pair plus the classification context around it.

    Frozen, so the registry index a chain keeps cannot go stale.
    """

    mlm: OddNode
    mlc: OddNode
    sample_registry: tuple[DataPoint, ...] = ()
    extended: OddNode | None = None
    system_od: OddNode | None = None
    # declared preprocessing applied to raw values; empty means identity
    declared_transform: tuple[Transform, ...] = ()
    # the sample registry's NearIndex, built by registry_matches on first
    # use; left out of equality and repr
    registry_index: NearIndex | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        # a tuple, so the registry the index was built from cannot change
        object.__setattr__(self, "sample_registry", tuple(self.sample_registry))
        if self.mlm.level != Level.MLM_ODD:
            raise ValueError(f"chain mlm node {self.mlm.name!r} must have level mlm_odd")
        if self.mlc.level != Level.MLC_ODD or self.mlc.variant != Variant.AS_SPECIFIED:
            raise ValueError(
                f"chain mlc node {self.mlc.name!r} must be the as-specified mlc_odd"
            )
        if self.extended is not None and self.extended.extends != self.mlm.name:
            raise ValueError(
                f"extension node {self.extended.name!r} does not extend {self.mlm.name!r}"
            )


def build_chain(
    doc,
    mlm_name: str | None = None,
    mlc_name: str | None = None,
    sample_registry: tuple[DataPoint, ...] = (),
    declared_transform: tuple[Transform, ...] = (),
) -> Chain:
    """Assemble a chain from a parsed spec document.

    Names default to the document's unique mlm_odd / as-specified mlc_odd
    nodes; the extension and system-OD nodes are picked up automatically.
    Raises ValueError when the chain cannot be resolved (two nodes extending
    the mlm included) or the mlm does not allocate (transitively) to the mlc,
    an allocation cycle included.
    """

    def pick(name, pred, what) -> OddNode:
        if name:
            return doc.node(name)
        found = [n for n in doc.nodes if pred(n)]
        if len(found) != 1:
            raise ValueError(f"cannot infer {what}: found {len(found)} candidate nodes")
        return found[0]

    mlm = pick(mlm_name, lambda n: n.level == Level.MLM_ODD and n.extends is None, "mlm node")
    mlc = pick(
        mlc_name,
        lambda n: n.level == Level.MLC_ODD and n.variant == Variant.AS_SPECIFIED,
        "as-specified mlc node",
    )
    by_name = {n.name: n for n in doc.nodes}
    current, seen = mlm, set()
    while (current := by_name.get(current.allocates)) is not None and current.name != mlc.name:
        if current.name in seen:
            raise ValueError(f"allocation cycle through node {current.name!r}")
        seen.add(current.name)
    if current is None:
        raise ValueError(f"mlm {mlm.name!r} does not allocate (transitively) to mlc {mlc.name!r}")
    extensions = [n for n in doc.nodes if n.extends == mlm.name]
    if len(extensions) > 1:
        raise ValueError(f"cannot infer extension node: found {len(extensions)} candidate nodes")

    return Chain(
        mlm=mlm,
        mlc=mlc,
        sample_registry=sample_registry,
        extended=extensions[0] if extensions else None,
        system_od=next((n for n in doc.nodes if n.level == Level.SYSTEM_OD), None),
        declared_transform=declared_transform,
    )


class LabelRow(NamedTuple):
    """One point's label, as iterating a :class:`Labels` gives it."""

    row: int
    kind: Kind | None
    category: str
    node: str
    on_boundary: bool
    annotations: dict[str, str]


@dataclass(frozen=True, eq=False)
class Labels:
    """The labels of a list of points, in point order.

    ``categories`` holds codes into ``CATEGORY_LABELS + (OUTCOD_CATEGORY,)``.
    From :func:`label_rows`, ``kinds`` holds kind codes (indices into
    ``Kind``) and ``nodes`` the name of the node each kind's rows are
    categorized against; from :func:`classify_points`, ``kinds`` is None and
    ``nodes`` names the one node. ``mlc_categories`` and ``sod_categories``
    hold an OutCOD row's MLC and SOD category codes (into
    ``CATEGORY_LABELS``) and -1 on every other row; without a system OD,
    ``sod_categories`` is -1 throughout. ``anomaly_notes`` holds the
    ``raw_mismatch`` note of each Inlier row and the ``hidden`` note of each
    Novelty row. The arrays are read-only, as one :class:`Labels` may be
    shared by every stage labelling the same points. Iterating gives a
    :class:`LabelRow` per point.
    """

    categories: np.ndarray
    on_boundary: np.ndarray
    kinds: np.ndarray | None
    nodes: tuple[str, ...]
    mlc_categories: np.ndarray
    sod_categories: np.ndarray
    anomaly_notes: dict[int, dict[str, str]]

    def __post_init__(self):
        for a in (self.categories, self.on_boundary, self.kinds, self.mlc_categories, self.sod_categories):
            if a is not None:
                a.flags.writeable = False

    def __len__(self) -> int:
        return len(self.categories)

    @cached_property
    def notes(self) -> dict[int, dict[str, str]]:
        """The annotations of the rows that have any: an Inlier or Novelty
        note first, then an OutCOD row's ``mlc_category`` and ``sod_category``."""
        notes = dict(self.anomaly_notes)
        out_cod = np.flatnonzero(self.mlc_categories >= 0)
        codes = zip(out_cod.tolist(), self.mlc_categories[out_cod].tolist(), self.sod_categories[out_cod].tolist())
        for i, mlc, sod in codes:
            notes[i] = _row_notes(notes.get(i, {}), mlc, sod)
        return notes

    def __iter__(self) -> Iterator[LabelRow]:
        if self.kinds is None:
            kinds, nodes = itertools.repeat(None), itertools.repeat(self.nodes[0])
        else:
            codes = self.kinds.tolist()
            kinds, nodes = map(_KINDS.__getitem__, codes), map(self.nodes.__getitem__, codes)
        categories = map(_CATEGORY_NAMES.__getitem__, self.categories.tolist())
        n = len(self)
        # a dict of its own per row: the labels, and so their notes, may be shared
        annotations = [{} for _ in range(n)]
        for i, note in self.notes.items():
            annotations[i] = note.copy()
        columns = zip(range(n), kinds, categories, nodes, self.on_boundary.tolist(), annotations)
        return map(tuple.__new__, itertools.repeat(LabelRow), columns)


def _row_notes(note: dict[str, str], mlc: int, sod: int) -> dict[str, str]:
    """A row's annotations: its Inlier or Novelty note, then the categories
    its MLC and SOD codes name, where they are not -1."""
    notes = dict(note)
    if mlc >= 0:
        notes["mlc_category"] = CATEGORY_LABELS[mlc]
    if sod >= 0:
        notes["sod_category"] = CATEGORY_LABELS[sod]
    return notes


def _raw_mismatch(
    points: Points,
    node: OddNode,
    transforms: tuple[Transform, ...],
    counted: Collection[str] | None = None,
) -> tuple[tuple[str, ...], np.ndarray]:
    """The recorded raw names in sorted order, and per point and name: does
    the declared transform of the raw value disagree with the point's value?

    Only names in ``counted`` take part; by default all do.
    """
    names = tuple(sorted(n for n in points.raw.names if counted is None or n in counted))
    raw, recorded = points.raw.select(names)
    values, declared = points.values.select(names)
    spans = np.array([node.parameter(n).span if n in node.parameter_names else 1.0 for n in names])
    expected = raw.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        for t in transforms:  # as a fold of Transform.apply, a column at a time
            if t.parameter in names:
                j = names.index(t.parameter)
                expected[:, j] = t(expected[:, j])
        differs = np.abs(expected - values) > DEFAULT_TOL * spans
    return names, recorded & declared & differs


# category code by [containment code, parameters at a range extreme (2 for two or more)]
_GEOMETRIC = np.array(
    [
        [CATEGORY_LABELS.index(label) for label in row]
        for row in (
            ("Nominal", "EdgeCase", "FeasibleCornerCase"),  # INSIDE
            ("Nominal", "EdgeCase", "FeasibleCornerCase"),  # ON_BOUNDARY
            ("Outlier", "Outlier", "InfeasibleCornerCase"),  # OUTSIDE
        )
    ],
    dtype=np.int8,
)


def geometric_categories(codes: np.ndarray, X: np.ndarray, node: OddNode) -> np.ndarray:
    """The geometric category code of each row of ``X``, coordinates in ``node``
    with containment codes ``codes``: the one reader of ``_GEOMETRIC``."""
    extremes = np.minimum(geometry.extreme_mask(X, node).sum(axis=1), 2)
    return _GEOMETRIC[codes, extremes]


def _outside_extension(points: Points, ext: OddNode) -> np.ndarray:
    """Per point: do its declared and hidden values fall outside ``ext``?

    A hidden value overrides a declared one of the same name, as in
    :meth:`DataPoint.combined_values`. A point whose values do not cover the
    extension's parameters is not outside it.
    """
    X, declared = points.values.select(ext.parameter_names)
    H, hidden = points.hidden.select(ext.parameter_names)
    covered = (declared | hidden).all(axis=1)
    return covered & (geometry.region_containment(np.where(hidden, H, X), ext) == geometry.OUTSIDE)


def _categorize(
    points: Points,
    node: OddNode,
    codes: np.ndarray,
    chain_ctx: Chain | None,
    transforms: tuple[Transform, ...],
    counted: Collection[str] | None = None,
) -> Labels:
    """The labels against ``node`` of points whose containment codes in
    ``node`` are known.

    Provenance mismatch (Inlier) first, hidden-parameter exclusion (Novelty)
    second, then the geometric cases, which one table lookup decides for every
    row; the extension node decides only inside rows carrying hidden values.
    ``counted`` restricts the values a raw value is checked against, as
    :func:`_raw_mismatch` does.
    """
    categories = geometric_categories(codes, geometry.coords_array(points, node), node)
    inside = codes != geometry.OUTSIDE
    names, mismatched = _raw_mismatch(points, node, transforms, counted)
    inliers = inside & mismatched.any(axis=1)
    categories[inliers] = _INLIER
    notes = {
        i: {"raw_mismatch": "|".join(itertools.compress(names, mismatched[i].tolist()))}
        for i in np.flatnonzero(inliers).tolist()
    }

    ext = chain_ctx.extended if chain_ctx is not None else None
    if ext is not None and ext.extends == node.name:
        hidden = np.flatnonzero(points.hidden.present.any(axis=1) & inside & ~inliers)
        novel = hidden[_outside_extension(points.take(hidden), ext)]
        categories[novel] = _NOVELTY
        for i in novel.tolist():
            notes[i] = {"hidden": "|".join(sorted(points.hidden.row(i)))}
    unset = np.full(len(categories), -1, dtype=np.int8)
    return Labels(categories, codes == geometry.ON_BOUNDARY, None, (node.name,), unset, unset, notes)


def classify_points(
    points: Points | list[DataPoint],
    node: OddNode,
    chain_ctx: Chain | None = None,
    declared_transform: tuple[Transform, ...] | None = None,
) -> Labels:
    """Assign each point its single category relative to ``node``.

    Decision order per point: provenance mismatch (Inlier) first,
    hidden-parameter exclusion (Novelty) second, then the geometric cases.
    Boundary points are inside; the on_boundary flag is reported but never
    changes the category. Containment and range extremes are decided once for
    the whole batch; the extension node only for inside points with hidden
    values. The declared transform defaults to the chain's; a point with raw
    values and no transform declared raises MissingTransform, after
    MissingParameter for a point up to the first with raw values.
    """
    points = Points.of(points)
    transforms = declared_transform
    if transforms is None and chain_ctx is not None:
        transforms = chain_ctx.declared_transform
    if transforms is None:
        raw_rows = np.flatnonzero(points.raw.present.any(axis=1))
        if len(raw_rows):
            geometry.coords_array(points[: raw_rows[0] + 1], node)
            raise MissingTransform(
                "point carries raw provenance but no preprocessing transform is declared"
            )
        transforms = ()
    return _categorize(points, node, geometry.point_codes(points, node), chain_ctx, transforms)


# Grid cells are 2·tol wide, so two points within tol of each other in every
# normalised coordinate lie in the same or adjacent cells. Scaled coordinates
# are clipped to ±_CELL_LIMIT, where float rounding moves them by at most 1/8
# and the int64 cell index cannot overflow; the clip keeps neighbours adjacent.
_CELL_LIMIT = 2.0**50
# Candidate pairs a query makes at once, a block of query rows times the most
# reference rows sharing a cell key: bounds the temporaries.
_PAIR_BLOCK = 1 << 16


def _grid_cells(Xhat: np.ndarray, tol: float) -> np.ndarray:
    """The L∞ grid cell of each row of normalised coordinates, as int64 rows.

    With ``tol`` <= 0 only equal points match, and any cell edge keeps those
    together.
    """
    edge = 2.0 * tol if tol > 0 else 1.0
    limit = _CELL_LIMIT * edge
    return np.floor(np.clip(Xhat, -limit, limit) / edge).astype(np.int64)


class NearIndex:
    """Fixed-radius near neighbours (Bentley, Stanat & Williams 1977) of a set
    of reference rows, built once: which query rows lie within ``tol`` of some
    reference row in every normalised coordinate of ``node``?

    The reference rows are hashed into a grid of cells 2·``tol`` wide (see
    :func:`_grid_cells`) and sorted by cell key. A query row looks up the
    keys of its 3^d neighbouring cells with a binary search, in numpy, and
    applies the exact L∞ test ``abs(q - r) <= tol`` to the rows found there.
    Two cells may share a key, which adds candidates but removes no match.
    For well-spread rows a query of N rows against M reference rows costs
    O((N + M) log M); the candidate pairs are made in blocks, so the
    temporaries stay bounded. A row with a non-finite coordinate, queried or
    referenced, matches nothing.
    """

    def __init__(self, R: np.ndarray, node: OddNode, tol: float = DEFAULT_TOL):
        self.node, self.tol = node, tol
        # a cell's key sums its indices times odd multipliers, wrapping mod
        # 2^64, so a neighbour's key is the cell's plus the offset's
        d = len(node.parameters)
        self.factors = np.array([(2 * j + 1) * 0x9E3779B97F4A7C15 % 2**63 for j in range(d)], dtype=np.int64)
        Rhat = geometry.normalize_array(R, node)
        Rhat = Rhat[np.isfinite(Rhat).all(axis=1)]
        keys = self._keys(Rhat)
        order = np.argsort(keys, kind="stable")
        self.keys, self.rows = keys[order], Rhat[order]
        # the row's own cell first: a match there settles the row
        offsets = np.array(list(itertools.product((0, -1, 1), repeat=d)), dtype=np.int64)
        self.offsets = (offsets * self.factors).sum(axis=1)
        widest = np.unique(self.keys, return_counts=True)[1].max(initial=1)
        self.block = max(1, _PAIR_BLOCK // int(widest))

    def _keys(self, Xhat: np.ndarray) -> np.ndarray:
        return (_grid_cells(Xhat, self.tol) * self.factors).sum(axis=1)

    def matches(self, X: np.ndarray) -> np.ndarray:
        """Per row of ``X``, raw coordinates in the node's parameter order:
        is some reference row within ``tol`` of it?"""
        matched = np.zeros(len(X), dtype=bool)
        if not len(self.keys):
            return matched
        Q = geometry.normalize_array(X, self.node)
        rows = np.flatnonzero(np.isfinite(Q).all(axis=1))
        for start in range(0, len(rows), self.block):
            block = rows[start : start + self.block]
            q, keys = Q[block], self._keys(Q[block])
            pending = np.arange(len(block))
            for offset in self.offsets.tolist():
                cell = keys[pending] + offset
                lo = np.searchsorted(self.keys, cell, side="left")
                n = np.searchsorted(self.keys, cell, side="right") - lo
                # the candidate pairs: each pending row with each row of its cell
                i = np.repeat(pending, n)
                j = np.arange(len(i)) + np.repeat(lo - np.cumsum(n) + n, n)
                hit = i[(np.abs(q[i] - self.rows[j]) <= self.tol).all(axis=1)]
                matched[block[hit]] = True
                pending = pending[~matched[block[pending]]]
                if not len(pending):
                    break
        return matched


def registry_matches(X: np.ndarray, chain: Chain) -> np.ndarray:
    """Per row of raw MLM coordinates ``X``: does the sample registry hold a
    row within ``DEFAULT_TOL`` of it? The chain's :class:`NearIndex` of the
    registry is built on the first call and kept on the chain; registry
    entries lacking an MLM parameter are skipped."""
    if chain.registry_index is None:
        R, present = Points.of(chain.sample_registry).values.select(chain.mlm.parameter_names)
        object.__setattr__(chain, "registry_index", NearIndex(R[present.all(axis=1)], chain.mlm))
    return chain.registry_index.matches(X)


def registry_match(p: DataPoint, chain: Chain) -> bool:
    """True if the registry holds a point matching ``p``; see :func:`registry_matches`."""
    return bool(registry_matches(geometry.coords_array([p], chain.mlm), chain)[0])


def _in_sample(flags: np.ndarray, X: np.ndarray, chain: Chain) -> np.ndarray:
    """Per point: flagged in_sample, or matched in the sample registry.

    ``flags`` holds the points' in_sample codes and ``X`` their raw MLM
    coordinates; flagged points are not matched.
    """
    in_sample = flags == 1
    unflagged = np.flatnonzero(~in_sample)
    in_sample[unflagged] = registry_matches(X[unflagged], chain)
    return in_sample


# a kind code is an index into _KINDS
_KINDS = tuple(Kind)
_KIND_VALUES = tuple(kind.value for kind in _KINDS)
_IN_SAMPLE, _OUT_OF_SAMPLE, _OUT_OF_MLMODD, _OUT_OF_MLCODD = range(len(_KINDS))


def _kind_step(points: Points, chain: Chain) -> tuple[np.ndarray, tuple, tuple]:
    """Each point's kind code, plus the rows the MLM and the MLC decided,
    each as (rows, containment codes).

    The MLM decides every point, as the points' memo keeps it, and the MLC
    only points outside the MLM; the registry is searched only for MLM
    points not flagged in_sample.
    """
    codes = geometry.point_codes(points, chain.mlm)
    X = geometry.coords_array(points, chain.mlm)
    inside = codes != geometry.OUTSIDE
    in_mlm, out_mlm = np.flatnonzero(inside), np.flatnonzero(~inside)
    kinds = np.full(len(points), _OUT_OF_MLCODD, dtype=np.int8)
    in_sample = _in_sample(points.in_sample[in_mlm], X[in_mlm], chain)
    kinds[in_mlm] = np.where(in_sample, _IN_SAMPLE, _OUT_OF_SAMPLE)
    Y = geometry.coords_array(points.take(out_mlm), chain.mlc)
    mlc_codes = geometry.region_containment(Y, chain.mlc)
    kinds[out_mlm[mlc_codes != geometry.OUTSIDE]] = _OUT_OF_MLMODD
    return kinds, (in_mlm, codes[in_mlm]), (out_mlm, mlc_codes)


def category_node(kind: Kind, chain: Chain) -> OddNode:
    """Node against which a point of this kind is categorized."""
    if kind in (Kind.IN_SAMPLE, Kind.OUT_OF_SAMPLE):
        return chain.mlm
    return chain.mlc


def label_rows(points: Points | list[DataPoint], chain: Chain) -> Labels:
    """Classify each point against the chain; rows keep dataset order.

    The category reuses the containment the kind step decided: MLM points
    are categorized against the MLM, the others against the MLC. OutCOD rows
    take the category ``Any`` and note their MLC and SOD categories. The
    labels are decided once per points and chain and kept in the points'
    memo, so every stage labelling the same points shares them.
    """
    points = Points.of(points)
    return points.recall("labels", chain, DEFAULT_TOL, lambda: _label_rows(points, chain))


def _label_rows(points: Points, chain: Chain) -> Labels:
    """What :func:`label_rows` decides when its points' memo has no labels."""
    kinds, *decided = _kind_step(points, chain)
    n = len(points)
    categories = np.empty(n, dtype=np.int8)
    on_boundary = np.empty(n, dtype=bool)
    notes: dict[int, dict[str, str]] = {}
    for node, (rows, codes) in zip((chain.mlm, chain.mlc), decided):
        part = _categorize(points.take(rows), node, codes, chain, chain.declared_transform)
        categories[rows] = part.categories
        on_boundary[rows] = part.on_boundary
        noted = rows[list(part.anomaly_notes)].tolist()
        notes.update(zip(noted, part.anomaly_notes.values()))

    # indistinct at the MLC level; the MLC and SOD category codes are kept
    out_cod = np.flatnonzero(kinds == _OUT_OF_MLCODD)
    mlc_categories = np.full(n, -1, dtype=np.int8)
    mlc_categories[out_cod] = categories[out_cod]
    sod_categories = np.full(n, -1, dtype=np.int8)
    sod = chain.system_od
    if sod is not None:
        batch = points.take(out_cod)
        codes = geometry.region_containment(geometry.coords_array(batch, sod), sod)
        # categorized as the point restricted to the SOD's parameters would be
        sod_categories[out_cod] = _categorize(
            batch, sod, codes, chain, chain.declared_transform, sod.parameter_names
        ).categories
    categories[out_cod] = _OUTCOD
    nodes = tuple(category_node(kind, chain).name for kind in _KINDS)
    return Labels(categories, on_boundary, kinds, nodes, mlc_categories, sod_categories, notes)


def serialize_labels(labels: Labels) -> str:
    """One CSV row per label, numbered in point order: ``row, kind, category,
    node, on_boundary, annotations`` for :func:`label_rows`, and ``row,
    category, on_boundary, annotations`` for :func:`classify_points`.

    A row's cells after its number follow from its codes, so they are
    written once per combination of codes present; only a row with an
    Inlier or Novelty note is written on its own.
    """
    if labels.kinds is None:
        header = ["row", "category", "on_boundary", "annotations"]
        kinds = np.zeros(len(labels), dtype=np.int8)
    else:
        header = ["row", "kind", "category", "node", "on_boundary", "annotations"]
        kinds = labels.kinds
    # a -1 category code is stored as 0, the others one up
    codes = (kinds, labels.categories, labels.on_boundary.astype(np.int8), labels.mlc_categories + 1,
             labels.sod_categories + 1)
    shape = (len(_KINDS), len(_CATEGORY_NAMES), 2, len(CATEGORY_LABELS) + 1, len(CATEGORY_LABELS) + 1)
    present, row_codes = np.unique(np.ravel_multi_index(codes, shape), return_inverse=True)
    combos = [c.tolist() for c in np.unravel_index(present, shape)]

    @cache
    def body(j: int, note: tuple[tuple[str, str], ...] = ()) -> str:
        """The cells after the row number of the rows with the ``j``-th
        combination of codes and the Inlier or Novelty ``note``, as one line."""
        kind, category, boundary, mlc, sod = (c[j] for c in combos)
        notes = _row_notes(dict(note), mlc - 1, sod - 1)
        annotations = ";".join(f"{k}={v}" for k, v in sorted(notes.items()))
        if labels.kinds is None:
            cells = [_CATEGORY_NAMES[category], boundary, annotations]
        else:
            cells = [_KIND_VALUES[kind], _CATEGORY_NAMES[category], labels.nodes[kind], boundary, annotations]
        return write_csv(cells, ())[:-1]

    bodies = [body(j) for j in range(len(present))]
    lines = list(map(bodies.__getitem__, row_codes.tolist()))
    for i, note in labels.anomaly_notes.items():
        lines[i] = body(int(row_codes[i]), tuple(note.items()))
    return write_csv(header, ()) + "".join([f"{i},{line}\n" for i, line in enumerate(lines)])


def partition_dataset(points: Points | list[DataPoint], chain: Chain) -> dict[PartitionKey, list[int]]:
    """Group row indices by (kind-set, category); every row lands in one cell.

    The populated cells come in :func:`full_key_space` order, and each cell's
    rows in dataset order.
    """
    labels = label_rows(points, chain)
    keys = full_key_space()
    # cell index in full_key_space: a cell per category for each kind but
    # OutCOD, whose one cell comes last
    cells = np.where(
        labels.kinds == _OUT_OF_MLCODD,
        len(keys) - 1,
        labels.kinds.astype(np.intp) * len(CATEGORY_LABELS) + labels.categories,
    )
    order = np.argsort(cells, kind="stable")
    bounds = np.cumsum(np.bincount(cells, minlength=len(keys)))
    return {
        key: rows.tolist()
        for key, rows in zip(keys, np.split(order, bounds[:-1]))
        if len(rows)
    }


def serialize_partitions(parts: dict[PartitionKey, list[int]]) -> str:
    """One CSV row per cell of :func:`partition_dataset`, its rows joined by ``|``."""
    return write_csv(
        ["kind_set", "category", "count", "rows"],
        ([*key, len(rows), "|".join(map(str, rows))] for key, rows in parts.items()),
    )


@dataclass
class SetAlgebraReport:
    holds: bool
    violations: list[tuple[int, str]] = field(default_factory=list)


def verify_set_algebra(
    points: Points | list[DataPoint],
    chain: Chain,
    labels: list[Kind] | None = None,
) -> SetAlgebraReport:
    """Cross-check kind labels against direct geometric membership.

    With ``labels`` given, audits externally produced labels, and a point
    beyond the last label, or labelled with what is not a kind, is an
    unlabeled point; otherwise the kinds :func:`label_rows` gives are
    recomputed from the points, and the check guards regressions in the
    classifier itself. More labels than points raise ValueError. The
    violations come in point order, and a point's in the order of
    ``_RULES``.
    """
    points = Points.of(points)
    if labels is None:
        codes = _kind_step(points, chain)[0]
    else:
        if len(labels) > len(points):
            raise ValueError(f"{len(labels)} labels for {len(points)} points")
        codes = _kind_codes(labels, len(points))
    audited = np.flatnonzero(codes >= 0)
    # with every point audited, the MLM and MLC codes are the points' memo's
    labelled = points if len(audited) == len(points) else points.take(audited)
    X = geometry.coords_array(labelled, chain.mlm)
    in_mlm = geometry.point_codes(labelled, chain.mlm) != geometry.OUTSIDE
    in_mlc = geometry.point_codes(labelled, chain.mlc) != geometry.OUTSIDE
    in_sample = _in_sample(points.in_sample[audited], X, chain)
    kind = codes[audited]
    broken = np.zeros((len(points), len(_RULES)), dtype=bool)
    broken[:, 0] = codes < 0
    broken[audited, 1:] = np.column_stack([
        (kind <= _OUT_OF_SAMPLE) != in_mlm,
        (kind == _IN_SAMPLE) & ~in_sample,
        (kind == _OUT_OF_SAMPLE) & in_mlm & in_sample,
        (kind == _OUT_OF_MLMODD) & (in_mlm | ~in_mlc),
        (kind <= _OUT_OF_MLMODD) != in_mlc,
        (kind == _OUT_OF_MLCODD) & in_mlc,
    ])
    rows, rules = np.nonzero(broken)
    violations = list(zip(rows.tolist(), map(_RULES.__getitem__, rules.tolist())))
    return SetAlgebraReport(holds=not violations, violations=violations)


# the totality check, then the six set-algebra rules, as verify_set_algebra
# decides them per point
_RULES = (
    "totality: unlabeled point",
    "InMOD = InS ∪ OutS",
    "InS ∩ OutS = ∅",
    "InS ∩ OutS = ∅",
    "InMOD ∩ OutMOD = ∅",
    "InCOD = InMOD ∪ OutMOD",
    "InCOD ∩ OutCOD = ∅",
)


def _kind_codes(labels, n: int) -> np.ndarray:
    """Per point, the code of the kind its label equals, as ``label in
    _KINDS`` decides (a Kind, or a string equal to one's value); -1 for a
    point without a label or with a label that is no kind. Labels are
    compared, never hashed."""
    given = np.fromiter(labels, dtype=object, count=len(labels))
    codes = np.full(n, -1, dtype=np.int8)
    for code in reversed(range(len(_KINDS))):  # the first kind equal to a label wins
        kind = np.empty((), dtype=object)
        kind[()] = _KINDS[code]
        codes[: len(given)][given == kind] = code
    return codes
