"""Data-category and kind classification relative to an ODD allocation chain."""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import geometry
from .anomaly import Transform, apply_transforms
from .datasets import write_csv
from .errors import MissingTransform
from .model import DEFAULT_TOL, DataPoint, Level, OddNode, Variant


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

KIND_SET_LABELS = ("InMOD&InS", "InMOD&OutS", "InCOD&OutMOD", "OutCOD")

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
    keys: list[PartitionKey] = []
    for kind_set in KIND_SET_LABELS:
        if kind_set == "OutCOD":
            keys.append((kind_set, OUTCOD_CATEGORY))
        else:
            keys.extend((kind_set, cat) for cat in CATEGORY_LABELS)
    return keys


@dataclass(frozen=True)
class Category:
    label: str

    def __post_init__(self):
        if self.label not in CATEGORY_LABELS:
            raise ValueError(f"unknown category {self.label!r}")

    @property
    def anomaly(self) -> bool:
        return self.label in ANOMALY_LABELS


_CATEGORIES = {label: Category(label) for label in CATEGORY_LABELS}


@dataclass
class Chain:
    """An MLM/MLC allocation pair plus the classification context around it."""

    mlm: OddNode
    mlc: OddNode
    mlc_operated: OddNode | None = None
    sample_registry: tuple[DataPoint, ...] = ()
    extended: OddNode | None = None
    system_od: OddNode | None = None
    # declared preprocessing applied to raw values; empty means identity
    declared_transform: tuple[Transform, ...] = ()

    def __post_init__(self):
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
    operated_name: str | None = None,
    sample_registry: tuple[DataPoint, ...] = (),
    declared_transform: tuple[Transform, ...] = (),
) -> Chain:
    """Assemble a chain from a parsed spec document.

    Names default to the document's unique mlm_odd / as-specified mlc_odd /
    as-operated mlc_odd nodes; the extension and system-OD nodes are picked up
    automatically. Raises ValueError when the chain cannot be resolved or the
    mlm does not allocate (transitively) to the mlc.
    """

    def unique(pred, what) -> OddNode:
        found = [n for n in doc.nodes if pred(n)]
        if len(found) != 1:
            raise ValueError(f"cannot infer {what}: found {len(found)} candidate nodes")
        return found[0]

    mlm = doc.node(mlm_name) if mlm_name else unique(lambda n: n.level == Level.MLM_ODD and n.extends is None, "mlm node")
    mlc = (
        doc.node(mlc_name)
        if mlc_name
        else unique(
            lambda n: n.level == Level.MLC_ODD and n.variant == Variant.AS_SPECIFIED,
            "as-specified mlc node",
        )
    )
    operated = None
    if operated_name:
        operated = doc.node(operated_name)
    else:
        candidates = [
            n for n in doc.nodes if n.level == Level.MLC_ODD and n.variant == Variant.AS_OPERATED
        ]
        if len(candidates) == 1:
            operated = candidates[0]
    extended = next((n for n in doc.nodes if n.extends == mlm.name), None)
    system_od = next((n for n in doc.nodes if n.level == Level.SYSTEM_OD), None)

    by_name = {n.name: n for n in doc.nodes}
    current = mlm
    while current.allocates is not None and current.allocates in by_name:
        current = by_name[current.allocates]
        if current.name == mlc.name:
            break
    else:
        raise ValueError(f"mlm {mlm.name!r} does not allocate (transitively) to mlc {mlc.name!r}")

    return Chain(
        mlm=mlm,
        mlc=mlc,
        mlc_operated=operated,
        sample_registry=sample_registry,
        extended=extended,
        system_od=system_od,
        declared_transform=declared_transform,
    )


@dataclass(frozen=True)
class PointLabel:
    category: Category
    on_boundary: bool
    annotations: dict[str, str] = field(default_factory=dict, hash=False, compare=False)


def _raw_mismatch(
    p: DataPoint,
    node: OddNode,
    transforms: tuple[Transform, ...],
    tol: float,
) -> list[str]:
    """Parameters whose declared-transform-of-raw disagrees with the recorded value."""
    expected = apply_transforms(transforms, dict(p.provenance_raw or {}))
    mismatched = []
    for name, exp in expected.items():
        if name not in p.values:
            continue
        try:
            span = node.parameter(name).span
        except KeyError:
            span = 1.0
        if abs(exp - p.values[name]) > tol * span:
            mismatched.append(name)
    return sorted(mismatched)


def _geometric_category(inside: bool, k: int) -> str:
    """Category of a point with ``k`` parameters at a range extreme."""
    if inside:
        return "Nominal" if k == 0 else ("EdgeCase" if k == 1 else "FeasibleCornerCase")
    return "InfeasibleCornerCase" if k >= 2 else "Outlier"


def _outside_extension(points: list[DataPoint], ext: OddNode, tol: float) -> list[bool]:
    """Per point: do its declared and hidden values fall outside ``ext``?

    A point whose values do not cover the extension's parameters is not
    outside it.
    """
    merged = [p.combined_values() for p in points]
    covered = [i for i, v in enumerate(merged) if all(n in v for n in ext.parameter_names)]
    X = geometry.coords_array([DataPoint(merged[i]) for i in covered], ext)
    outside = [False] * len(points)
    for i, code in zip(covered, geometry.region_containment(X, ext, tol).tolist()):
        outside[i] = code == geometry.OUTSIDE
    return outside


def _categorize(
    points: list[DataPoint],
    node: OddNode,
    X: np.ndarray,
    codes: np.ndarray,
    chain_ctx: Chain | None,
    tol: float,
    transforms: tuple[Transform, ...],
) -> list[tuple[str, bool, dict[str, str]]]:
    """(category, on_boundary, annotations) of points whose coordinates and
    containment codes in ``node`` are known.

    Provenance mismatch (Inlier) first, hidden-parameter exclusion (Novelty)
    second, then the geometric cases.
    """
    inside = (codes != geometry.OUTSIDE).tolist()
    on_boundary = (codes == geometry.ON_BOUNDARY).tolist()
    decided: dict[int, tuple[str, dict[str, str]]] = {}
    for i, p in enumerate(points):
        if p.provenance_raw and inside[i]:
            mismatched = _raw_mismatch(p, node, transforms, tol)
            if mismatched:
                decided[i] = ("Inlier", {"raw_mismatch": "|".join(mismatched)})

    ext = chain_ctx.extended if chain_ctx is not None else None
    if ext is not None and ext.extends == node.name:
        hidden = [
            i for i, p in enumerate(points) if p.hidden_values and inside[i] and i not in decided
        ]
        novel = _outside_extension([points[i] for i in hidden], ext, tol)
        for i, outside in zip(hidden, novel):
            if outside:
                decided[i] = ("Novelty", {"hidden": "|".join(sorted(points[i].hidden_values))})

    extremes = geometry.extreme_mask(X, node, tol).sum(axis=1).tolist()
    labels = []
    for i in range(len(points)):
        label, annotations = decided.get(i) or (_geometric_category(inside[i], extremes[i]), {})
        labels.append((label, on_boundary[i], annotations))
    return labels


def classify_points(
    points: list[DataPoint],
    node: OddNode,
    chain_ctx: Chain | None = None,
    tol: float = DEFAULT_TOL,
    declared_transform: tuple[Transform, ...] | None = None,
) -> list[PointLabel]:
    """Assign each point its single category relative to ``node``.

    Decision order per point: provenance mismatch (Inlier) first,
    hidden-parameter exclusion (Novelty) second, then the geometric cases.
    Boundary points are inside; the on_boundary flag is reported but never
    changes the category. Containment and range extremes are decided once for
    the whole batch; the extension node only for inside points with hidden
    values.
    """
    transforms = declared_transform
    if transforms is None and chain_ctx is not None:
        transforms = chain_ctx.declared_transform
    if transforms is None:
        first_raw = next((i for i, p in enumerate(points) if p.provenance_raw), None)
        if first_raw is not None:
            # a point up to that one that lacks a parameter fails first
            geometry.coords_array(points[: first_raw + 1], node)
            raise MissingTransform(
                "point carries raw provenance but no preprocessing transform is declared"
            )
        transforms = ()
    X = geometry.coords_array(points, node)
    codes = geometry.region_containment(X, node, tol)
    return [
        PointLabel(_CATEGORIES[label], on_boundary, annotations)
        for label, on_boundary, annotations in _categorize(
            points, node, X, codes, chain_ctx, tol, transforms
        )
    ]


def classify_point(
    p: DataPoint,
    node: OddNode,
    chain_ctx: Chain | None = None,
    tol: float = DEFAULT_TOL,
    declared_transform: tuple[Transform, ...] | None = None,
) -> PointLabel:
    """One point's category relative to ``node``; see :func:`classify_points`."""
    return classify_points([p], node, chain_ctx, tol, declared_transform)[0]


# Grid cells are 2·tol wide, so two points within tol of each other in every
# normalised coordinate lie in the same or adjacent cells. Scaled coordinates
# are clipped to ±_CELL_LIMIT, where float rounding moves them by at most 1/8
# and the int64 cell index cannot overflow; the clip keeps neighbours adjacent.
_CELL_LIMIT = 2.0**50


def _grid_cells(Xhat: np.ndarray, tol: float) -> list[tuple[int, ...]]:
    """The L∞ grid cell of each row of normalised coordinates.

    With ``tol`` <= 0 only equal points match, and any cell edge keeps those
    together.
    """
    edge = 2.0 * tol if tol > 0 else 1.0
    limit = _CELL_LIMIT * edge
    cells = np.floor(np.clip(Xhat, -limit, limit) / edge).astype(np.int64)
    return list(map(tuple, cells.tolist()))


def near_matches(
    X: np.ndarray, R: np.ndarray, node: OddNode, tol: float = DEFAULT_TOL
) -> np.ndarray:
    """Per row of ``X``: does ``R`` hold a row within ``tol`` of it in every
    normalised coordinate?

    ``X`` and ``R`` hold raw coordinates in ``node``'s parameter order, as from
    :func:`geometry.coords_array`. ``R`` is hashed into a grid once per call
    and each row of ``X`` is tested only against the rows of its 3^d
    neighbouring cells (fixed-radius near neighbours, Bentley, Stanat &
    Williams 1977), so a call costs O(N + M) for well-spread points. A row
    with a non-finite coordinate, in ``X`` or in ``R``, matches nothing.
    """
    matched = np.zeros(len(X), dtype=bool)
    Rhat = geometry.normalize_array(R, node)
    Rhat = Rhat[np.isfinite(Rhat).all(axis=1)]
    if not len(Rhat):
        return matched
    cells: dict[tuple[int, ...], list[int]] = {}
    for j, cell in enumerate(_grid_cells(Rhat, tol)):
        cells.setdefault(cell, []).append(j)
    targets = Rhat.tolist()
    Q = geometry.normalize_array(X, node)
    rows = np.flatnonzero(np.isfinite(Q).all(axis=1))
    offsets = list(itertools.product((-1, 0, 1), repeat=Q.shape[1]))
    for i, q, cell in zip(rows.tolist(), Q[rows].tolist(), _grid_cells(Q[rows], tol)):
        matched[i] = any(
            max(abs(a - b) for a, b in zip(q, targets[j])) <= tol
            for offset in offsets
            for j in cells.get(tuple(map(operator.add, cell, offset)), ())
        )
    return matched


def registry_matches(X: np.ndarray, chain: Chain, tol: float = DEFAULT_TOL) -> np.ndarray:
    """:func:`near_matches` of raw MLM coordinates ``X`` against the sample
    registry; registry entries lacking an MLM parameter are skipped."""
    names = chain.mlm.parameter_names
    entries = [r for r in chain.sample_registry if all(n in r.values for n in names)]
    return near_matches(X, geometry.coords_array(entries, chain.mlm), chain.mlm, tol)


def registry_match(p: DataPoint, chain: Chain, tol: float = DEFAULT_TOL) -> bool:
    """True if the registry holds a point matching ``p``; see :func:`registry_matches`."""
    return bool(registry_matches(geometry.coords_array([p], chain.mlm), chain, tol)[0])


def _in_sample(points: list[DataPoint], X: np.ndarray, chain: Chain, tol: float) -> np.ndarray:
    """Per point: flagged in_sample, or matched in the sample registry.

    ``X`` holds the points' raw MLM coordinates; flagged points are not matched.
    """
    in_sample = np.array([bool(p.in_sample) for p in points], dtype=bool)
    unflagged = np.flatnonzero(~in_sample)
    in_sample[unflagged] = registry_matches(X[unflagged], chain, tol)
    return in_sample


@dataclass(frozen=True)
class _NodeRows:
    """The rows one node decided, with their coordinates and containment codes."""

    rows: list[int]
    X: np.ndarray
    codes: np.ndarray


def _kind_step(
    points: list[DataPoint], chain: Chain, tol: float
) -> tuple[list[Kind], _NodeRows, _NodeRows]:
    """Each point's kind, plus the rows the MLM and the MLC decided.

    The MLM decides every point and the MLC only points outside the MLM; the
    registry is searched only for MLM points not flagged in_sample.
    """
    X = geometry.coords_array(points, chain.mlm)
    codes = geometry.region_containment(X, chain.mlm, tol)
    outside = codes == geometry.OUTSIDE
    kinds: list[Kind] = [Kind.OUT_OF_MLCODD] * len(points)
    in_mlm = np.flatnonzero(~outside).tolist()
    in_sample = _in_sample([points[i] for i in in_mlm], X[~outside], chain, tol)
    for i, sampled in zip(in_mlm, in_sample.tolist()):
        kinds[i] = Kind.IN_SAMPLE if sampled else Kind.OUT_OF_SAMPLE
    out_mlm = np.flatnonzero(outside).tolist()
    Y = geometry.coords_array([points[i] for i in out_mlm], chain.mlc)
    mlc_codes = geometry.region_containment(Y, chain.mlc, tol)
    for i, code in zip(out_mlm, mlc_codes.tolist()):
        if code != geometry.OUTSIDE:
            kinds[i] = Kind.OUT_OF_MLMODD
    return (
        kinds,
        _NodeRows(in_mlm, X[~outside], codes[~outside]),
        _NodeRows(out_mlm, Y, mlc_codes),
    )


def classify_kind(p: DataPoint, chain: Chain, tol: float = DEFAULT_TOL) -> Kind:
    return _kind_step([p], chain, tol)[0][0]


def category_node(kind: Kind, chain: Chain) -> OddNode:
    """Node against which a point of this kind is categorized."""
    if kind in (Kind.IN_SAMPLE, Kind.OUT_OF_SAMPLE):
        return chain.mlm
    return chain.mlc


@dataclass(frozen=True)
class LabelRow:
    row: int
    kind: Kind
    category: str
    node: str
    on_boundary: bool
    annotations: dict[str, str] = field(default_factory=dict, hash=False, compare=False)


def label_rows(points: list[DataPoint], chain: Chain, tol: float = DEFAULT_TOL) -> list[LabelRow]:
    """Classify each point against the chain; rows keep dataset order.

    The category reuses the containment the kind step decided: MLM points
    are categorized against the MLM, the others against the MLC.
    """
    kinds, mlm_rows, mlc_rows = _kind_step(points, chain, tol)
    labels: list[tuple[str, bool, dict[str, str]] | None] = [None] * len(points)
    for node, decided in ((chain.mlm, mlm_rows), (chain.mlc, mlc_rows)):
        batch = [points[i] for i in decided.rows]
        node_labels = _categorize(
            batch, node, decided.X, decided.codes, chain, tol, chain.declared_transform
        )
        for i, label in zip(decided.rows, node_labels):
            labels[i] = label

    sod_categories: dict[int, str] = {}
    if chain.system_od is not None:
        out_cod = [i for i, kind in enumerate(kinds) if kind == Kind.OUT_OF_MLCODD]
        projected = [geometry.project(points[i], chain.system_od) for i in out_cod]
        sod_labels = classify_points(projected, chain.system_od, chain, tol)
        sod_categories = {i: label.category.label for i, label in zip(out_cod, sod_labels)}

    node_names = {kind: category_node(kind, chain).name for kind in Kind}
    rows = []
    for i, (kind, (category, on_boundary, annotations)) in enumerate(zip(kinds, labels)):
        if kind == Kind.OUT_OF_MLCODD:
            # indistinct at the MLC level; keep the per-node views as notes
            annotations["mlc_category"] = category
            if i in sod_categories:
                annotations["sod_category"] = sod_categories[i]
            category = OUTCOD_CATEGORY
        rows.append(LabelRow(i, kind, category, node_names[kind], on_boundary, annotations))
    return rows


def _annotations_cell(annotations: dict[str, str]) -> str:
    return ";".join(f"{k}={v}" for k, v in sorted(annotations.items()))


def serialize_labels(rows: list[LabelRow]) -> str:
    return write_csv(
        ["row", "kind", "category", "node", "on_boundary", "annotations"],
        (
            [r.row, r.kind.value, r.category, r.node, int(r.on_boundary), _annotations_cell(r.annotations)]
            for r in rows
        ),
    )


def serialize_point_labels(labels: list[PointLabel]) -> str:
    """One CSV row per :func:`classify_points` label, numbered in point order."""
    return write_csv(
        ["row", "category", "on_boundary", "annotations"],
        (
            [i, label.category.label, int(label.on_boundary), _annotations_cell(label.annotations)]
            for i, label in enumerate(labels)
        ),
    )


def partition_dataset(
    points: list[DataPoint], chain: Chain, tol: float = DEFAULT_TOL
) -> dict[PartitionKey, list[int]]:
    """Group row indices by (kind-set, category); every row lands in one cell.

    The populated cells come in :func:`full_key_space` order.
    """
    partitions: dict[PartitionKey, list[int]] = {key: [] for key in full_key_space()}
    for row in label_rows(points, chain, tol):
        partitions[(KIND_SET[row.kind], row.category)].append(row.row)
    return {key: rows for key, rows in partitions.items() if rows}


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
    points: list[DataPoint],
    chain: Chain,
    tol: float = DEFAULT_TOL,
    labels: list[Kind] | None = None,
) -> SetAlgebraReport:
    """Cross-check kind labels against direct geometric membership.

    With ``labels`` given, audits externally produced labels; otherwise the
    labels are recomputed via :func:`classify_kind` and the check guards
    regressions in the classifier itself.
    """
    if labels is None:
        labels = _kind_step(points, chain, tol)[0]
    known = tuple(Kind)
    pairs = list(zip(points, labels))
    audited = [p for p, label in pairs if label in known]
    X = geometry.coords_array(audited, chain.mlm)
    mlm_codes = geometry.region_containment(X, chain.mlm, tol)
    Y = geometry.coords_array(audited, chain.mlc)
    mlc_codes = geometry.region_containment(Y, chain.mlc, tol)
    verdicts = zip(
        (mlm_codes != geometry.OUTSIDE).tolist(),
        (mlc_codes != geometry.OUTSIDE).tolist(),
        _in_sample(audited, X, chain, tol).tolist(),
    )
    violations: list[tuple[int, str]] = []
    for i, (_, label) in enumerate(pairs):
        if label not in known:
            violations.append((i, "totality: unlabeled point"))
            continue
        in_mlm, in_mlc, in_sample = next(verdicts)
        in_mod = label in (Kind.IN_SAMPLE, Kind.OUT_OF_SAMPLE)
        in_cod = in_mod or label == Kind.OUT_OF_MLMODD
        if in_mod != in_mlm:
            violations.append((i, "InMOD = InS ∪ OutS"))
        if label == Kind.IN_SAMPLE and not in_sample:
            violations.append((i, "InS ∩ OutS = ∅"))
        if label == Kind.OUT_OF_SAMPLE and in_mlm and in_sample:
            violations.append((i, "InS ∩ OutS = ∅"))
        if label == Kind.OUT_OF_MLMODD and (in_mlm or not in_mlc):
            violations.append((i, "InMOD ∩ OutMOD = ∅"))
        if in_cod != in_mlc:
            violations.append((i, "InCOD = InMOD ∪ OutMOD"))
        if label == Kind.OUT_OF_MLCODD and in_mlc:
            violations.append((i, "InCOD ∩ OutCOD = ∅"))
    return SetAlgebraReport(holds=not violations, violations=violations)
