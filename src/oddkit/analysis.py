"""Partition-to-ERLA rule engine, coverage metrics, and ODD-update proposals.

ERLA records attach Effects / Requirements / Learning-assurance / Architecture
codes to (kind-set, category) partitions. The default rule base ships with the
package (``data/erla_rules.txt``); cells without a specific record carry the
``non-normative`` placeholder code.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from . import geometry
from .classify import (
    CATEGORY_LABELS,
    Chain,
    PartitionKey,
    classify_points,
    full_key_space,
    partition_dataset,
)
from .datasets import write_csv
from .dsl import Diagnostic, Token, _Parser, tokenize
from .errors import EmptyInput
from .model import DEFAULT_TOL, DataPoint, OddNode, Points

@dataclass(frozen=True)
class ErlaRule:
    kinds: frozenset[str]
    categories: frozenset[str]
    effects: tuple[str, ...] = ()
    requirements: tuple[str, ...] = ()
    learning_assurance: tuple[str, ...] = ()
    architecture: tuple[str, ...] = ()


@dataclass(frozen=True)
class NotApplicable:
    kinds: frozenset[str]
    categories: frozenset[str]
    reason: str


class RuleBase:
    """ERLA rules that claim every cell exactly once; raises ValueError otherwise."""

    def __init__(self, rules: list[ErlaRule], not_applicable: list[NotApplicable]):
        self.rules = rules
        self.not_applicable = not_applicable
        problems: list[str] = []
        space = set(full_key_space())
        self._index: dict[PartitionKey, ErlaRule | NotApplicable] = {}
        for entry in [*rules, *not_applicable]:
            for kind_set in entry.kinds:
                for category in entry.categories:
                    key = (kind_set, category)
                    if key not in space:
                        problems.append(f"unknown cell {key}")
                    elif key in self._index:
                        problems.append(f"overlapping cell {key}")
                    else:
                        self._index[key] = entry
        problems += (f"uncovered cell {key}" for key in sorted(space) if key not in self._index)
        if problems:
            raise ValueError("invalid rule base: " + "; ".join(problems))

    def lookup(self, key: PartitionKey) -> ErlaRule | NotApplicable:
        try:
            return self._index[key]
        except KeyError:
            raise KeyError(f"no rule for partition {key}") from None


def _identifiers(p: _Parser) -> tuple[str, ...] | None:
    """A bracketed list of identifiers."""
    if p.expect("[") is None:
        return None
    items = []
    while (item := p.peek()) is not None and item.kind == "ident":
        items.append(p.next().value)
    return tuple(items) if p.expect("]") else None


# the ErlaRule field of each rule-file key, in report order
_ERLA_FIELDS = {"E": "effects", "R": "requirements", "L": "learning_assurance", "A": "architecture"}
_RULE_FIELDS = {"reason": _Parser.string, **dict.fromkeys(("kinds", "categories", *_ERLA_FIELDS), _identifiers)}


def _rule_block(p: _Parser, head: Token) -> dict | None:
    """The fields of the block ``head`` opens: ``reason`` a string, the
    others identifier lists. None once an error is reported."""
    if head.kind != "ident" or head.value not in ("rule", "not_applicable"):
        p.error(f"expected 'rule' or 'not_applicable', got {head.value!r}", head)
        return None
    fields = p.options(_RULE_FIELDS) if p.expect("{") else None
    if fields is None:
        return None
    if (key := p.peek()) is not None and key.value != "}":
        p.error(f"unknown field {key.value!r}", p.next())
        return None
    return {"reason": "", **dict(fields)} if p.expect("}") else None


def parse_rules(text: str) -> tuple[list[ErlaRule], list[NotApplicable], list[Diagnostic]]:
    """Parse the rule-base format (see the packaged default) into the blocks
    a :class:`RuleBase` is built from; after an error, parsing resumes at the
    next ``rule`` or ``not_applicable`` keyword."""
    tokens, diagnostics = tokenize(text)
    p = _Parser(tokens)
    rules: list[ErlaRule] = []
    nas: list[NotApplicable] = []
    while (head := p.next()) is not None:
        fields = _rule_block(p, head)
        if fields is None:
            p.skip_to("rule", "not_applicable")
            continue
        kinds = frozenset(fields.get("kinds", ()))
        categories = frozenset(fields.get("categories", ()))
        if not kinds or not categories:
            p.error(f"{head.value} block needs kinds and categories", head)
        elif head.value == "rule":
            rules.append(ErlaRule(kinds, categories, **{f: fields.get(key, ()) for key, f in _ERLA_FIELDS.items()}))
        else:
            nas.append(NotApplicable(kinds, categories, fields["reason"]))
    return rules, nas, diagnostics + p.diagnostics


def load_default_rules() -> RuleBase:
    text = resources.files("oddkit").joinpath("data/erla_rules.txt").read_text("utf-8")
    rules, nas, diagnostics = parse_rules(text)
    errors = [d for d in diagnostics if d.severity == "error"]
    if errors:  # pragma: no cover - packaged file is tested
        raise ValueError(f"default rule base failed to parse: {errors[0]}")
    return RuleBase(rules, nas)


# -- partition analysis --------------------------------------------------------


@dataclass(frozen=True)
class PartitionSection:
    key: PartitionKey
    count: int
    rows: tuple[int, ...]
    erla: ErlaRule | NotApplicable


@dataclass
class AnalysisReport:
    sections: list[PartitionSection] = field(default_factory=list)

    def render_text(self) -> str:
        if not self.sections:
            return "no populated partitions\n"
        lines = []
        for s in self.sections:
            kind_set, category = s.key
            rows = ", ".join(str(r) for r in s.rows[:10])
            more = "" if s.count <= 10 else f" (+{s.count - 10} more)"
            lines.append(f"partition {kind_set} x {category}: {s.count} point(s), rows {rows}{more}")
            if isinstance(s.erla, NotApplicable):
                lines.append(f"  not applicable: {s.erla.reason}")
            else:
                lines += (f"  {key}: " + (", ".join(getattr(s.erla, f)) or "-") for key, f in _ERLA_FIELDS.items())
        return "\n".join(lines) + "\n"

    def render_csv(self) -> str:
        def row(s: PartitionSection) -> list:
            if isinstance(s.erla, NotApplicable):
                erla_cols = [""] * len(_ERLA_FIELDS) + [s.erla.reason]
            else:
                erla_cols = ["|".join(getattr(s.erla, f)) for f in _ERLA_FIELDS.values()] + [""]
            return [*s.key, s.count, "|".join(map(str, s.rows)), *erla_cols]

        header = ["kind_set", "category", "count", "rows", *_ERLA_FIELDS.values(), "not_applicable_reason"]
        return write_csv(header, map(row, self.sections))


def analyze_partitions(
    points: Points | list[DataPoint],
    chain: Chain,
    rules: RuleBase,
) -> AnalysisReport:
    """One section per populated partition, in :func:`full_key_space` order."""
    return AnalysisReport(
        [
            PartitionSection(key=key, count=len(rows), rows=tuple(rows), erla=rules.lookup(key))
            for key, rows in partition_dataset(points, chain).items()
        ]
    )


# -- coverage -------------------------------------------------------------------

DEFAULT_GRID = (20, 20)
MAX_GRID_CELLS = 1_000_000  # the interior grid's masks and cell centers stay near 100 MB
_VERTEX_TOL = 1e-3  # normalized distance within which a point covers a vertex or range bound


@dataclass
class CoverageReport:
    counts: dict[str, int]
    vertex_coverage: float
    edge_coverage: float
    interior_grid_coverage: float
    empty_required_partitions: list[str]

    def render_text(self) -> str:
        lines = [
            f"vertex_coverage={self.vertex_coverage:.6g}",
            f"edge_coverage={self.edge_coverage:.6g}",
            f"interior_grid_coverage={self.interior_grid_coverage:.6g}",
            "empty_required_partitions=" + (",".join(self.empty_required_partitions) or "-"),
        ]
        for category in CATEGORY_LABELS:
            lines.append(f"count_{category}={self.counts.get(category, 0)}")
        return "\n".join(lines) + "\n"


_REQUIRED_PARTITIONS = ("Nominal", "EdgeCase", "FeasibleCornerCase")


def _vertices_covered(X_hat: np.ndarray, V_hat: np.ndarray) -> np.ndarray:
    """Per vertex of ``V_hat`` (V, 2), whether a row of ``X_hat`` (n, 2) lies
    within ``_VERTEX_TOL`` of it in both coordinates, from a (V, n) mask each."""
    near = [np.abs(X_hat[:, k] - V_hat[:, k, None]) <= _VERTEX_TOL for k in range(2)]
    return (near[0] & near[1]).any(axis=1)


def coverage_report(
    points: Points | list[DataPoint],
    node: OddNode,
    grid: tuple[int, int] = DEFAULT_GRID,
) -> CoverageReport:
    """Desk-scale coverage metrics for a dataset against one node.

    Interior grid coverage requires a 2D node (the grid is laid over the
    normalized parameter box and clipped to the region by cell center).
    """
    if min(grid) < 1 or grid[0] * grid[1] > MAX_GRID_CELLS:
        raise ValueError(f"grid dims must be >= 1, with at most {MAX_GRID_CELLS:,} cells")
    if len(node.parameters) != 2:
        raise ValueError("coverage metrics require a 2-parameter node")

    points = Points.of(points)
    X = geometry.coords_array(points, node)
    categories = classify_points(points, node, declared_transform=()).categories
    # in the order the categories first occur
    present, first, number = np.unique(categories, return_index=True, return_counts=True)
    counts = {
        CATEGORY_LABELS[present[k]]: int(number[k]) for k in np.argsort(first, kind="stable")
    }
    X_hat = geometry.normalize_array(X, node)

    V_hat = geometry.normalize_array(geometry.region_vertices(node), node)
    covers = _vertices_covered(X_hat, V_hat)
    vertex_coverage = int(covers.sum()) / len(V_hat) if len(V_hat) else 0.0

    # a point covers a bound slice the region reaches when it lies near both
    near_region = geometry.point_codes(points, node, max(DEFAULT_TOL, _VERTEX_TOL)) != geometry.OUTSIDE
    bounds_hat = geometry.normalize_array(np.array(node.box).T, node)  # rows lo, hi
    at_bound = near_region[:, None, None] & (np.abs(X_hat[:, None] - bounds_hat) <= _VERTEX_TOL)
    reached = geometry.bounds_reached(node).T
    feasible_slices = int(reached.sum())
    covered_slices = int((at_bound.any(axis=0) & reached).sum())
    edge_coverage = covered_slices / feasible_slices if feasible_slices else 0.0

    nx, ny = grid
    in_box = ((X_hat >= 0.0) & (X_hat <= 1.0)).all(axis=1)
    occupied_cells = np.zeros((nx, ny), dtype=bool)
    cell = np.minimum((X_hat[in_box] * (nx, ny)).astype(int), (nx - 1, ny - 1))
    occupied_cells[cell[:, 0], cell[:, 1]] = True
    ci, cj = np.meshgrid((np.arange(nx) + 0.5) / nx, (np.arange(ny) + 0.5) / ny, indexing="ij")
    centers = geometry.denormalize_array(np.column_stack([ci.ravel(), cj.ravel()]), node)
    interior = (geometry.region_containment(centers, node) != geometry.OUTSIDE).reshape(nx, ny)
    interior_cells = int(interior.sum())
    occupied = int((interior & occupied_cells).sum())
    interior_grid_coverage = occupied / interior_cells if interior_cells else 0.0

    empty_required = [c for c in _REQUIRED_PARTITIONS if counts.get(c, 0) == 0]
    return CoverageReport(
        counts=counts,
        vertex_coverage=vertex_coverage,
        edge_coverage=edge_coverage,
        interior_grid_coverage=interior_grid_coverage,
        empty_required_partitions=empty_required,
    )


# -- ODD update feedback ---------------------------------------------------------


@dataclass(frozen=True)
class RangeChange:
    parameter: str
    bound: str  # "lo" | "hi"
    current: float
    proposed: float
    evidence_count: int
    evidence_median: float
    evidence_extreme: float


@dataclass
class UpdateProposal:
    range_changes: list[RangeChange] = field(default_factory=list)
    new_parameter_candidates: list[str] = field(default_factory=list)

    @property
    def empty(self) -> bool:
        return not self.range_changes and not self.new_parameter_candidates

    def render_text(self) -> str:
        if self.empty:
            return "no update proposed\n"
        lines = [
            f"propose {c.parameter} {c.bound}: {c.current:g} -> {c.proposed:g} (evidence: {c.evidence_count}"
            f" point(s), median {c.evidence_median:g}, extreme {c.evidence_extreme:g})"
            for c in self.range_changes
        ]
        lines += [f"candidate new parameter: {name}" for name in self.new_parameter_candidates]
        return "\n".join(lines) + "\n"


def propose_odd_update(
    observed: Points | list[DataPoint], node: OddNode, tol: float = DEFAULT_TOL
) -> UpdateProposal:
    """Advisory range-extension proposal from operational out-of-ODD points.

    Never mutates the node; the region extension itself remains a human
    decision. Hidden-parameter columns in the evidence flag candidate new
    parameters.
    """
    observed = Points.of(observed)
    if not len(observed):
        raise EmptyInput("no observed points")
    X = observed.values.select(node.parameter_names)[0]  # NaN where a value is absent
    changes = []
    for param, column in zip(node.parameters, X.T):
        band = tol * param.span
        for bound, current, evidence, pick in (
            ("hi", param.hi, column[column > param.hi + band], np.max),
            ("lo", param.lo, column[column < param.lo - band], np.min),
        ):
            if len(evidence):
                extreme, median = float(pick(evidence)), float(np.median(evidence))
                changes.append(RangeChange(param.name, bound, current, extreme, len(evidence), median, extreme))
    hidden = observed.hidden
    named = itertools.compress(hidden.names, hidden.present.any(axis=0))
    return UpdateProposal(changes, sorted(name for name in named if name not in node.parameter_names))
