"""Runtime-monitor chain simulation around a stub model.

Each monitor decides the whole stream in one pass. Per point, the first
monitor in chain order that fires determines the disposition, and later
monitors are not consulted. A failover action latches: every subsequent
stream point is mitigated without stub evaluation until the run ends.
Actions are simulated as dispositions only.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import geometry
from .classify import Chain, classify_points, near_matches
from .datasets import write_csv
from .dsl import MonitorDecl, SpecDocument, StubDecl
from .errors import IncompleteTable, StubEvaluationError
from .model import DEFAULT_TOL, DataPoint, OddNode

MONITOR_KINDS = (
    "range_monitor",
    "extreme_value_monitor",
    "known_input_monitor",
    "output_range_monitor",
    "cross_check_monitor",
)

ACTIONS = ("filter", "replace", "mask", "failover")


@dataclass(frozen=True)
class StubModel:
    node: OddNode
    kind: str  # "bilinear" | "lookup_table"
    coefficients: tuple[float, ...] = ()
    table: tuple[tuple[float, ...], ...] = ()

    def outputs(self, X: np.ndarray) -> np.ndarray:
        """The stub's output on each row of ``X``, raw coordinates in the
        node's parameter order. A lookup table gives NaN where a normalised
        coordinate is not finite."""
        # non-finite outputs are reported by the caller, not as warnings
        with np.errstate(invalid="ignore", over="ignore"):
            if self.kind == "bilinear":
                c0, c1, c2, c12 = self.coefficients
                x, y = X[:, 0], X[:, 1]
                return c0 + c1 * x + c2 * y + c12 * x * y
            table = np.array(self.table)
            scaled = geometry.normalize_array(X, self.node) * table.shape
        finite = np.isfinite(scaled).all(axis=1)
        cells = np.clip(np.where(finite[:, None], scaled, 0.0), 0, np.array(table.shape) - 1)
        i, j = cells.astype(int).T
        return np.where(finite, table[i, j], np.nan)

    def evaluate(self, p: DataPoint) -> float:
        """The stub's output at one point, the one-row case of :meth:`outputs`;
        raises StubEvaluationError if it is not finite."""
        out = float(self.outputs(geometry.coords_array([p], self.node))[0])
        if not math.isfinite(out):
            raise StubEvaluationError(f"stub produced non-finite output at {p.values}")
        return out


def make_stub_model(node: OddNode, spec: dict) -> StubModel:
    """Build a surrogate model over a 2-parameter node.

    ``spec`` is ``{"kind": "bilinear", "coefficients": (c0, c1, c2, c12)}``
    (output = c0 + c1*x + c2*y + c12*x*y over raw parameter values) or
    ``{"kind": "lookup_table", "table": rows}`` with a full grid over the
    normalized parameter box.
    """
    if len(node.parameters) != 2:
        raise ValueError("stub models are defined over 2-parameter nodes")
    kind = spec["kind"]
    if kind == "bilinear":
        coefficients = tuple(float(c) for c in spec["coefficients"])
        if len(coefficients) != 4 or not all(math.isfinite(c) for c in coefficients):
            raise ValueError("bilinear stub needs 4 finite coefficients")
        return StubModel(node, "bilinear", coefficients=coefficients)
    if kind == "lookup_table":
        table = tuple(tuple(float(v) for v in row) for row in spec["table"])
        if not table or any(len(row) != len(table[0]) for row in table):
            raise IncompleteTable("lookup table rows have inconsistent lengths")
        if any(not math.isfinite(v) for row in table for v in row):
            raise IncompleteTable("lookup table has missing (non-finite) cells")
        return StubModel(node, "lookup_table", table=table)
    raise ValueError(f"unknown stub kind {kind!r}")


@dataclass(frozen=True)
class Monitor:
    kind: str
    node: OddNode | None = None
    tol: float = 1e-6
    threshold: float = 0.5
    lo: float = -math.inf
    hi: float = math.inf
    param: str | None = None
    action: str = "filter"
    action_value: float | None = None
    known_inputs: tuple[DataPoint, ...] = ()

    def __post_init__(self):
        if self.kind not in MONITOR_KINDS:
            raise ValueError(f"unknown monitor kind {self.kind!r}")
        if self.action not in ACTIONS:
            raise ValueError(f"unknown monitor action {self.action!r}")
        if self.tol <= 0 or self.threshold <= 0:
            raise ValueError("monitor tolerances and thresholds must be positive")
        if self.kind == "known_input_monitor" and not self.known_inputs:
            raise ValueError("known_input_monitor needs a non-empty input list")
        if self.kind in ("range_monitor", "extreme_value_monitor") and self.node is None:
            raise ValueError(f"{self.kind} needs a node reference")

    @property
    def input_side(self) -> bool:
        return self.kind != "output_range_monitor"

    def detect(self, points: list[DataPoint], chain: Chain, outputs: np.ndarray) -> np.ndarray:
        """Per point: does this monitor fire on it? ``outputs`` holds the
        stub's output on each point."""
        if self.kind == "output_range_monitor":
            return ~((self.lo <= outputs) & (outputs <= self.hi))
        node = self.node or chain.mlm
        if self.kind == "cross_check_monitor":
            return np.array([self._cross_check(p, node) for p in points], dtype=bool)
        X = geometry.coords_array(points, node)
        if self.kind == "range_monitor":
            return geometry.region_containment(X, node) == geometry.OUTSIDE
        if self.kind == "extreme_value_monitor":
            return geometry.extreme_mask(X, node, self.tol).any(axis=1)
        # known_input_monitor
        return near_matches(X, geometry.coords_array(self.known_inputs, node), node, self.tol)

    def _cross_check(self, p: DataPoint, node: OddNode) -> bool:
        if not p.provenance_raw:
            return False  # no second channel available for this point
        names = [self.param] if self.param else sorted(p.provenance_raw)
        for name in names:
            if name not in p.provenance_raw or name not in p.values:
                continue
            try:
                span = node.parameter(name).span
            except KeyError:
                span = 1.0
            if abs(p.values[name] - p.provenance_raw[name]) / span > self.threshold:
                return True
        return False


def build_monitors(decls: tuple[MonitorDecl, ...], doc: SpecDocument) -> list[Monitor]:
    monitors = []
    for d in decls:
        node = doc.node(d.node) if d.node is not None else None
        known_inputs: tuple[DataPoint, ...] = ()
        if d.inputs:
            if node is None:
                raise ValueError(
                    f"{d.kind} with input points needs a node reference to name the coordinates"
                )
            known_inputs = tuple(
                DataPoint(dict(zip(node.parameter_names, pt))) for pt in d.inputs
            )
        kwargs = dict(
            kind=d.kind,
            node=node,
            param=d.param,
            action=d.action,
            action_value=d.action_value,
            known_inputs=known_inputs,
        )
        for key in ("tol", "threshold", "lo", "hi"):
            if getattr(d, key) is not None:
                kwargs[key] = getattr(d, key)
        monitors.append(Monitor(**kwargs))
    return monitors


def build_stub(decl: StubDecl, node: OddNode) -> StubModel:
    if decl.kind == "bilinear":
        return make_stub_model(node, {"kind": "bilinear", "coefficients": decl.coefficients})
    raise ValueError(f"unsupported stub kind {decl.kind!r} in monitorchain block")


@dataclass(frozen=True)
class MonitorDecision:
    monitor: str
    detected: bool
    action: str | None = None


@dataclass
class MonitorVerdict:
    row: int
    decisions: list[MonitorDecision]
    final_disposition: str  # "processed_by_mlm" | "mitigated"
    action: str | None
    stub_output: float | None
    latched: bool = False


@dataclass
class SimulationResult:
    verdicts: list[MonitorVerdict]
    metrics: dict[str, float]

    def render_verdicts_csv(self) -> str:
        return write_csv(
            ["row", "disposition", "action", "stub_output", "detections", "latched"],
            (
                [
                    v.row,
                    v.final_disposition,
                    v.action or "",
                    "" if v.stub_output is None else f"{v.stub_output:.9g}",
                    "|".join(d.monitor for d in v.decisions if d.detected),
                    int(v.latched),
                ]
                for v in self.verdicts
            ),
        )

    def render_metrics(self) -> str:
        return "\n".join(f"{k}={v:.6g}" for k, v in sorted(self.metrics.items())) + "\n"


def run_monitor_chain(
    points: list[DataPoint],
    chain: Chain,
    monitors: list[Monitor],
    stub: StubModel,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
    oracle_categories: list[str] | None = None,
) -> SimulationResult:
    """Run a stream through the monitor chain; deterministic given the inputs.

    ``seed`` is recorded in the metrics for provenance; the simulation itself
    draws no randomness. Oracle category labels default to classifying each
    point against the chain's MLM node.
    """
    if oracle_categories is None:
        oracle_categories = [
            label.category.label for label in classify_points(points, chain.mlm, chain, tol)
        ]

    n, m = len(points), len(monitors)
    outputs = stub.outputs(geometry.coords_array(points, stub.node))
    # column m fires on every row: argmax is the first monitor that fired, or m
    fired = np.column_stack(
        [monitor.detect(points, chain, outputs) for monitor in monitors] + [np.ones(n, dtype=bool)]
    )
    first = fired.argmax(axis=1)
    actions = [monitor.action for monitor in monitors] + [None]
    latching = np.flatnonzero(np.array([a == "failover" for a in actions])[first])
    latched = np.arange(n) > (latching[0] if len(latching) else n)
    # the stub runs before the first output-side monitor, or after the chain
    first_output = next((j for j, monitor in enumerate(monitors) if not monitor.input_side), m)
    evaluated = ~latched & (first >= first_output)
    non_finite = np.flatnonzero(evaluated & ~np.isfinite(outputs))
    if len(non_finite):
        p = points[non_finite[0]]
        raise StubEvaluationError(f"stub produced non-finite output at {p.values}")

    misses = [MonitorDecision(monitor.kind, False) for monitor in monitors]
    hits = [MonitorDecision(monitor.kind, True, monitor.action) for monitor in monitors]
    verdicts: list[MonitorVerdict] = []
    for i, (j, output, is_latched, is_evaluated) in enumerate(
        zip(first.tolist(), outputs.tolist(), latched.tolist(), evaluated.tolist())
    ):
        if is_latched:
            verdicts.append(MonitorVerdict(i, [], "mitigated", "failover", None, latched=True))
            continue
        disposition = "mitigated" if j < m else "processed_by_mlm"
        output = output if is_evaluated else None
        verdicts.append(MonitorVerdict(i, misses[:j] + hits[j : j + 1], disposition, actions[j], output))

    rows = list(zip(oracle_categories, latched.tolist(), (first < m).tolist()))
    total = Counter(cat for cat, is_latched, _ in rows if not is_latched)
    detected = Counter(cat for cat, is_latched, hit in rows if hit and not is_latched)
    metrics: dict[str, float] = {"points": float(n), "seed": float(seed)}
    for cat, count in sorted(total.items()):
        metrics[f"detection_rate_{cat}"] = detected[cat] / count
    nominal = total["Nominal"]
    metrics["false_alarm_rate_nominal"] = detected["Nominal"] / nominal if nominal else 0.0
    metrics["failover_latched_points"] = float(sum(is_latched for _, is_latched, _ in rows))
    return SimulationResult(verdicts, metrics)
