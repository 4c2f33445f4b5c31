"""Runtime-monitor chain simulation around a stub model.

Monitors run in chain order; the first detection determines the disposition
and later monitors are not consulted. A failover action latches: every
subsequent stream point is mitigated without stub evaluation until the run
ends. Actions are simulated as dispositions only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import geometry
from .classify import Chain, classify_points
from .datasets import write_csv
from .dsl import MonitorDecl, SpecDocument, StubDecl
from .errors import IncompleteTable, StubEvaluationError
from .model import DEFAULT_TOL, Containment, DataPoint, OddNode

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

    def evaluate(self, p: DataPoint) -> float:
        x = geometry.coords(p, self.node)
        if self.kind == "bilinear":
            c0, c1, c2, c12 = self.coefficients
            out = c0 + c1 * x[0] + c2 * x[1] + c12 * x[0] * x[1]
        else:
            xhat = geometry.normalize(x, self.node)
            rows = len(self.table)
            cols = len(self.table[0])
            i = min(max(int(xhat[0] * rows), 0), rows - 1)
            j = min(max(int(xhat[1] * cols), 0), cols - 1)
            out = self.table[i][j]
        if not math.isfinite(out):
            raise StubEvaluationError(f"stub produced non-finite output at {p.values}")
        return float(out)


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

    def detect(self, p: DataPoint, chain: Chain, stub_output: float | None) -> bool:
        if self.kind == "range_monitor":
            return (
                geometry.point_in_region(geometry.project(p, self.node), self.node)
                == Containment.OUTSIDE
            )
        if self.kind == "extreme_value_monitor":
            return bool(
                geometry.params_at_extreme(geometry.project(p, self.node), self.node, self.tol)
            )
        if self.kind == "known_input_monitor":
            node = self.node or chain.mlm
            x = geometry.normalize(geometry.coords(p, node), node)
            for known in self.known_inputs:
                y = geometry.normalize(geometry.coords(known, node), node)
                if max(abs(a - b) for a, b in zip(x, y)) <= self.tol:
                    return True
            return False
        if self.kind == "cross_check_monitor":
            if not p.provenance_raw:
                return False  # no second channel available for this point
            node = self.node or chain.mlm
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
        # output_range_monitor
        if stub_output is None:
            return False
        return not (self.lo <= stub_output <= self.hi)


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
        if d.tol is not None:
            kwargs["tol"] = d.tol
        if d.threshold is not None:
            kwargs["threshold"] = d.threshold
        if d.lo is not None:
            kwargs["lo"] = d.lo
        if d.hi is not None:
            kwargs["hi"] = d.hi
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

    verdicts: list[MonitorVerdict] = []
    failover_latched = False
    for i, p in enumerate(points):
        if failover_latched:
            verdicts.append(
                MonitorVerdict(i, [], "mitigated", "failover", None, latched=True)
            )
            continue
        decisions: list[MonitorDecision] = []
        disposition = "processed_by_mlm"
        action = None
        stub_output: float | None = None
        for monitor in monitors:
            if not monitor.input_side and stub_output is None:
                stub_output = stub.evaluate(p)
            detected = monitor.detect(p, chain, stub_output)
            decisions.append(MonitorDecision(monitor.kind, detected, monitor.action if detected else None))
            if detected:
                disposition = "mitigated"
                action = monitor.action
                if monitor.action == "failover":
                    failover_latched = True
                break
        if disposition == "processed_by_mlm" and stub_output is None:
            stub_output = stub.evaluate(p)
        verdicts.append(MonitorVerdict(i, decisions, disposition, action, stub_output))

    metrics: dict[str, float] = {"points": float(len(points)), "seed": float(seed)}
    per_cat_total: dict[str, int] = {}
    per_cat_detected: dict[str, int] = {}
    latched_count = 0
    for v, cat in zip(verdicts, oracle_categories):
        if v.latched:
            latched_count += 1
            continue
        per_cat_total[cat] = per_cat_total.get(cat, 0) + 1
        if any(d.detected for d in v.decisions):
            per_cat_detected[cat] = per_cat_detected.get(cat, 0) + 1
    for cat, total in sorted(per_cat_total.items()):
        metrics[f"detection_rate_{cat}"] = per_cat_detected.get(cat, 0) / total
    metrics["false_alarm_rate_nominal"] = (
        per_cat_detected.get("Nominal", 0) / per_cat_total["Nominal"]
        if per_cat_total.get("Nominal")
        else 0.0
    )
    metrics["failover_latched_points"] = float(latched_count)
    return SimulationResult(verdicts, metrics)
