"""Runtime-monitor chain simulation around a stub model.

Each monitor decides the whole stream in one pass. Per point, the first
monitor in chain order that fires determines the disposition, and later
monitors are not consulted. A failover action latches: every subsequent
stream point is mitigated without stub evaluation until the run ends.
Actions are simulated as dispositions only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import geometry
from .classify import CATEGORY_LABELS, Chain, NearIndex, classify_points
from .datasets import write_csv
from .dsl import MonitorDecl, SpecDocument, StubDecl, monitor_problem, stub_problem
from .errors import StubEvaluationError
from .model import DEFAULT_TOL, DataPoint, OddNode, Points


def _check(problem: tuple[str, str] | None) -> None:
    """Raise ValueError with the message of a rule ``dsl`` found broken."""
    if problem is not None:
        raise ValueError(problem[1])


@dataclass(frozen=True)
class StubModel:
    """The bilinear surrogate ``c0 + c1*x + c2*y + c12*x*y`` of a spec's
    monitorchain, over raw values of ``node``'s two parameters; a ValueError
    for another node or coefficients that ``dsl.stub_problem`` refuses."""

    node: OddNode
    coefficients: tuple[float, float, float, float]

    def __post_init__(self):
        if len(self.node.parameters) != 2:
            raise ValueError("stub models are defined over 2-parameter nodes")
        object.__setattr__(self, "coefficients", tuple(map(float, self.coefficients)))
        _check(stub_problem("bilinear", self.coefficients))

    def outputs(self, X: np.ndarray) -> np.ndarray:
        """The stub's output on each row of ``X``, raw coordinates in the
        node's parameter order."""
        c0, c1, c2, c12 = self.coefficients
        x, y = X[:, 0], X[:, 1]
        # non-finite outputs are reported by the caller, not as warnings
        with np.errstate(invalid="ignore", over="ignore"):
            return c0 + c1 * x + c2 * y + c12 * x * y


@dataclass(frozen=True)
class Monitor:
    kind: str
    node: OddNode | None = None
    # None: the engine's band for a range_monitor, 1e-6 for the other kinds
    tol: float | None = None
    threshold: float = 0.5
    lo: float = -math.inf
    hi: float = math.inf
    param: str | None = None
    action: str = "filter"
    known_inputs: tuple[DataPoint, ...] = ()

    def __post_init__(self):
        _check(monitor_problem(self.kind, self.action, self.tol, self.threshold, self.node is not None,
                               len(self.known_inputs)))
        if self.tol is None:
            object.__setattr__(self, "tol", DEFAULT_TOL if self.kind == "range_monitor" else 1e-6)

    @property
    def input_side(self) -> bool:
        return self.kind != "output_range_monitor"

    def detect(self, points: Points | list[DataPoint], chain: Chain, outputs: np.ndarray) -> np.ndarray:
        """Per point: does this monitor fire on it? ``outputs`` holds the
        stub's output on each point."""
        if self.kind == "output_range_monitor":
            return ~((self.lo <= outputs) & (outputs <= self.hi))
        points = Points.of(points)
        node = self.node or chain.mlm
        if self.kind == "cross_check_monitor":
            return self._cross_check(points, node)
        if self.kind == "range_monitor":
            return geometry.point_codes(points, node, self.tol) == geometry.OUTSIDE
        X = geometry.coords_array(points, node)
        if self.kind == "extreme_value_monitor":
            return geometry.extreme_mask(X, node, self.tol).any(axis=1)
        # known_input_monitor
        return NearIndex(geometry.coords_array(self.known_inputs, node), node, self.tol).matches(X)

    def _cross_check(self, points: Points, node: OddNode) -> np.ndarray:
        """Per point: does a value differ from its raw value (``param``'s, or
        any) by more than ``threshold`` spans? A point without raw values
        has no second channel and never fires."""
        names = (self.param,) if self.param else points.raw.names
        raw, recorded = points.raw.select(names)
        values, declared = points.values.select(names)
        spans = np.array([node.parameter(n).span if n in node.parameter_names else 1.0 for n in names])
        with np.errstate(over="ignore", invalid="ignore"):
            differs = np.abs(values - raw) / spans > self.threshold
        return (recorded & declared & differs).any(axis=1)


def build_monitors(decls: tuple[MonitorDecl, ...], doc: SpecDocument) -> list[Monitor]:
    monitors = []
    for d in decls:
        _check(monitor_problem(d.kind, d.action, d.tol, d.threshold, d.node is not None, len(d.inputs), True))
        node = doc.node(d.node) if d.node is not None else None
        known_inputs = tuple(DataPoint(dict(zip(node.parameter_names, pt))) for pt in d.inputs)
        declared = {key: getattr(d, key) for key in ("tol", "threshold", "lo", "hi") if getattr(d, key) is not None}
        monitors.append(Monitor(d.kind, node, param=d.param, action=d.action, known_inputs=known_inputs, **declared))
    return monitors


def build_stub(decl: StubDecl | None, node: OddNode) -> StubModel:
    _check(stub_problem(decl.kind, decl.coefficients) if decl else stub_problem(None))
    return StubModel(node, decl.coefficients)


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


@dataclass(eq=False)
class SimulationResult:
    """The outcome of :func:`run_monitor_chain`, a code per row.

    ``kinds`` and ``actions`` are the chain's monitors' kinds and actions.
    ``cases`` holds each row's case: the index of the first monitor that
    fired, ``len(kinds)`` if none did, or ``len(kinds) + 1`` once a failover
    has latched. ``stub_outputs`` holds the stub's output where it was
    evaluated and NaN where it was not. ``verdicts`` builds one
    :class:`MonitorVerdict` per row when it is first read.
    """

    kinds: tuple[str, ...]
    actions: tuple[str, ...]
    cases: np.ndarray
    stub_outputs: np.ndarray
    metrics: dict[str, float]

    def _case_cells(self) -> list[tuple[str, str | None, tuple[str, ...], bool]]:
        """Per case: disposition, action, the monitors that detected, latched."""
        fired = [("mitigated", action, (kind,), False) for kind, action in zip(self.kinds, self.actions)]
        return [*fired, ("processed_by_mlm", None, (), False), ("mitigated", "failover", (), True)]

    @cached_property
    def verdicts(self) -> list[MonitorVerdict]:
        misses = [MonitorDecision(kind, False) for kind in self.kinds]
        hits = [MonitorDecision(kind, True, action) for kind, action in zip(self.kinds, self.actions)]
        decisions = [misses[:j] + hits[j : j + 1] for j in range(len(self.kinds) + 1)] + [[]]
        dispositions, actions, _, latched = zip(*self._case_cells())
        case = self.cases.tolist()
        stub_outputs = self.stub_outputs.astype(object)
        stub_outputs[np.isnan(self.stub_outputs)] = None
        return list(
            map(
                MonitorVerdict,
                range(len(case)),
                map(list, map(decisions.__getitem__, case)),  # a list of its own per verdict
                map(dispositions.__getitem__, case),
                map(actions.__getitem__, case),
                stub_outputs.tolist(),
                map(latched.__getitem__, case),
            )
        )

    def render_verdicts_csv(self) -> str:
        """One CSV row per verdict: ``row, disposition, action, stub_output,
        detections, latched``. The cells but the stub output follow from the
        row's case, so they are written once per case."""
        header = ["row", "disposition", "action", "stub_output", "detections", "latched"]
        # one line each, without its line end; a stub output never needs quoting
        before, after = [], []
        for disposition, action, detected, latched in self._case_cells():
            before.append(write_csv([disposition, action or ""], ())[:-1])
            after.append(write_csv(["|".join(detected), int(latched)], ())[:-1])
        outputs = ["" if v != v else f"{v:.9g}" for v in self.stub_outputs.tolist()]
        lines = [
            f"{i},{before[c]},{out},{after[c]}\n"
            for i, c, out in zip(range(len(outputs)), self.cases.tolist(), outputs)
        ]
        return write_csv(header, ()) + "".join(lines)

    def render_metrics(self) -> str:
        return "\n".join(f"{k}={v:.6g}" for k, v in sorted(self.metrics.items())) + "\n"


def run_monitor_chain(
    points: Points | list[DataPoint],
    chain: Chain,
    monitors: list[Monitor],
    stub: StubModel,
    seed: int = 0,
    oracle_categories: list[str] | None = None,
) -> SimulationResult:
    """Run a stream through the monitor chain; deterministic given the inputs.

    ``seed`` is recorded in the metrics for provenance; the simulation itself
    draws no randomness. Oracle category labels default to classifying each
    point against the chain's MLM node; given, there must be one per point.
    """
    given, points = points, Points.of(points)
    n, m = len(points), len(monitors)
    # each row's oracle category, as a code into names
    if oracle_categories is None:
        names, codes = CATEGORY_LABELS, classify_points(points, chain.mlm, chain).categories
    elif len(oracle_categories) != n:
        raise ValueError(f"{len(oracle_categories)} oracle categories for {n} points")
    else:
        names, codes = np.unique(np.asarray(oracle_categories), return_inverse=True)
        names = names.tolist()

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
        p = given[non_finite[0]]  # the point as the caller gave it
        raise StubEvaluationError(f"stub produced non-finite output at {p.values}")

    # each row's case: the first monitor that fired, m if none did, or m + 1
    # once a failover has latched
    cases = np.where(latched, m + 1, first)
    stub_outputs = np.where(evaluated, outputs, np.nan)

    total = dict(zip(names, np.bincount(codes[~latched], minlength=len(names)).tolist()))
    detected = dict(zip(names, np.bincount(codes[~latched & (first < m)], minlength=len(names)).tolist()))
    metrics: dict[str, float] = {"points": float(n), "seed": float(seed)}
    for cat in sorted(c for c, count in total.items() if count):
        metrics[f"detection_rate_{cat}"] = detected[cat] / total[cat]
    nominal = total.get("Nominal", 0)
    metrics["false_alarm_rate_nominal"] = detected["Nominal"] / nominal if nominal else 0.0
    metrics["failover_latched_points"] = float(latched.sum())
    kinds = tuple(monitor.kind for monitor in monitors)
    return SimulationResult(kinds, tuple(actions[:m]), cases, stub_outputs, metrics)
