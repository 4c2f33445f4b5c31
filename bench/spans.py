"""Operation recording, spans, call counters and import-time parsing.

Every call the benchmark makes into oddkit goes through :meth:`Ops.call`,
which times it and counts it as one attempted operation. With a
:class:`Tracer` attached, each call is also a span (name, start, end,
parent, pass id) kept in memory until the run ends.

:func:`instrument` counts calls the library makes internally. It replaces
public functions of ``oddkit.geometry`` and ``oddkit.classify.registry_match``
with counting wrappers. The library looks these up as module attributes at
call time (``geometry.point_in_region(...)``), so the wrappers see its
internal calls without any change to ``src/``. Those calls are too many to
keep as spans; each is added to per-span counters, and the time of the
outermost wrapped call is charged to the enclosing span as child time.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager

# Functions counted in traced passes. The hot helpers ``coords`` and
# ``normalize`` are left out: wrapping them would cost more than the
# containment work being measured.
GEOMETRY_FUNCTIONS = (
    "point_in_region",
    "params_at_extreme",
    "project",
    "distance_to_boundary",
    "region_vertices",
    "contains_node",
)


class OpFailed(Exception):
    """An operation raised; the rest of the pass is abandoned."""


class Ops:
    """Times and counts the operations of a run."""

    def __init__(self, tracer: "Tracer | None" = None, keep: bool = False):
        self.tracer = tracer
        self.keep = keep
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.records: list[tuple[str, float]] = []  # (name, seconds) per returned call, if kept

    def call(self, name: str, fn, *args, **kwargs):
        self.attempted += 1
        span = self.tracer.begin(name) if self.tracer else None
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # the library must not raise on these inputs
            self.failed += 1
            self.errors.append(f"{name}: {type(exc).__name__}: {exc}")
            raise OpFailed(name) from exc
        finally:
            dt = time.perf_counter() - t0
            if span is not None:
                self.tracer.end(span)
        if self.keep:
            self.records.append((name, dt))
        return result

    def fail(self, what: str, count: int = 1) -> None:
        """Count ``count`` attempted operations whose output was wrong."""
        if count:
            self.failed += count
            if len(self.errors) < 20:
                self.errors.append(what)

    def merge(self, other: "Ops") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.errors += other.errors
        self.records += other.records


class Tracer:
    """In-memory spans plus per-span call counters for wrapped functions."""

    def __init__(self):
        self.spans: list[dict] = []
        self.stack: list[dict] = []
        self.pass_id: int | None = None
        self.depth = 0  # nesting of wrapped calls

    def begin(self, name: str) -> dict:
        span = {
            "id": len(self.spans),
            "parent": self.stack[-1]["id"] if self.stack else None,
            "pass": self.pass_id,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "calls": defaultdict(int),  # wrapped calls made inside this span
            "wrapped_by": defaultdict(float),  # seconds in outermost wrapped calls, per function
        }
        self.spans.append(span)
        self.stack.append(span)
        return span

    def end(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name: str):
        s = self.begin(name)
        try:
            yield s
        finally:
            self.end(s)

    def count(self, key: str) -> None:
        if self.stack:
            self.stack[-1]["calls"][key] += 1

    def self_times(self, pass_ids=None) -> dict[str, float]:
        """Per span name: duration minus child spans and wrapped-call time."""
        child: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            if pass_ids is not None and s["pass"] not in pass_ids:
                continue
            out[s["name"]] += s["end"] - s["start"] - child[s["id"]] - sum(s["wrapped_by"].values())
        return dict(out)

    def calls(self, pass_ids=None, names=None) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for s in self.spans:
            if pass_ids is not None and s["pass"] not in pass_ids:
                continue
            if names is not None and s["name"] not in names:
                continue
            for k, v in s["calls"].items():
                out[k] += v
        return dict(out)

    def export(self) -> list[dict]:
        return [
            {
                "id": s["id"],
                "parent": s["parent"],
                "pass": s["pass"],
                "name": s["name"],
                "start": s["start"],
                "end": s["end"],
                "calls": dict(s["calls"]),
                "wrapped_by": dict(s["wrapped_by"]),
            }
            for s in self.spans
        ]


def _wrap(tracer: Tracer, key: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.count(key)
        if tracer.depth:
            return fn(*args, **kwargs)
        tracer.depth += 1
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            tracer.depth -= 1
            if tracer.stack:
                tracer.stack[-1]["wrapped_by"][key] += dt

    return wrapper


@contextmanager
def instrument(tracer: Tracer):
    """Count calls to geometry's public functions and classify.registry_match."""
    from oddkit import classify, geometry

    targets = [(geometry, f"geometry.{name}", name) for name in GEOMETRY_FUNCTIONS]
    targets.append((classify, "classify.registry_match", "registry_match"))
    saved = [(mod, name, getattr(mod, name)) for mod, _, name in targets]
    for mod, key, name in targets:
        setattr(mod, name, _wrap(tracer, key, getattr(mod, name)))
    try:
        yield
    finally:
        for mod, name, fn in saved:
            setattr(mod, name, fn)


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative import seconds per top-level package from ``-X importtime``.

    A package's time is the sum of the cumulative times of its modules that
    are not nested under another module of the same package.
    """
    entries = []  # (depth, module, cumulative_us), in the order printed
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        parts = line[len("import time:") :].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2].rstrip()
        stripped = name.lstrip(" ")
        depth = (len(name) - len(stripped)) // 2
        entries.append((depth, stripped, int(parts[1])))
    # Output is post-order: a module's parent is the next entry one level up.
    parent = [None] * len(entries)
    waiting: dict[int, list[int]] = defaultdict(list)
    for i, (depth, _, _) in enumerate(entries):
        for child in waiting.pop(depth + 1, []):
            parent[child] = i
        waiting[depth].append(i)
    totals: dict[str, float] = defaultdict(float)
    for i, (_, module, cum) in enumerate(entries):
        top = module.split(".")[0]
        j = parent[i]
        while j is not None and entries[j][1].split(".")[0] != top:
            j = parent[j]
        if j is None:
            totals[top] += cum / 1e6
    return dict(totals)
