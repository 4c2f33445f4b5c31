"""Independent reference labels for the benchmark's correctness check.

Nothing here calls ``oddkit.geometry``, ``oddkit.classify`` or
``oddkit.anomaly``. Node data (vertices, halfspaces, parameter ranges) comes
from the parsed spec; every decision is recomputed with other algorithms,
vectorised over numpy arrays:

- polygon membership by winding number, and boundary distance by
  point-segment projection, in span-normalised coordinates;
- polytope membership by raw ``a.x <= b`` per halfspace; the slack is
  scaled to a normalised distance only to place the boundary band;
- registry matching by a full L-infinity distance matrix.

Regions are closed and every tolerance is ``TOL`` of a parameter's span, as
the README specifies. Each verdict is 1 (yes), 0 (no) or -1 (undecided):
a quantity within a relative ``BAND`` of its threshold is undecided, since
two correct implementations may round it to either side. Undecided rows are
counted and skipped, never compared.
"""

from __future__ import annotations

import math

import numpy as np

TOL = 1e-9  # the library's DEFAULT_TOL, as a share of each span
BAND = 1e-3  # relative half-width of the undecided band around a threshold
MONITOR_TOL = 1e-6  # extreme_value_monitor tol in the "baseline" scenario

KIND_SET = {"InS": "InMOD&InS", "OutS": "InMOD&OutS", "OutMOD": "InCOD&OutMOD", "OutCOD": "OutCOD"}


def below(value: np.ndarray, threshold: float) -> np.ndarray:
    """1 where value <= threshold, 0 where above, -1 within the band around it."""
    out = np.where(value <= threshold, 1, 0)
    out[np.abs(value - threshold) <= BAND * threshold] = -1
    return out


class Node:
    """Plain-array view of one spec node."""

    def __init__(self, node):
        self.name = node.name
        self.names = tuple(p.name for p in node.parameters)
        self.lo = np.array([p.lo for p in node.parameters], dtype=float)
        self.hi = np.array([p.hi for p in node.parameters], dtype=float)
        self.span = np.where(self.hi > self.lo, self.hi - self.lo, 1.0)
        region = node.region
        self.polygon = np.array(region.vertices, dtype=float) if hasattr(region, "vertices") else None
        self.members = [
            (np.array([a for a, _ in m.halfspaces], dtype=float), np.array([b for _, b in m.halfspaces], dtype=float))
            for m in getattr(region, "members", ())
        ]
        self.vertices = {tuple(v) for m in getattr(region, "members", ()) for v in m.vertices}

    def columns(self, table: dict[str, np.ndarray]) -> np.ndarray:
        return np.column_stack([table[n] for n in self.names])


def _winding(q: np.ndarray, verts: np.ndarray) -> np.ndarray:
    x, y = q[:, 0], q[:, 1]
    wn = np.zeros(len(q), dtype=int)
    for (x1, y1), (x2, y2) in zip(verts, np.roll(verts, -1, axis=0)):
        cross = (x2 - x1) * (y - y1) - (x - x1) * (y2 - y1)
        wn += ((y1 <= y) & (y2 > y) & (cross > 0)).astype(int)
        wn -= ((y1 > y) & (y2 <= y) & (cross < 0)).astype(int)
    return wn


def _boundary_distance(q: np.ndarray, verts: np.ndarray) -> np.ndarray:
    best = np.full(len(q), np.inf)
    for a, b in zip(verts, np.roll(verts, -1, axis=0)):
        d = b - a
        t = np.clip(((q - a) @ d) / (d @ d), 0.0, 1.0)
        best = np.minimum(best, np.linalg.norm(q - (a + t[:, None] * d), axis=1))
    return best


def containment(node: Node, x: np.ndarray, tol: float = TOL) -> tuple[np.ndarray, np.ndarray]:
    """Closed-region verdicts, and the signed normalised margin (> 0 inside)."""
    if node.polygon is not None:
        q = (x - node.lo) / node.span
        verts = (node.polygon - node.lo) / node.span
        inside = _winding(q, verts) != 0
        dist = _boundary_distance(q, verts)
        margin = np.where(inside, dist, -dist)
        near = below(dist, tol)
        verdict = np.where(near == 1, 1, inside.astype(int))
        verdict[near == -1] = -1
        return verdict, margin
    margin = np.full(len(x), -np.inf)
    for a, b in node.members:
        slack = b[None, :] - x @ a.T  # raw a.x <= b
        margin = np.maximum(margin, (slack / np.linalg.norm(a * node.span, axis=1)).min(axis=1))
    return below(-margin, tol), margin


def extremes(node: Node, x: np.ndarray, tol: float = TOL) -> tuple[np.ndarray, np.ndarray]:
    """Count of parameters at a range bound, and whether that count is decided."""
    gap = np.minimum(np.abs(x - node.lo), np.abs(x - node.hi)) / node.span
    at = below(gap, tol)
    return (at == 1).sum(axis=1), (at >= 0).all(axis=1)


def registry_match(node: Node, x: np.ndarray, registry: np.ndarray) -> np.ndarray:
    """1 if a registry point lies within TOL (L-infinity, normalised), 0 if none, -1 if unclear."""
    if len(registry) == 0:
        return np.zeros(len(x), dtype=int)
    q = (x - node.lo) / node.span
    r = (registry - node.lo) / node.span
    nearest = np.concatenate([
        np.abs(q[i : i + 256, None, :] - r[None, :, :]).max(axis=2).min(axis=1)
        for i in range(0, len(q), 256)
    ])
    return below(nearest, TOL)


class Reference:
    """Expected labels of rows against the spec's allocation chain."""

    def __init__(self, doc, registry: np.ndarray | None = None):
        specified = [n for n in doc.nodes if n.extends is None and n.variant.value == "as_specified"]
        by_level = {n.level.value: n for n in specified}
        self.mlm = Node(by_level["mlm_odd"])
        self.mlc = Node(by_level["mlc_odd"])
        self.sod = Node(by_level["system_od"])
        self.ext = Node(next(n for n in doc.nodes if n.extends == self.mlm.name))
        self.registry = np.zeros((0, 2)) if registry is None else registry

    def category(self, node: Node, table, novelty: bool) -> tuple[np.ndarray, np.ndarray]:
        """Expected category per row against ``node``, and whether it is decided.

        Decision order as in the README: provenance mismatch (Inlier), then
        hidden-parameter exclusion (Novelty), then the geometric cases.
        """
        x = node.columns(table)
        inside, _ = containment(node, x)
        k, k_ok = extremes(node, x)
        decided = (inside >= 0) & k_ok
        cat = np.where(
            inside == 1,
            np.where(k == 0, "Nominal", np.where(k == 1, "EdgeCase", "FeasibleCornerCase")),
            np.where(k >= 2, "InfeasibleCornerCase", "Outlier"),
        ).astype(object)
        if novelty:
            temp = table["hidden:Temp"]
            has = ~np.isnan(temp)
            ext_in, _ = containment(self.ext, np.column_stack([x, np.nan_to_num(temp)]))
            cat[has & (inside == 1) & (ext_in == 0)] = "Novelty"
            decided &= ~(has & (inside == 1) & (ext_in < 0))
        raw = table["raw:Alt"]
        has_raw = ~np.isnan(raw)
        same = below(np.abs(np.nan_to_num(raw) - table["Alt"]) / node.span[node.names.index("Alt")], TOL)
        cat[has_raw & (same == 0) & (inside == 1)] = "Inlier"
        decided &= ~(has_raw & (same < 0))
        return cat, decided

    def labels(self, table) -> dict[str, np.ndarray]:
        """Expected kind, category, OutCOD annotations and coverage category per row."""
        in_mlm, _ = containment(self.mlm, self.mlm.columns(table))
        in_mlc, _ = containment(self.mlc, self.mlc.columns(table))
        flagged = table["in_sample"] == 1
        matched = registry_match(self.mlm, self.mlm.columns(table), self.registry)
        kind = np.where(
            in_mlm == 1,
            np.where(flagged | (matched == 1), "InS", "OutS"),
            np.where(in_mlc == 1, "OutMOD", "OutCOD"),
        ).astype(object)
        decided = (in_mlm >= 0) & ((in_mlm == 0) | flagged | (matched >= 0)) & ((in_mlm == 1) | (in_mlc >= 0))
        mlm_cat, mlm_ok = self.category(self.mlm, table, novelty=True)
        mlc_cat, mlc_ok = self.category(self.mlc, table, novelty=False)
        sod_cat, sod_ok = self.category(self.sod, table, novelty=False)
        cov_cat, cov_ok = self.category(self.mlm, table, novelty=False)
        outcod = kind == "OutCOD"
        category = np.where(in_mlm == 1, mlm_cat, np.where(outcod, "Any", mlc_cat)).astype(object)
        decided &= np.where(in_mlm == 1, mlm_ok, mlc_ok & (sod_ok | ~outcod)) & cov_ok
        return {
            "kind": kind,
            "category": category,
            "mlc_category": np.where(outcod, mlc_cat, ""),
            "sod_category": np.where(outcod, sod_cat, ""),
            "coverage_category": cov_cat,
            "decided": decided,
        }

    @staticmethod
    def partition_counts(labels) -> dict[tuple[str, str], int]:
        counts: dict[tuple[str, str], int] = {}
        for k, c in zip(labels["kind"], labels["category"]):
            key = (KIND_SET[k], c)
            counts[key] = counts.get(key, 0) + 1
        return counts

    def monitor_baseline(self, table) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Expected action of the "baseline" chain, stub output, and decidedness.

        range_monitor filters points outside MLMODD; extreme_value_monitor
        (tol 1e-6) replaces points at a range bound; the bilinear stub
        1 + 2*Mach + 0.001*Alt stays inside the output range [-100, 100].
        """
        x = self.mlm.columns(table)
        inside, _ = containment(self.mlm, x)
        k, k_ok = extremes(self.mlm, x, MONITOR_TOL)
        action = np.where(inside == 0, "filter", np.where(k > 0, "replace", "")).astype(object)
        stub = 1.0 + 2.0 * table["Mach"] + 0.001 * table["Alt"]
        return action, stub, (inside >= 0) & ((inside == 0) | k_ok)

    def ext_distance(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Exact normalised distance to the extension's boundary, and its containment verdict.

        The extension is MLMODD's polygon times the Temp range, a product of
        two convex sets: the distance from an outside point is the root sum
        of squares of its distances to the polygon and to the interval.
        """
        prism = {(*v, t) for v in map(tuple, self.mlm.polygon) for t in (self.ext.lo[2], self.ext.hi[2])}
        if prism != self.ext.vertices:
            raise ValueError(f"{self.ext.name} is not {self.mlm.name} x [{self.ext.names[2]}]")
        q = (x[:, :2] - self.ext.lo[:2]) / self.ext.span[:2]
        verts = (self.mlm.polygon - self.ext.lo[:2]) / self.ext.span[:2]
        poly_in = _winding(q, verts) != 0
        poly_d = _boundary_distance(q, verts)
        t = (x[:, 2] - self.ext.lo[2]) / self.ext.span[2]
        t_out = np.maximum(np.maximum(-t, t - 1.0), 0.0)
        outside = np.hypot(np.where(poly_in, 0.0, poly_d), t_out)
        inside = np.minimum(poly_d, np.minimum(t, 1.0 - t))
        verdict, _ = containment(self.ext, x)
        return np.where(poly_in & (t_out == 0.0), inside, outside), verdict


def in_stratum(node: Node, mode: str, x: np.ndarray) -> np.ndarray:
    """1 where a sampled point lies in the requested stratum, 0 where not, -1 undecided."""
    inside, margin = containment(node, x)
    k, k_ok = extremes(node, x)
    if mode == "nominal_interior":  # INSIDE proper: clear of the boundary band
        clear = below(margin, TOL)
        ok, undecided = (clear == 0) & (k == 0), (clear < 0) | ~k_ok
    else:
        want = {"edge": (1, k == 1), "feasible_corner": (1, k >= 2), "outlier_ring": (0, k < 2)}[mode]
        ok, undecided = (inside == want[0]) & want[1], (inside < 0) | ~k_ok
    out = ok.astype(int)
    out[undecided] = -1
    return out


def close(a: float, b: float, rel: float = 1e-9) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=rel)
