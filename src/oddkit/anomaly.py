"""Anomaly construction and region-aware sampling.

Inliers are built by corrupting a point through an invertible preprocessing
transform (:class:`oddkit.model.Transform`, re-exported here) while keeping the
original values as provenance; novelty points are built by projecting out
hidden parameters of an extension node. Sampling is seeded and reproducible
(counter-based Philox generator); each mode draws the points of one label
category, as :func:`oddkit.classify.geometric_categories` decides it.

Each sampler decides a block of candidates at a time with
:func:`geometry.region_containment` and keeps the accepted rows in draw
order; :func:`inject_inlier` and :func:`make_novelty` are the one-point cases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import geometry
from .classify import CATEGORY_LABELS, Chain, geometric_categories
from .errors import EmptyStratum, MissingExtension
from .model import DEFAULT_TOL, Containment, DataPoint, OddNode, Parameter, Polygon2D, Transform


@dataclass(frozen=True)
class Rejected:
    reason: str


def inject_inlier(p: DataPoint, t: Transform, node: OddNode) -> DataPoint | Rejected:
    """Corrupt a point through ``t``, keeping the original values as provenance.

    Accepted only if ``t`` moves the point's value of ``t.parameter``, a
    parameter of the node, by more than the boundary band, and the result
    lands inside the node's region (an inlier is, by definition, inside).
    """
    name, v = t.parameter, p.values.get(t.parameter)
    if name not in node.parameter_names or v is None or not abs(t(v) - v) > DEFAULT_TOL * node.parameter(name).span:
        return Rejected("transform did not corrupt the point")
    candidate = DataPoint(
        t.apply(p.values),
        provenance_raw=dict(p.values),
        hidden_values=dict(p.hidden_values) if p.hidden_values else None,
        in_sample=p.in_sample,
    )
    if geometry.point_in_region(candidate, node) == Containment.OUTSIDE:
        return Rejected("corrupted point does not land inside the region")
    return candidate


def make_novelty(base: DataPoint, chain: Chain) -> DataPoint | Rejected:
    """Project a point over extended parameters down to the declared ODD.

    Accepted only when the full point is outside the extension node while its
    projection is inside the base node: the projected point then carries the
    extra coordinates as hidden values and classifies as Novelty. The base
    node reads only its own parameters, so it decides the point as it is.
    """
    if chain.extended is None:
        raise MissingExtension("chain has no extension node")
    ext, mlm, values = chain.extended, chain.mlm, base.values
    if geometry.point_in_region(base, ext) != Containment.OUTSIDE:
        return Rejected("point is inside the extended node: not novelty")
    if geometry.point_in_region(base, mlm) == Containment.OUTSIDE:
        return Rejected("projection is outside the base node: outlier, not novelty")
    return DataPoint(
        {n: values[n] for n in mlm.parameter_names},
        hidden_values={n: values[n] for n in ext.parameter_names if n not in mlm.parameter_names},
        in_sample=base.in_sample,
    )


# -- sampling ------------------------------------------------------------------

MODES = ("nominal_interior", "edge", "feasible_corner", "outlier_ring")
# the label category of each mode's stratum
_STRATA = dict(zip(MODES, map(CATEGORY_LABELS.index, ("Nominal", "EdgeCase", "FeasibleCornerCase", "Outlier"))))

_OUTLIER_INFLATION = 0.2  # fraction of each parameter span added outside the box
_NOVELTY_INFLATION = 0.5  # extension-only parameters must be able to leave the extension
_MAX_REJECTION_FACTOR = 10_000
_BLOCK_ROWS = 256  # candidates drawn and decided at a time


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def _widened(param: Parameter, fraction: float) -> Parameter:
    """The parameter drawn uniformly over its range widened by ``fraction`` of its span."""
    pad = fraction * param.span
    return replace(param, lo=param.lo - pad, hi=param.hi + pad, distribution=None)


def _draw_column(rng: np.random.Generator, param: Parameter, k: int) -> np.ndarray:
    dist = param.distribution
    if dist is None or dist.kind == "uniform":
        return rng.uniform(param.lo, param.hi, k)
    if dist.kind == "triangular":
        a, m, b = dist.args
        return rng.triangular(a, m, b, k)
    if dist.kind == "histogram":
        bins = (len(dist.args) - 1) // 2
        edges = np.asarray(dist.args[: bins + 1], dtype=float)
        weights = np.asarray(dist.args[bins + 1 :], dtype=float)
        i = rng.choice(bins, size=k, p=weights / weights.sum())
        return rng.uniform(edges[i], edges[i + 1])
    raise ValueError(f"unknown distribution {dist.kind!r}")


def _points(X: np.ndarray, node: OddNode) -> list[DataPoint]:
    names = node.parameter_names
    return [DataPoint(dict(zip(names, row))) for row in X.tolist()]


def _in_stratum(X: np.ndarray, node: OddNode, mode: str) -> np.ndarray:
    """Which rows of ``X`` label as ``mode``'s category; a nominal_interior
    row must also be strictly inside, not on the boundary."""
    codes = geometry.region_containment(X, node)
    keep = geometric_categories(codes, X, node) == _STRATA[mode]
    return keep & (codes == geometry.INSIDE) if mode == "nominal_interior" else keep


def _draw_and_accept(n: int, seed: int, params, accept, what: str) -> list[DataPoint]:
    """The first ``n`` points ``accept`` keeps of seeded candidate blocks.

    Each block is a (k, d) array drawn column by column from ``params``'
    distributions; ``accept(X)`` gives the points it keeps of it, in row
    order. Raises EmptyStratum once ``_MAX_REJECTION_FACTOR * n`` candidates
    yield fewer than ``n`` points.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    rng = _rng(seed)
    out: list[DataPoint] = []
    drawn = 0
    limit = _MAX_REJECTION_FACTOR * n
    while len(out) < n and drawn < limit:
        k = min(_BLOCK_ROWS, limit - drawn)
        out += accept(np.column_stack([_draw_column(rng, p, k) for p in params]))
        drawn += k
    if len(out) < n:
        raise EmptyStratum(f"could not draw {n} {what} after {drawn} candidates")
    return out[:n]


def sample_region(node: OddNode, n: int, mode: str, seed: int) -> list[DataPoint]:
    """Draw ``n`` points from the requested stratum of a node's region.

    Deterministic given ``seed``. Every returned point classifies into exactly
    the requested stratum: strictly interior non-extreme (nominal_interior),
    exactly one parameter at an extreme and inside (edge; each candidate has
    one parameter pinned to one of its bounds), the vertices of
    :func:`geometry.region_vertices` with two or more extremes, repeated
    (feasible_corner), or outside the region but within the 20%-inflated
    parameter box (outlier_ring). An empty edge stratum raises before any
    draw, when :func:`geometry.bounds_reached` finds no bound.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if mode not in MODES:
        raise ValueError(f"unknown sampling mode {mode!r}")
    if n == 0:
        return []
    if mode == "feasible_corner":
        V = geometry.region_vertices(node)
        corners = _points(V[_in_stratum(V, node, mode)], node)
        if not corners:
            raise EmptyStratum(
                f"node {node.name!r} has no vertices with >= 2 parameters at extremes"
            )
        return [corners[i % len(corners)] for i in range(n)]
    if mode == "edge" and not geometry.bounds_reached(node).any():
        raise EmptyStratum(f"node {node.name!r} reaches no range bound: it has no edge points")
    params = node.parameters
    if mode == "outlier_ring":
        params = [_widened(p, _OUTLIER_INFLATION) for p in params]
    bounds = np.array([(p.lo, p.hi) for p in params]).ravel()  # p0 lo, p0 hi, p1 lo, ...

    def accept(X):
        if mode == "edge":  # row i of a block pins its parameter to bounds[i mod 2d]
            pair = np.arange(len(X)) % bounds.size
            X[np.arange(len(X)), pair // 2] = bounds[pair]
        return _points(X[_in_stratum(X, node, mode)], node)

    return _draw_and_accept(n, seed, params, accept, f"{mode} points for node {node.name!r}")


def sample_inliers(node: OddNode, n: int, transforms: tuple[Transform, ...], seed: int) -> list[DataPoint]:
    """Draw ``n`` inliers of ``node``, deterministic given ``seed``.

    Nominal-interior candidates are corrupted through each transform in turn,
    as :func:`inject_inlier` corrupts one point, a block at a time: each
    transform moves its parameter's column, and a row is kept while the move
    exceeds the boundary band and the row stays in the region. A kept row
    has its uncorrupted values as provenance. A transform that can corrupt
    no point raises EmptyStratum before any draw: one of a parameter the
    node lacks, an identity, one that moves no value of the parameter's
    range past the boundary band, or, on a polygon, one that moves every
    such value out of the box grown by that band (a polygon lies in its box;
    a polytope's halfspaces may reach past it).
    """
    if not transforms:
        raise ValueError("an inlier needs at least one transform")
    params = {p.name: p for p in node.parameters}
    for t in transforms:
        if t.parameter not in params:
            reason = f"node {node.name!r} has no parameter {t.parameter!r}"
        elif t(0.0) == 0.0 and t(1.0) == 1.0:  # an affine map that fixes two points
            reason = "it is the identity"
        elif _within_band(t, params[t.parameter]):
            reason = "it moves no value of the parameter's range past the boundary band"
        elif isinstance(node.region, Polygon2D) and _past_band(t, params[t.parameter]):
            reason = "it moves every value of the parameter's range out of the box's boundary band"
        else:
            continue
        raise EmptyStratum(f"transform {t.kind} of {t.parameter!r} corrupts no point: {reason}")
    names = node.parameter_names
    steps = [(t, names.index(t.parameter), DEFAULT_TOL * params[t.parameter].span) for t in transforms]

    def accept(X):
        X = X[_in_stratum(X, node, "nominal_interior")]
        Y, keep = X.copy(), np.ones(len(X), dtype=bool)
        with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN moves are decided as such
            for t, j, band in steps:
                rows = np.flatnonzero(keep)
                before = Y[rows, j]
                Y[rows, j] = after = t(before)
                rows = rows[np.abs(after - before) > band]
                keep[:] = False
                keep[rows] = geometry.region_containment(Y[rows], node) != geometry.OUTSIDE
        return [
            DataPoint(dict(zip(names, y)), provenance_raw=dict(zip(names, x)))
            for x, y in zip(X[keep].tolist(), Y[keep].tolist())
        ]

    return _draw_and_accept(n, seed, node.parameters, accept, f"inliers for node {node.name!r}")


def _within_band(t: Transform, p: Parameter) -> bool:
    """Whether :func:`inject_inlier` finds no value of ``p``'s range moved by ``t``, however
    it rounds: ``|t(v) - v|`` is convex in v, so largest at ``lo`` or ``hi``, give or take ulps."""
    slack = 4 * math.ulp(max(abs(x) for v in (p.lo, p.hi) for x in (v, t(v))))
    return max(abs(t(v) - v) for v in (p.lo, p.hi)) + slack <= DEFAULT_TOL * p.span


def _past_band(t: Transform, p: Parameter) -> bool:
    """Whether ``t`` moves every value of ``p``'s range, grown by the boundary
    band, out of that grown range, however it rounds. Before each transform a
    kept row's value lies in the grown range: it was drawn in the range, and
    a row past the band is outside a region that lies in the box. ``t`` is
    affine, so it maps the grown range onto the interval between the images
    of its ends."""
    band = DEFAULT_TOL * p.span
    lo, hi = p.lo - band, p.hi + band
    least, most = sorted((t(lo), t(hi)))
    slack = 4 * math.ulp(max(abs(lo), abs(hi), abs(least), abs(most)))
    return least - slack > hi or most + slack < lo


def sample_novelty(chain: Chain, n: int, seed: int) -> list[DataPoint]:
    """Draw ``n`` novelty points of the chain's extension, deterministic given ``seed``.

    Candidates are uniform over the extension's box, with the parameters the
    base node lacks widened by half their span on each side. A block of them
    is decided as :func:`make_novelty` decides one point: a row is kept when
    it is outside the extension and its base parameters are inside the base
    node, and it is written as the base node's values with the others hidden.
    """
    ext = chain.extended
    if ext is None:
        raise MissingExtension("chain has no extension node")
    names, base = ext.parameter_names, chain.mlm.parameter_names
    box = [_widened(p, 0.0 if p.name in base else _NOVELTY_INFLATION) for p in ext.parameters]
    hidden = [name for name in names if name not in base]
    order = [names.index(name) for name in (*base, *hidden)]  # the base's columns, then the hidden ones

    def accept(X):
        outside = geometry.region_containment(X, ext) == geometry.OUTSIDE
        keep = outside & (geometry.region_containment(X[:, order[: len(base)]], chain.mlm) != geometry.OUTSIDE)
        rows = X[keep][:, order].tolist()
        return [DataPoint(dict(zip(base, row)), hidden_values=dict(zip(hidden, row[len(base) :]))) for row in rows]

    return _draw_and_accept(n, seed, box, accept, f"novelty points for extension {ext.name!r}")
