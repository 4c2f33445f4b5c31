"""Independent geometry oracles used to audit the library's containment code.

Deliberately implemented with different algorithms than the package: polygon
membership uses the winding number (the package uses even-odd crossing), and
polytope membership evaluates halfspaces directly in raw coordinates (the
package normalizes and unit-scales the rows), and range extremes are two
interval tests (the package takes the distance to the nearer bound), and the
boundary distance of a polygon-times-interval prism is computed in closed form
(the package projects onto every face's affine hull), and the distance from
an outside point to a convex polytope is found by Wolfe's nearest-point
iteration over its vertices (the package evaluates a precomputed face table),
and near matches are found by comparing every pair of rows (the package
looks candidates up in a grid of sorted cell keys).

One reference is a scalar polygon test: the distance to each edge segment
and the even-odd crossing, edge by edge in Python floats from the node's
vertices, with no cell grid (the package reads a grid of cells first, and
broadcasts the rest over rows x edges in numpy). Another is the package's
one-point polytope distance as a loop over members and faces (the package
generates one unrolled function per node).

Row-by-row references sit beside them: the CSV dataset parser that reads
one row at a time into a DataPoint (the package converts whole columns),
the per-point loop of the set-algebra audit (the package decides its rules
as boolean columns), the label and verdict CSV writers that write one
row at a time from the LabelRows and MonitorVerdicts (the package writes
each combination of codes once), and the ODD-update proposal that gathers
its evidence point by point from the value dicts (the package selects it
from the value columns).
"""

from __future__ import annotations

import csv
import functools
import io
import math
import operator

import numpy as np

from oddkit import geometry
from oddkit.analysis import RangeChange, UpdateProposal
from oddkit.model import Containment, DataPoint


def winding_number(pt: tuple[float, float], vertices) -> int:
    """Winding number of the closed polygon around ``pt``."""
    x, y = pt
    wn = 0
    n = len(vertices)
    for i in range(n):
        x1, y1 = vertices[i]
        x2, y2 = vertices[(i + 1) % n]
        cross = (x2 - x1) * (y - y1) - (x - x1) * (y2 - y1)
        if y1 <= y:
            if y2 > y and cross > 0:
                wn += 1
        elif y2 <= y and cross < 0:
            wn -= 1
    return wn


def polygon_contains(pt: tuple[float, float], vertices) -> bool:
    return winding_number(pt, vertices) != 0


def _normalized(x, node) -> tuple[float, ...]:
    return tuple((v - p.lo) / p.span for v, p in zip(x, node.parameters))


def _edges(node):
    """The normalized polygon's edges as ``(ax, ay, by, dx, dy, dx² + dy²)``."""
    verts = [_normalized(v, node) for v in node.region.vertices]
    for (ax, ay), (bx, by) in zip(verts, verts[1:] + verts[:1]):
        dx, dy = bx - ax, by - ay
        yield ax, ay, by, dx, dy, dx * dx + dy * dy


def _edge_distances(xhat, node) -> list[float]:
    """Per edge, the ``math.hypot`` of the offset of ``xhat`` from its nearest
    point of the segment: t clamped as ``min(max(t, 0.0), 1.0)``, which keeps a
    NaN t NaN, as the array engine's ``np.minimum(np.maximum(t, 0.0), 1.0)``
    does (``max(0.0, min(1.0, t))`` would make it 1.0); a degenerate edge
    divides by 1, so t is 0 where the point is finite."""
    px, py = xhat
    out = []
    for ax, ay, _, dx, dy, sq in _edges(node):
        t = min(max(((px - ax) * dx + (py - ay) * dy) / (sq or 1.0), 0.0), 1.0)
        out.append(math.hypot(px - (ax + t * dx), py - (ay + t * dy)))
    return out


def polygon_distance(x, node) -> float:
    """``distance_to_boundary`` of a raw point in a polygon node: NaN for a
    NaN coordinate and inf for an infinite one, else the least of the edge
    distances (:func:`_edge_distances`), none of which is then NaN."""
    xhat = _normalized(x, node)
    if not all(map(math.isfinite, xhat)):
        return math.nan if any(map(math.isnan, xhat)) else math.inf
    return min(_edge_distances(xhat, node))


def exact_polygon_containment(x: tuple[float, float], node, tol: float) -> Containment:
    """One raw point's containment in a polygon node, edge by edge: on the
    boundary within ``tol`` of some edge, else inside by an odd count of
    edges that straddle the point's height right of it (even-odd crossing)."""
    px, py = xhat = _normalized(x, node)
    if any(d <= tol for d in _edge_distances(xhat, node)):
        return Containment.ON_BOUNDARY
    crossings = sum(
        (ay > py) != (by > py) and px < ax + (py - ay) * dx / dy for ax, ay, by, dx, dy, _ in _edges(node)
    )
    return Containment.INSIDE if crossings % 2 else Containment.OUTSIDE


def slacks(xhat, A, b) -> list[float]:
    """Signed slack ``b - a.xhat`` of each row of a member's unit rows
    ``(A, b)``, each dot product folded left to right from 0.0, the order in
    which the array engine adds the columns."""
    return [
        bi - functools.reduce(operator.add, map(operator.mul, a, xhat), 0.0)
        for a, bi in zip(A.tolist(), b.tolist())
    ]


def polytope_distance(x, node) -> float:
    """``distance_to_boundary`` of a raw point in a polytope node, as a loop
    over the members: each member's slacks by the left fold (:func:`slacks`);
    outside, the violation of its first most violated face k where moving
    back along face k's normal by it leaves every face satisfied, read from
    the Gram matrix ``A A^T``, and else the member's face table."""
    g = geometry._geometry(node)
    xhat = g.normalize(x)
    if not all(map(math.isfinite, xhat)):
        return math.nan if any(map(math.isnan, xhat)) else math.inf
    best = math.inf
    for (A, b), table in zip(g.members, g.face_tables()):
        s = slacks(xhat, A, b)
        margin = min(s)
        if not margin >= 0:
            k = s.index(margin)
            gram = np.where(np.eye(len(A), dtype=bool), 1.0, A @ A.T)[k].tolist()
            if margin >= -geometry._NO_OVERFLOW and all(sj >= gj * margin for sj, gj in zip(s, gram)):
                margin = -margin
            else:
                margin = geometry._distance_outside(xhat, table)
        best = min(best, margin)
    return best


def polytope_contains(x: tuple[float, ...], halfspaces) -> bool:
    """Direct a.x <= b evaluation in raw coordinates, no scaling tricks."""
    return all(
        sum(ai * xi for ai, xi in zip(a, x)) <= b for a, b in halfspaces
    )


def union_contains(x: tuple[float, ...], members) -> bool:
    return any(polytope_contains(x, m.halfspaces) for m in members)


def at_range_bound(v: float, lo: float, hi: float, band: float) -> bool:
    """Within ``band`` of either end of [lo, hi], tested as two closed intervals."""
    return lo - band <= v <= lo + band or hi - band <= v <= hi + band


def _segment_distance(p, a, b) -> float:
    """Distance from p to segment ab, by projecting onto the segment's line."""
    (px, py), (ax, ay), (bx, by) = p, a, b
    ux, uy = bx - ax, by - ay
    t = ((px - ax) * ux + (py - ay) * uy) / (ux * ux + uy * uy)
    t = min(1.0, max(0.0, t))
    return math.dist(p, (ax + t * ux, ay + t * uy))


def prism_boundary_distance(x, vertices, t_bounds, ranges) -> float:
    """Distance from ``x = (u, v, t)`` to the boundary of the prism
    ``polygon(vertices) x [t_bounds]``, every axis scaled to its range.

    Inside, the nearest boundary point is on the polygon's side walls or on
    a cap; outside, the prism is a product set, so the distance combines the
    distance to the polygon and to the interval in quadrature.
    """
    (u0, u1), (v0, v1), (t0, t1) = ranges
    u, v = (x[0] - u0) / (u1 - u0), (x[1] - v0) / (v1 - v0)
    t = (x[2] - t0) / (t1 - t0)
    lo, hi = ((b - t0) / (t1 - t0) for b in t_bounds)
    poly = [((a - u0) / (u1 - u0), (b - v0) / (v1 - v0)) for a, b in vertices]
    to_wall = min(_segment_distance((u, v), poly[i - 1], poly[i]) for i in range(len(poly)))
    in_polygon = polygon_contains((u, v), poly)
    if in_polygon and lo <= t <= hi:
        return min(to_wall, t - lo, hi - t)
    return math.hypot(0.0 if in_polygon else to_wall, max(lo - t, t - hi, 0.0))


# Major plus minor cycles of wolfe_distance; a hull of a few dozen vertices in
# a handful of dimensions takes well under 100.
WOLFE_MAX_STEPS = 1000
WOLFE_EPS = 1e-12


def wolfe_distance(x, vertices) -> float:
    """Euclidean distance from a point to the convex hull of vertices.

    Wolfe's nearest-point algorithm ("Finding the nearest point in a
    polytope", Math. Prog. 1976) on the vertices shifted by ``-x``: a corral
    of affinely independent vertices grows by the vertex that most decreases
    the distance (major cycle) and drops the vertices whose weight would turn
    negative (minor cycles).
    """
    P = np.asarray(vertices, dtype=float) - np.asarray(x, dtype=float)
    sq = (P * P).sum(axis=1)
    corral, w = [int(np.argmin(sq))], np.ones(1)
    major = True
    for _ in range(WOLFE_MAX_STEPS):
        if major:
            y = w @ P[corral]
            j = int(np.argmin(P @ y))
            if y @ y - P[j] @ y <= WOLFE_EPS * sq.max() or j in corral:
                return math.sqrt(float(y @ y))
            corral.append(j)
            w = np.append(w, 0.0)
        # weights of the least-norm point of the corral's affine hull: G v = c 1
        # with G = Q Q^T under sum(v) = 1, and adding 1 1^T to G keeps it regular
        Q = P[corral]
        v = np.linalg.solve(Q @ Q.T + 1.0, np.ones(len(corral)))
        v /= v.sum()
        major = bool((v > 0).all())
        if major:
            w = v
            continue
        # move from w towards v until the first weight reaches zero, then drop it
        falling = v < w
        theta = min(1.0, (w[falling] / (w[falling] - v[falling])).min(initial=1.0))
        w = (1 - theta) * w + theta * v
        keep = w > WOLFE_EPS
        corral = [c for c, k in zip(corral, keep) if k]
        w = w[keep] / w[keep].sum()
    raise ArithmeticError(f"nearest point of a {len(P)}-vertex hull not found in {WOLFE_MAX_STEPS} steps")


def near_matches(Q, R, lo, span, tol) -> list[bool]:
    """Per row of ``Q``: does some row of ``R`` lie within ``tol`` of it in
    every coordinate scaled as ``(x - lo) / span``? Every pair of rows is
    compared; a row with a non-finite scaled coordinate matches nothing."""

    def scaled(rows):
        out = []
        for row in rows:
            x = [(v - l) / s for v, l, s in zip(row, lo, span)]
            out.append(x if all(map(math.isfinite, x)) else None)
        return out

    refs = [r for r in scaled(R) if r is not None]
    return [
        q is not None and any(all(abs(a - b) <= tol for a, b in zip(q, r)) for r in refs)
        for q in scaled(Q)
    ]


# -- the row-by-row dataset parser ---------------------------------------------

_TRUE = {"1", "true", "t", "yes"}
_FALSE = {"0", "false", "f", "no"}


def _number(cell: str) -> float:
    if "," in cell or "_" in cell:
        raise ValueError(f"unparseable numeric {cell!r}")
    try:
        value = float(cell)
    except ValueError:
        raise ValueError(f"unparseable numeric {cell!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"non-finite numeric {cell!r}")
    return value


def _boolean(cell: str) -> bool:
    low = cell.lower()
    if low in _TRUE:
        return True
    if low in _FALSE:
        return False
    raise ValueError(f"unparseable in_sample flag {cell!r}")


def parse_rows(text: str, names: tuple[str, ...]):
    """The dataset format read one row at a time: (diagnostics as
    ``(severity, code, message, line, column)``, points).

    A row with more cells than the header, unless blank, or a record the
    reader raises on (a cell over its field limit), is excluded (E103) at
    the line its record starts on, as the reader counts lines; when that
    record's lines hold an odd number of quotes, the lines up to the one
    that closes its open quoted cell are skipped. A header the reader raises
    on is an error (E101). A row no longer than the header
    whose recognized cells are all blank is skipped. A ``hidden:`` column
    without a name is an unrecognized column (W101); the cells of such a
    column are never read.
    """
    text = io.StringIO(text.removeprefix("\ufeff"), newline=None).read()  # universal newlines
    lines = text.split("\n")  # only "\n" ends a line, as csv.reader reads one
    skipped = 0
    while skipped < len(lines) and lines[skipped].startswith("#"):
        skipped += 1
    stream = io.StringIO("\n".join(lines[skipped:]))
    reader = csv.reader(stream)
    diagnostics, points = [], []
    try:
        header = next(reader)
    except StopIteration:
        return [("error", "E101", "empty dataset: no header row", 1, 1)], []
    except csv.Error as exc:
        return [("error", "E101", f"unreadable header row: {exc}", skipped + 1, 1)], []
    header = [h.strip() for h in header]
    seen = set()
    for i, col in enumerate(header):
        if col in seen:
            diagnostics.append(("error", "E102", f"duplicate column {col!r}", skipped + 1, i + 1))
        seen.add(col)
    roles = []
    for i, col in enumerate(header):
        if col in names:
            roles.append((i, "param", col))
        elif col == "in_sample":
            roles.append((i, "in_sample", col))
        elif col.startswith("raw:") and col[4:] in names:
            roles.append((i, "raw", col[4:]))
        elif col.startswith("hidden:") and col[7:]:
            roles.append((i, "hidden", col[7:]))
        else:
            diagnostics.append(("warning", "W101", f"unrecognized column {col!r} ignored", skipped + 1, i + 1))
    for name in names:
        if name not in header:
            diagnostics.append(("error", "E101", f"missing required parameter column {name!r}", skipped + 1, 1))
    if any(d[0] == "error" for d in diagnostics):
        return diagnostics, []

    ended = reader.line_num  # the lines of the records read so far
    extra = 0  # the lines skipped inside quoted cells that a failed record left open
    while True:
        line = skipped + extra + ended + 1
        try:
            row = next(reader)
        except StopIteration:
            break
        except csv.Error as exc:  # the reader goes on from the next line
            diagnostics.append(("warning", "E103", f"row excluded: {exc}", line, 1))
            ended = reader.line_num
            # an odd number of quotes in the record's lines leaves a quoted cell
            # open: its lines up to the one that closes it are no records
            quotes = "".join(lines[line - 1 : skipped + extra + ended]).count('"')
            while quotes % 2 and (rest := stream.readline()):
                quotes += rest.count('"')
                extra += 1
            continue
        ended = reader.line_num
        if len(row) > len(header):
            if "".join(row).strip():
                message = f"row excluded: {len(row)} cells for the {len(header)} columns of the header"
                diagnostics.append(("warning", "E103", message, line, 1))
            continue
        row += [""] * (len(header) - len(row))
        if not "".join(row[i] for i, _, _ in roles).strip():  # no recognized cell holds anything
            continue
        values, raw, hidden, in_sample = {}, {}, {}, None
        try:
            for i, role, key in roles:
                cell = row[i].strip()
                if role == "param":
                    if not cell:
                        raise ValueError(f"empty value for parameter {key!r}")
                    values[key] = _number(cell)
                elif not cell:
                    continue
                elif role == "raw":
                    raw[key] = _number(cell)
                elif role == "hidden":
                    hidden[key] = _number(cell)
                else:
                    in_sample = _boolean(cell)
        except ValueError as exc:
            diagnostics.append(("warning", "E103", f"row excluded: {exc}", line, 1))
            continue
        points.append(DataPoint(values, raw or None, hidden or None, in_sample))
    return diagnostics, points


# -- the per-point set-algebra audit -----------------------------------------------

KIND_VALUES = ("InS", "OutS", "OutMOD", "OutCOD")


def set_algebra_violations(labels, verdicts) -> list[tuple[int, str]]:
    """Per point, in order, the set-algebra rules its label breaks.

    ``labels`` holds one label per point (None past the last given label);
    a label that equals no kind's value is an unlabeled point. ``verdicts``
    holds per point ``(in_mlm, in_mlc, in_sample)`` decided directly.
    """
    violations = []
    for i, (label, (in_mlm, in_mlc, in_sample)) in enumerate(zip(labels, verdicts)):
        if label not in KIND_VALUES:
            violations.append((i, "totality: unlabeled point"))
            continue
        in_mod = label in ("InS", "OutS")
        in_cod = in_mod or label == "OutMOD"
        if in_mod != in_mlm:
            violations.append((i, "InMOD = InS ∪ OutS"))
        if label == "InS" and not in_sample:
            violations.append((i, "InS ∩ OutS = ∅"))
        if label == "OutS" and in_mlm and in_sample:
            violations.append((i, "InS ∩ OutS = ∅"))
        if label == "OutMOD" and (in_mlm or not in_mlc):
            violations.append((i, "InMOD ∩ OutMOD = ∅"))
        if in_cod != in_mlc:
            violations.append((i, "InCOD = InMOD ∪ OutMOD"))
        if label == "OutCOD" and in_mlc:
            violations.append((i, "InCOD ∩ OutCOD = ∅"))
    return violations


# -- the row-by-row label and verdict writers --------------------------------------


def _csv(header, rows) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    return out.getvalue()


def annotations_cell(annotations: dict[str, str]) -> str:
    return ";".join(f"{k}={v}" for k, v in sorted(annotations.items()))


def labels_csv(labels) -> str:
    """The label CSV written row by row from the LabelRows iterating
    ``labels`` gives; the one-node form when ``labels.kinds`` is None."""
    if labels.kinds is None:
        header = ["row", "category", "on_boundary", "annotations"]
        rows = ([r.row, r.category, int(r.on_boundary), annotations_cell(r.annotations)] for r in labels)
    else:
        header = ["row", "kind", "category", "node", "on_boundary", "annotations"]
        rows = (
            [r.row, r.kind.value, r.category, r.node, int(r.on_boundary), annotations_cell(r.annotations)]
            for r in labels
        )
    return _csv(header, rows)


def verdicts_csv(verdicts) -> str:
    """The verdict CSV written row by row from MonitorVerdicts."""
    return _csv(
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
            for v in verdicts
        ),
    )


# -- the point-by-point ODD-update proposal ----------------------------------------


def propose_odd_update(observed: list[DataPoint], node, tol: float) -> UpdateProposal:
    """The range changes and new-parameter candidates, gathered point by point."""
    proposal = UpdateProposal()
    for param in node.parameters:
        band = tol * param.span
        above = [p.values[param.name] for p in observed if p.values.get(param.name, -math.inf) > param.hi + band]
        below = [p.values[param.name] for p in observed if p.values.get(param.name, math.inf) < param.lo - band]
        if above:
            proposal.range_changes.append(
                RangeChange(param.name, "hi", param.hi, max(above), len(above), float(np.median(above)), max(above))
            )
        if below:
            proposal.range_changes.append(
                RangeChange(param.name, "lo", param.lo, min(below), len(below), float(np.median(below)), min(below))
            )
    proposal.new_parameter_candidates = sorted(
        {name for p in observed if p.hidden_values for name in p.hidden_values if name not in node.parameter_names}
    )
    return proposal
