"""Bit-for-bit agreement of the one-point geometry calls and the array engine
with the outputs stored in ``data/geometry_bits.npz``.

The outputs were first stored before the per-node geometry record existed,
when every call rebuilt its arrays from the node's tuples; the record must
change where the numbers come from, never the numbers. They were written
again when a point outside a member whose projection onto the most violated
facet lies in the member got that facet's violation as its distance, in
place of the face table's least squared distance: 682 of the 7,492
distances, all outside a member of prism, simplex_4d, octahedron or
inward_rounded_prism, moved by at most 4.4e-16 and none below Wolfe's
distance by more than 1e-12, while every coordinate, containment verdict,
containment code and inside-member distance stayed bit-identical. The
probe sets are the boundary probes of the six polytopes of the face-table
tests, and seeded points on and near the vertices and edges of two
polygons. Run this module as a script to write the file from the code at
hand:

    PYTHONPATH=src python tests/test_geometry_bits.py
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

import oddkit
from oddkit import geometry
from oddkit.model import DataPoint

from test_geometry import (
    _boundary_probes,
    _box_with_slack_halfspace,
    _octahedron,
    _simplex_4d,
    _triangle_prism,
    _two_boxes,
)

FIXTURE = Path(__file__).parent / "data" / "geometry_bits.npz"
SPEC = Path(__file__).parent / "data" / "flight_envelope_extended.odd"
POLYTOPES = {
    "prism": None,
    "simplex_4d": _simplex_4d,
    "octahedron": _octahedron,
    "box": _box_with_slack_halfspace,
    "two_boxes": _two_boxes,
    "inward_rounded_prism": lambda: _triangle_prism((0.333, 0.999)),
}
POLYGONS = ("MLMODD", "MLCODD_spec")


def _polygon_probes(node, rng, per_edge=16, n_uniform=200):
    """The vertices and seeded points on each edge, each pushed off in a
    random direction by 0, 1e-9, 1e-6 and 1e-3 of the spans, plus points
    over the 30%-inflated box."""
    V = np.array(node.region.vertices, dtype=float)
    W = np.roll(V, -1, axis=0)
    t = rng.uniform(size=(len(V), per_edge, 1))
    snapped = np.vstack([V, (V[:, None] + t * (W - V)[:, None]).reshape(-1, 2)])
    snapped = np.repeat(snapped, 4, axis=0)
    span = np.array([p.span for p in node.parameters])
    lo = np.array([p.lo for p in node.parameters])
    push = np.tile([0.0, 1e-9, 1e-6, 1e-3], len(snapped) // 4)[:, None]
    snapped += rng.normal(size=snapped.shape) * span * push
    return np.vstack([snapped, rng.uniform(lo - 0.3 * span, lo + 1.3 * span, size=(n_uniform, 2))])


def _cases():
    doc = oddkit.parse_spec(SPEC.read_text(encoding="utf-8"))
    for name, make in POLYTOPES.items():
        node = doc.node("MLMODD_ext") if make is None else make()
        yield name, node, _boundary_probes(node, np.random.default_rng(2024))
    for seed, name in enumerate(POLYGONS):
        node = doc.node(name)
        yield name, node, _polygon_probes(node, np.random.default_rng(seed))


def _outputs(node, X):
    points = [DataPoint(dict(zip(node.parameter_names, x))) for x in X.tolist()]
    dist = np.array([geometry.distance_to_boundary(p, node) for p in points])
    inside = np.array([geometry.CONTAINMENT.index(geometry.point_in_region(p, node)) for p in points], dtype=np.int8)
    return dist, inside, geometry.region_containment(X, node)


@pytest.fixture(scope="module")
def stored():
    with np.load(FIXTURE) as data:
        return dict(data)


@pytest.mark.parametrize("case", [*POLYTOPES, *POLYGONS])
def test_geometry_outputs_are_bit_identical_to_the_stored_ones(case, stored):
    node, X = next((node, X) for name, node, X in _cases() if name == case)
    assert np.array_equal(stored[f"{case}.X"].view(np.uint64), X.view(np.uint64))
    dist, inside, codes = _outputs(node, X)
    assert np.array_equal(stored[f"{case}.distance"].view(np.uint64), dist.view(np.uint64))
    assert np.array_equal(stored[f"{case}.point_in_region"], inside)
    assert np.array_equal(stored[f"{case}.region_containment"], codes)
    assert np.array_equal(codes, inside)


if __name__ == "__main__":
    arrays = {}
    for name, node, X in _cases():
        dist, inside, codes = _outputs(node, X)
        arrays |= {f"{name}.X": X, f"{name}.distance": dist,
                   f"{name}.point_in_region": inside, f"{name}.region_containment": codes}
    np.savez_compressed(FIXTURE, **arrays)
    print(f"wrote {FIXTURE}: {sum(len(a) for k, a in arrays.items() if k.endswith('.X'))} points")
