from __future__ import annotations

import math
import time

import pytest
from click.testing import CliRunner

import oddkit
from oddkit import anomaly, geometry
from oddkit.cli import cli
from oddkit.model import Containment, DataPoint


@pytest.fixture()
def mlm(extended_doc):
    return extended_doc.node("MLMODD")


def test_transform_inverse_round_trip():
    vals = {"Alt": 2000.0, "Mach": 0.3}
    for t in (
        anomaly.Transform("scale", "Alt", factor=10.0),
        anomaly.Transform("offset", "Alt", offset=-500.0),
        anomaly.Transform("unit_swap", "Alt", factor=3.28084),
    ):
        out = t.inverse().apply(t.apply(vals))
        assert out["Alt"] == pytest.approx(vals["Alt"], rel=1e-12)
        assert out["Mach"] == vals["Mach"]
    with pytest.raises(ValueError):
        anomaly.Transform("scale", "Alt", factor=0.0)
    with pytest.raises(ValueError):
        anomaly.Transform("squash", "Alt")


def test_inject_inlier_accept_and_reject(mlm):
    t = anomaly.Transform("scale", "Alt", factor=0.1)
    p = DataPoint({"Mach": 0.35, "Alt": 12000.0})
    out = anomaly.inject_inlier(p, t, mlm)
    assert isinstance(out, DataPoint)
    assert out.values["Alt"] == pytest.approx(1200.0)
    assert out.provenance_raw == {"Mach": 0.35, "Alt": 12000.0}
    # identity corruption is rejected
    ident = anomaly.Transform("scale", "Alt", factor=1.0)
    assert isinstance(anomaly.inject_inlier(p, ident, mlm), anomaly.Rejected)
    # corruption that leaves the region is rejected
    out_of_region = anomaly.Transform("scale", "Alt", factor=10.0)
    assert isinstance(anomaly.inject_inlier(p, out_of_region, mlm), anomaly.Rejected)


def test_make_novelty_accept_and_reject(chain):
    inside_ext = DataPoint({"Mach": 0.3, "Alt": 14000.0, "Temp": 5.0})
    assert isinstance(anomaly.make_novelty(inside_ext, chain), anomaly.Rejected)
    hot = DataPoint({"Mach": 0.3, "Alt": 14000.0, "Temp": 20.0})
    out = anomaly.make_novelty(hot, chain)
    assert isinstance(out, DataPoint)
    assert out.hidden_values == {"Temp": 20.0}
    assert "Temp" not in out.values
    # projection outside the base is an outlier, not a novelty
    far = DataPoint({"Mach": 0.9, "Alt": 14000.0, "Temp": 20.0})
    assert isinstance(anomaly.make_novelty(far, chain), anomaly.Rejected)


def test_make_novelty_requires_extension(base_doc):
    chain = oddkit.build_chain(base_doc)
    assert chain.extended is None
    with pytest.raises(oddkit.MissingExtension):
        anomaly.make_novelty(DataPoint({"Mach": 0.3, "Alt": 14000.0, "Temp": 20.0}), chain)


@pytest.mark.parametrize("mode", anomaly.MODES)
def test_sampling_modes_land_in_their_stratum(mlm, mode):
    points = anomaly.sample_region(mlm, 50, mode, seed=3)
    assert len(points) == 50
    for p in points:
        inside = geometry.point_in_region(p, mlm) != Containment.OUTSIDE
        k = len(geometry.params_at_extreme(p, mlm))
        if mode == "nominal_interior":
            assert inside and k == 0
        elif mode == "edge":
            assert inside and k == 1
        elif mode == "feasible_corner":
            assert inside and k >= 2
        else:  # outlier_ring
            assert not inside and k < 2
            for v, param in zip(geometry.coords(p, mlm), mlm.parameters):
                assert param.lo - 0.2 * param.span <= v <= param.hi + 0.2 * param.span
    # each stratum is its label category, decided by the labels' own table
    category = dict(zip(anomaly.MODES, ("Nominal", "EdgeCase", "FeasibleCornerCase", "Outlier")))[mode]
    labels = oddkit.classify_points(points, mlm, declared_transform=())
    assert {label.category for label in labels} == {category}


@pytest.mark.parametrize("node_name", ["MLMODD", "MLMODD_ext"])
def test_edge_points_are_distinct_and_follow_the_seed(extended_doc, node_name):
    node = extended_doc.node(node_name)
    a = anomaly.sample_region(node, 300, "edge", seed=5)
    b = anomaly.sample_region(node, 300, "edge", seed=6)
    values = [tuple(p.values.items()) for p in a]
    assert len(set(values)) == 300
    assert set(values).isdisjoint(tuple(p.values.items()) for p in b)
    labels = oddkit.classify_points(a, node)
    assert {label.category for label in labels} == {"EdgeCase"}
    assert all(len(geometry.params_at_extreme(p, node)) == 1 for p in a)


def test_sampling_is_seed_deterministic(mlm):
    a = anomaly.sample_region(mlm, 20, "nominal_interior", seed=11)
    b = anomaly.sample_region(mlm, 20, "nominal_interior", seed=11)
    c = anomaly.sample_region(mlm, 20, "nominal_interior", seed=12)
    assert [p.values for p in a] == [p.values for p in b]
    assert [p.values for p in a] != [p.values for p in c]


def test_empty_stratum_raises():
    node = oddkit.OddNode(
        "tri",
        oddkit.Level.MLM_ODD,
        (oddkit.Parameter("x", "u", 0.0, 1.0), oddkit.Parameter("y", "u", 0.0, 1.0)),
        oddkit.Polygon2D(((0.3, 0.3), (0.7, 0.3), (0.5, 0.7))),
    )
    # the triangle touches no box bound: no edge or corner stratum exists
    with pytest.raises(oddkit.EmptyStratum):
        anomaly.sample_region(node, 5, "feasible_corner", seed=0)
    with pytest.raises(oddkit.EmptyStratum):
        anomaly.sample_region(node, 5, "edge", seed=0)


def test_empty_edge_stratum_is_decided_before_any_draw():
    # no vertex of the triangle lies at a range bound, so no edge point
    # exists whatever n is; the draw cap would take time linear in n
    tri = oddkit.OddNode(
        "tri",
        oddkit.Level.MLM_ODD,
        (oddkit.Parameter("x", "u", 0.0, 1.0), oddkit.Parameter("y", "u", 0.0, 1.0)),
        oddkit.Polygon2D(((0.3, 0.3), (0.7, 0.3), (0.5, 0.7))),
    )
    start = time.perf_counter()
    with pytest.raises(oddkit.EmptyStratum, match="no edge points"):
        anomaly.sample_region(tri, 10_000, "edge", seed=0)
    assert time.perf_counter() - start < 1.0
    # a square whose halfspaces reach x = 1, listed with vertices rounded
    # inward: the halfspaces decide, so it has edge points
    params = (oddkit.Parameter("x", "u", 0.0, 1.0), oddkit.Parameter("y", "u", 0.0, 1.0))
    halfspaces = (((1.0, 0.0), 1.0), ((-1.0, 0.0), -0.5), ((0.0, 1.0), 0.7), ((0.0, -1.0), -0.3))
    rounded = ((0.5, 0.3), (0.999, 0.3), (0.999, 0.7), (0.5, 0.7))
    square = oddkit.OddNode(
        "square", oddkit.Level.MLM_ODD, params,
        oddkit.PolytopeUnion((oddkit.ConvexPolytope(halfspaces, rounded),)),
    )
    points = anomaly.sample_region(square, 20, "edge", seed=0)
    assert len(points) == 20 and all(p.values["x"] == 1.0 for p in points)


def test_feasible_corners_of_a_square_listed_rounded_inward(rounded_square_text, tmp_path):
    # the halfspaces reach the four box corners; the listed vertices reach none
    node = oddkit.parse_spec(rounded_square_text).node("SQ")
    points = anomaly.sample_region(node, 8, "feasible_corner", seed=0)
    corners = {(round(p.values["x"], 9), round(p.values["y"], 9)) for p in points}
    assert corners == {(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)}
    assert {label.category for label in oddkit.classify_points(points, node)} == {"FeasibleCornerCase"}
    spec = tmp_path / "square.odd"
    spec.write_text(rounded_square_text)
    args = ["generate", str(spec), "--node", "SQ", "--mode", "feasible_corner", "-n", "4", "--seed", "0"]
    result = CliRunner().invoke(cli, args)
    assert result.exit_code == 0, result.output
    assert sorted(result.output.splitlines()[2:]) == ["0,0", "0,1", "1,0", "1,1"]


def test_sample_inliers_raises_when_no_point_is_corrupted(mlm):
    identity = anomaly.Transform("scale", "Alt", factor=1.0)
    with pytest.raises(oddkit.EmptyStratum):
        anomaly.sample_inliers(mlm, 1, (identity,), seed=0)


@pytest.mark.parametrize(
    "transform, reason",
    [
        (anomaly.Transform("scale", "Temp", factor=2.0), "node 'MLMODD' has no parameter 'Temp'"),
        (anomaly.Transform("scale", "Alt", factor=1.0), "it is the identity"),
        (anomaly.Transform("unit_swap", "Mach", factor=1.0), "it is the identity"),
        (anomaly.Transform("offset", "Alt", offset=0.0), "it is the identity"),
        (anomaly.Transform("offset", "Alt", offset=1e-9), "moves no value .* past the boundary band"),
        (anomaly.Transform("scale", "Mach", factor=1 + 1e-12), "moves no value .* past the boundary band"),
    ],
)
def test_sample_inliers_refuses_a_transform_that_corrupts_no_point_before_drawing(mlm, monkeypatch, transform, reason):
    def no_draw(*args):
        raise AssertionError("drew candidates")

    monkeypatch.setattr(anomaly, "_draw_column", no_draw)
    valid = anomaly.Transform("scale", "Alt", factor=2.0)
    for transforms in ((transform,), (valid, transform)):
        with pytest.raises(oddkit.EmptyStratum, match=reason):
            anomaly.sample_inliers(mlm, 200, transforms, seed=0)


def test_sample_inliers_draws_for_a_transform_just_past_the_boundary_band(mlm):
    """Each value moves by a few ulps of Alt more than the band, so the draw decides."""
    alt = next(p for p in mlm.parameters if p.name == "Alt")
    offset = oddkit.DEFAULT_TOL * alt.span + 8 * math.ulp(alt.hi)
    points = anomaly.sample_inliers(mlm, 50, (anomaly.Transform("offset", "Alt", offset=offset),), seed=0)
    assert len(points) == 50
    assert all(p.values["Alt"] - p.provenance_raw["Alt"] > oddkit.DEFAULT_TOL * alt.span for p in points)


def test_histogram_zero_weight_bin_is_never_drawn():
    doc = oddkit.parse_spec(
        """
odd "H" level mlm_odd {
  param x: u range [0, 1] dist histogram(0, 0.5, 1, 0, 1)
  param y: u range [0, 1]
  region polygon { (0,0) (1,0) (1,1) (0,1) }
}
"""
    )
    points = anomaly.sample_region(doc.node("H"), 300, "nominal_interior", seed=2)
    assert len(points) == 300
    assert min(p.values["x"] for p in points) >= 0.5


def test_sampling_rejects_bad_arguments(mlm):
    with pytest.raises(ValueError):
        anomaly.sample_region(mlm, -1, "edge", seed=0)
    with pytest.raises(ValueError):
        anomaly.sample_region(mlm, 5, "warp", seed=0)
    assert anomaly.sample_region(mlm, 0, "edge", seed=0) == []
