"""Acceptance suite: one criterion per test, one printed pass/fail line each."""

from __future__ import annotations

import xml.etree.ElementTree as ET
from contextlib import contextmanager

import numpy as np
import pytest
from click.testing import CliRunner

import oddkit
from oddkit import analysis, anomaly, geometry, monitors
from oddkit.analysis import NotApplicable
from oddkit.cli import cli
from oddkit.model import Containment, DataPoint

import oracles


@contextmanager
def criterion(n: int, description: str, capsys):
    try:
        yield
    except Exception:
        with capsys.disabled():
            print(f"ACCEPTANCE {n} FAIL: {description}")
        raise
    with capsys.disabled():
        print(f"ACCEPTANCE {n} PASS: {description}")


def test_acceptance_1_golden_points(extended_doc, chain, capsys):
    with criterion(1, "golden-point reproduction, zero label tolerance", capsys):
        mlm = extended_doc.node("MLMODD")
        spec = extended_doc.node("MLCODD_spec")
        oper = extended_doc.node("MLCODD_oper")

        def label(p, node):
            (row,) = oddkit.classify_points([p], node, chain)
            return row.category

        expected = [
            ({"Mach": 0.1, "Alt": 0}, mlm, "EdgeCase"),
            ({"Mach": 0.1, "Alt": 0}, spec, "Nominal"),
            ({"Mach": 0.0, "Alt": 0}, mlm, "FeasibleCornerCase"),
            ({"Mach": 0.0, "Alt": 0}, spec, "EdgeCase"),
            ({"Mach": 0.4, "Alt": 0}, mlm, "FeasibleCornerCase"),
            ({"Mach": 0.4, "Alt": 0}, spec, "EdgeCase"),
            ({"Mach": 0.4, "Alt": -1300}, mlm, "Outlier"),
            ({"Mach": 0.4, "Alt": -1300}, spec, "FeasibleCornerCase"),
            ({"Mach": 0.5, "Alt": -1300}, spec, "Outlier"),
            ({"Mach": 0.5, "Alt": -1300}, oper, "FeasibleCornerCase"),
            ({"Mach": 0.0, "Alt": 15000}, mlm, "InfeasibleCornerCase"),
            ({"Mach": 0.0, "Alt": 15000}, spec, "InfeasibleCornerCase"),
            ({"Mach": 0.225, "Alt": 14000}, mlm, "Nominal"),
        ]
        for values, node, want in expected:
            assert label(DataPoint(dict(values)), node) == want, (values, node.name, want)

        inlier = DataPoint({"Mach": 0.35, "Alt": 2000}, provenance_raw={"Alt": 20000})
        assert label(inlier, mlm) == "Inlier"
        novelty = DataPoint({"Mach": 0.3, "Alt": 14000}, hidden_values={"Temp": 20})
        assert label(novelty, mlm) == "Novelty"


def test_acceptance_2_set_algebra(extended_doc, chain, capsys):
    with criterion(2, "set-algebra identities on 10,000 seeded SOD-box points", capsys):
        sod = extended_doc.node("SOD")
        rng = np.random.default_rng(2024)
        points = [
            DataPoint(
                {
                    "Mach": float(rng.uniform(sod.parameter("Mach").lo, sod.parameter("Mach").hi)),
                    "Alt": float(rng.uniform(sod.parameter("Alt").lo, sod.parameter("Alt").hi)),
                }
            )
            for _ in range(10_000)
        ]
        kinds = [row.kind for row in oddkit.label_rows(points, chain)]
        assert all(k in tuple(oddkit.Kind) for k in kinds)  # totality: a partition
        report = oddkit.verify_set_algebra(points, chain, labels=kinds)
        assert report.holds, report.violations[:5]


def test_acceptance_3_geometry_oracle(extended_doc, capsys):
    with criterion(3, "point_in_region vs winding-number oracle, 10,000 pts/region", capsys):
        rng = np.random.default_rng(17)
        for node in extended_doc.nodes:
            polygon = isinstance(node.region, oddkit.Polygon2D)
            for _ in range(10_000):
                x = tuple(
                    float(rng.uniform(p.lo - 0.3 * p.span, p.hi + 0.3 * p.span))
                    for p in node.parameters
                )
                p = DataPoint(dict(zip(node.parameter_names, x)))
                got = geometry.point_in_region(p, node)
                if got == Containment.ON_BOUNDARY:
                    continue  # tolerance band excluded by design
                if polygon:
                    want = oracles.polygon_contains(x, node.region.vertices)
                else:
                    want = oracles.union_contains(x, node.region.members)
                assert (got == Containment.INSIDE) == want, (node.name, x)


def test_acceptance_4_anomaly_closed_loop(extended_doc, chain, capsys):
    with criterion(4, "anomaly closed loop: inject->classify duals hold 100%", capsys):
        mlm = extended_doc.node("MLMODD")
        base = anomaly.sample_region(mlm, 300, "nominal_interior", seed=5)

        t = anomaly.Transform("scale", "Alt", factor=0.1)
        accepted = [
            out for out in (anomaly.inject_inlier(p, t, mlm) for p in base)
            if isinstance(out, DataPoint)
        ]
        assert len(accepted) >= 100
        assert {row.category for row in oddkit.classify_points(accepted, mlm, chain)} == {"Inlier"}

        rng = np.random.default_rng(5)
        candidates = [
            DataPoint({**p.values, "Temp": float(rng.uniform(-120.0, 75.0))}) for p in base
        ]
        novelties = [
            out for out in (anomaly.make_novelty(c, chain) for c in candidates)
            if isinstance(out, DataPoint)
        ]
        assert len(novelties) >= 50
        assert {row.category for row in oddkit.classify_points(novelties, mlm, chain)} == {"Novelty"}
        stripped = [DataPoint(dict(out.values)) for out in novelties]
        assert not {row.category for row in oddkit.classify_points(stripped, mlm, chain)} & oddkit.ANOMALY_LABELS


def test_acceptance_5_monitor_claims(extended_doc, chain, capsys):
    with criterion(5, "monitor detection claims (OutCOD 100%, Novelty 0%, Inlier 100%)", capsys):
        mlm = extended_doc.node("MLMODD")
        mlc = extended_doc.node("MLCODD_spec")
        stub = monitors.StubModel(mlm, (1, 2, 0.001, 0))

        # range monitor on the MLC ODD detects every OutCOD point
        out_cod = anomaly.sample_region(mlc, 200, "outlier_ring", seed=9)
        assert {row.kind for row in oddkit.label_rows(out_cod, chain)} == {oddkit.Kind.OUT_OF_MLCODD}
        range_mon = monitors.Monitor("range_monitor", node=mlc, action="filter")
        result = monitors.run_monitor_chain(out_cod, chain, [range_mon], stub)
        assert all(v.final_disposition == "mitigated" for v in result.verdicts)

        # input-side monitors detect none of the constructed novelty points
        rng = np.random.default_rng(9)
        base = anomaly.sample_region(mlm, 200, "nominal_interior", seed=10)
        novelties = [
            out
            for out in (
                anomaly.make_novelty(
                    DataPoint({**p.values, "Temp": float(rng.uniform(15.0, 75.0))}), chain
                )
                for p in base
            )
            if isinstance(out, DataPoint)
        ]
        assert len(novelties) >= 50
        input_side = [
            monitors.Monitor("range_monitor", node=mlm, action="filter"),
            monitors.Monitor("extreme_value_monitor", node=mlm, tol=1e-6, action="filter"),
            monitors.Monitor("cross_check_monitor", node=mlm, threshold=0.5, action="filter"),
        ]
        result = monitors.run_monitor_chain(novelties, chain, input_side, stub)
        assert all(v.final_disposition == "processed_by_mlm" for v in result.verdicts)

        # cross-check at normalized threshold 0.5 detects every scale-x10 inlier
        tall = [p for p in anomaly.sample_region(mlm, 400, "nominal_interior", seed=11)
                if p.values["Alt"] >= 10_000][:100]
        assert len(tall) >= 50
        t = anomaly.Transform("scale", "Alt", factor=0.1)  # raw is 10x the recorded value
        inliers = [out for out in (anomaly.inject_inlier(p, t, mlm) for p in tall)
                   if isinstance(out, DataPoint)]
        assert len(inliers) == len(tall)
        cross = monitors.Monitor("cross_check_monitor", node=mlm, param="Alt", threshold=0.5, action="filter")
        result = monitors.run_monitor_chain(inliers, chain, [cross], stub)
        assert all(v.final_disposition == "mitigated" for v in result.verdicts)


def test_acceptance_6_update_feedback(extended_doc, capsys):
    with criterion(6, "ODD update proposes exactly Mach hi = 0.5 +/- 1e-9", capsys):
        mlc = extended_doc.node("MLCODD_spec")
        rng = np.random.default_rng(6)
        # synthetic cargo-takeoff climb-outs: Mach creeping past 0.4 up to 0.5
        observed = [
            DataPoint({"Mach": float(m), "Alt": float(rng.uniform(-1300, 14000))})
            for m in np.linspace(0.41, 0.5, 30)
        ]
        proposal = analysis.propose_odd_update(observed, mlc)
        assert len(proposal.range_changes) == 1
        change = proposal.range_changes[0]
        assert (change.parameter, change.bound) == ("Mach", "hi")
        assert change.proposed == pytest.approx(0.5, abs=1e-9)
        assert proposal.new_parameter_candidates == []


def _fuzz_spec(rng: np.random.Generator, index: int) -> str:
    blocks = []
    for j in range(int(rng.integers(1, 4))):
        lo_x, lo_y = (round(float(v), 4) for v in rng.uniform(-100, 100, 2))
        span_x, span_y = (round(float(v), 4) for v in rng.uniform(1, 50, 2))
        fx = sorted(round(float(v), 4) for v in rng.uniform(0.05, 0.95, 2))
        fy = sorted(round(float(v), 4) for v in rng.uniform(0.05, 0.95, 2))
        if fx[1] - fx[0] < 0.05 or fy[1] - fy[0] < 0.05:
            fx, fy = [0.2, 0.8], [0.2, 0.8]
        x0, x1 = (round(lo_x + f * span_x, 4) for f in fx)
        y0, y1 = (round(lo_y + f * span_y, 4) for f in fy)
        blocks.append(
            f'odd "N{index}_{j}" level mlm_odd {{\n'
            f"  param x: u range [{lo_x}, {round(lo_x + span_x, 4)}]\n"
            f"  param y: u range [{lo_y}, {round(lo_y + span_y, 4)}]\n"
            f"  region polygon {{ ({x0},{y0}) ({x1},{y0}) ({x1},{y1}) ({x0},{y1}) }}\n"
            f"}}\n"
        )
    return "\n".join(blocks)


def test_acceptance_7_dsl_round_trip(extended_spec_text, base_spec_text, capsys):
    with criterion(7, "DSL round-trip identity on corpus + 100 fuzzed specs", capsys):
        rng = np.random.default_rng(77)
        texts = [extended_spec_text, base_spec_text]
        texts += [_fuzz_spec(rng, i) for i in range(100)]
        for text in texts:
            doc = oddkit.parse_spec(text)
            assert doc.ok, [str(d) for d in doc.errors]
            canonical = oddkit.serialize_spec(doc)
            again = oddkit.parse_spec(canonical)
            assert again.ok
            assert (again.nodes, again.monitor_chains) == (doc.nodes, doc.monitor_chains)


def test_acceptance_8_rule_base_totality(capsys):
    with criterion(8, "rule base covers every reachable cell exactly once", capsys):
        rules = analysis.load_default_rules()
        for key in analysis.full_key_space():
            entry = rules.lookup(key)
            assert entry is not None
        assert isinstance(rules.lookup(("InMOD&OutS", "Outlier")), NotApplicable)
        # exactly-once: a rule base with overlapping claims is not built
        with pytest.raises(ValueError):
            analysis.RuleBase(rules.rules + rules.rules[:1], rules.not_applicable)


def test_acceptance_9_rendering(data_dir, golden_labels_text, capsys, tmp_path):
    with criterion(9, "SVG has 4 region paths + legend entry per present category", capsys):
        out = tmp_path / "odd.svg"
        runner = CliRunner()
        result = runner.invoke(
            cli,
            [
                "render",
                str(data_dir / "flight_envelope_extended.odd"),
                str(data_dir / "golden_points.csv"),
                "--out",
                str(out),
            ],
        )
        assert result.exit_code == 0, result.output
        root = ET.fromstring(out.read_text())
        ns = "{http://www.w3.org/2000/svg}"
        paths = root.findall(f".//{ns}path[@class='region']")
        assert len(paths) == 4
        present = {
            line.split(",")[2] for line in golden_labels_text.splitlines()[1:]
        }
        legend = {
            g.get("class").split("cat-")[1]
            for g in root.findall(f".//{ns}g[@class='legend']/{ns}g")
        }
        assert legend == present
