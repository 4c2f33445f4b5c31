from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

import oddkit
from oddkit import monitors
from oddkit.dsl import StubDecl
from oddkit.model import DataPoint


@pytest.fixture()
def mlm(extended_doc):
    return extended_doc.node("MLMODD")


@pytest.fixture()
def baseline(extended_doc):
    decl = next(c for c in extended_doc.monitor_chains if c.name == "baseline")
    return monitors.build_monitors(decl.monitors, extended_doc), monitors.build_stub(
        decl.stub, extended_doc.node("MLMODD")
    )


def test_bilinear_stub(mlm):
    stub = monitors.StubModel(mlm, (1, 2, 0.001, 0))
    assert stub.outputs(np.array([[0.2, 1000.0]])).tolist() == pytest.approx([1 + 0.4 + 1.0])


def test_a_stub_of_another_kind_is_refused(mlm):
    with pytest.raises(ValueError, match="unknown stub kind 'lookup_table'"):
        monitors.build_stub(StubDecl("lookup_table", ()), mlm)


def test_a_stub_checks_its_node_and_coefficients(extended_doc, mlm):
    with pytest.raises(ValueError, match="stub models are defined over 2-parameter nodes"):
        monitors.StubModel(extended_doc.node("MLMODD_ext"), (1, 2, 0.001, 0))
    for coefficients in ((1, 2, 0.001), (1, 2, float("inf"), 0)):
        with pytest.raises(ValueError, match="bilinear stub needs 4 finite coefficients"):
            monitors.StubModel(mlm, coefficients)
    stub = monitors.StubModel(mlm, (1, 2, 0.001, 0))
    assert stub.coefficients == (1.0, 2.0, 0.001, 0.0) and all(type(c) is float for c in stub.coefficients)
    assert stub == monitors.build_stub(StubDecl("bilinear", (1.0, 2.0, 0.001, 0.0)), mlm)


def test_monitor_validation(mlm):
    with pytest.raises(ValueError):
        monitors.Monitor("gremlin_monitor")
    with pytest.raises(ValueError):
        monitors.Monitor("range_monitor")  # needs a node
    with pytest.raises(ValueError):
        monitors.Monitor("known_input_monitor", node=mlm)  # needs inputs
    with pytest.raises(ValueError):
        monitors.Monitor("range_monitor", node=mlm, action="explode")


def test_first_detection_short_circuits(chain, baseline):
    chain_monitors, stub = baseline
    # outside the MLM region: the range monitor fires, later monitors unseen
    result = monitors.run_monitor_chain(
        [DataPoint({"Mach": 0.4, "Alt": -1300.0})], chain, chain_monitors, stub
    )
    v = result.verdicts[0]
    assert v.final_disposition == "mitigated"
    assert v.action == "filter"
    assert [d.monitor for d in v.decisions] == ["range_monitor"]
    assert v.stub_output is None  # stub never consulted


def test_oracle_categories_must_match_the_points(chain, baseline):
    chain_monitors, stub = baseline
    points = [DataPoint({"Mach": 0.2, "Alt": a}) for a in (1000.0, 5000.0, 9000.0)]
    for oracle in (["Nominal"], ["Nominal"] * 4):
        with pytest.raises(ValueError, match=f"{len(oracle)} oracle categories for 3 points"):
            monitors.run_monitor_chain(points, chain, chain_monitors, stub, oracle_categories=oracle)
    result = monitors.run_monitor_chain(points, chain, chain_monitors, stub, oracle_categories=["Nominal"] * 3)
    assert result.metrics["points"] == 3.0


def test_nominal_point_processed(chain, baseline):
    chain_monitors, stub = baseline
    result = monitors.run_monitor_chain(
        [DataPoint({"Mach": 0.2, "Alt": 7000.0})], chain, chain_monitors, stub
    )
    v = result.verdicts[0]
    assert v.final_disposition == "processed_by_mlm"
    assert len(v.decisions) == 3
    assert v.stub_output is not None
    assert result.metrics["false_alarm_rate_nominal"] == 0.0


def test_extreme_value_monitor_detects_edges(chain, baseline):
    chain_monitors, stub = baseline
    result = monitors.run_monitor_chain(
        [DataPoint({"Mach": 0.1, "Alt": 0.0})], chain, chain_monitors, stub
    )
    assert result.verdicts[0].action == "replace"


def test_output_range_monitor(chain, mlm):
    stub = monitors.StubModel(mlm, (0, 1000, 0, 0))
    mon = monitors.Monitor("output_range_monitor", lo=-10.0, hi=10.0, action="mask")
    result = monitors.run_monitor_chain(
        [DataPoint({"Mach": 0.2, "Alt": 7000.0}), DataPoint({"Mach": 0.005, "Alt": 7000.0})],
        chain,
        [mon],
        stub,
    )
    assert result.verdicts[0].final_disposition == "mitigated"  # 200 outside [-10,10]
    assert result.verdicts[1].final_disposition == "processed_by_mlm"


def test_known_input_monitor(chain, mlm):
    stub = monitors.StubModel(mlm, (0, 0, 0, 0))
    mon = monitors.Monitor(
        "known_input_monitor",
        node=mlm,
        tol=1e-6,
        known_inputs=(DataPoint({"Mach": 0.2, "Alt": 7000.0}),),
        action="replace",
    )
    result = monitors.run_monitor_chain(
        [DataPoint({"Mach": 0.2, "Alt": 7000.0}), DataPoint({"Mach": 0.21, "Alt": 7000.0})],
        chain,
        [mon],
        stub,
    )
    assert result.verdicts[0].final_disposition == "mitigated"
    assert result.verdicts[1].final_disposition == "processed_by_mlm"


def test_failover_latches(extended_doc, chain):
    decl = next(c for c in extended_doc.monitor_chains if c.name == "input_only")
    chain_monitors = monitors.build_monitors(decl.monitors, extended_doc)
    stub = monitors.build_stub(decl.stub, chain.mlm)
    inlier = DataPoint({"Mach": 0.3, "Alt": 2000.0}, provenance_raw={"Alt": 20000.0})
    clean = DataPoint({"Mach": 0.2, "Alt": 7000.0})
    result = monitors.run_monitor_chain([clean, inlier, clean, clean], chain, chain_monitors, stub)
    assert result.verdicts[0].final_disposition == "processed_by_mlm"
    assert result.verdicts[1].action == "failover"
    # everything after the failover is mitigated without inspection
    assert result.verdicts[2].latched and result.verdicts[3].latched
    assert result.verdicts[2].decisions == []
    assert result.metrics["failover_latched_points"] == 2.0


def test_stub_evaluation_error(chain, mlm):
    stub = monitors.StubModel(mlm, (1e308, 1e308, 1e308, 1e308))
    with pytest.raises(oddkit.StubEvaluationError):
        monitors.run_monitor_chain(
            [DataPoint({"Mach": 0.4, "Alt": 14000.0})], chain, [], stub
        )


def test_verdict_csv_and_metrics_render(chain, baseline, golden_dataset):
    chain_monitors, stub = baseline
    result = monitors.run_monitor_chain(golden_dataset.points, chain, chain_monitors, stub)
    csv_text = result.render_verdicts_csv()
    lines = csv_text.splitlines()
    assert lines[0] == "row,disposition,action,stub_output,detections,latched"
    assert len(lines) == 13
    metrics_text = result.render_metrics()
    assert "detection_rate_Outlier=1" in metrics_text
    assert "false_alarm_rate_nominal=0" in metrics_text


def test_known_inputs_with_non_finite_coordinates_match_nothing(chain, mlm):
    stub = monitors.StubModel(mlm, (1, 0, 0, 0))
    known = DataPoint({"Mach": 0.225, "Alt": 14000.0})
    nan, inf = float("nan"), float("inf")
    stream = [
        DataPoint({"Mach": 0.225, "Alt": 14000.0}),
        DataPoint({"Mach": 0.225, "Alt": nan}),
        DataPoint({"Mach": nan, "Alt": 14000.0}),
        DataPoint({"Mach": 0.225, "Alt": inf}),
        DataPoint({"Mach": -inf, "Alt": 14000.0}),
    ]
    mon = monitors.Monitor("known_input_monitor", node=mlm, known_inputs=(known,), action="mask")
    # the range monitor then filters the non-finite rows before the stub
    chain_monitors = [mon, monitors.Monitor("range_monitor", node=mlm)]
    result = monitors.run_monitor_chain(stream, chain, chain_monitors, stub)
    assert [v.action for v in result.verdicts] == ["mask", "filter", "filter", "filter", "filter"]
    # a known input with a non-finite coordinate matches nothing either
    for bad in ({"Mach": 0.225, "Alt": nan}, {"Mach": nan, "Alt": 14000.0}, {"Mach": inf, "Alt": 14000.0}):
        mon = monitors.Monitor("known_input_monitor", node=mlm, known_inputs=(DataPoint(bad),))
        assert not mon.detect(stream, chain, np.zeros(len(stream))).any()


def test_bilinear_stub_at_a_non_finite_coordinate(chain, mlm):
    stub = monitors.StubModel(mlm, (1, 2, 0.001, 0.5))
    X = np.array([[0.05, 1000.0], [float("nan"), 1000.0], [0.05, float("inf")], [-float("inf"), 0.0], [1e308, 0.0]])
    assert np.array_equal(stub.outputs(X), [1 + 0.1 + 1.0 + 25.0, np.nan, np.inf, np.nan, np.inf], equal_nan=True)
    for x in X[1:].tolist():
        p = DataPoint(dict(zip(mlm.parameter_names, x)))
        with pytest.raises(oddkit.StubEvaluationError, match="non-finite output"):
            monitors.run_monitor_chain([p], chain, [], stub)
    # a row the range monitor filters never reaches the stub
    mon = monitors.Monitor("range_monitor", node=mlm)
    result = monitors.run_monitor_chain([DataPoint({"Mach": float("nan"), "Alt": 0.0})], chain, [mon], stub)
    assert result.verdicts[0].final_disposition == "mitigated"
    assert result.verdicts[0].stub_output is None


def test_range_monitor_honours_a_declared_tol(extended_spec_text):
    """Alt -15 lies 0.001 of the Alt span below MLMODD: inside a 0.01 band,
    outside the engine's default band."""
    text = extended_spec_text + (
        '\nmonitorchain "banded" {\n  stub bilinear 0 0 0 0\n'
        '  monitor range_monitor node "MLMODD" tol 0.01 action filter\n}\n'
    )
    doc = oddkit.parse_spec(text)
    assert doc.ok, [str(d) for d in doc.errors]
    chain = oddkit.build_chain(doc)
    point = DataPoint({"Mach": 0.2, "Alt": -15.0})
    for name, tol, action in (("banded", 0.01, None), ("baseline", oddkit.DEFAULT_TOL, "filter")):
        decl = next(c for c in doc.monitor_chains if c.name == name)
        chain_monitors = monitors.build_monitors(decl.monitors, doc)
        assert chain_monitors[0].kind == "range_monitor" and chain_monitors[0].tol == tol
        stub = monitors.build_stub(decl.stub, chain.mlm)
        result = monitors.run_monitor_chain([point], chain, chain_monitors, stub)
        assert result.verdicts[0].action == action
    # a monitor of another kind that declares no tol keeps 1e-6
    assert monitors.Monitor("extreme_value_monitor", node=chain.mlm).tol == 1e-6


def test_verdicts_are_built_when_first_read(chain, baseline, monkeypatch):
    """run_monitor_chain keeps a code per row; the MonitorVerdicts, with their
    decision lists, are built on the first read of ``verdicts``, once."""
    built, build = [], monitors.MonitorVerdict

    def verdict(*args):
        built.append(args)
        return build(*args)

    monkeypatch.setattr(monitors, "MonitorVerdict", verdict)
    points = [DataPoint({"Mach": 0.2, "Alt": 1000.0}), DataPoint({"Mach": 5.0, "Alt": 1000.0})]
    result = oddkit.run_monitor_chain(points, chain, *baseline)
    assert built == []
    assert result.render_verdicts_csv().count("\n") == 3 and built == []
    verdicts = result.verdicts
    assert len(built) == 2 and result.verdicts is verdicts
    assert [v.final_disposition for v in verdicts] == ["processed_by_mlm", "mitigated"]


def counter_metrics(result, oracle: list[str], seed: int) -> dict[str, float]:
    """The metrics counted with Counters over the verdicts and the oracle
    category strings, as run_monitor_chain counted them before it counted codes."""
    rows = [(v, cat) for v, cat in zip(result.verdicts, oracle) if not v.latched]
    total = Counter(cat for _, cat in rows)
    detected = Counter(cat for v, cat in rows if any(d.detected for d in v.decisions))
    metrics = {"points": float(len(oracle)), "seed": float(seed)}
    for cat, count in sorted(total.items()):
        metrics[f"detection_rate_{cat}"] = detected[cat] / count
    metrics["false_alarm_rate_nominal"] = detected["Nominal"] / total["Nominal"] if total["Nominal"] else 0.0
    metrics["failover_latched_points"] = float(sum(v.latched for v in result.verdicts))
    return metrics


@pytest.mark.parametrize("scenario", ["baseline", "input_only"])
def test_metrics_equal_a_counter_reference(extended_doc, chain, golden_dataset, scenario):
    """The detection rates count category codes; a Counter over the category
    strings gives the same metrics, in the same order, for the default oracle
    and for a given one with labels outside CATEGORY_LABELS, one of which only
    latched rows carry."""
    decl = next(c for c in extended_doc.monitor_chains if c.name == scenario)
    chain_monitors = monitors.build_monitors(decl.monitors, extended_doc)
    stub = monitors.build_stub(decl.stub, chain.mlm)
    points = golden_dataset.points
    default = [row.category for row in oddkit.classify_points(points, chain.mlm, chain)]
    given = [("Nominal", "zeta", "Outlier", "Alpha", default[i])[i % 5] for i in range(len(points))]
    given[-1] = "OnlyLast"
    for oracle in (None, given):
        result = monitors.run_monitor_chain(points, chain, chain_monitors, stub, seed=7, oracle_categories=oracle)
        expected = counter_metrics(result, oracle or default, 7)
        assert list(result.metrics.items()) == list(expected.items())
        assert all(type(v) is float for v in result.metrics.values())
    if scenario == "input_only":  # the failover latches before the last row
        assert result.verdicts[-1].latched and "detection_rate_OnlyLast" not in result.metrics
    else:
        assert result.metrics["detection_rate_OnlyLast"] in (0.0, 1.0)
