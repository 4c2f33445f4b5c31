from __future__ import annotations

import numpy as np
import pytest

import oddkit
from oddkit import monitors
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
    stub = monitors.make_stub_model(mlm, {"kind": "bilinear", "coefficients": (1, 2, 0.001, 0)})
    assert stub.evaluate(DataPoint({"Mach": 0.2, "Alt": 1000.0})) == pytest.approx(1 + 0.4 + 1.0)


def test_lookup_stub_and_incomplete_table(mlm):
    table = [[1.0, 2.0], [3.0, 4.0]]
    stub = monitors.make_stub_model(mlm, {"kind": "lookup_table", "table": table})
    assert stub.evaluate(DataPoint({"Mach": 0.05, "Alt": 1000.0})) == 1.0
    assert stub.evaluate(DataPoint({"Mach": 0.35, "Alt": 14000.0})) == 4.0
    with pytest.raises(oddkit.IncompleteTable):
        monitors.make_stub_model(
            mlm, {"kind": "lookup_table", "table": [[1.0, float("nan")], [3.0, 4.0]]}
        )
    with pytest.raises(oddkit.IncompleteTable):
        monitors.make_stub_model(mlm, {"kind": "lookup_table", "table": [[1.0, 2.0], [3.0]]})


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
    stub = monitors.make_stub_model(mlm, {"kind": "bilinear", "coefficients": (0, 1000, 0, 0)})
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
    stub = monitors.make_stub_model(mlm, {"kind": "bilinear", "coefficients": (0, 0, 0, 0)})
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
    stub = monitors.make_stub_model(mlm, {"kind": "bilinear", "coefficients": (1e308, 1e308, 1e308, 1e308)})
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
    stub = monitors.make_stub_model(mlm, {"kind": "lookup_table", "table": [[1.0]]})
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


def test_lookup_stub_at_a_non_finite_coordinate(chain, mlm):
    stub = monitors.make_stub_model(mlm, {"kind": "lookup_table", "table": [[1.0, 2.0], [3.0, 4.0]]})
    X = np.array([[0.05, 1000.0], [float("nan"), 1000.0], [0.05, float("inf")], [-float("inf"), 0.0], [1e308, 0.0]])
    assert np.array_equal(stub.outputs(X), [1.0, np.nan, np.nan, np.nan, np.nan], equal_nan=True)
    for x in X[1:].tolist():
        p = DataPoint(dict(zip(mlm.parameter_names, x)))
        with pytest.raises(oddkit.StubEvaluationError, match="non-finite output"):
            stub.evaluate(p)
        with pytest.raises(oddkit.StubEvaluationError, match="non-finite output"):
            monitors.run_monitor_chain([p], chain, [], stub)
    # a row the range monitor filters never reaches the stub
    mon = monitors.Monitor("range_monitor", node=mlm)
    result = monitors.run_monitor_chain([DataPoint({"Mach": float("nan"), "Alt": 0.0})], chain, [mon], stub)
    assert result.verdicts[0].final_disposition == "mitigated"
    assert result.verdicts[0].stub_output is None
