from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import oddkit
from oddkit.cli import cli, main

from test_dsl import ALLOCATION_VIOLATIONS, renamed_alt


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def spec_path(data_dir):
    return str(data_dir / "flight_envelope_extended.odd")


@pytest.fixture()
def points_path(data_dir):
    return str(data_dir / "golden_points.csv")


def test_validate_ok(runner, spec_path):
    result = runner.invoke(cli, ["validate", spec_path])
    assert result.exit_code == 0
    assert "5 node(s)" in result.output


def test_validate_reports_errors_exit_1(runner, tmp_path):
    bad = tmp_path / "bad.odd"
    bad.write_text('odd "A" level mlm_odd {\n}\n')
    result = runner.invoke(cli, ["validate", str(bad)])
    assert result.exit_code == 1


def test_usage_error_exit_2(runner):
    result = runner.invoke(cli, ["validate"])  # missing argument
    assert result.exit_code == 2
    result = runner.invoke(cli, ["no-such-command"])
    assert result.exit_code == 2


def test_classify_matches_golden(runner, spec_path, points_path, golden_labels_text):
    result = runner.invoke(cli, ["classify", spec_path, points_path])
    assert result.exit_code == 0
    assert result.output == golden_labels_text


def test_classify_single_node_matches_golden(runner, spec_path, points_path, data_dir):
    result = runner.invoke(cli, ["classify", spec_path, points_path, "--node", "MLMODD"])
    assert result.exit_code == 0
    assert result.output == (data_dir / "golden_node_labels.csv").read_text(encoding="utf-8")


def test_classify_single_node(runner, spec_path, points_path):
    result = runner.invoke(cli, ["classify", spec_path, points_path, "--node", "MLCODD_oper"])
    assert result.exit_code == 0
    lines = result.output.splitlines()
    assert lines[0] == "row,category,on_boundary,annotations"
    # (0.5,-1300) is a feasible corner of the as-operated MLC ODD
    assert lines[7].startswith("6,FeasibleCornerCase,1")


def test_chain_takes_two_names(runner, spec_path, points_path, golden_labels_text):
    result = runner.invoke(cli, ["classify", spec_path, points_path, "--chain", "MLMODD,MLCODD_spec"])
    assert result.exit_code == 0
    assert result.output == golden_labels_text
    result = runner.invoke(cli, ["classify", spec_path, points_path, "--chain", "MLMODD,MLCODD_spec,MLCODD_oper"])
    assert result.exit_code == 2
    assert "--chain expects MLM,MLC" in result.output


def test_output_overwrite_needs_force(runner, spec_path, points_path, tmp_path):
    out = tmp_path / "labels.csv"
    args = ["classify", spec_path, points_path, "--out", str(out)]
    assert runner.invoke(cli, args).exit_code == 0
    result = runner.invoke(cli, args)
    assert result.exit_code == 1
    assert "--force" in result.output
    assert runner.invoke(cli, [*args, "--force"]).exit_code == 0


def test_partition_and_analyze(runner, spec_path, points_path, data_dir):
    result = runner.invoke(cli, ["partition", spec_path, points_path])
    assert result.exit_code == 0
    assert result.output == (data_dir / "golden_partitions.csv").read_text(encoding="utf-8")
    result = runner.invoke(cli, ["analyze", spec_path, points_path, "--format", "csv"])
    assert result.exit_code == 0
    assert result.output == (data_dir / "golden_analysis.csv").read_text(encoding="utf-8")


def test_analyze_rules_env_var(runner, spec_path, points_path, tmp_path, monkeypatch):
    broken = tmp_path / "rules.txt"
    broken.write_text("rule { kinds [OutCOD] categories [Any] E [x] R [x] L [x] A [x] }\n")
    monkeypatch.setenv("ODDKIT_RULES", str(broken))
    result = runner.invoke(cli, ["analyze", spec_path, points_path])
    assert result.exit_code == 1
    assert "uncovered cell" in result.output


def run_main(monkeypatch, capsys, *args):
    """Run the console entry point, whose exit codes CliRunner does not
    give (it reports an uncaught exception as exit 1): (exit code, stdout,
    stderr)."""
    monkeypatch.setattr(sys, "argv", ["oddkit", *args])
    with pytest.raises(SystemExit) as exited:
        main()
    out, err = capsys.readouterr()
    return exited.value.code, out, err


@pytest.mark.parametrize(
    "where, args",
    [
        ("missing/labels.csv", ["classify", "--out"]),
        (".", ["classify", "--force", "--out"]),
        ("missing/metrics.txt", ["simulate", "--scenario", "baseline", "--metrics"]),
    ],
)
def test_an_unwritable_output_path_is_an_input_error(
    monkeypatch, capsys, spec_path, points_path, tmp_path, where, args
):
    target = str(tmp_path / where)
    code, _, err = run_main(monkeypatch, capsys, args[0], spec_path, points_path, *args[1:], target)
    assert code == 1
    assert f"{target}: cannot write" in err
    assert "internal error" not in err


@pytest.mark.parametrize("where", ["missing.txt", "."])
def test_a_rules_path_that_is_no_file_is_a_usage_error(monkeypatch, capsys, spec_path, points_path, tmp_path, where):
    path = str(tmp_path / where)
    code, _, err = run_main(monkeypatch, capsys, "analyze", spec_path, points_path, "--rules", path)
    assert code == 2 and "--rules" in err
    monkeypatch.setenv("ODDKIT_RULES", path)
    code, _, err = run_main(monkeypatch, capsys, "analyze", spec_path, points_path)
    assert code == 2 and "--rules" in err and "internal error" not in err


def test_an_empty_rules_variable_means_the_packaged_rules(monkeypatch, capsys, spec_path, points_path, data_dir):
    monkeypatch.setenv("ODDKIT_RULES", "")
    code, out, _ = run_main(monkeypatch, capsys, "analyze", spec_path, points_path, "--format", "csv")
    assert code == 0
    assert out == (data_dir / "golden_analysis.csv").read_text(encoding="utf-8")


def test_coverage_command(runner, spec_path, points_path):
    result = runner.invoke(cli, ["coverage", spec_path, points_path, "--node", "MLMODD", "--grid", "10x10"])
    assert result.exit_code == 0
    assert "vertex_coverage=0.4" in result.output
    result = runner.invoke(cli, ["coverage", spec_path, points_path, "--node", "MLMODD", "--grid", "banana"])
    assert result.exit_code == 2


@pytest.mark.parametrize("grid", ["0x5", "5x0", "-3x5"])
def test_coverage_grid_without_cells_is_a_usage_error(runner, spec_path, points_path, grid):
    result = runner.invoke(cli, ["coverage", spec_path, points_path, "--node", "MLMODD", "--grid", grid])
    assert result.exit_code == 2
    assert "--grid" in result.output


@pytest.mark.parametrize("grid", ["100000x100000", "1000001x1"])
def test_coverage_grid_over_the_cell_bound_is_a_usage_error(
    monkeypatch, capsys, spec_path, points_path, extended_doc, grid
):
    # refused before any array is allocated: 10^10 cells once ran out of memory
    args = ["coverage", spec_path, points_path, "--node", "MLMODD", "--grid", grid]
    code, out, err = run_main(monkeypatch, capsys, *args)
    assert (code, out) == (2, "")
    assert "--grid" in err and "1,000,000 cells" in err and "internal error" not in err
    nx, ny = map(int, grid.split("x"))
    with pytest.raises(ValueError, match="at most 1,000,000 cells"):
        oddkit.coverage_report([], extended_doc.node("MLMODD"), grid=(nx, ny))


def test_generate_negative_seed_is_a_usage_error(monkeypatch, capsys, spec_path):
    # the counter-based generator refuses a negative seed: once an internal error
    args = ["generate", spec_path, "--node", "MLMODD", "--mode", "nominal_interior", "--seed", "-1"]
    code, out, err = run_main(monkeypatch, capsys, *args)
    assert (code, out) == (2, "")
    assert "--seed" in err and "internal error" not in err


@pytest.mark.parametrize("transform", ["scale:Alt:nan", "scale:Alt:inf", "offset:Alt:-inf", "unit_swap:Alt:nan"])
def test_classify_non_finite_transform_is_a_usage_error(runner, spec_path, points_path, transform):
    result = runner.invoke(cli, ["classify", spec_path, points_path, "--transform", transform])
    assert result.exit_code == 2
    assert "finite" in result.output


def test_generate_non_finite_transform_is_a_usage_error(runner, spec_path):
    args = ["generate", spec_path, "--node", "MLMODD", "--mode", "inlier", "-n", "5"]
    result = runner.invoke(cli, [*args, "--transform", "scale:Alt:inf"])
    assert result.exit_code == 2
    assert "finite" in result.output


@pytest.mark.parametrize(
    "extra, header",
    [([], "row,kind,category,node,on_boundary,annotations"), (["--node", "MLMODD"], "row,category,on_boundary,annotations")],
)
def test_classify_header_only_dataset_writes_the_header(runner, spec_path, tmp_path, extra, header):
    data = tmp_path / "empty.csv"
    data.write_text("Mach,Alt\n", encoding="utf-8")
    result = runner.invoke(cli, ["classify", spec_path, str(data), *extra])
    assert result.exit_code == 0, result.output
    assert result.output == header + "\n"


def test_generate_is_reproducible(runner, spec_path):
    args = ["generate", spec_path, "--node", "MLMODD", "--mode", "edge", "-n", "5", "--seed", "3"]
    a = runner.invoke(cli, args)
    b = runner.invoke(cli, args)
    assert a.exit_code == 0
    assert a.output == b.output
    assert a.output.startswith("# seed=3\n")


@pytest.mark.parametrize(
    "mode, extra, category",
    [("inlier", ["--transform", "scale:Alt:0.5"], "Inlier"), ("novelty", [], "Novelty")],
)
def test_generate_inlier_and_novelty(runner, spec_path, chain, mode, extra, category):
    def generate(seed):
        args = ["generate", spec_path, "--node", "MLMODD", "--mode", mode, "-n", "25", *extra]
        result = runner.invoke(cli, [*args, "--seed", str(seed)])
        assert result.exit_code == 0, result.output
        return result.output

    out = generate(4)
    assert generate(4) == out
    assert generate(5) != out
    ds = oddkit.parse_dataset(out, chain.mlm)
    assert ds.ok and len(ds.points) == 25
    labels = oddkit.classify_points(ds.points, chain.mlm, chain)
    assert {label.category for label in labels} == {category}


def test_generate_novelty_needs_an_extension(runner, data_dir):
    spec = str(data_dir / "flight_envelope.odd")
    result = runner.invoke(cli, ["generate", spec, "--node", "MLMODD", "--mode", "novelty"])
    assert result.exit_code == 1
    assert "extension" in result.output


def test_generate_novelty_writes_the_rows_of_the_chains_mlm_node(runner, spec_path):
    # novelty points carry the MLM parameters and the extension's extra one as
    # a hidden value, whichever node --node names
    def generate(node):
        return runner.invoke(cli, ["generate", spec_path, "--node", node, "--mode", "novelty", "-n", "5"])

    via_ext, via_mlm = generate("MLMODD_ext"), generate("MLMODD")
    assert via_ext.exit_code == 0, via_ext.output
    assert via_ext.output == via_mlm.output
    assert via_ext.output.splitlines()[1] == "Mach,Alt,hidden:Temp"


def test_generate_inlier_requires_transform(runner, spec_path):
    result = runner.invoke(
        cli, ["generate", spec_path, "--node", "MLMODD", "--mode", "inlier", "-n", "2"]
    )
    assert result.exit_code == 2


def test_simulate_writes_verdicts_and_metrics(runner, spec_path, points_path, tmp_path, data_dir):
    verdicts = tmp_path / "verdicts.csv"
    metrics = tmp_path / "metrics.txt"
    result = runner.invoke(
        cli,
        ["simulate", spec_path, points_path, "--scenario", "baseline",
         "--out", str(verdicts), "--metrics", str(metrics)],
    )
    assert result.exit_code == 0
    assert verdicts.read_bytes() == (data_dir / "golden_verdicts.csv").read_bytes()
    assert metrics.read_bytes() == (data_dir / "golden_metrics.txt").read_bytes()
    result = runner.invoke(cli, ["simulate", spec_path, points_path, "--scenario", "ghost"])
    assert result.exit_code == 1


def test_a_monitorchain_without_a_stub_is_e016(runner, spec_path, points_path, tmp_path):
    text = Path(spec_path).read_text(encoding="utf-8")
    spec = tmp_path / "no_stub.odd"
    spec.write_text(text.replace("  stub bilinear 0.5 1 0 0\n", ""), encoding="utf-8")
    error = "error E016 at 84:1: monitorchain 'input_only': no stub model declared"
    result = runner.invoke(cli, ["validate", str(spec)])
    assert result.exit_code == 1 and error in result.output
    result = runner.invoke(cli, ["simulate", str(spec), points_path, "--scenario", "input_only"])
    assert result.exit_code == 1 and error in result.output


def test_an_allocation_to_a_parameter_the_node_lacks_is_e017_not_an_internal_error(runner, base_spec_text, tmp_path):
    # classify once read the parent's Alt from rows outside MLMODD and exited 3
    spec, data = tmp_path / "renamed.odd", tmp_path / "rows.csv"
    spec.write_text(renamed_alt(base_spec_text), encoding="utf-8")
    data.write_text("Mach,Altitude,in_sample\n0.1,5000,1\n0.5,9000,0\n", encoding="utf-8")
    error = "error E017 at 39:1: node 'MLMODD' allocates to 'MLCODD_spec' but lacks its parameter(s) ['Alt']"
    for args in (["validate", str(spec)], ["classify", str(spec), str(data)]):
        result = runner.invoke(cli, args)
        assert result.exit_code == 1 and error in result.output, result.output


@pytest.mark.parametrize("mutate, line, message", ALLOCATION_VIOLATIONS)
def test_a_node_that_leaves_its_parent_is_e018_not_an_internal_error(
    runner, base_spec_text, points_path, tmp_path, mutate, line, message
):
    spec = tmp_path / "leaving.odd"
    spec.write_text(mutate(base_spec_text), encoding="utf-8")
    error = f"error E018 at {line}:1: {message}"
    for args in (["validate", str(spec)], ["classify", str(spec), points_path]):
        result = runner.invoke(cli, args)
        assert result.exit_code == 1 and error in result.output, result.output


def test_classify_refuses_two_extension_nodes(runner, two_extensions_text, points_path, tmp_path):
    spec = tmp_path / "two_ext.odd"
    spec.write_text(two_extensions_text, encoding="utf-8")
    result = runner.invoke(cli, ["classify", str(spec), points_path])
    assert result.exit_code == 1
    assert "cannot assemble chain: cannot infer extension node: found 2 candidate nodes" in result.output


def test_generate_refuses_a_transform_that_corrupts_no_point(runner, spec_path):
    args = ["generate", spec_path, "--node", "MLMODD", "--mode", "inlier", "-n", "100000", "--transform", "scale:Temp:2"]
    result = runner.invoke(cli, args)
    assert result.exit_code == 1
    assert "node 'MLMODD' has no parameter 'Temp'" in result.output


def test_inputs_with_a_byte_order_mark_are_read(runner, spec_path, points_path, tmp_path, golden_labels_text):
    bom = b"\xef\xbb\xbf"
    spec = tmp_path / "spec.odd"
    spec.write_bytes(bom + Path(spec_path).read_bytes())
    data = tmp_path / "points.csv"
    data.write_bytes(bom + Path(points_path).read_bytes())
    result = runner.invoke(cli, ["validate", str(spec)])
    assert result.exit_code == 0, result.output
    result = runner.invoke(cli, ["classify", str(spec), str(data)])
    assert result.exit_code == 0, result.output
    assert result.output == golden_labels_text


def test_non_utf8_input_is_an_input_error(runner, spec_path, points_path, tmp_path):
    broken = tmp_path / "broken"
    broken.write_bytes(b"Mach,Alt\n0.1,\xff\n")
    for args in (
        ["validate", str(broken)],
        ["classify", str(broken), points_path],
        ["classify", spec_path, str(broken)],
        ["analyze", spec_path, points_path, "--rules", str(broken)],
    ):
        result = runner.invoke(cli, args)
        assert result.exit_code == 1, result.output
        assert f"{broken}: not UTF-8 text" in result.output


def test_a_cell_over_the_csv_field_limit_is_a_row_or_header_diagnostic(runner, spec_path, tmp_path):
    # csv.reader raises on a cell longer than its field limit (131,072 characters)
    long_cell = "y" * 200_000
    rows, header = tmp_path / "rows.csv", tmp_path / "header.csv"
    rows.write_text(f"Mach,Alt,note\n0.1,5000,{long_cell}\n0.2,6000,x\n", encoding="utf-8")
    header.write_text(f"Mach,Alt,{long_cell}\n0.2,6000,x\n", encoding="utf-8")
    result = runner.invoke(cli, ["classify", spec_path, str(rows), "--node", "MLMODD"])
    assert result.exit_code == 0, result.output
    assert "E103" in result.output and "field larger than field limit" in result.output
    assert result.output.endswith("row,category,on_boundary,annotations\n0,Nominal,0,\n")  # the second row
    result = runner.invoke(cli, ["classify", spec_path, str(header), "--node", "MLMODD"])
    assert result.exit_code == 1, result.output
    assert "E101" in result.output and "dataset has errors" in result.output


def test_render_command(runner, spec_path, points_path, tmp_path):
    out = tmp_path / "odd.svg"
    result = runner.invoke(cli, ["render", spec_path, points_path, "--out", str(out)])
    assert result.exit_code == 0
    text = out.read_text()
    assert text.startswith("<svg")
    assert 'id="region-MLMODD"' in text


def test_console_entry_point(spec_path):
    # the child imports the package this process imported, installed or not
    search_path = [str(Path(oddkit.__file__).parent.parent), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, search_path))}
    proc = subprocess.run(
        [sys.executable, "-m", "oddkit.cli", "validate", spec_path],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr


def test_cli_import_loads_no_scipy():
    search_path = [str(Path(oddkit.__file__).parent.parent), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, search_path))}
    code = "import sys, oddkit.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
