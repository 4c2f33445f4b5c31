"""Command-line interface.

Exit codes: 0 success, 1 input/validation errors, 2 usage errors, 3 internal
errors. Commands never overwrite an existing output file unless ``--force``
is given, and an output path that cannot be written is an input error. The
``ODDKIT_RULES`` environment variable stands for ``analyze --rules``; the
packaged default is used otherwise.
"""

from __future__ import annotations

import sys
from pathlib import Path

import click

from . import analysis, anomaly, classify, datasets, dsl, monitors, render
from .errors import OddkitError
from .model import DataPoint

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def _echo_diagnostics(diags) -> None:
    for d in diags:
        click.echo(str(d), err=True)


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise click.ClickException(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc


def _load_spec(path: str) -> dsl.SpecDocument:
    doc = dsl.parse_spec(_read_text(path))
    _echo_diagnostics(doc.diagnostics)
    if not doc.ok:
        raise click.ClickException(f"{path}: {len(doc.errors)} error(s)")
    return doc


def _node(doc: dsl.SpecDocument, name: str):
    try:
        return doc.node(name)
    except KeyError:
        raise click.ClickException(f"unknown node {name!r}") from None


def _load_dataset(path: str, node) -> datasets.Dataset:
    ds = datasets.parse_dataset(_read_text(path), node)
    _echo_diagnostics(ds.diagnostics)
    if not ds.ok:
        raise click.ClickException(f"{path}: dataset has errors")
    return ds


def _write_output(path: str | None, content: str, force: bool) -> None:
    if path is None or path == "-":
        click.echo(content, nl=False)
        return
    target = Path(path)
    if target.exists() and not force:
        raise click.ClickException(f"{path} exists; pass --force to overwrite")
    try:
        target.write_text(content, encoding="utf-8")
    except OSError as exc:
        raise click.ClickException(f"{path}: cannot write ({exc.strerror or exc})") from exc


def _build_chain(doc, chain_spec: str | None, transforms=()) -> classify.Chain:
    names: list[str | None] = [None, None]
    if chain_spec:
        names = [p.strip() for p in chain_spec.split(",")]
        if len(names) != 2:
            raise click.UsageError("--chain expects MLM,MLC")
    try:
        return classify.build_chain(doc, *names, declared_transform=tuple(transforms))
    except (ValueError, KeyError) as exc:
        raise click.ClickException(f"cannot assemble chain: {exc}") from exc


def _parse_transform(spec: str) -> anomaly.Transform:
    parts = spec.split(":")
    if len(parts) != 3:
        raise click.UsageError(
            "--transform expects KIND:PARAM:VALUE (e.g. scale:Alt:10 or offset:Alt:500)"
        )
    kind, param, value = parts
    try:
        v = float(value)
        if kind == "offset":
            return anomaly.Transform("offset", param, offset=v)
        return anomaly.Transform(kind, param, factor=v)
    except ValueError as exc:
        raise click.UsageError(f"bad transform {spec!r}: {exc}") from exc


@click.group()
def cli() -> None:
    """Hierarchical ODD specification, classification, and analysis toolkit."""


@cli.command("validate")
@click.argument("spec", type=click.Path(exists=True, dir_okay=False))
def check_spec(spec: str) -> None:
    """Parse and validate a specification; report all diagnostics."""
    doc = _load_spec(spec)
    click.echo(f"{spec}: ok ({len(doc.nodes)} node(s), {len(doc.monitor_chains)} monitorchain(s))")


@cli.command("classify")
@click.argument("spec", type=click.Path(exists=True, dir_okay=False))
@click.argument("data", type=click.Path(exists=True, dir_okay=False))
@click.option("--node", "node_name", help="Classify categories against one node only.")
@click.option("--chain", "chain_spec", help="MLM,MLC node names.")
@click.option("--transform", "transform_specs", multiple=True, help="Declared preprocessing (KIND:PARAM:VALUE).")
@click.option("--out", "out_path", help="Output CSV path (default stdout).")
@click.option("--force", is_flag=True, help="Overwrite an existing output file.")
def classify_cmd(spec, data, node_name, chain_spec, transform_specs, out_path, force) -> None:
    """Label each dataset row with its kind and category."""
    doc = _load_spec(spec)
    transforms = tuple(_parse_transform(t) for t in transform_specs)
    if node_name:
        node = _node(doc, node_name)
        ds = _load_dataset(data, node)
        labels = classify.classify_points(ds.points, node, None, declared_transform=transforms)
    else:
        chain = _build_chain(doc, chain_spec, transforms)
        ds = _load_dataset(data, chain.mlm)
        labels = classify.label_rows(ds.points, chain)
    _write_output(out_path, classify.serialize_labels(labels), force)


@cli.command()
@click.argument("spec", type=click.Path(exists=True, dir_okay=False))
@click.argument("data", type=click.Path(exists=True, dir_okay=False))
@click.option("--chain", "chain_spec", help="MLM,MLC node names.")
@click.option("--out", "out_path", help="Output CSV path (default stdout).")
@click.option("--force", is_flag=True)
def partition(spec, data, chain_spec, out_path, force) -> None:
    """Group dataset rows into (kind-set, category) partitions."""
    doc = _load_spec(spec)
    chain = _build_chain(doc, chain_spec)
    ds = _load_dataset(data, chain.mlm)
    parts = classify.partition_dataset(ds.points, chain)
    _write_output(out_path, classify.serialize_partitions(parts), force)


@cli.command()
@click.argument("spec", type=click.Path(exists=True, dir_okay=False))
@click.argument("data", type=click.Path(exists=True, dir_okay=False))
@click.option("--chain", "chain_spec", help="MLM,MLC node names.")
@click.option("--rules", "rules_path", type=click.Path(exists=True, dir_okay=False), envvar="ODDKIT_RULES",
              help="Rule base file (default: ODDKIT_RULES or the packaged rules).")
@click.option("--format", "fmt_name", type=click.Choice(["text", "csv"]), default="text")
@click.option("--out", "out_path", help="Output path (default stdout).")
@click.option("--force", is_flag=True)
def analyze(spec, data, chain_spec, rules_path, fmt_name, out_path, force) -> None:
    """Attach ERLA records to the populated dataset partitions."""
    doc = _load_spec(spec)
    chain = _build_chain(doc, chain_spec)
    ds = _load_dataset(data, chain.mlm)
    if rules_path:
        rules, nas, diags = analysis.parse_rules(_read_text(rules_path))
        _echo_diagnostics(diags)
        if any(d.severity == "error" for d in diags):
            raise click.ClickException(f"{rules_path}: rule base has errors")
        try:
            base = analysis.RuleBase(rules, nas)
        except ValueError as exc:
            raise click.ClickException(str(exc)) from exc
    else:
        base = analysis.load_default_rules()
    report = analysis.analyze_partitions(ds.points, chain, base)
    content = report.render_csv() if fmt_name == "csv" else report.render_text()
    _write_output(out_path, content, force)


@cli.command()
@click.argument("spec", type=click.Path(exists=True, dir_okay=False))
@click.argument("data", type=click.Path(exists=True, dir_okay=False))
@click.option("--node", "node_name", required=True)
@click.option("--grid", default="20x20", show_default=True, help="Interior grid, e.g. 20x20.")
@click.option("--out", "out_path", help="Output path (default stdout).")
@click.option("--force", is_flag=True)
def coverage(spec, data, node_name, grid, out_path, force) -> None:
    """Report vertex/edge/interior coverage of a dataset against one node."""
    doc = _load_spec(spec)
    node = _node(doc, node_name)
    try:
        nx, ny = (int(part) for part in grid.lower().split("x"))
    except ValueError:
        nx = ny = 0
    if min(nx, ny) < 1 or nx * ny > analysis.MAX_GRID_CELLS:
        raise click.UsageError(
            f"bad --grid {grid!r}; expected NxM with N, M >= 1 and at most {analysis.MAX_GRID_CELLS:,} cells"
        )
    ds = _load_dataset(data, node)
    try:
        report = analysis.coverage_report(ds.points, node, grid=(nx, ny))
    except ValueError as exc:
        raise click.ClickException(str(exc)) from exc
    _write_output(out_path, report.render_text(), force)


@cli.command()
@click.argument("spec", type=click.Path(exists=True, dir_okay=False))
@click.option("--node", "node_name", required=True)
@click.option("--mode", required=True,
              type=click.Choice([*anomaly.MODES, "inlier", "novelty"]))
@click.option("-n", "count", type=click.IntRange(min=0), default=10, show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--transform", "transform_specs", multiple=True,
              help="Corruption for --mode inlier (KIND:PARAM:VALUE).")
@click.option("--out", "out_path", help="Output CSV path (default stdout).")
@click.option("--force", is_flag=True)
def generate(spec, node_name, mode, count, seed, transform_specs, out_path, force) -> None:
    """Draw reproducible points from a stratum of a node's region."""
    doc = _load_spec(spec)
    node = _node(doc, node_name)
    try:
        if mode == "inlier":
            if not transform_specs:
                raise click.UsageError("--mode inlier needs at least one --transform")
            transforms = tuple(_parse_transform(t) for t in transform_specs)
            points = anomaly.sample_inliers(node, count, transforms, seed)
        elif mode == "novelty":  # drawn from the chain's extension, written as its MLM rows
            chain = _build_chain(doc, None)
            points, node = anomaly.sample_novelty(chain, count, seed), chain.mlm
        else:
            points = anomaly.sample_region(node, count, mode, seed)
    except OddkitError as exc:
        raise click.ClickException(str(exc)) from exc
    _write_output(out_path, datasets.serialize_dataset(points, node, seed=seed), force)


@cli.command()
@click.argument("spec", type=click.Path(exists=True, dir_okay=False))
@click.argument("data", type=click.Path(exists=True, dir_okay=False))
@click.option("--scenario", required=True, help="monitorchain block name in the spec.")
@click.option("--chain", "chain_spec", help="MLM,MLC node names.")
@click.option("--transform", "transform_specs", multiple=True, help="Declared preprocessing.")
@click.option("--seed", default=0, show_default=True)
@click.option("--out", "out_path", help="Verdicts CSV path (default stdout).")
@click.option("--metrics", "metrics_path", help="Metrics key=value file path.")
@click.option("--force", is_flag=True)
def simulate(spec, data, scenario, chain_spec, transform_specs, seed, out_path, metrics_path, force) -> None:
    """Run a dataset through a monitorchain scenario."""
    doc = _load_spec(spec)
    transforms = tuple(_parse_transform(t) for t in transform_specs)
    chain = _build_chain(doc, chain_spec, transforms)
    decl = next((c for c in doc.monitor_chains if c.name == scenario), None)
    if decl is None:
        raise click.ClickException(f"unknown monitorchain {scenario!r}")
    ds = _load_dataset(data, chain.mlm)
    try:
        chain_monitors = monitors.build_monitors(decl.monitors, doc)
        stub = monitors.build_stub(decl.stub, chain.mlm)
        result = monitors.run_monitor_chain(ds.points, chain, chain_monitors, stub, seed=seed)
    except (OddkitError, ValueError) as exc:
        raise click.ClickException(str(exc)) from exc
    _write_output(out_path, result.render_verdicts_csv(), force)
    if metrics_path:
        _write_output(metrics_path, result.render_metrics(), force)
    else:
        click.echo(result.render_metrics(), nl=False, err=True)


@cli.command("render")
@click.argument("spec", type=click.Path(exists=True, dir_okay=False))
@click.argument("data", type=click.Path(exists=True, dir_okay=False), required=False)
@click.option("--node", "node_names", multiple=True, help="Restrict to these nodes.")
@click.option("--chain", "chain_spec", help="MLM,MLC for point labeling.")
@click.option("--out", "out_path", help="Output SVG path (default stdout).")
@click.option("--force", is_flag=True)
def render_cmd(spec, data, node_names, chain_spec, out_path, force) -> None:
    """Render 2-parameter regions (and classified points) as SVG."""
    doc = _load_spec(spec)
    nodes = [_node(doc, n) for n in node_names] or doc.nodes  # render_svg keeps the 2-parameter ones
    labeled: list[tuple[DataPoint, str]] = []
    if data:
        chain = _build_chain(doc, chain_spec)
        ds = _load_dataset(data, chain.mlm)
        labels = classify.label_rows(ds.points, chain)
        labeled = [(p, r.category) for p, r in zip(ds.points, labels)]
    try:
        svg = render.render_svg(nodes, labeled)
    except ValueError as exc:
        raise click.ClickException(str(exc)) from exc
    _write_output(out_path, svg, force)


def main() -> None:
    try:
        cli(standalone_mode=False)
    except click.exceptions.Exit as exc:
        sys.exit(exc.exit_code)
    except click.UsageError as exc:
        exc.show()
        sys.exit(EXIT_USAGE)
    except click.ClickException as exc:
        exc.show()
        sys.exit(EXIT_ERROR)
    except click.exceptions.Abort:
        sys.exit(EXIT_USAGE)
    except Exception as exc:  # pragma: no cover - defensive
        click.echo(f"internal error: {exc}", err=True)
        sys.exit(EXIT_INTERNAL)
    sys.exit(EXIT_OK)


if __name__ == "__main__":
    main()
