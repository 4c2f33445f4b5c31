"""oddkit benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload label_batch --seed 1 --seconds 20 --trace 0

Run it from the repository root. It builds its inputs from ``--seed``, sets
up several times in fresh interpreters (``setup_s``), then makes passes
over the workload for ``--seconds`` and checks every pass. The report lines
name each metric with its unit; the last line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``:

- ``--trace 0``: the end-to-end metrics of BENCHMARK.json;
- ``--trace 1``: the per-layer metrics. Passes alternate untraced and
  traced, so the tracing overhead is the ratio of the two.

A run record (provenance, every metric, spans when traced) is written to
``.bench_out/`` in the repository root. Workloads and metrics are described
in bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import SpeedProbe
from speed import scale as scale_child

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 3  # fresh interpreters per run for setup_s; the median is reported
SETUP_LAYER_REPEATS = 5  # in-process repeats of each set-up layer in a traced run


def fail_setup(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def median(xs):
    return statistics.median(xs) if xs else float("nan")


def tail(xs) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it: (value, percentile).

    The percentile (n - 10) / n is interpolated between order statistics
    as ``statistics.quantiles(method="inclusive")`` does, so at n = 20 it
    is the median. Below 20 samples even the median has fewer than ten
    beyond it, and the maximum is reported as the 100th percentile.
    """
    s = sorted(xs)
    n = len(s)
    if n < 20:
        return s[-1], 100.0
    p = (n - 10) / n
    pos = p * (n - 1)
    lo = int(pos)
    return s[lo] + (pos - lo) * (s[lo + 1] - s[lo]), 100.0 * p


def src_digest() -> str:
    from workloads import sha256

    parts = []
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            parts.append(f"{path.relative_to(ROOT)}\0{sha256(path.read_bytes())}")
    return sha256("\n".join(parts))


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None  # an exported tree; src_sha256 still identifies the code
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def child_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", ""))


def probe_setup(workload: str, seed: int) -> tuple[float, float]:
    """Seconds from starting a fresh interpreter until the workload's inputs are ready.

    Returns the wall time and the same time normalised by the kernel
    timings the child reports (speed.scale).
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=child_env(), cwd=ROOT)
    line = proc.stdout.readline().split()
    wall = time.perf_counter() - t0
    proc.stdout.close()
    if proc.wait() != 0 or len(line) < 2 or line[0] != b"ready":
        fail_setup(f"set-up probe for {workload} failed")
    return wall, scale_child(wall, [float(x) for x in line[1:]])


def import_times() -> dict[str, float]:
    """Import seconds per package for what every CLI call imports.

    ``import oddkit`` alone does not import click, so this imports
    ``oddkit.cli``; the oddkit figure then includes click's.
    """
    from spans import parse_importtime

    out = subprocess.run([sys.executable, "-X", "importtime", "-c", "import oddkit.cli"],
                         capture_output=True, text=True, env=child_env(), cwd=ROOT, timeout=120)
    if out.returncode != 0:
        fail_setup("python -X importtime -c 'import oddkit.cli' failed")
    return parse_importtime(out.stderr)


def run(args) -> int:
    if args.setup_probe:
        child_probe = SpeedProbe()
        child_probe.start()
    if not (SRC / "oddkit" / "__init__.py").is_file():
        fail_setup(f"no oddkit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import workloads

    if not workloads.SPEC.is_file():
        fail_setup(f"missing spec {workloads.SPEC}")
    tmp = ROOT / ".bench_tmp" / f"{args.workload}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        if not args.setup_probe:
            return measure(args, workloads, tmp)
        workloads.WORKLOADS[args.workload](args.seed, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    child_probe.stop()
    print("ready", *map(repr, child_probe.took), flush=True)
    return 0


def measure(args, W, tmp: Path) -> int:
    import numpy
    import scipy

    import oddkit
    from oddkit import analysis, classify, dsl
    from spans import OpFailed, Ops, Tracer, instrument

    setup_wall, setup = zip(*(probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)))
    wl = W.WORKLOADS[args.workload](args.seed, tmp)
    tracer = Tracer() if args.trace else None
    layer_setup: dict[str, list[float]] = {}
    imports: dict[str, float] = {}
    if tracer:
        # Set-up layers, timed in this process with the wrappers counting E007's containment calls.
        imports = import_times()
        with instrument(tracer):
            for _ in range(SETUP_LAYER_REPEATS):
                with tracer.span("dsl.parse_spec") as s:
                    dsl.parse_spec(wl.spec_text)
                layer_setup.setdefault("dsl.parse_spec_s", []).append(s["end"] - s["start"])
                layer_setup.setdefault("geometry.contains_node_s", []).append(
                    s["wrapped_by"]["geometry.contains_node"])
                with tracer.span("analysis.load_default_rules") as s:
                    analysis.load_default_rules()
                layer_setup.setdefault("analysis.load_default_rules_s", []).append(s["end"] - s["start"])
                with tracer.span("classify.build_chain") as s:
                    classify.build_chain(wl.doc, sample_registry=wl.chain.sample_registry)
                layer_setup.setdefault("classify.build_chain_s", []).append(s["end"] - s["start"])

    # This process probes its own passes; CLI children probe themselves (childprobe/).
    probe = SpeedProbe() if wl.in_process else None
    ops = Ops()
    first: dict[str, object] = {}  # each output's first value; later passes must reproduce it
    checks: dict[str, int] = {}
    passes = []  # (traced, rows, wall seconds, normalised seconds); seconds None if the pass failed
    traced_ids = []
    min_passes = max(wl.min_passes, 2 * wl.cycle) if tracer else wl.min_passes
    measured = 0.0  # time inside passes; checking the first outputs does not use up the run
    if probe:
        probe.start()
    while True:
        i = len(passes)
        traced = bool(tracer) and (i // wl.cycle) % 2 == 1  # alternate whole cycles
        pass_ops = Ops(tracer if traced else None, keep=not wl.in_process)
        spent, t0 = probe.spent if probe else 0.0, time.perf_counter()
        try:
            if traced:
                tracer.pass_id = i
                with instrument(tracer), tracer.span("pass"):
                    out = wl.run_pass(pass_ops)
                traced_ids.append(i)
            else:
                out = wl.run_pass(pass_ops)
        except OpFailed:
            out = None
        t1 = time.perf_counter()
        measured += t1 - t0
        ops.merge(pass_ops)
        if out is None:
            passes.append((traced, 0, None, None))
        else:
            wall = t1 - t0
            if probe:
                wall -= probe.spent - spent
            passes.append((traced, wl.rows_of(out), wall, wall * probe.factor(t0, t1) if probe else wall))
            digest = wl.digest(out)
            for key, value in digest.items():
                if key in first and value != first[key]:
                    ops.fail(f"pass {i}: {key} differs from its first output")
            if any(key not in first for key in digest):
                first.update((k, v) for k, v in digest.items() if k not in first)
                checks.update(wl.check(ops, out))
        if not first and ops.failed:
            break
        # Stop once the time is up or another pass would mostly run past it.
        if len(passes) >= min_passes and measured + (t1 - t0) / 2 >= args.seconds:
            break
    if probe:
        probe.stop()

    good = [p for p in passes if p[2] is not None]
    rows = good[0][1] if good else 0
    untraced = [r / n for t, r, _, n in good if not t]
    untraced_wall = [r / w for t, r, w, _ in good if not t]
    traced_rates = [r / n for t, r, _, n in good if t]
    # A request is one untraced pass (the batch a library user hands over) or one CLI invocation.
    by_name: dict[str, list[float]] = {}
    by_name_wall: dict[str, list[float]] = {}
    if probe:
        latency = [n for t, _, _, n in good if not t]
        latency_wall = [w for t, _, w, _ in good if not t]
        request = "pass"
    else:
        latency = [scale_child(dt, k) for (_, dt), k in zip(ops.records, wl.child_probes)]
        latency_wall = [dt for _, dt in ops.records]
        request = "CLI invocation"
        for (name, dt), x in zip(ops.records, latency):
            by_name.setdefault(name, []).append(x)
            by_name_wall.setdefault(name, []).append(dt)
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "oddkit_version": oddkit.__version__,
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
        "spec_sha256": W.sha256(wl.spec_text),
        "inputs_sha256": wl.provenance_inputs(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "rows": rows,
        "passes": len(good),
        "speed_probes": len(probe.took) if probe else sum(map(len, wl.child_probes)),
    }
    if args.workload == "cli_commands":
        peak_kb = wl.max_rss_kb  # the largest CLI child, from wait4
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    n_ops = len(latency)
    tail_s, tail_pct = tail(latency) if latency else (float("nan"), 0.0)
    norm = "normalised by the speed probe"
    report = [  # (name, value, unit, note)
        ("setup_s", median(setup), "s", f"median of {len(setup)} fresh interpreters, {norm}"),
        ("setup_s_wall", median(setup_wall), "s", "the same, as measured"),
        ("rows_per_s", rows_per_s(wl, by_name, untraced), "rows/s",
         f"{rows} input rows, median of {len(untraced)} untraced pass(es), {norm}"),
        ("rows_per_s_wall", rows_per_s(wl, by_name_wall, untraced_wall), "rows/s", "the same, as measured"),
        ("latency_s_p50", median(latency), "s", f"per {request}, n={n_ops}, {norm}"),
        ("latency_s_tail", tail_s, "s", f"p{tail_pct:.1f} per {request}, n={n_ops}, {norm}"),
        ("latency_s_p50_wall", median(latency_wall), "s", "the same p50, as measured"),
        ("peak_rss_mb", peak_kb / 1024, "MB",
         "largest CLI child (wait4)" if args.workload == "cli_commands" else "RUSAGE_SELF"),
        ("error_rate", ops.failed / max(ops.attempted, 1), "ratio",
         f"failed={ops.failed} attempted={ops.attempted}"),
    ]
    if args.workload == "cli_commands":
        report.append(("cli_latency_s_p50", median(latency), "s", f"= latency_s_p50, n={n_ops}"))
        report.append(("cli_latency_s_tail", tail_s, "s", f"= latency_s_tail, p{tail_pct:.1f}, n={n_ops}"))
    if tracer:
        report += layer_report(wl, by_name, tracer, traced_ids, rows, layer_setup, imports,
                               traced_rates, untraced, checks)

    for name, value, unit, note in report:
        print(f"{args.workload:18s} {name:52s} {value:14.6g} {unit:9s} {note}")
    for line in ops.errors:
        print(f"error: {line}")

    wanted = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    values = {name: value for name, value, _, _ in report}
    # A layer the workload never calls reads 0.
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted}
    record = {"provenance": provenance, "checks": checks,
              "report": [{"name": n, "value": v, "unit": u, "note": note} for n, v, u, note in report],
              "errors": ops.errors, "spans": tracer.export() if tracer else None}
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record))
    print("provenance " + json.dumps(provenance, sort_keys=True))
    correct = ops.failed == 0 and bool(first)
    print(json.dumps({"correct": correct, "attempted": ops.attempted, "failed": ops.failed, "metrics": metrics}))
    return 0


def rows_per_s(wl, by_name, untraced) -> float:
    if wl.name == "cli_commands":
        # Rows of the dataset over one sequence of the ten commands, each at its median latency.
        return wl.rows / sum(median(by_name[f"cli.{name}"]) for name, _ in wl.commands)
    return median(untraced)


# Per-layer throughputs: (metric, unit, the span names it covers).
MODES = ("nominal_interior", "edge", "feasible_corner", "outlier_ring", "outlier_ring_ext")
LAYER_RATES = [
    ("datasets.parse_dataset_rows_per_s", "rows/s", ("datasets.parse_dataset",)),
    ("datasets.serialize_dataset_rows_per_s", "rows/s", ("datasets.serialize_dataset",)),
    ("classify.label_rows_rows_per_s", "rows/s", ("classify.label_rows",)),
    ("classify.serialize_labels_rows_per_s", "rows/s", ("classify.serialize_labels",)),
    ("classify.verify_set_algebra_rows_per_s", "rows/s", ("classify.verify_set_algebra",)),
    ("analysis.analyze_partitions_rows_per_s", "rows/s", ("analysis.analyze_partitions",)),
    ("analysis.coverage_report_rows_per_s", "rows/s", ("analysis.coverage_report",)),
    ("render.render_svg_rows_per_s", "rows/s", ("render.render_svg",)),
    ("monitors.rows_per_s", "rows/s", ("monitors.run_monitor_chain.baseline", "monitors.run_monitor_chain.input_only")),
    ("geometry.distance_to_boundary_points_per_s", "points/s", ("geometry.distance_to_boundary",)),
    ("geometry.polytope_points_per_s", "points/s", ("geometry.point_in_region",)),
    *((f"anomaly.sample_region_{m}_points_per_s", "points/s", (f"anomaly.sample_region.{m}",)) for m in MODES),
    ("anomaly.inject_inlier_points_per_s", "points/s", ("anomaly.inject_inlier",)),
    ("anomaly.make_novelty_points_per_s", "points/s", ("anomaly.make_novelty",)),
]


def layer_report(wl, by_name, tracer, traced_ids, rows, layer_setup, imports, traced_rates, untraced, checks):
    out = []
    for pkg in ("oddkit", "scipy", "numpy", "click"):
        out.append((f"import.{pkg}_s", imports.get(pkg, 0.0), "s", "python -X importtime"))
    for name, xs in layer_setup.items():
        out.append((name, median(xs), "s", f"median of {len(xs)}"))
    n_pass = len(traced_ids)
    spans = [s for s in tracer.spans if s["pass"] in traced_ids and s["name"] != "pass"]
    per_name: dict[str, float] = {}
    for s in spans:
        per_name[s["name"]] = per_name.get(s["name"], 0.0) + s["end"] - s["start"]
    selfs = tracer.self_times(set(traced_ids))
    for name in sorted(per_name):
        if name.startswith(("geometry.", "cli.")):
            continue  # reported below: from the wrappers, or per CLI command
        total = per_name[name] / n_pass
        out.append((f"{name}_s", total, "s", f"per pass, self {selfs.get(name, 0.0) / n_pass:.6g} s"))
    for name, xs in sorted(by_name.items()):
        if name.startswith("cli."):
            out.append((f"{name}_s_p50", median(xs), "s", f"n={len(xs)}"))
            out.append((f"{name}_per_s", 1.0 / median(xs), "1/s", "1 / p50"))

    def rate(names) -> float:
        """Items per second over the traced spans of these names; 0 if there are none."""
        hits = [s for s in spans if s["name"] in names]
        busy = sum(s["end"] - s["start"] for s in hits)
        return sum(wl.items(s["name"]) for s in hits) / busy if busy else 0.0

    out += [(name, rate(names), unit, "") for name, unit, names in LAYER_RATES]
    calls = tracer.calls(set(traced_ids))
    per_row = max(rows, 1) * n_pass
    for fn in ("point_in_region", "params_at_extreme", "project"):
        out.append((f"geometry.{fn}_calls_per_row", calls.get(f"geometry.{fn}", 0) / per_row, "calls/row",
                    "whole pass"))
    lr_calls = tracer.calls(set(traced_ids), names={"classify.label_rows"})
    out.append(("classify.label_rows.point_in_region_calls_per_row",
                lr_calls.get("geometry.point_in_region", 0) / per_row, "calls/row", "inside label_rows"))

    def wrapped(key):
        return sum(s["wrapped_by"][key] for s in spans) / n_pass

    for fn in ("point_in_region", "params_at_extreme", "project", "distance_to_boundary"):
        out.append((f"geometry.{fn}_s", wrapped(f"geometry.{fn}"), "s", "per pass, outermost calls"))
    pip_s = wrapped("geometry.point_in_region")
    out.append(("geometry.point_in_region_per_s",
                calls.get("geometry.point_in_region", 0) / n_pass / pip_s if pip_s else 0.0, "calls/s", ""))
    rm_s = wrapped("classify.registry_match")
    rm_calls = calls.get("classify.registry_match", 0) / n_pass
    out.append(("classify.registry_match_calls", rm_calls, "calls", "per pass"))
    out.append(("classify.registry_match_s", rm_s, "s", "per pass"))
    out.append(("classify.registry_match_per_s", rm_calls / rm_s if rm_s else 0.0, "calls/s", ""))
    sampled = [s for s in spans if s["name"].startswith("anomaly.sample_region.")]
    drawn = sum(wl.items(s["name"]) for s in sampled)
    candidates = sum(s["calls"].get("geometry.point_in_region", 0) for s in sampled)
    out.append(("anomaly.candidates_per_point", candidates / drawn if drawn else 0.0, "calls/point",
                "containment calls in sample_region per point returned"))
    out.append(("geometry.distance_to_boundary_inexact", float(checks.get("distance_inexact", 0)), "count",
                f"of {checks.get('outside_points', 0)} outside points, >1e-4 relative above the exact distance"))
    ratio = median(traced_rates) / median(untraced) if untraced and traced_rates else float("nan")
    out.append(("trace.overhead_ratio", ratio, "ratio",
                f"traced / untraced rows_per_s, {len(traced_rates)} vs {len(untraced)} passes"))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("label_batch", "registry_polytope",
                                                              "stream_generate", "cli_commands"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
