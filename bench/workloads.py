"""The benchmark's four workloads: seeded inputs, one pass, and its check.

Inputs come from numpy's Philox generator seeded by ``--seed``; the
library's own sampler never makes a labelling input, so a sampler rewrite
cannot change what ``label_batch``, ``registry_polytope`` or
``cli_commands`` read. Every workload uses the spec
``tests/data/flight_envelope_extended.odd``, read in place.

A workload object holds its set-up state. ``run_pass`` makes one pass
through :class:`spans.Ops` and returns its outputs; ``check`` compares the
first pass with the independent reference in ``reference.py`` and later
passes with the first, counting each wrong output as a failed operation.
"""

from __future__ import annotations

import csv
import hashlib
import io
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np

import oddkit
from oddkit import analysis, anomaly, classify, datasets, dsl, geometry, monitors, render

import reference as R

ROOT = Path(__file__).resolve().parent.parent
SPEC = ROOT / "tests" / "data" / "flight_envelope_extended.odd"

COLUMNS = ("Mach", "Alt", "raw:Alt", "hidden:Temp", "in_sample")
INFLATION = 0.2  # share of each span added around the MLC box
TEMP_INFLATION = 0.5  # share of the Temp span added each side: half the draws leave [lo, hi]


def sha256(data: str | bytes) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def rng_for(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[seed, stream]))


def _fmt(v: float) -> str:
    return "" if np.isnan(v) else repr(float(v))


def table_csv(table: dict[str, np.ndarray]) -> str:
    """Dataset CSV with exact (repr) floats, so parsing returns the same values."""
    lines = [",".join(COLUMNS)]
    for m, a, raw, temp, flag in zip(*(table[c] for c in COLUMNS)):
        lines.append(f"{_fmt(m)},{_fmt(a)},{_fmt(raw)},{_fmt(temp)},{'1' if flag else ''}")
    return "\n".join(lines) + "\n"


def points_table(points) -> dict[str, np.ndarray]:
    """Columns of parsed data points, NaN where a value is absent."""
    def col(get):
        return np.array([get(p) for p in points], dtype=float)

    return {
        "Mach": col(lambda p: p.values["Mach"]),
        "Alt": col(lambda p: p.values["Alt"]),
        "raw:Alt": col(lambda p: (p.provenance_raw or {}).get("Alt", np.nan)),
        "hidden:Temp": col(lambda p: (p.hidden_values or {}).get("Temp", np.nan)),
        "in_sample": col(lambda p: 1.0 if p.in_sample else 0.0),
    }


def _box(node: R.Node, inflation: float) -> tuple[np.ndarray, np.ndarray]:
    return node.lo - inflation * node.span, node.hi + inflation * node.span


def _uniform_inside(rng, ref: R.Reference, n: int, clearance: float = 1e-6) -> np.ndarray:
    """Uniform points strictly inside MLMODD, by rejection with the reference test."""
    out = np.zeros((0, 2))
    while len(out) < n:
        x = rng.uniform(ref.mlm.lo, ref.mlm.hi, size=(2 * n, 2))
        inside, dist = R.containment(ref.mlm, x)
        out = np.vstack([out, x[(inside == 1) & (dist > clearance)]])
    return out[:n]


def mixed_table(seed: int, ref: R.Reference, n: int) -> dict[str, np.ndarray]:
    """label_batch rows: uniform, snapped to the boundary, Inlier and Novelty material.

    80% uniform over the 20%-inflated MLC box, 10% snapped to vertices,
    edges and range extremes of the 2-D nodes, 5% with raw:Alt (half
    corrupted by a factor 2) and 5% with hidden:Temp drawn over a range
    twice Temp's span; 10% of all rows carry in_sample=1.
    """
    rng = rng_for(seed, 1)
    lo, hi = _box(ref.mlc, INFLATION)
    x = rng.uniform(lo, hi, size=(n, 2))
    raw = np.full(n, np.nan)
    temp = np.full(n, np.nan)
    group = rng.choice(4, size=n, p=[0.80, 0.10, 0.05, 0.05])
    nodes = [ref.mlm, ref.mlc, ref.sod]
    for i in np.flatnonzero(group == 1):
        node = nodes[rng.integers(len(nodes))]
        verts = node.polygon
        how = rng.integers(3)
        if how == 0:  # a vertex
            x[i] = verts[rng.integers(len(verts))]
        elif how == 1:  # a point on an edge
            j = rng.integers(len(verts))
            a, b = verts[j], verts[(j + 1) % len(verts)]
            x[i] = a + rng.uniform() * (b - a)
        else:  # one parameter at a range bound
            k = rng.integers(2)
            x[i, k] = node.lo[k] if rng.uniform() < 0.5 else node.hi[k]
    for g in (2, 3):
        idx = np.flatnonzero(group == g)
        x[idx] = rng.uniform(ref.mlm.lo, ref.mlm.hi, size=(len(idx), 2))
    idx = np.flatnonzero(group == 2)
    raw[idx] = np.where(rng.uniform(size=len(idx)) < 0.5, x[idx, 1] * 2.0, x[idx, 1])
    idx = np.flatnonzero(group == 3)
    t_lo, t_hi = _box(ref.ext, TEMP_INFLATION)
    temp[idx] = rng.uniform(t_lo[2], t_hi[2], size=len(idx))
    flag = (rng.uniform(size=n) < 0.10).astype(float)
    return {"Mach": x[:, 0], "Alt": x[:, 1], "raw:Alt": raw, "hidden:Temp": temp, "in_sample": flag}


def label_disagreements(kinds, categories, notes, expected) -> int:
    """Rows whose kind, category or OutCOD annotations differ from the decided reference."""
    bad = 0
    for i in np.flatnonzero(expected["decided"]):
        if (
            kinds[i] != expected["kind"][i]
            or categories[i] != expected["category"][i]
            or notes[i].get("mlc_category", "") != expected["mlc_category"][i]
            or notes[i].get("sod_category", "") != expected["sod_category"][i]
        ):
            bad += 1
    return bad


def check_label_rows(ops, rows, expected) -> int:
    """Check label_rows output; returns the rows compared."""
    bad = label_disagreements([r.kind.value for r in rows], [r.category for r in rows],
                              [r.annotations for r in rows], expected)
    if bad:
        ops.fail(f"label_rows: {bad} row(s) disagree with the reference")
    return int(expected["decided"].sum())


class Workload:
    """Shared set-up: spec, rule base and chain; subclasses add inputs."""

    name = ""
    in_process = True
    min_passes = 1
    cycle = 1  # passes that make one round of the workload's operations

    def __init__(self, seed: int, tmp: Path):
        self.seed = seed
        self.tmp = tmp
        self.spec_text = SPEC.read_text(encoding="utf-8")
        self.doc = dsl.parse_spec(self.spec_text)
        if not self.doc.ok:
            raise RuntimeError(f"{SPEC}: spec has errors")
        self.rules = analysis.load_default_rules()
        self.ref = R.Reference(self.doc)
        self.registry = self.make_registry()
        self.ref.registry = self.registry
        registry_points = tuple(oddkit.DataPoint({"Mach": float(m), "Alt": float(a)}) for m, a in self.registry)
        self.chain = classify.build_chain(self.doc, sample_registry=registry_points)
        self.inputs: dict[str, str] = {}
        self.prepare()

    def make_registry(self) -> np.ndarray:
        return np.zeros((0, 2))

    def prepare(self) -> None:
        raise NotImplementedError

    def scenario(self, name: str):
        decl = next(c for c in self.doc.monitor_chains if c.name == name)
        return monitors.build_monitors(decl.monitors, self.doc), monitors.build_stub(decl.stub, self.chain.mlm)

    def rows_of(self, out) -> int:
        """Input rows of one pass, the numerator of rows_per_s."""
        return self.rows

    def items(self, op: str) -> int:
        """Rows or points one call of operation ``op`` handles."""
        return self.rows

    def provenance_inputs(self) -> dict[str, str]:
        return {k: sha256(v) for k, v in self.inputs.items()}


class LabelBatch(Workload):
    """One ~20k-row CSV through the whole in-process labelling pipeline."""

    name = "label_batch"
    rows = 20_000

    def prepare(self):
        self.table = mixed_table(self.seed, self.ref, self.rows)
        self.inputs["dataset.csv"] = table_csv(self.table)
        self.baseline = self.scenario("baseline")
        self.nodes_2d = [n for n in self.doc.nodes if len(n.parameters) == 2]

    def run_pass(self, ops):
        c = self.chain
        ds = ops.call("datasets.parse_dataset", datasets.parse_dataset, self.inputs["dataset.csv"], c.mlm)
        rows = ops.call("classify.label_rows", classify.label_rows, ds.points, c)
        text = ops.call("classify.serialize_labels", classify.serialize_labels, rows)
        report = ops.call("analysis.analyze_partitions", analysis.analyze_partitions, ds.points, c, self.rules)
        kinds = [r.kind for r in rows]
        algebra = ops.call("classify.verify_set_algebra", classify.verify_set_algebra, ds.points, c, labels=kinds)
        cov = ops.call("analysis.coverage_report", analysis.coverage_report, ds.points, c.mlm)
        mons, stub = self.baseline
        sim = ops.call("monitors.run_monitor_chain.baseline", monitors.run_monitor_chain, ds.points, c, mons, stub)
        labeled = [(p, r.category) for p, r in zip(ds.points, rows)]
        svg = ops.call("render.render_svg", render.render_svg, self.nodes_2d, labeled)
        return {"ds": ds, "rows": rows, "labels_csv": text, "report": report, "algebra": algebra,
                "coverage": cov, "sim": sim, "svg": svg}

    def digest(self, out) -> dict[str, object]:
        return {
            "datasets.parse_dataset": (len(out["ds"].points), len(out["ds"].diagnostics)),
            "classify.label_rows": out["labels_csv"],
            "analysis.analyze_partitions": [(s.key, s.count) for s in out["report"].sections],
            "classify.verify_set_algebra": (out["algebra"].holds, len(out["algebra"].violations)),
            "analysis.coverage_report": out["coverage"].render_text(),
            "monitors.run_monitor_chain.baseline": out["sim"].render_verdicts_csv(),
            "render.render_svg": sha256(out["svg"]),
        }

    def check(self, ops, out) -> dict[str, int]:
        n = self.rows
        ds = out["ds"]
        if len(ds.points) != n or not ds.ok:
            ops.fail(f"parse_dataset: {len(ds.points)} points, expected {n}")
        expected = self.ref.labels(self.table)
        rows = out["rows"]
        checked = check_label_rows(ops, rows, expected)
        lines = list(csv.reader(io.StringIO(out["labels_csv"])))
        if len(lines) != n + 1 or [row[1] for row in lines[1:]] != [r.kind.value for r in rows]:
            ops.fail("serialize_labels: rows do not match the labels")
        want = self.ref.partition_counts(expected)
        got = {s.key: s.count for s in out["report"].sections}
        if sum(got.values()) != n or (expected["decided"].all() and got != want):
            ops.fail(f"analyze_partitions: counts {got} != reference {want}")
        if not out["algebra"].holds:
            ops.fail(f"verify_set_algebra: {len(out['algebra'].violations)} violation(s)")
        cov_want: dict[str, int] = {}
        for cat in expected["coverage_category"]:
            cov_want[cat] = cov_want.get(cat, 0) + 1
        counts = out["coverage"].counts
        if sum(counts.values()) != n or (expected["decided"].all() and counts != cov_want):
            ops.fail(f"coverage_report: counts {counts} != reference {cov_want}")
        _check_baseline(ops, self.ref, self.table, out["sim"])
        _check_svg(ops, out["svg"], [r.category for r in rows])
        return {"rows_checked": checked, "rows_undecided": n - checked}


def _check_baseline(ops, ref: R.Reference, table, sim) -> None:
    """One verdict per point, with the action and stub output the reference expects."""
    action, stub, decided = ref.monitor_baseline(table)
    verdicts = sim.verdicts
    if len(verdicts) != len(action):
        ops.fail(f"run_monitor_chain: {len(verdicts)} verdicts for {len(action)} points")
        return
    bad = 0
    for i in np.flatnonzero(decided):
        v = verdicts[i]
        if (v.action or "") != action[i]:
            bad += 1
        elif v.action is None and not R.close(v.stub_output, float(stub[i])):
            bad += 1
    ops.fail(f"run_monitor_chain: {bad} verdict(s) disagree", 1 if bad else 0)


def _check_input_only(ops, table, sim, alt_span: float) -> None:
    """cross_check_monitor on Alt (threshold 0.5) latches failover at its first detection."""
    raw, alt = table["raw:Alt"], table["Alt"]
    detect = ~np.isnan(raw) & (np.abs(np.nan_to_num(raw) - alt) / alt_span > 0.5)
    first = int(np.argmax(detect)) if detect.any() else len(alt)
    verdicts = sim.verdicts
    if len(verdicts) != len(alt):
        ops.fail(f"run_monitor_chain(input_only): {len(verdicts)} verdicts for {len(alt)} points")
        return
    bad = sum(
        1
        for i, v in enumerate(verdicts)
        if (v.final_disposition == "mitigated") != (i >= first) or v.latched != (i > first)
    )
    ops.fail(f"run_monitor_chain(input_only): {bad} verdict(s) disagree", 1 if bad else 0)


def _check_svg(ops, svg: str, categories: list[str]) -> None:
    try:
        root = ET.fromstring(svg)
    except ET.ParseError as exc:
        ops.fail(f"render_svg: not XML: {exc}")
        return
    ns = "{http://www.w3.org/2000/svg}"
    got = [c.get("class", "") for c in root.iter(f"{ns}circle")]
    want = [f"pt cat-{c}" for c in categories]
    if sorted(got) != sorted(want):
        ops.fail(f"render_svg: {len(got)} points drawn, expected {len(want)}")


class RegistryPolytope(Workload):
    """~2k Novelty-material rows against a 2k-point registry, then polytope geometry."""

    name = "registry_polytope"
    rows = 2_000
    registry_size = 2_000

    def make_registry(self):
        return _uniform_inside(rng_for(self.seed, 2), self.ref, self.registry_size)

    def prepare(self):
        rng = rng_for(self.seed, 3)
        n = self.rows
        group = rng.choice(3, size=n, p=[0.4, 0.4, 0.2])
        x = np.zeros((n, 2))
        copies = np.flatnonzero(group == 0)
        picked = self.registry[rng.integers(len(self.registry), size=len(copies))]
        jitter = rng.uniform(-0.4, 0.4, size=(len(copies), 2)) * R.TOL * self.ref.mlm.span
        x[copies] = picked + jitter
        fresh = np.flatnonzero(group == 1)
        x[fresh] = _uniform_inside(rng, self.ref, len(fresh))
        wide = np.flatnonzero(group == 2)
        lo, hi = _box(self.ref.mlc, INFLATION)
        x[wide] = rng.uniform(lo, hi, size=(len(wide), 2))
        t_lo, t_hi = _box(self.ref.ext, TEMP_INFLATION)
        temp = rng.uniform(t_lo[2], t_hi[2], size=n)
        self.table = {"Mach": x[:, 0], "Alt": x[:, 1], "raw:Alt": np.full(n, np.nan),
                      "hidden:Temp": temp, "in_sample": np.zeros(n)}
        self.inputs["dataset.csv"] = table_csv(self.table)
        self.inputs["registry"] = self.registry.tobytes().hex()
        ds = datasets.parse_dataset(self.inputs["dataset.csv"], self.chain.mlm)
        self.points = ds.points
        self.combined = [oddkit.DataPoint(p.combined_values()) for p in self.points]
        self.xyz = np.column_stack([x, temp])

    def run_pass(self, ops):
        ext = self.chain.extended
        rows = ops.call("classify.label_rows", classify.label_rows, self.points, self.chain)
        dist, inside = [], []
        for p in self.combined:
            dist.append(ops.call("geometry.distance_to_boundary", geometry.distance_to_boundary, p, ext))
            inside.append(ops.call("geometry.point_in_region", geometry.point_in_region, p, ext))
        return {"rows": rows, "dist": dist, "inside": inside}

    def items(self, op: str) -> int:
        return 1 if op.startswith("geometry.") else self.rows

    def digest(self, out):
        return {
            "classify.label_rows": classify.serialize_labels(out["rows"]),
            "geometry.distance_to_boundary": out["dist"],
            "geometry.point_in_region": [c.value for c in out["inside"]],
        }

    def check(self, ops, out) -> dict[str, int]:
        expected = self.ref.labels(self.table)
        rows = out["rows"]
        checked = check_label_rows(ops, rows, expected)
        d_ref, verdict = self.ref.ext_distance(self.xyz)
        inexact = 0
        for i, (d, c) in enumerate(zip(out["dist"], out["inside"])):
            if verdict[i] < 0:
                continue
            if (c != oddkit.Containment.OUTSIDE) != (verdict[i] == 1):
                ops.fail(f"point_in_region row {i}: {c.value}, reference {verdict[i]}")
            if verdict[i] == 1 and abs(d - d_ref[i]) > 1e-9:
                ops.fail(f"distance_to_boundary row {i}: {d} inside, reference {d_ref[i]}")
            elif verdict[i] == 0:
                # SLSQP's answer is feasible, so it may not undercut the exact distance.
                if d < d_ref[i] - 1e-6:
                    ops.fail(f"distance_to_boundary row {i}: {d} < exact {d_ref[i]}")
                elif d > d_ref[i] * (1 + 1e-4) + 1e-6:
                    inexact += 1
        outside = int((verdict == 0).sum())
        return {"rows_checked": checked, "rows_undecided": self.rows - checked,
                "outside_points": outside, "distance_inexact": inexact}


class StreamGenerate(Workload):
    """Per-point sampling, anomaly construction, a CSV round trip and both monitor chains."""

    name = "stream_generate"
    per_mode = 300
    ring_ext = 600
    # Raising Alt by a quarter pushes the upper points through the roof, so
    # inject_inlier both accepts and rejects.
    inlier_factor = 1.25
    inlier_transform = anomaly.Transform("scale", "Alt", factor=inlier_factor)

    def prepare(self):
        self.sample_seed = int(rng_for(self.seed, 4).integers(2**31))
        self.scenarios = {name: self.scenario(name) for name in ("baseline", "input_only")}
        self.inputs["sample_seed"] = str(self.sample_seed)

    def run_pass(self, ops):
        mlm, ext = self.chain.mlm, self.chain.extended
        drawn = {}
        for mode in anomaly.MODES:
            drawn[mode] = ops.call(f"anomaly.sample_region.{mode}", anomaly.sample_region,
                                   mlm, self.per_mode, mode, self.sample_seed)
        ring = ops.call("anomaly.sample_region.outlier_ring_ext", anomaly.sample_region,
                        ext, self.ring_ext, "outlier_ring", self.sample_seed)
        inliers = [ops.call("anomaly.inject_inlier", anomaly.inject_inlier, p, self.inlier_transform, mlm)
                   for p in drawn["nominal_interior"]]
        novel = [ops.call("anomaly.make_novelty", anomaly.make_novelty, p, self.chain) for p in ring]
        stream = [p for mode in anomaly.MODES for p in drawn[mode]]
        stream += [p for p in inliers + novel if not isinstance(p, anomaly.Rejected)]
        self.stream_rows = len(stream)
        text = ops.call("datasets.serialize_dataset", datasets.serialize_dataset, stream, mlm, self.seed)
        ds = ops.call("datasets.parse_dataset", datasets.parse_dataset, text, mlm)
        sims = {}
        for name, (mons, stub) in self.scenarios.items():
            sims[name] = ops.call(f"monitors.run_monitor_chain.{name}", monitors.run_monitor_chain,
                                  ds.points, self.chain, mons, stub)
        return {"drawn": drawn, "ring": ring, "inliers": inliers, "novel": novel,
                "stream": stream, "csv": text, "ds": ds, "sims": sims}

    def rows_of(self, out) -> int:
        return len(out["stream"])

    def items(self, op: str) -> int:
        if op == "anomaly.sample_region.outlier_ring_ext":
            return self.ring_ext
        if op.startswith("anomaly.sample_region."):
            return self.per_mode
        if op in ("anomaly.inject_inlier", "anomaly.make_novelty"):
            return 1
        return self.stream_rows

    def digest(self, out):
        return {
            "anomaly.sample_region": [[tuple(p.values.items()) for p in out["drawn"][m]] for m in anomaly.MODES],
            "anomaly.sample_region.outlier_ring_ext": [tuple(p.values.items()) for p in out["ring"]],
            "datasets.serialize_dataset": out["csv"],
            "monitors.run_monitor_chain": {k: v.render_verdicts_csv() for k, v in out["sims"].items()},
        }

    def check(self, ops, out) -> dict[str, int]:
        ref = self.ref
        for mode in anomaly.MODES:
            pts = out["drawn"][mode]
            x = np.array([[p.values["Mach"], p.values["Alt"]] for p in pts])
            ok = R.in_stratum(ref.mlm, mode, x)
            if len(pts) != self.per_mode or (ok == 0).any():
                ops.fail(f"sample_region {mode}: {int((ok == 0).sum())} point(s) outside the stratum")
        ring = out["ring"]
        xr = np.array([[p.values[n] for n in ref.ext.names] for p in ring])
        ok = R.in_stratum(ref.ext, "outlier_ring", xr)
        if len(ring) != self.ring_ext or (ok == 0).any():
            ops.fail(f"sample_region outlier_ring on ext: {int((ok == 0).sum())} point(s) outside the stratum")

        # inject_inlier: Alt scaled; accepted exactly when the result changed and stays inside MLMODD.
        base = out["drawn"]["nominal_interior"]
        alt = np.array([p.values["Alt"] for p in base])
        moved = alt * self.inlier_factor
        inside, _ = R.containment(ref.mlm, np.column_stack([[p.values["Mach"] for p in base], moved]))
        changed = np.abs(moved - alt) > R.TOL * ref.mlm.span[1]
        for p, got, ins, ch, want in zip(base, out["inliers"], inside, changed, moved):
            if ins < 0:
                continue
            accepted = not isinstance(got, anomaly.Rejected)
            if accepted != bool(ins == 1 and ch):
                ops.fail(f"inject_inlier: accepted={accepted} for {p.values}")
            elif accepted and (got.provenance_raw != p.values or got.values["Alt"] != want):
                ops.fail(f"inject_inlier: wrong values {got.values} / {got.provenance_raw}")

        # make_novelty: accepted exactly when outside the extension with the projection inside MLMODD.
        ext_in, _ = R.containment(ref.ext, xr)
        proj_in, _ = R.containment(ref.mlm, xr[:, :2])
        for p, got, e, m in zip(ring, out["novel"], ext_in, proj_in):
            if e < 0 or m < 0:
                continue
            accepted = not isinstance(got, anomaly.Rejected)
            if accepted != bool(e == 0 and m == 1):
                ops.fail(f"make_novelty: accepted={accepted} for {p.values}")
            elif accepted and (got.hidden_values != {"Temp": p.values["Temp"]}
                               or got.values != {"Mach": p.values["Mach"], "Alt": p.values["Alt"]}):
                ops.fail(f"make_novelty: wrong values {got.values} / {got.hidden_values}")

        # serialize_dataset -> parse_dataset keeps every point at 9 significant digits.
        stream, parsed = out["stream"], out["ds"].points
        def nine(v):
            return float(format(v, ".9g"))
        same = len(stream) == len(parsed) and all(
            q.values == {k: nine(v) for k, v in p.values.items()}
            and (q.provenance_raw or None) == ({k: nine(v) for k, v in p.provenance_raw.items()} if p.provenance_raw else None)
            and (q.hidden_values or None) == ({k: nine(v) for k, v in p.hidden_values.items()} if p.hidden_values else None)
            for p, q in zip(stream, parsed)
        )
        if not same or not out["ds"].ok:
            ops.fail("serialize_dataset/parse_dataset: round trip changed the points")
        table = points_table(parsed)
        _check_baseline(ops, ref, table, out["sims"]["baseline"])
        _check_input_only(ops, table, out["sims"]["input_only"], float(ref.mlm.span[1]))
        return {"points": len(stream)}


class CliCommands(Workload):
    """The CLI steps as subprocesses, one at a time, over a ~1k-row dataset."""

    name = "cli_commands"
    in_process = False
    cycle = 10  # one invocation of each command
    min_passes = 20  # two of each, so a tail percentile has ten samples beyond it
    rows = 1_000
    generate_n = 100

    def prepare(self):
        self.table = mixed_table(self.seed, self.ref, self.rows)
        self.inputs["dataset.csv"] = table_csv(self.table)
        self.data_path = self.tmp / "dataset.csv"
        self.data_path.write_text(self.inputs["dataset.csv"], encoding="utf-8")
        spec, data = str(SPEC), str(self.data_path)
        gen = ["generate", spec, "--node", "MLMODD", "-n", str(self.generate_n), "--seed", str(self.seed)]
        self.commands = [
            ("validate", ["validate", spec]),
            ("classify", ["classify", spec, data]),
            ("partition", ["partition", spec, data]),
            ("analyze", ["analyze", spec, data]),
            ("coverage", ["coverage", spec, data, "--node", "MLMODD"]),
            ("generate_nominal_interior", gen + ["--mode", "nominal_interior"]),
            ("generate_novelty", gen + ["--mode", "novelty"]),
            ("generate_inlier", gen + ["--mode", "inlier", "--transform", "scale:Alt:0.5"]),
            ("simulate", ["simulate", spec, data, "--scenario", "baseline"]),
            ("render", ["render", spec, data]),
        ]
        self.probe_path = self.tmp / "probe.txt"
        paths = [str(Path(__file__).resolve().parent / "childprobe"), str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths), ODDKIT_BENCH_PROBE=str(self.probe_path))
        self.expected = self.ref.labels(self.table)
        self.calls = 0
        self.max_rss_kb = 0
        self.child_probes: list[list[float]] = []  # kernel timings each CLI child reports

    def invoke(self, args: list[str]) -> tuple[int, str]:
        """Run one CLI call; returns exit code and stdout. Records the child's peak RSS and probes."""
        out_path = self.tmp / "stdout.txt"
        self.probe_path.unlink(missing_ok=True)
        with open(out_path, "wb") as out, open(os.devnull, "wb") as err:
            proc = subprocess.Popen([sys.executable, "-m", "oddkit.cli", *args],
                                    stdout=out, stderr=err, env=self.env, cwd=self.tmp)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.max_rss_kb = max(self.max_rss_kb, usage.ru_maxrss)
        self.child_probes.append([float(x) for x in self.probe_path.read_text().split()])
        return proc.returncode, out_path.read_text(encoding="utf-8")

    def run_pass(self, ops):
        """One CLI invocation: the next of the ten commands, in a fixed cycle."""
        name, args = self.commands[self.calls % len(self.commands)]
        self.calls += 1
        code, stdout = ops.call(f"cli.{name}", self.invoke, args)
        return {name: (code, stdout)}

    def digest(self, out):
        return {f"cli.{k}": v for k, v in out.items()}

    def check(self, ops, out) -> dict[str, int]:
        """Check a command's output the first time it runs."""
        for name, (code, stdout) in out.items():
            if code != 0:
                ops.fail(f"cli.{name}: exit code {code}")
            elif name.startswith("generate_"):
                self._check_generated(ops, name[len("generate_"):], stdout)
            elif not getattr(self, f"_check_{name}")(stdout):
                ops.fail(f"cli.{name}: output disagrees with the reference")
        return {"rows_checked": int(self.expected["decided"].sum())}

    def _check_validate(self, text: str) -> bool:
        return "ok (5 node(s), 2 monitorchain(s))" in text

    def _check_classify(self, text: str) -> bool:
        rows = list(csv.DictReader(io.StringIO(text)))
        if len(rows) != self.rows:
            return False
        notes = [dict(kv.split("=", 1) for kv in r["annotations"].split(";") if kv) for r in rows]
        return not label_disagreements([r["kind"] for r in rows], [r["category"] for r in rows], notes,
                                       self.expected)

    def _counts_ok(self, counts: dict) -> bool:
        want = self.ref.partition_counts(self.expected)
        return sum(counts.values()) == self.rows and (not self.expected["decided"].all() or counts == want)

    def _check_partition(self, text: str) -> bool:
        rows = csv.DictReader(io.StringIO(text))
        return self._counts_ok({(r["kind_set"], r["category"]): int(r["count"]) for r in rows})

    def _check_analyze(self, text: str) -> bool:
        counts = {}
        for line in text.splitlines():
            if line.startswith("partition "):
                head, _, rest = line[len("partition "):].partition(": ")
                kind_set, _, category = head.partition(" x ")
                counts[(kind_set, category)] = int(rest.split(" ")[0])
        return self._counts_ok(counts)

    def _check_coverage(self, text: str) -> bool:
        pairs = dict(line.split("=", 1) for line in text.splitlines() if "=" in line)
        counts = {k[len("count_"):]: int(v) for k, v in pairs.items() if k.startswith("count_")}
        want = {c: int((self.expected["coverage_category"] == c).sum()) for c in counts}
        return sum(counts.values()) == self.rows and (not self.expected["decided"].all() or counts == want)

    def _check_simulate(self, text: str) -> bool:
        verdicts = list(csv.DictReader(io.StringIO(text)))
        action, _, decided = self.ref.monitor_baseline(self.table)
        return len(verdicts) == self.rows and all(
            v["action"] == a for v, a, d in zip(verdicts, action, decided) if d
        )

    def _check_render(self, text: str) -> bool:
        try:
            root = ET.fromstring(text)
        except ET.ParseError:
            return False
        return sum(1 for _ in root.iter("{http://www.w3.org/2000/svg}circle")) == self.rows

    def _check_generated(self, ops, mode: str, text: str) -> None:
        body = "".join(line for line in text.splitlines(keepends=True) if not line.startswith("#"))
        rows = list(csv.DictReader(io.StringIO(body)))
        if len(rows) != self.generate_n:
            ops.fail(f"cli.generate {mode}: {len(rows)} rows, expected {self.generate_n}")
            return
        x = np.array([[float(r["Mach"]), float(r["Alt"])] for r in rows])
        if mode == "nominal_interior":
            ok = R.in_stratum(self.ref.mlm, mode, x) != 0
        elif mode == "novelty":
            xyz = np.column_stack([x, [float(r["hidden:Temp"]) for r in rows]])
            ext_in, _ = R.containment(self.ref.ext, xyz)
            ok = (R.containment(self.ref.mlm, x)[0] != 0) & (ext_in != 1)
        else:
            raw = np.array([float(r["raw:Alt"]) for r in rows])
            ok = (R.containment(self.ref.mlm, x)[0] != 0) & (raw != x[:, 1])
        if not ok.all():
            ops.fail(f"cli.generate {mode}: {int((~ok).sum())} point(s) outside the requested stratum")


WORKLOADS = {w.name: w for w in (LabelBatch, RegistryPolytope, StreamGenerate, CliCommands)}
