"""Repeat the benchmark over seeds and summarise each metric's spread.

    python3 bench/steady.py --runs 10 --first-seed 1 --out bench/baseline/set1.json
    python3 bench/steady.py --compare bench/baseline/set1.json bench/baseline/set2.json

Each run is ``bench/run.py`` with another seed; ``--trace 1`` summarises
the per-layer metrics of traced runs instead. For every workload and
end-to-end metric the summary gives the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread, the distance between
the quartiles as a share of the median. A spread is steady when it is
within a third of the metric's bound in BENCHMARK.json. ``--compare``
checks that the second set's medians are no worse than the first's by more
than each bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def one_run(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    t0 = time.perf_counter()
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - t0
    if out.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr[-2000:]}")
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    # Report lines read "<workload> <metric> <value> <unit> <note>"; keep the unnormalised ones.
    result["as_measured"] = {
        parts[1]: float(parts[2])
        for parts in (line.split() for line in lines[:-1])
        if len(parts) > 3 and parts[0] == workload and parts[1].endswith("_wall")
    }
    return result


def summarise(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"values": values, "median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def measure(args) -> None:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]] if not args.workloads else args.workloads
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    runs: dict[str, list[dict]] = {w: [] for w in names}
    for seed in seeds:  # round robin, so a slow spell of the host hits every workload
        for w in names:
            r = one_run(spec, w, seed, args.trace)
            runs[w].append(r)
            print(f"{w:18s} seed={seed:<4d} wall={r['wall_s']:6.1f}s correct={r['correct']} "
                  + " ".join(f"{k}={v['value']:.5g}" for k, v in r["metrics"].items()), flush=True)
    summary = {"seeds": seeds, "run_seconds": spec["run_seconds"], "trace": args.trace, "workloads": {}}
    for w, rs in runs.items():
        entry = {"correct": all(r["correct"] for r in rs),
                 "attempted": sum(r["attempted"] for r in rs),
                 "failed": sum(r["failed"] for r in rs),
                 "wall_s": summarise([r["wall_s"] for r in rs]),
                 "metrics": {}}
        for m in spec["per_layer" if args.trace else "end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in rs]
            if not any(values):
                continue  # a layer this workload never calls
            s = summarise(values)
            s["unit"], s["bound"] = m["unit"], m.get("bound")
            s["steady"] = s["bound"] is None or s["spread"] <= s["bound"] / 3
            entry["metrics"][m["name"]] = s
        entry["as_measured"] = {k: summarise([r["as_measured"][k] for r in rs]) for k in rs[0]["as_measured"]}
        summary["workloads"][w] = entry
    text = json.dumps(summary, indent=1)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(text + "\n")
    print_table(summary)


def print_table(summary: dict) -> None:
    print(f"{'workload':18s} {'metric':16s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for w, entry in summary["workloads"].items():
        for name, s in entry["metrics"].items():
            flag = "" if s["steady"] else "  > bound/3"
            bound = "" if s["bound"] is None else f"{s['bound']:6.2f}"
            print(f"{w:18s} {name:16s} {s['median']:12.5g} {s['q1']:12.5g} {s['q3']:12.5g} "
                  f"{s['spread']:8.4f} {bound:>6s}{flag}")
        for name, s in entry["as_measured"].items():
            print(f"{w:18s} {name:16s} {s['median']:12.5g} {s['q1']:12.5g} {s['q3']:12.5g} {s['spread']:8.4f}")
        print(f"{w:18s} correct={entry['correct']} failed={entry['failed']}/{entry['attempted']} "
              f"median wall {entry['wall_s']['median']:.1f}s")


def compare(a_path: str, b_path: str) -> int:
    spec = load_spec()
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    a, b = (json.loads(Path(p).read_text()) for p in (a_path, b_path))
    worst = 0
    for w, entry in a["workloads"].items():
        for name, s in entry["metrics"].items():
            m1, m2 = s["median"], b["workloads"][w]["metrics"][name]["median"]
            change = (m2 - m1) / m1 if better[name] == "lower" else (m1 - m2) / m1
            ok = change <= s["bound"]
            worst += not ok
            print(f"{w:18s} {name:16s} {m1:12.5g} -> {m2:12.5g}  worse by {change:+.4f} "
                  f"(bound {s['bound']}){'' if ok else '  FAIL'}")
    return 1 if worst else 0


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workloads", nargs="*")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: traced runs, summarising the per-layer metrics")
    p.add_argument("--out")
    p.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = p.parse_args()
    if args.compare:
        return compare(*args.compare)
    measure(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
