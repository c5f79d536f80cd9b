"""Run every workload, each in a fresh process, one after another, and
print all end-to-end metrics, the per-layer metrics and the checks that
tie them together.

    python3 perfbench/suite.py --seed 1 --seconds 50 --out perfbench/results/x.json

Per workload: one untraced run, then two traced runs with the same seed.
Counts (unit `count`) and the ops' own counters must be identical across
the three runs; a difference fails the suite (exit 1). On `reduce` the
layer self times must cover the traced passes' timed work, so that they
account for the untraced `wall_s` within the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("reduce", "dynamics")


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} trace={trace} exited with "
                           f"{proc.returncode}:\n{proc.stderr}")
    return {"record": json.loads(lines[-2]), "result": json.loads(lines[-1])}


def layer_counts(run: dict, units: dict) -> dict:
    return {k: v["value"] for k, v in run["result"]["metrics"].items()
            if units[k] == "count"}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=50)
    ap.add_argument("--out", help="write every run's record and result here")
    args = ap.parse_args(argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems, runs = [], {}
    for w in WORKLOADS:
        plain = run_once(w, args.seed, args.seconds, 0)
        traced = [run_once(w, args.seed, args.seconds, 1) for _ in range(2)]
        runs[w] = {"untraced": plain, "traced": traced}
        rec = plain["record"]
        print(f"\n== {w} (seed {args.seed}, {rec['passes']} passes, "
              f"{plain['result']['attempted']} ops, "
              f"{plain['result']['failed']} failed, "
              f"correct={plain['result']['correct']})")
        for name, m in rec["metrics"].items():
            print(f"  {name:24s} {m['value']:14.6g} {m['unit']:16s} "
                  f"n={m['samples']}")
        for f in rec["failures"][:len(rec["ops"])]:
            print(f"  failed: {f['error']}")
        op_counts = [r["record"]["counts"] for r in [plain] + traced]
        if any(c != op_counts[0] for c in op_counts[1:]):
            problems.append(f"{w}: op counters differ between runs")
        a, b = (layer_counts(r, units) for r in traced)
        diff = sorted(k for k in a if a[k] != b[k])
        if diff:
            problems.append(f"{w}: counts differ between traced runs: {diff}")
        layers = traced[0]["result"]["metrics"]
        print("  per layer (traced run 1):")
        for name, m in layers.items():
            if m["value"]:
                print(f"    {name:34s} {m['value']:14.6g} {m['unit']}")
        self_sum = sum(m["value"] for n, m in layers.items()
                       if n.endswith(".self_s"))
        wall = traced[0]["record"]["metrics"]["wall_s"]["value"]
        overhead = layers["trace.overhead_s"]["value"]
        print(f"  layer self times sum to {self_sum:.4f} s; untraced wall_s "
              f"{wall:.4f} s; difference {self_sum - wall:+.4f} s; tracing "
              f"overhead {overhead:+.4f} s")
        # the traced passes' wall time is the layer self times plus the
        # timed work no span covers, which must stay negligible
        unattributed = layers["trace.unattributed_s"]["value"]
        if w == "reduce" and unattributed > 0.01 * wall:
            problems.append(f"reduce: {unattributed:.4f} s of timed work is "
                            "outside every layer span")
    if args.out:
        Path(args.out).write_text(json.dumps(runs, indent=1) + "\n",
                                  encoding="utf-8")
    for p in problems:
        print(f"SUITE FAIL: {p}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
