"""Smoke test of the harness at tiny sizes: every workload, untraced and
traced, must emit every metric BENCHMARK.json names with its unit, every
per-case metric, and pass its output checks (the oracle's known
false counterexamples excepted).

    python3 perfbench/smoke.py
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    run.environment()
    from workloads import WORKLOADS
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    for name, cls in WORKLOADS.items():
        for trace in (False, True):
            out = run.measure(name, seed=7, seconds=0, trace=trace, tiny=True)
            result, record = out["result"], out["record"]
            declared = spec["per_layer" if trace else "end_to_end"]
            want = {m["name"]: m["unit"] for m in declared}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{name} trace={int(trace)}: metrics {got}")
            missing = ({"setup_s", "wall_s", "peak_rss_mb", "error_rate"}
                       | set(cls.cases)) - set(record["metrics"])
            if missing:
                problems.append(f"{name}: per-case metrics missing {missing}")
            if not result["correct"]:
                problems.append(f"{name}: unexpected failures "
                                f"{record['failures']}")
            print(f"{name} trace={int(trace)}: {result['attempted']} ops, "
                  f"{result['failed']} failed, correct={result['correct']}")
    for p in problems:
        print(f"SMOKE FAIL: {p}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
