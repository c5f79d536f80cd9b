"""Run one benchmark workload in this process and print its result.

    python3 perfbench/run.py --workload reduce --seed 1 --seconds 50 --trace 0

The workload's inputs are built from the seed (set-up is repeated and timed),
then its fixed op list runs pass after pass while one more pass, as long as
the last one, still ends within `--seconds`; at least two passes run. Every op's output is checked, and each pass must reproduce
the previous pass's outputs bit for bit and its counters exactly.

The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`: with `--trace 0` the end-to-end metrics
of BENCHMARK.json, with `--trace 1` its per-layer metrics. The line before it
is the run's full record: machine, seed, per-case metrics with sample counts
and every failed op. A traced run alternates untraced and traced passes,
reports the difference as the tracing overhead, and writes its spans to
`.bench_trace/`.

`failed` counts ops whose output check failed. `correct` is false when a
failure is not the known one: the oracle's rounding-level false
counterexamples on multisite, which are counted in `failed` and logged.
A counter that does not repeat across passes aborts the run (exit 3).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
MIN_PASSES = 2


class CounterMismatch(RuntimeError):
    pass


def environment() -> None:
    """Pin BLAS threads (1 unless OPENBLAS_NUM_THREADS asks for more, never
    more than the CPUs this process may use), put the checkout's sources
    first on the path and import crnlump.

    One BLAS thread keeps the dense vector field of `simulate` from waiting
    on a second CPU that other tenants of a small machine may hold."""
    if not (ROOT / "src" / "crnlump" / "__init__.py").is_file():
        raise FileNotFoundError(f"no crnlump sources under {ROOT / 'src'}")
    nproc = len(os.sched_getaffinity(0))
    threads = int(os.environ.get("OPENBLAS_NUM_THREADS", 1))
    os.environ["OPENBLAS_NUM_THREADS"] = str(max(1, min(threads, nproc)))
    sys.path.insert(0, str(ROOT / "src"))
    import crnlump  # noqa: F401


def fresh_import_s() -> float:
    """Median time to import crnlump (with numpy and scipy) in a fresh
    process, over SETUP_REPEATS processes: a single import time moves by
    tens of percent with the machine's file cache and load."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t = time.perf_counter(); import crnlump; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", code, str(ROOT / "src")],
                             capture_output=True, text=True, check=True,
                             timeout=120)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def machine() -> dict:
    import numpy
    import scipy
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    with contextlib.suppress(OSError):
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "openblas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
            "loadavg": list(os.getloadavg()), "commit": commit}


def host_probe_ms(samples: int = 5) -> float:
    """Median time of a fixed pure-Python loop. Taken before and after the
    passes, it tells a slow host from a slow program: on small shared
    machines the host's speed drifts by tens of percent over minutes."""
    times = []
    for _ in range(samples):
        t = time.perf_counter()
        acc = 0
        for i in range(1_000_000):
            acc += i % 7
        times.append(time.perf_counter() - t)
    return 1e3 * statistics.median(times)


class PassContext:
    """Times an op's calls into crnlump per segment; in a traced pass the
    tracer records spans only inside these timed regions."""

    def __init__(self, tracer=None):
        self.spent = defaultdict(float)
        self.counts = {}
        self.tracer = tracer

    @contextlib.contextmanager
    def timed(self, segment: str):
        rec = self.tracer.recording() if self.tracer else contextlib.nullcontext()
        with rec:
            t = time.perf_counter()
            try:
                yield
            finally:
                self.spent[segment] += time.perf_counter() - t


def run_pass(ops, tracer, previous):
    from workloads import CheckFailed
    ctx = PassContext(tracer)
    digests, failures = {}, []
    if tracer is not None:
        tracer.counts.clear()
        mark = tracer.mark()
    for name, fn in ops:
        if tracer is not None:
            tracer.op = name
        # start every op from the same collector state, as a fresh process
        # would; otherwise when the cyclic collector runs inside an op, and
        # how long it takes, depends on the ops that ran before
        gc.collect()
        try:
            d = fn(ctx)
        except CheckFailed as exc:
            failures.append({"op": name, "error": str(exc),
                             "known_defect": exc.known_defect, **exc.detail})
            continue
        except Exception as exc:  # an op that raises is a failed op
            failures.append({"op": name, "known_defect": False,
                             "error": f"{type(exc).__name__}: {exc}"})
            continue
        if previous is not None and name in previous["digests"] \
                and previous["digests"][name] != d:
            failures.append({"op": name, "known_defect": False,
                             "error": "output differs from the previous pass "
                                      "on identical input"})
        digests[name] = d
    p = {"wall": sum(ctx.spent.values()), "spent": dict(ctx.spent),
         "counts": ctx.counts, "digests": digests, "failures": failures,
         "traced": tracer is not None}
    if tracer is not None:
        p["layer_self"] = tracer.layer_self_times(mark)
        p["fn_self"] = dict(tracer.self_times(mark))
        p["layer_counts"] = dict(tracer.counts)
    return p


def same_counts(passes, key):
    ref = passes[0][key]
    for p in passes[1:]:
        if p[key] != ref:
            diff = sorted(k for k in set(ref) | set(p[key])
                          if ref.get(k) != p[key].get(k))
            raise CounterMismatch(f"counters did not repeat across passes: "
                                  f"{', '.join(diff)}")


def median(values):
    return statistics.median(values) if values else 0.0


def layer_metrics(passes, untraced, setup_self, probes):
    """Per-layer metrics: medians over the traced passes of self times, and
    counters, which repeat exactly."""
    from tracing import LAYERS
    same_counts(passes, "layer_counts")
    def f(name):
        return median([p["fn_self"].get(name, 0.0) for p in passes])

    counts = defaultdict(int, passes[0]["layer_counts"])
    out = {f"{layer}.self_s": median([p["layer_self"][layer] for p in passes])
           for layer in LAYERS if layer != "generators"}
    parse_s = f("parser.parse_model")
    out.update({
        "parser.parse_s": parse_s,
        "parser.lines_per_s": counts["parser.lines"] / parse_s if parse_s else 0.0,
        "parser.serialize_s": f("parser.serialize_model"),
        "lumping.coarsest_s": f("lumping.coarsest_equivalence"),
        "lumping.quotient_s": f("lumping.quotient"),
        "lumping.check_s": f("lumping.check_equivalence"),
        "generators.build_s": sum(t for n, t in setup_self.items()
                                  if n.startswith("generators.")),
        "ode.vectorfield_build_s": f("ode.VectorField"),
        "ode.simulate_s": f("ode.simulate"),
        "ode.project_s": f("ode.project_control"),
        "reconstruct.reconstruct_s": f("reconstruct.reconstruct_trajectory"),
        "ctmc.enumerate_s": f("ctmc.enumerate_states"),
        "ctmc.generator_s": f("ctmc.build_generator"),
        "ctmc.lumpability_s": f("ctmc.check_ordinary_lumpability"),
        "ctmc.transient_s": f("ctmc.transient_solve"),
        "ctmc.ssa_s": f("ctmc.ssa_simulate"),
        "ode.rhs_eval_us": 0.0,
        "reconstruct.solve_us": 0.0,
        "reconstruct.solve_iterations": 0,
        "reconstruct.solve_nonconverged": 0,
    })
    for name in ("lumping.rounds", "lumping.sweeps", "lumping.blocks",
                 "lumping.quotient_reactions_out", "ode.rk4_steps",
                 "ode.rhs_evals", "reconstruct.stage_solves",
                 "reconstruct.max_residual", "ctmc.states", "ctmc.truncated",
                 "ctmc.nnz", "ctmc.ssa_events"):
        out[name] = counts[name]
    out.update(probes)
    traced_wall = median([p["wall"] for p in passes])
    out["trace.overhead_s"] = traced_wall - median([p["wall"] for p in untraced])
    out["trace.unattributed_s"] = median(
        [p["wall"] - sum(p["layer_self"].values()) for p in passes])
    return out


def measure(name: str, seed: int, seconds: float, trace: bool,
            tiny: bool = False, import_s: float = 0.0) -> dict:
    """Set up, warm up and run one workload; returns the run record and the
    result object."""
    from tracing import Tracer, installed
    from workloads import WORKLOADS
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workdir = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    tracer = Tracer() if trace else None
    try:
        setup_times = []
        setup_self = {}
        with installed(tracer):
            for k in range(SETUP_REPEATS):
                wl = WORKLOADS[name](seed, workdir, tiny=tiny)
                traced_setup = tracer is not None and k == SETUP_REPEATS - 1
                mark = tracer.mark() if tracer is not None else 0
                gc.collect()
                with (tracer.recording() if traced_setup
                      else contextlib.nullcontext()):
                    t = time.perf_counter()
                    wl.setup()
                    wl.warmup()
                    setup_times.append(time.perf_counter() - t)
                if traced_setup:
                    setup_self = dict(tracer.self_times(mark))
            ops = wl.ops()
            probe_ms = [host_probe_ms()]
            passes = []
            start = time.perf_counter()
            lap = 0.0
            # stop before a pass that would overrun the run's time, so that
            # the whole run takes no longer than its measured time
            while (len(passes) < MIN_PASSES
                   or time.perf_counter() - start + lap <= seconds):
                traced = tracer is not None and len(passes) % 2 == 1
                t = time.perf_counter()
                passes.append(run_pass(ops, tracer if traced else None,
                                       passes[-1] if passes else None))
                lap = time.perf_counter() - t
            same_counts(passes, "counts")
            probe_ms.append(host_probe_ms())
        probes = wl.probes() if trace else {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [f for p in passes for f in p["failures"]]
    attempted = len(ops) * len(passes)
    untraced = [p for p in passes if not p["traced"]]
    cases = defaultdict(list)
    for p in untraced:
        with contextlib.suppress(KeyError, ZeroDivisionError):
            for metric, (value, unit) in wl.case_metrics(p["spent"],
                                                         p["counts"]).items():
                cases[metric].append((value, unit))
    e2e = {
        "setup_s": import_s + median(setup_times),
        "wall_s": median([p["wall"] for p in untraced]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {
        "setup_s": {"value": e2e["setup_s"], "unit": "s",
                    "samples": len(setup_times)},
        "import_s": {"value": import_s, "unit": "s",
                     "samples": SETUP_REPEATS if import_s else 0},
        "wall_s": {"value": e2e["wall_s"], "unit": "s", "samples": len(untraced)},
        "peak_rss_mb": {"value": e2e["peak_rss_mb"], "unit": "MiB", "samples": 1},
        "error_rate": {"value": len(failures) / attempted,
                       "unit": "failed/attempted", "samples": attempted},
    }
    for metric, vals in cases.items():
        detail[metric] = {"value": median([v for v, _ in vals]),
                          "unit": vals[0][1], "samples": len(vals)}
    if trace:
        chosen = layer_metrics([p for p in passes if p["traced"]], untraced,
                               setup_self, probes)
        declared = spec["per_layer"]
    else:
        chosen = e2e
        declared = spec["end_to_end"]
    metrics = {m["name"]: {"value": chosen[m["name"]], "unit": m["unit"]}
               for m in declared}
    record = {
        "workload": name, "seed": seed, "trace": int(trace),
        "seconds": seconds, "passes": len(passes), "ops": [n for n, _ in ops],
        "pass_wall_s": [p["wall"] for p in passes],
        "machine": {**machine(), "host_probe_ms": probe_ms},
        "metrics": detail,
        "counts": passes[0]["counts"], "failures": failures,
    }
    if trace:
        record["spans"] = tracer.dump(start)
    result = {"correct": not any(not f["known_defect"] for f in failures),
              "attempted": attempted, "failed": len(failures),
              "metrics": metrics}
    return {"record": record, "result": result}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["reduce", "dynamics"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    try:
        environment()
        setup_import_s = fresh_import_s()
    except (FileNotFoundError, ImportError,
            subprocess.SubprocessError) as exc:
        print(f"perfbench: cannot load crnlump: {exc}", file=sys.stderr)
        return 2
    try:
        out = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                      import_s=setup_import_s)
    except CounterMismatch as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    record = out["record"]
    for f in record["failures"]:
        print(f"perfbench: failed op: {json.dumps(f)}", file=sys.stderr)
    spans = record.pop("spans", None)
    if spans is not None:
        trace_dir = ROOT / ".bench_trace"
        trace_dir.mkdir(exist_ok=True)
        (trace_dir / f"{args.workload}-seed{args.seed}.json").write_text(
            json.dumps(spans) + "\n", encoding="utf-8")
    print(json.dumps(record))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
