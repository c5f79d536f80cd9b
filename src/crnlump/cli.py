"""Command-line surface: reduce / check / simulate / reconstruct / generate.

Every command prints a machine-readable run report (JSON) to stdout;
diagnostics go to stderr. Exit codes: 0 success, 1 parse error, 2 internal
error, 3 failed equivalence check or oracle counterexample. Timings in the
report are the only nondeterministic fields. `reduce --batch` processes a
directory in parallel with min(CRNLUMP_THREADS, files, CPUs) workers.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from .ctmc import (build_generator, check_ordinary_lumpability,
                   enumerate_ball, enumerate_states)
from .generators import (DEFAULT_ASSOCIATION, DEFAULT_DISSOCIATION,
                         DEFAULT_VACCINATION, SirParams,
                         multisite_binding_model, sir_network_model,
                         sir_star_model)
from .lumping import check_equivalence, coarsest_equivalence, quotient
from .model import (Multiset, Partition, RateInterval, ReactionNetwork,
                    StructuralError)
from .ode import (ControlSchedule, _write_csv, schedule_from_csv,
                  schedule_to_csv, simulate, trajectory_from_csv,
                  trajectory_to_csv)
from .parser import (ModelDocument, ParseError, parse_edge_list, parse_model,
                     parse_partition_file, serialize_model)
from .reconstruct import reconstruct_trajectory

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_INTERNAL = 2
EXIT_CHECK_FAILED = 3


class _Phases:
    def __init__(self):
        self.entries: Dict[str, float] = {}
        self._t0 = time.perf_counter()

    def mark(self, name: str):
        now = time.perf_counter()
        self.entries[name] = round((now - self._t0) * 1000.0, 3)
        self._t0 = now


def _emit_report(report: dict, path: Optional[str]):
    text = json.dumps(report)
    print(text)
    if path:
        Path(path).write_text(text + "\n", encoding="utf-8")


def _load_document(path: str) -> ModelDocument:
    return parse_model(Path(path).read_text(encoding="utf-8"))


def _initial_partition(doc: ModelDocument, partition_file: Optional[str]) -> Partition:
    if partition_file:
        return parse_partition_file(Path(partition_file).read_text(encoding="utf-8"),
                                    doc.network)
    if doc.initial_partition is not None:
        return doc.initial_partition
    return Partition.one_block(doc.network.n_species)


def _parse_assignments(text: str, net: ReactionNetwork, flag: str,
                       counts: bool = False) -> Dict[int, float]:
    """Parse a `NAME=VALUE,...` flag value. A missing `=`, an unknown or
    repeated species, or a value that is not finite (with `counts`, not a
    non-negative integer) is a ParseError at the item's column."""
    out: Dict[int, float] = {}
    col = 1
    for raw in text.split(","):
        item = raw.strip()
        where = col + len(raw) - len(raw.lstrip())
        col += len(raw) + 1
        if not item:
            continue
        name, eq, value = (part.strip() for part in item.partition("="))
        try:
            number = float(value)
        except ValueError:
            number = math.nan
        try:
            i = net.index_of(name)
        except StructuralError:
            i = None
        if not eq:
            why = "expected NAME=VALUE"
        elif i is None:
            why = f"unknown species {name!r}"
        elif i in out:
            why = f"duplicate value for {name!r}"
        elif not math.isfinite(number):
            why = f"value {value!r} is not a finite number"
        elif counts and not (number >= 0 and number.is_integer()):
            why = f"count {value!r} is not a non-negative integer"
        else:
            out[i] = number
            continue
        raise ParseError(f"{flag} item {item!r}: {why}", 1, where)
    return out


def _initial_vector(text: Optional[str], net: ReactionNetwork,
                    flag: str) -> Optional[np.ndarray]:
    """Initial concentrations from the `flag` assignments, else from the
    model's init, else None."""
    if text:
        v0 = np.zeros(net.n_species)
        for i, v in _parse_assignments(text, net, flag).items():
            v0[i] = v
        return v0
    if net.initial_concentration is not None:
        return np.array(net.initial_concentration)
    return None


def _block_map_text(names: Tuple[str, ...], part: Partition) -> str:
    """Block map JSON, each block's representative and members by name: the
    text of `json.dumps(..., indent=2)`, built from one C-encoded string per
    name (an indented dump runs the pure-Python encoder)."""
    quoted = [json.dumps(name) for name in names]
    blocks = ",\n".join(
        '    {\n      "representative": ' + quoted[rep]
        + ',\n      "members": [\n        '
        + ",\n        ".join([quoted[i] for i in block]) + "\n      ]\n    }"
        for rep, block in zip(part.representatives, part.blocks))
    body = "[\n" + blocks + "\n  ]" if blocks else "[]"
    return '{\n  "blocks": ' + body + "\n}\n"


def _reduce_model(path, partition_file, output, map_path) -> dict:
    """Parse a model, refine, quotient and write the reduced model and block
    map (each when a path is given). Returns the report fields shared by
    `reduce` and each `reduce --batch` entry."""
    phases = _Phases()
    doc = _load_document(path)
    net = doc.network
    initial = _initial_partition(doc, partition_file)
    phases.mark("parse")
    stats: dict = {}
    part = coarsest_equivalence(net, initial, stats=stats)
    phases.mark("lump")
    lumped, part = quotient(net, part)
    phases.mark("quotient")
    if output:
        Path(output).write_text(serialize_model(ModelDocument(lumped)),
                                encoding="utf-8")
    if map_path:
        Path(map_path).write_text(_block_map_text(net.names, part),
                                  encoding="utf-8")
    phases.mark("write")
    return {
        "input": {"species": net.n_species, "reactions": net.n_reactions},
        "output": {"species": lumped.n_species, "reactions": lumped.n_reactions},
        "blocks": part.n_blocks,
        "rounds": stats["rounds"],
        "sweeps": stats["sweeps"],
        "phases_ms": phases.entries,
    }


def cmd_reduce(args) -> int:
    if args.batch:
        return _reduce_batch(args)
    report = _reduce_model(args.input, args.partition_file, args.output,
                           args.map)
    _emit_report({"command": "reduce", **report, "flags": {}}, args.report)
    return EXIT_OK


def _reduce_one_file(task):
    path, out_dir = task
    stem = Path(path).stem
    try:
        report = _reduce_model(path, None, Path(out_dir, f"{stem}.red.crn"),
                               Path(out_dir, f"{stem}.map.json"))
    except Exception as exc:  # per-file isolation
        return {"file": path, "ok": False, "error": str(exc)}
    return {"file": path, "ok": True, **report}


def _batch_workers(n_files: int) -> int:
    """min(CRNLUMP_THREADS, files, CPUs); raises ValueError on a setting
    that is not a positive integer."""
    cpus = os.cpu_count() or 1
    raw = os.environ.get("CRNLUMP_THREADS")
    requested = cpus
    if raw is not None:
        try:
            requested = int(raw)
        except ValueError:
            requested = 0
        if requested <= 0:
            raise ValueError(f"CRNLUMP_THREADS must be a positive integer, "
                             f"got {raw!r}")
    return min(requested, n_files, cpus)


def _batch_inputs(in_dir: Path, out_dir: Path) -> List[str]:
    """The `*.crn` files of `in_dir`, in name order, without those this run
    writes as another input's `<stem>.red.crn`. Shorter names are decided
    first, since an output's name is longer than its input's."""
    files, outputs = [], set()
    for p in sorted(in_dir.glob("*.crn"), key=lambda p: (len(p.name), p.name)):
        if p.resolve() not in outputs:
            files.append(str(p))
            outputs.add(Path(out_dir, f"{p.stem}.red.crn").resolve())
    return sorted(files)


def _reduce_batch(args) -> int:
    in_dir = Path(args.batch)
    if not in_dir.is_dir():
        raise FileNotFoundError(f"--batch {str(in_dir)!r} is not a directory")
    out_dir = Path(args.out_dir or in_dir)
    files = _batch_inputs(in_dir, out_dir)
    try:
        workers = _batch_workers(len(files))
    except ValueError as exc:
        print(f"reduce: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    out_dir.mkdir(parents=True, exist_ok=True)
    tasks = [(f, str(out_dir)) for f in files]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_reduce_one_file, tasks))
    else:
        results = [_reduce_one_file(t) for t in tasks]
    _emit_report({"command": "reduce-batch", "files": results, "flags": {}},
                 args.report)
    return EXIT_OK if all(r["ok"] for r in results) else EXIT_INTERNAL


def cmd_check(args) -> int:
    phases = _Phases()
    doc = _load_document(args.model)
    part = _initial_partition(doc, args.partition_file)
    phases.mark("parse")
    equivalent = check_equivalence(doc.network, part)
    phases.mark("check")
    report = {
        "command": "check",
        "input": {"species": doc.network.n_species,
                  "reactions": doc.network.n_reactions},
        "blocks": part.n_blocks,
        "equivalent": equivalent,
        "phases_ms": phases.entries,
        "flags": {},
    }
    failed = not equivalent
    if args.oracle:
        net = doc.network
        # With an explicit initial state the oracle runs on the reachable
        # space; otherwise it enumerates the full population ball, which sees
        # every state the reaction-level criterion quantifies over.
        init = net.initial_state
        if args.init:
            init = Multiset((i, int(v)) for i, v in _parse_assignments(
                args.init, net, "--init", counts=True).items())
        space = (enumerate_ball(net, args.pop_bound) if init is None
                 else enumerate_states(net, init, args.pop_bound))
        oracle = {"states": space.n_states, "truncated": space.truncated}
        report["flags"]["truncated"] = space.truncated
        for extremal in ("lower", "upper"):
            gen = build_generator(space, net, extremal)
            res = check_ordinary_lumpability(gen, space, part)
            oracle[extremal] = res.ok
            if not res.ok:
                oracle[f"{extremal}_counterexample"] = \
                    res.counterexample.to_json_dict(net)
                failed = True
        phases.mark("oracle")
        report["oracle"] = oracle
    _emit_report(report, args.report)
    return EXIT_CHECK_FAILED if failed else EXIT_OK


def cmd_simulate(args) -> int:
    phases = _Phases()
    doc = _load_document(args.model)
    net = doc.network
    if args.schedule:
        sched = schedule_from_csv(Path(args.schedule).read_text(encoding="utf-8"))
    else:
        sched = ControlSchedule.midpoint(net)
    v0 = _initial_vector(args.init, net, "--init")
    if v0 is None:
        print("simulation needs an initial state (--init or model init)",
              file=sys.stderr)
        return EXIT_INTERNAL
    phases.mark("parse")
    try:
        traj = simulate(net, v0, sched, args.t_end, args.step)
    except ValueError as exc:
        print(f"simulate: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    phases.mark("integrate")
    if args.output:
        Path(args.output).write_text(trajectory_to_csv(traj), encoding="utf-8")
    phases.mark("write")
    _emit_report({
        "command": "simulate",
        "input": {"species": net.n_species, "reactions": net.n_reactions},
        "output": {"rows": len(traj.times)},
        "phases_ms": phases.entries,
        "flags": {},
    }, args.report)
    return EXIT_OK


def _check_lumped_header(text: str, got: Tuple[str, ...],
                         want: Tuple[str, ...]):
    """A lumped trajectory's columns must be the lumped model's species in
    order; otherwise a ParseError names the first mismatching column."""
    for k in range(max(len(got), len(want))):
        g, w = got[k:k + 1], want[k:k + 1]
        if g != w:
            have = repr(g[0]) if g else "missing"
            need = f"species {w[0]!r}" if w else "no more species"
            no, header = next((no, ln) for no, ln in
                              enumerate(text.splitlines(), 1) if ln.strip())
            col = min(2 + len(",".join(header.split(",")[:k + 1])),
                      len(header) + 1)
            raise ParseError(f"lumped trajectory header: column {k + 2} is "
                             f"{have} where the lumped model has {need}", no, col)


def cmd_reconstruct(args) -> int:
    phases = _Phases()
    doc = _load_document(args.model)
    net = doc.network
    part = _initial_partition(doc, args.partition_file)
    traj_text = Path(args.lumped_traj).read_text(encoding="utf-8")
    lumped_traj = trajectory_from_csv(traj_text)
    _check_lumped_header(traj_text, lumped_traj.names,
                         tuple(net.names[i] for i in part.representatives))
    lumped_sched = schedule_from_csv(
        Path(args.lumped_schedule).read_text(encoding="utf-8"))
    v0 = _initial_vector(args.v0, net, "--v0")
    if v0 is None:
        print("reconstruction needs an initial state (--v0 or model init)",
              file=sys.stderr)
        return EXIT_INTERNAL
    phases.mark("parse")
    result = reconstruct_trajectory(net, part, lumped_traj, lumped_sched, v0)
    phases.mark("reconstruct")
    if args.output:
        Path(args.output).write_text(trajectory_to_csv(result.trajectory),
                                     encoding="utf-8")
    if args.control_out:
        Path(args.control_out).write_text(schedule_to_csv(result.schedule),
                                          encoding="utf-8")
    if args.residual_out:
        Path(args.residual_out).write_text(_write_csv(
            ("t", "residual"), result.trajectory.times[:-1],
            result.step_residuals[:, None]), encoding="utf-8")
    phases.mark("write")
    _emit_report({
        "command": "reconstruct",
        "input": {"species": net.n_species, "reactions": net.n_reactions},
        "output": {"rows": len(result.trajectory.times)},
        "max_residual": result.max_residual,
        "phases_ms": phases.entries,
        "flags": {},
    }, args.report)
    return EXIT_OK


def cmd_generate(args) -> int:
    phases = _Phases()
    if args.family == "multisite":
        doc = multisite_binding_model(
            args.n,
            RateInterval(args.assoc_lo, args.assoc_hi),
            RateInterval(args.dissoc_lo, args.dissoc_hi))
    else:
        params = SirParams(args.beta, args.gamma, args.eta,
                           RateInterval(args.vac_lo, args.vac_hi))
        if args.family == "sir-star":
            doc = sir_star_model(args.n, params)
        else:
            graph = parse_edge_list(Path(args.edge_list).read_text(
                encoding="utf-8"), undirected=args.undirected)
            doc = sir_network_model(graph, params, args.uncertainty_halfwidth)
    phases.mark("generate")
    Path(args.output).write_text(serialize_model(doc), encoding="utf-8")
    phases.mark("write")
    _emit_report({
        "command": "generate",
        "output": {"species": doc.network.n_species,
                   "reactions": doc.network.n_reactions},
        "phases_ms": phases.entries,
        "flags": {},
    }, args.report)
    return EXIT_OK


def _population_bound(text: str) -> int:
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(
            f"must be a non-negative integer, got {text!r}")
    return int(text)


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="crnlump",
        description="Lumping and control toolkit for interval-rate "
                    "mass-action reaction networks")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reduce", help="compute the coarsest species "
                                      "equivalence and write the quotient")
    p.add_argument("-i", "--input", help="model file")
    p.add_argument("-o", "--output", help="reduced model file")
    p.add_argument("--map", help="block map JSON output")
    p.add_argument("--partition-file", help="initial partition override")
    p.add_argument("--batch", help="reduce every *.crn file in a directory")
    p.add_argument("--out-dir", help="output directory for --batch")
    p.add_argument("--report", help="write the run report JSON to a file")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("check", help="check a partition for species "
                                     "equivalence, optionally against the "
                                     "state-space oracle")
    p.add_argument("model")
    p.add_argument("--partition-file")
    p.add_argument("--oracle", action="store_true",
                   help="also check ordinary lumpability of both extremal "
                        "generators on the enumerated space")
    p.add_argument("--pop-bound", type=_population_bound, default=4)
    p.add_argument("--init", help="initial state, e.g. 'A=1,B=2'")
    p.add_argument("--report")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("simulate", help="integrate the deterministic model")
    p.add_argument("model")
    p.add_argument("--schedule", help="control schedule CSV")
    p.add_argument("--t-end", type=float, required=True)
    p.add_argument("--step", type=float, default=1e-3)
    p.add_argument("--init", help="initial concentrations, e.g. 'A=1,B=0.5'")
    p.add_argument("-o", "--output", help="trajectory CSV")
    p.add_argument("--report")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("reconstruct",
                       help="recover original controls from a lumped "
                            "trajectory and schedule")
    p.add_argument("model")
    p.add_argument("--partition-file")
    p.add_argument("--lumped-traj", required=True)
    p.add_argument("--lumped-schedule", required=True)
    p.add_argument("--v0", help="initial concentrations, e.g. 'A=1,B=0.5'")
    p.add_argument("-o", "--output", help="reconstructed trajectory CSV")
    p.add_argument("--control-out", help="realized control schedule CSV")
    p.add_argument("--residual-out", help="per-step residual CSV")
    p.add_argument("--report")
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("generate", help="write a bundled case-study model")
    p.add_argument("family", choices=["sir-star", "sir-net", "multisite"])
    p.add_argument("--n", type=int, help="locations (sir-star) or sites (multisite)")
    p.add_argument("--beta", type=float, help="infection scaling")
    p.add_argument("--gamma", type=float, help="recovery rate")
    p.add_argument("--eta", type=float, help="immunity-loss rate")
    p.add_argument("--vac-lo", type=float, default=DEFAULT_VACCINATION.lo)
    p.add_argument("--vac-hi", type=float, default=DEFAULT_VACCINATION.hi)
    p.add_argument("--edge-list", help="edge list file (sir-net)")
    p.add_argument("--undirected", action="store_true")
    p.add_argument("--uncertainty-halfwidth", type=float)
    p.add_argument("--assoc-lo", type=float, default=DEFAULT_ASSOCIATION.lo)
    p.add_argument("--assoc-hi", type=float, default=DEFAULT_ASSOCIATION.hi)
    p.add_argument("--dissoc-lo", type=float, default=DEFAULT_DISSOCIATION.lo)
    p.add_argument("--dissoc-hi", type=float, default=DEFAULT_DISSOCIATION.hi)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--report")
    p.set_defaults(func=cmd_generate)
    return top


def run(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "generate":
        needs_n = args.family in ("sir-star", "multisite")
        if needs_n and args.n is None:
            print("generate: --n is required", file=sys.stderr)
            return EXIT_INTERNAL
        if args.family.startswith("sir") and None in (args.beta, args.gamma, args.eta):
            print("generate: --beta, --gamma and --eta are required for SIR models",
                  file=sys.stderr)
            return EXIT_INTERNAL
        if args.family == "sir-net" and not args.edge_list:
            print("generate: --edge-list is required for sir-net", file=sys.stderr)
            return EXIT_INTERNAL
    if args.command == "reduce" and (
            (args.batch and any((args.input, args.output, args.map,
                                 args.partition_file)))
            or (not args.batch and (not args.input or args.out_dir))):
        print("reduce: use either -i/--input or --batch [--out-dir]",
              file=sys.stderr)
        return EXIT_INTERNAL
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except FileNotFoundError as exc:
        print(f"missing file: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def main():  # console entry point
    sys.exit(run())


if __name__ == "__main__":
    main()
