"""Spans around the public calls into each crnlump layer, recorded from
outside the package.

`Tracer.install()` replaces each traced function, wherever a crnlump module
holds a reference to it, by a wrapper that records a span (name, start, end,
parent) and feeds the layer counters from the call's own arguments and
results. `uninstall()` puts the originals back. Spans stay in memory; the
harness summarises them per pass and writes them out when the run ends.

A layer's self time is the time its spans cover minus the time covered by
their child spans, so the self times of one op add up to the op's root span.
Calls made per right-hand-side evaluation or per state (the vector field, the
falling binomial) are deliberately not wrapped: spans there would cost more
than the work they measure.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

LAYERS = ("parser", "lumping", "generators", "ode", "reconstruct", "ctmc",
          "cli")

TRACED = {
    "parser": ("parse_model", "serialize_model", "parse_edge_list"),
    "lumping": ("coarsest_equivalence", "check_equivalence", "quotient"),
    "generators": ("sir_star_model", "sir_network_model",
                   "multisite_binding_model"),
    "ode": ("simulate", "project_control", "block_sums",
            "VectorField.__init__"),
    "reconstruct": ("reconstruct_trajectory", "build_drift_match",
                    "solve_box_ls"),
    "ctmc": ("enumerate_states", "build_generator",
             "check_ordinary_lumpability", "transient_solve", "ssa_simulate"),
    "cli": ("run",),
}

MODULES = ("crnlump", "crnlump.model", "crnlump.parser", "crnlump.lumping",
           "crnlump.generators", "crnlump.ode", "crnlump.reconstruct",
           "crnlump.ctmc", "crnlump.cli")


def _count_parse(c, args, kwargs, result):
    text = args[0] if args else kwargs["text"]
    c["parser.lines"] += text.count("\n")


def _count_coarsest(c, args, kwargs, result):
    stats = kwargs["stats"]
    c["lumping.rounds"] += stats.get("rounds", 0)
    c["lumping.sweeps"] += stats.get("sweeps", 0)
    c["lumping.blocks"] += result.n_blocks


def _count_quotient(c, args, kwargs, result):
    c["lumping.quotient_reactions_out"] += result[0].n_reactions


def _count_simulate(c, args, kwargs, result):
    steps = len(result.times) - 1
    c["ode.rk4_steps"] += steps
    c["ode.rhs_evals"] += 4 * steps


def _count_reconstruct(c, args, kwargs, result):
    c["reconstruct.stage_solves"] += 4 * len(result.step_residuals)
    c["reconstruct.max_residual"] = max(c["reconstruct.max_residual"],
                                        result.max_residual)


def _count_enumerate(c, args, kwargs, result):
    c["ctmc.states"] += result.n_states
    c["ctmc.truncated"] += int(result.truncated)


def _count_generator(c, args, kwargs, result):
    c["ctmc.nnz"] += result.matrix.nnz


def _count_ssa(c, args, kwargs, result):
    c["ctmc.ssa_events"] += len(result.times) - 1


COUNTERS: Dict[str, Callable] = {
    "parser.parse_model": _count_parse,
    "lumping.coarsest_equivalence": _count_coarsest,
    "lumping.quotient": _count_quotient,
    "ode.simulate": _count_simulate,
    "reconstruct.reconstruct_trajectory": _count_reconstruct,
    "ctmc.enumerate_states": _count_enumerate,
    "ctmc.build_generator": _count_generator,
    "ctmc.ssa_simulate": _count_ssa,
}


class Tracer:
    """In-memory span recorder. `spans` holds tuples
    (name, start, end, parent index or -1, op); `counts` the layer counters."""

    def __init__(self):
        self.spans: List[tuple] = []
        self.counts: Dict[str, float] = defaultdict(int)
        self.op = ""
        self._stack: List[int] = []
        self._active = False
        self._patched: List[tuple] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        count = COUNTERS.get(name)
        takes_stats = name == "lumping.coarsest_equivalence"
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not self._active:
                return fn(*args, **kwargs)
            if takes_stats and kwargs.get("stats") is None:
                kwargs["stats"] = {}
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self._stack.pop()
                self.spans[idx] = (name, start, end, parent, self.op)
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        modules = [importlib.import_module(m) for m in MODULES]
        for layer, names in TRACED.items():
            home = importlib.import_module(f"crnlump.{layer}")
            for qual in names:
                span = f"{layer}.{qual.split('.')[0]}" if "." in qual \
                    else f"{layer}.{qual}"
                if "." in qual:
                    cls_name, attr = qual.split(".")
                    cls = getattr(home, cls_name)
                    orig = cls.__dict__[attr]
                    self._patched.append((cls, attr, orig))
                    setattr(cls, attr, self._wrap(span, orig))
                    continue
                orig = getattr(home, qual)
                wrapper = self._wrap(span, orig)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            self._patched.append((mod, key, orig))
                            setattr(mod, key, wrapper)

    def uninstall(self):
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    @contextlib.contextmanager
    def recording(self):
        """Record spans only inside this block (checks run outside it)."""
        before = self._active
        self._active = True
        try:
            yield
        finally:
            self._active = before

    def mark(self) -> int:
        return len(self.spans)

    def self_times(self, since: int = 0) -> Dict[str, float]:
        """Self time per span name over the spans recorded after `since`."""
        spans = self.spans[since:]
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= since:
                child[parent - since] += end - start
        out: Dict[str, float] = defaultdict(float)
        for k, (name, start, end, _, _) in enumerate(spans):
            out[name] += (end - start) - child[k]
        return out

    def layer_self_times(self, since: int = 0) -> Dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for name, t in self.self_times(since).items():
            out[name.split(".")[0]] += t
        return out

    def dump(self, origin: float) -> List[dict]:
        return [{"name": n, "start_s": s - origin, "end_s": e - origin,
                 "parent": p, "op": op} for n, s, e, p, op in self.spans]


@contextlib.contextmanager
def installed(tracer: Optional[Tracer]):
    if tracer is None:
        yield
        return
    tracer.install()
    try:
        yield
    finally:
        tracer.uninstall()
