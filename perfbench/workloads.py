"""The benchmark's workloads, each a fixed list of ops (user tasks) built
from the seed, with an output check per op: `reduce`, and `dynamics`, which
runs the simulate, control and oracle op lists in one pass.

An op times only its calls into crnlump (`ctx.timed`); its checks run
outside those regions and are neither timed nor traced. A failed check
raises `CheckFailed`; the harness counts the op as failed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import time
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import numpy as np

import crnlump as cl
from crnlump import cli

# Two-site reversible binding, the running example (the same model as the
# test suite's fixture): {A01, A10} lump, the two sites stay distinct.
TWO_SITE_TEXT = """species B A00 A01 A10 A11
A00 + B -> A10 , [1.0 : 2.0]
A10 -> A00 + B , [0.5 : 0.75]
A00 + B -> A01 , [1.0 : 2.0]
A01 -> A00 + B , [0.5 : 0.75]
A10 + B -> A11 , [1.25 : 2.25]
A11 -> A10 + B , [0.25 : 0.4]
A01 + B -> A11 , [1.25 : 2.25]
A11 -> A01 + B , [0.25 : 0.4]
partition { B } { A00 } { A01 A10 } { A11 }
"""

SIR = cl.SirParams(beta=0.4, gamma=0.25, eta=0.1,
                   vaccination=cl.RateInterval(0.0, 1.0))


class CheckFailed(Exception):
    """An op's output failed its check. `known_defect` marks the oracle's
    rounding-level false counterexamples, a known defect of `ctmc`."""

    def __init__(self, message: str, known_defect: bool = False,
                 detail: dict = None):
        super().__init__(message)
        self.known_defect = known_defect
        self.detail = detail or {}


def check(ok: bool, message: str):
    if not ok:
        raise CheckFailed(message)


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(a.tobytes() if isinstance(a, np.ndarray) else repr(a).encode())
    return h.hexdigest()[:16]


def random_schedule(net, segments: int, t_end: float,
                    rng: np.random.Generator) -> cl.ControlSchedule:
    lo = np.array([r.rate.lo for r in net.reactions])
    hi = np.array([r.rate.hi for r in net.reactions])
    vals = lo + (hi - lo) * rng.random((segments, net.n_reactions))
    return cl.ControlSchedule(np.linspace(0.0, t_end, segments + 1)[:-1], vals)


Op = Tuple[str, Callable]


class Workload:
    """Subclasses build their inputs in `setup`, run one small untimed op in
    `warmup` and list their ops. Each op takes the pass context, adds its
    counts to `ctx.counts` and returns a digest of its output: both must
    repeat exactly across passes, which run identical inputs."""

    name = ""
    cases: Tuple[str, ...] = ()

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        self.seed = seed
        self.workdir = workdir
        self.tiny = tiny

    def setup(self):
        raise NotImplementedError

    def warmup(self):
        raise NotImplementedError

    def ops(self) -> List[Op]:
        raise NotImplementedError

    def case_metrics(self, spent: Dict[str, float],
                     counts: Dict[str, int]) -> Dict[str, Tuple[float, str]]:
        raise NotImplementedError

    def probes(self) -> Dict[str, float]:
        """Traced runs only: stand-alone per-layer measurements."""
        return {}


def rhs_eval_us(models) -> float:
    """Median time of one vector-field call, summed over the models."""
    total = 0.0
    for net, v in models:
        vf = cl.VectorField(net)
        alpha = np.array([r.rate.midpoint for r in net.reactions])
        v = np.asarray(v, dtype=float)
        samples = []
        for _ in range(21):
            t = time.perf_counter()
            vf(v, alpha)
            samples.append(time.perf_counter() - t)
        total += float(np.median(samples))
    return total * 1e6


# ---------------------------------------------------------------------------

class Reduce(Workload):
    """`crnlump reduce` through `cli.run` on three model files."""

    name = "reduce"
    cases = ("reduce_ms12_s", "reduce_star5000_s", "reduce_sirnet_s")

    def setup(self):
        n_ms, n_star = (4, 20) if self.tiny else (12, 5000)
        nodes, edges = (40, 240) if self.tiny else (2000, 12000)
        self.n_ms, self.n_star = n_ms, n_star
        self.workdir.mkdir(parents=True, exist_ok=True)
        rng = random.Random(self.seed)
        lines, seen = [], set()
        while len(lines) < edges:
            a, b = rng.randrange(nodes), rng.randrange(nodes)
            if a == b or (a, b) in seen:
                continue
            seen.add((a, b))
            lines.append(f"{a} {b} {1.0 + rng.uniform(-0.05, 0.05)!r}")
        graph = cl.parse_edge_list("\n".join(lines) + "\n")
        docs = {
            "ms": cl.multisite_binding_model(n_ms),
            "star": cl.sir_star_model(n_star, SIR),
            "sirnet": cl.sir_network_model(graph, SIR),
            "warm": cl.multisite_binding_model(3),
        }
        self.names = {}
        for key, doc in docs.items():
            (self.workdir / f"{key}.crn").write_text(cl.serialize_model(doc),
                                                     encoding="utf-8")
            self.names[key] = doc.network.names
        self.size = {key: (doc.network.n_species, doc.network.n_reactions)
                     for key, doc in docs.items()}

    def _reduce(self, key: str):
        d = self.workdir
        argv = ["reduce", "-i", str(d / f"{key}.crn"),
                "-o", str(d / f"{key}.red.crn"), "--map", str(d / f"{key}.map.json")]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.run(argv)
        return code, out.getvalue()

    def warmup(self):
        self._reduce("warm")

    def expected_blocks(self, key: str):
        names = self.names[key]
        if key == "ms":
            want = {frozenset(["B"])}
            for k in range(self.n_ms + 1):
                want.add(frozenset(x for x in names[1:] if x.count("1") == k))
            return want
        if key == "star":
            n = self.n_star
            want = {frozenset([f"{k}1"]) for k in "SIR"}
            want.add(frozenset(f"V{i}" for i in range(1, n + 1)))
            for k in "SIR":
                want.add(frozenset(f"{k}{i}" for i in range(2, n + 1)))
            return want
        return None

    def ops(self) -> List[Op]:
        def make(key: str, segment: str):
            def op(ctx):
                with ctx.timed(segment):
                    code, out = self._reduce(key)
                check(code == 0, f"reduce exited with code {code}")
                report = json.loads(out.strip().splitlines()[-1])
                d = self.workdir
                blocks = json.loads((d / f"{key}.map.json").read_text())["blocks"]
                got = {frozenset(b["members"]) for b in blocks}
                want = self.expected_blocks(key)
                if want is not None:
                    check(got == want, f"{key}: block map differs from the "
                                       f"expected {len(want)} blocks")
                else:
                    # the sir-net initial partition groups species by kind
                    check(all(len({m.rstrip("0123456789") for m in b}) == 1
                              for b in got), f"{key}: a block mixes kinds")
                members = [m for b in blocks for m in b["members"]]
                check(sorted(members) == sorted(self.names[key]),
                      f"{key}: block map is not a partition of the species")
                text = (d / f"{key}.red.crn").read_text()
                reduced = cl.parse_model(text).network
                check(report["input"]["species"] == self.size[key][0]
                      and report["input"]["reactions"] == self.size[key][1],
                      f"{key}: report input size mismatch")
                check(reduced.n_species == len(blocks) == report["blocks"]
                      and reduced.n_reactions == report["output"]["reactions"],
                      f"{key}: reduced model does not re-parse to the "
                      "reported size")
                ctx.counts.update({f"{key}.blocks": report["blocks"],
                                   f"{key}.rounds": report["rounds"],
                                   f"{key}.sweeps": report["sweeps"],
                                   f"{key}.reactions_out": reduced.n_reactions})
                return digest(text, sorted(map(sorted, got)))
            return op

        return [("reduce-ms", make("ms", "ms")),
                ("reduce-star", make("star", "star")),
                ("reduce-sirnet", make("sirnet", "sirnet"))]

    def case_metrics(self, spent, counts):
        return {"reduce_ms12_s": (spent["ms"], "s"),
                "reduce_star5000_s": (spent["star"], "s"),
                "reduce_sirnet_s": (spent["sirnet"], "s")}


# ---------------------------------------------------------------------------

class Simulate(Workload):
    """Fixed-step RK4 on star-SIR n=500 and multisite n=8, each under the
    midpoint schedule and a seeded random piecewise schedule."""

    name = "simulate"
    cases = ("rk4_star500_step_ms", "rk4_ms8_step_ms")

    def setup(self):
        n_star, n_ms = (5, 3) if self.tiny else (500, 8)
        rng = np.random.default_rng(abs(self.seed))
        star = cl.sir_star_model(n_star, SIR).network
        v = np.zeros(star.n_species)
        s = rng.uniform(0.85, 0.95, n_star)
        v[0::4], v[1::4] = s, 1.0 - s
        self.star_groups = [np.arange(4 * i, 4 * i + 3) for i in range(n_star)]
        ms = cl.multisite_binding_model(n_ms).network
        w = np.zeros(ms.n_species)
        w[0] = rng.uniform(0.8, 1.2)
        w[1:] = rng.uniform(0.0, 0.1, ms.n_species - 1)
        self.occupancy = np.array([0] + [name.count("1")
                                         for name in ms.names[1:]], dtype=float)
        # (network, v0, t_end, step): 8 and 50 RK4 steps; the random
        # schedules' breakpoints fall on the grid, so no step is split
        self.models = {"star": (star, v, 0.08, 0.01),
                       "ms": (ms, w, 0.05, 0.001)}
        self.schedules = {}
        for key, segments in (("star", 4), ("ms", 5)):
            net, _, t_end, _ = self.models[key]
            self.schedules[key] = [cl.ControlSchedule.midpoint(net),
                                   random_schedule(net, segments, t_end, rng)]

    def warmup(self):
        net, v, _, step = self.models["ms"]
        cl.simulate(net, v, self.schedules["ms"][0], 2 * step, step)

    def conserved(self, key: str, states: np.ndarray) -> np.ndarray:
        if key == "star":
            return np.stack([states[:, g].sum(axis=1)
                             for g in self.star_groups], axis=1)
        ligand = states @ self.occupancy + states[:, 0]
        substrate = states[:, 1:].sum(axis=1)
        return np.stack([ligand, substrate], axis=1)

    def ops(self) -> List[Op]:
        def make(key: str, which: int):
            net, v0, t_end, step = self.models[key]
            sched = self.schedules[key][which]
            n_steps = int(round(t_end / step))

            def op(ctx):
                with ctx.timed(key):
                    traj = cl.simulate(net, v0, sched, t_end, step)
                steps = len(traj.times) - 1
                ctx.counts[f"{key}.steps"] = steps
                check(steps == n_steps, f"{key}: {steps} RK4 steps, "
                                        f"expected {n_steps}")
                inv = self.conserved(key, traj.states)
                drift = float(np.max(np.abs(inv - inv[0])))
                check(drift <= 1e-9, f"{key}: conservation law drifts by "
                                     f"{drift:.3e}")
                return digest(traj.states)
            return op

        return [(f"simulate-{key}-{label}", make(key, which))
                for key in ("star", "ms")
                for which, label in enumerate(("midpoint", "random"))]

    def case_metrics(self, spent, counts):
        return {"rk4_star500_step_ms":
                (1e3 * spent["star"] / (2 * counts["star.steps"]), "ms/step"),
                "rk4_ms8_step_ms":
                (1e3 * spent["ms"] / (2 * counts["ms.steps"]), "ms/step")}

    def probes(self):
        return {"ode.rhs_eval_us": rhs_eval_us(
            (net, v) for net, v, _, _ in self.models.values())}


# ---------------------------------------------------------------------------

class Control(Workload):
    """Control transfer on two-site and multisite n=4: simulate the original,
    project the controls onto the quotient, simulate the quotient and
    reconstruct an original trajectory from it."""

    name = "control"
    cases = ("project_step_us", "reconstruct_step_us")

    def setup(self):
        rng = np.random.default_rng(abs(self.seed))
        t_end = 0.05 if self.tiny else 1.0
        two = cl.parse_model(TWO_SITE_TEXT)
        ms = cl.multisite_binding_model(4)
        self.chains = {}
        for key, doc in (("two", two), ("ms4", ms)):
            net = doc.network
            part = cl.coarsest_equivalence(net, doc.initial_partition)
            lumped, _ = cl.quotient(net, part)
            if key == "two":
                v0 = rng.random(net.n_species)
            else:
                v0 = np.concatenate([[rng.uniform(0.5, 1.5)],
                                     0.2 * rng.random(net.n_species - 1)])
            self.chains[key] = dict(net=net, part=part, lumped=lumped, v0=v0,
                                   B=cl.block_indicator(part),
                                   sched=random_schedule(net, 10, t_end, rng),
                                   t_end=t_end)
        self.step = 1e-3
        self.last = {}

    def warmup(self):
        c = self.chains["two"]
        traj = cl.simulate(c["net"], c["v0"], c["sched"], 5 * self.step,
                           self.step)
        cl.project_control(c["net"], c["part"], c["lumped"], traj, c["sched"])

    def ops(self) -> List[Op]:
        def make(key: str):
            c = self.chains[key]
            net, part, lumped, v0 = c["net"], c["part"], c["lumped"], c["v0"]

            def op(ctx):
                with ctx.timed("simulate"):
                    traj = cl.simulate(net, v0, c["sched"], c["t_end"], self.step)
                with ctx.timed("project"):
                    lsched, res_p = cl.project_control(net, part, lumped, traj,
                                                       c["sched"])
                with ctx.timed("simulate"):
                    ltraj = cl.simulate(lumped, c["B"] @ v0, lsched, c["t_end"],
                                        self.step)
                with ctx.timed("reconstruct"):
                    rec = cl.reconstruct_trajectory(net, part, ltraj, lsched, v0)
                self.last[key] = (rec, ltraj, lsched)
                ctx.counts.update({f"{key}.steps": len(traj.times) - 1,
                                   f"{key}.stage_solves":
                                   4 * len(rec.step_residuals)})
                gap = float(np.max(np.abs(traj.states @ c["B"].T - ltraj.states)))
                tol = 1e-6 * (1.0 + float(traj.states.max()))
                check(gap <= tol, f"{key}: block-sum gap {gap:.3e} > {tol:.3e}")
                check(res_p <= 1e-8, f"{key}: projection residual {res_p:.3e}")
                check(rec.max_residual <= 1e-8,
                      f"{key}: reconstruction residual {rec.max_residual:.3e}")
                track = float(np.max(np.abs(rec.trajectory.states @ c["B"].T
                                            - ltraj.states)))
                check(track <= 1e-4, f"{key}: tracking error {track:.3e}")
                return digest(lsched.values, rec.trajectory.states)
            return op

        return [(f"control-{key}", make(key)) for key in self.chains]

    def case_metrics(self, spent, counts):
        steps = sum(counts[f"{k}.steps"] for k in self.chains)
        return {"project_step_us": (1e6 * spent["project"] / steps, "us/step"),
                "reconstruct_step_us":
                (1e6 * spent["reconstruct"] / steps, "us/step")}

    def probes(self):
        models = []
        for c in self.chains.values():
            models.append((c["net"], c["v0"]))
            models.append((c["lumped"], c["B"] @ c["v0"]))
        out = {"ode.rhs_eval_us": rhs_eval_us(models)}
        times, iterations, nonconverged = [], 0, 0
        for key, c in self.chains.items():
            rec, ltraj, lsched = self.last[key]
            lvf = cl.VectorField(c["lumped"])
            n = len(ltraj.times) - 1
            for k in np.linspace(0, n - 1, 20).astype(int):
                target = lvf(ltraj.states[k], lsched.values[k])
                prob = cl.build_drift_match(c["net"], c["part"],
                                            rec.trajectory.states[k], target)
                t = time.perf_counter()
                res = cl.solve_box_ls(prob)
                times.append(time.perf_counter() - t)
                iterations += res.iterations
                nonconverged += int(not res.converged)
        out["reconstruct.solve_us"] = 1e6 * float(np.median(times))
        out["reconstruct.solve_iterations"] = iterations
        out["reconstruct.solve_nonconverged"] = nonconverged
        return out


# ---------------------------------------------------------------------------

def lift(sigma, block_of) -> Tuple[Tuple[int, int], ...]:
    acc: Dict[int, int] = {}
    for i, c in sigma:
        acc[block_of[i]] = acc.get(block_of[i], 0) + c
    return tuple(sorted(acc.items()))


def random_walk(net, start, steps: int, rng: random.Random):
    """A state reachable from `start`; on a reversible network it spans the
    same state space as `start` itself."""
    state = start
    for _ in range(steps):
        moves = [r for r in net.reactions if not r.is_noop
                 and cl.falling_binomial(state, r.reactant) > 0]
        r = rng.choice(moves)
        state = state.subtract(r.reactant).add(r.product)
    return state


class Oracle(Workload):
    """State-space oracle (enumerate, both extremal generators, ordinary
    lumpability, transient) on two-site and multisite n=2/3, plus a batch of
    stochastic simulations of two-site at N=1000."""

    name = "oracle"
    cases = ("oracle_check_s", "transient_s", "ssa_events_per_s")

    def setup(self):
        rng = random.Random(self.seed)
        two = cl.parse_model(TWO_SITE_TEXT)
        models = {"two": two, "ms2": cl.multisite_binding_model(2),
                  "ms3": cl.multisite_binding_model(3)}
        bounds = ([("two", 4), ("two", 6), ("ms2", 4), ("ms2", 6), ("ms3", 4)]
                  if self.tiny else
                  [("two", 20), ("two", 40), ("ms2", 20), ("ms2", 40),
                   ("ms3", 20)])
        parts = {k: cl.coarsest_equivalence(d.network, d.initial_partition)
                 for k, d in models.items()}
        self.lumped_two, _ = cl.quotient(two.network, parts["two"])
        self.jobs = []
        for key, bound in bounds:
            net = models[key].network
            free = net.index_of("A" + "0" * (len(net.names[1]) - 1))
            base = cl.Multiset([(0, bound // 2), (free, bound - bound // 2)])
            init = random_walk(net, base, 3 * bound, rng)
            self.jobs.append((key, bound, net, parts[key], init))
        self.two = two.network
        self.N = 50 if self.tiny else 1000
        self.paths = 3 if self.tiny else 20
        arng = np.random.default_rng(abs(self.seed))
        lo = np.array([r.rate.lo for r in self.two.reactions])
        hi = np.array([r.rate.hi for r in self.two.reactions])
        self.alpha = list(lo + (hi - lo) * arng.random(len(lo)))
        self.t = 1.0

    def warmup(self):
        key, bound, net, part, init = self.jobs[0]
        space = cl.enumerate_states(net, init, bound)
        cl.build_generator(space, net, "lower")

    def ops(self) -> List[Op]:
        def make(key, bound, net, part, init):
            def op(ctx):
                with ctx.timed("check"):
                    space = cl.enumerate_states(net, init, bound)
                    gens = [cl.build_generator(space, net, e)
                            for e in ("lower", "upper")]
                    verdicts = [cl.check_ordinary_lumpability(g, space, part)
                                for g in gens]
                with ctx.timed("reference"):
                    expected = cl.check_equivalence(net, part)
                p0 = np.zeros(space.n_states)
                p0[space.index[init]] = 1.0
                with ctx.timed("transient"):
                    p = cl.transient_solve(gens[0], p0, self.t)
                gap = None
                if key == "two":
                    linit = cl.Multiset(lift(init, part.block_of))
                    with ctx.timed("lumped"):
                        lspace = cl.enumerate_states(self.lumped_two, linit, bound)
                        lgen = cl.build_generator(lspace, self.lumped_two, "lower")
                    q0 = np.zeros(lspace.n_states)
                    q0[lspace.index[linit]] = 1.0
                    with ctx.timed("transient"):
                        q = cl.transient_solve(lgen, q0, self.t)
                    lifted: Dict[tuple, float] = {}
                    for i, s in enumerate(space.states):
                        k = lift(s, part.block_of)
                        lifted[k] = lifted.get(k, 0.0) + p[i]
                    gap = max(abs(q[j] - lifted.get(s.entries, 0.0))
                              for j, s in enumerate(lspace.states))
                ctx.counts.update({
                    f"{key}@{bound}.states": space.n_states,
                    f"{key}@{bound}.nnz": sum(g.matrix.nnz for g in gens),
                    f"{key}@{bound}.truncated": int(space.truncated)})
                check(abs(float(p.sum()) - 1.0) <= 1e-9,
                      f"{key}@{bound}: transient mass {float(p.sum())!r}")
                check(gap is None or gap <= 1e-9,
                      f"{key}@{bound}: lifted transient differs from the "
                      f"quotient's by {gap!r}")
                for extremal, res in zip(("lower", "upper"), verdicts):
                    if res.ok == expected:
                        continue
                    cex = res.counterexample
                    detail = {"case": f"{key}@{bound}", "extremal": extremal,
                              "check_equivalence": expected}
                    if cex is not None:
                        detail.update(cex.to_json_dict(net))
                        a, b = cex.aggregate_a, cex.aggregate_b
                        rounding = abs(a - b) <= 1e-12 * max(abs(a), abs(b))
                    else:
                        rounding = False
                    raise CheckFailed(
                        f"{key}@{bound}: oracle ({extremal}) says "
                        f"{'lumpable' if res.ok else 'not lumpable'}, "
                        f"check_equivalence says {expected}",
                        known_defect=expected and rounding, detail=detail)
                return digest(p, [v.ok for v in verdicts])
            return op

        def ssa(ctx):
            init = cl.Multiset([(0, self.N), (1, self.N)])
            with ctx.timed("ssa"):
                paths = [cl.ssa_simulate(self.two, init, self.alpha, self.t,
                                         seed=self.seed * 1000 + p, N=self.N,
                                         c=4.0)
                         for p in range(self.paths)]
            events = sum(len(path.times) - 1 for path in paths)
            ctx.counts["ssa.events"] = events
            for path in paths:
                s = path.states
                ligand = s[:, 0] + s[:, 2] + s[:, 3] + 2 * s[:, 4]
                substrate = s[:, 1:].sum(axis=1)
                check(bool(np.all(s >= 0)), "ssa: negative count")
                check(bool(np.all(ligand == ligand[0])
                           and np.all(substrate == substrate[0])),
                      "ssa: conservation law broken")
            return digest(*[p.times for p in paths], *[p.states for p in paths])

        ops = [(f"oracle-{c[0]}@{c[1]}", make(*c)) for c in self.jobs]
        return ops + [("ssa-batch", ssa)]

    def case_metrics(self, spent, counts):
        return {"oracle_check_s": (spent["check"], "s"),
                "transient_s": (spent["transient"], "s"),
                "ssa_events_per_s": (counts["ssa.events"] / spent["ssa"],
                                     "events/s")}


# ---------------------------------------------------------------------------

class Dynamics(Workload):
    """The simulate, control and oracle op lists, run as one pass: RK4 on
    large networks, control transfer on small ones and the state-space
    oracle. They share one workload so that each run holds enough passes to
    be steady on a small shared machine; their per-case metrics stay apart."""

    name = "dynamics"
    parts = (Simulate, Control, Oracle)
    cases = tuple(c for part in parts for c in part.cases)

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        super().__init__(seed, workdir, tiny)
        self.members = [part(seed, workdir, tiny) for part in self.parts]

    def setup(self):
        for m in self.members:
            m.setup()

    def warmup(self):
        for m in self.members:
            m.warmup()

    def ops(self) -> List[Op]:
        return [op for m in self.members for op in m.ops()]

    def case_metrics(self, spent, counts):
        out = {}
        for m in self.members:
            out.update(m.case_metrics(spent, counts))
        return out

    def probes(self):
        """`ode.rhs_eval_us` is summed over the models of all members."""
        out: Dict[str, float] = {}
        for m in self.members:
            for k, v in m.probes().items():
                out[k] = out.get(k, 0) + v
        return out


WORKLOADS = {w.name: w for w in (Reduce, Dynamics)}
