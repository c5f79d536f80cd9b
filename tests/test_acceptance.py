"""Acceptance suite: one test per shipped guarantee, each printing a PASS/FAIL
line (run with `pytest -s tests/test_acceptance.py` to see them)."""

import itertools
import json
import math
import random
import time

import numpy as np
import pytest

import crnlump as cl
from crnlump.cli import run
from crnlump.model import Multiset, Partition
from crnlump.ode import block_indicator

from conftest import (TWO_SITE_TEXT, networks_equal, project_key,
                      random_network, random_partition)

SIR = cl.SirParams(beta=0.4, gamma=0.25, eta=0.1,
                   vaccination=cl.RateInterval(0.0, 1.0))


def report(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def random_schedule(net, segments, t_end, rng):
    lo = np.array([r.rate.lo for r in net.reactions])
    hi = np.array([r.rate.hi for r in net.reactions])
    vals = lo + (hi - lo) * rng.random((segments, net.n_reactions))
    return cl.ControlSchedule(np.linspace(0.0, t_end, segments + 1)[:-1], vals)


def test_criterion_1_running_example_quotient():
    doc = cl.parse_model(TWO_SITE_TEXT)
    lumped, _ = cl.quotient(doc.network, doc.initial_partition)
    expected = cl.parse_model(
        "species B A00 A01 A11\n"
        "B + A00 -> A01 , [2.0 : 4.0]\n"       # 1.0+1.0 : 2.0+2.0
        "A01 -> B + A00 , [0.5 : 0.75]\n"
        "B + A01 -> A11 , [1.25 : 2.25]\n"
        "A11 -> B + A01 , [0.5 : 0.8]\n"       # 0.25+0.25 : 0.4+0.4
    ).network
    ok = (lumped.n_species == 4 and lumped.n_reactions == 4
          and networks_equal(lumped, expected))
    report(1, ok, "two-site model quotients to the 4-species, 4-reaction "
                  "network with summed rate intervals")


def test_criterion_2_star_sir_scaling(tmp_path):
    lump_ms = {}
    total_s = {}
    for n in (100, 1000, 5000):
        model = tmp_path / f"star{n}.crn"
        red = tmp_path / f"star{n}.red.crn"
        rep = tmp_path / f"star{n}.json"
        assert run(["generate", "sir-star", "--n", str(n), "--beta", "0.4",
                    "--gamma", "0.25", "--eta", "0.1", "-o", str(model)]) == 0
        t0 = time.perf_counter()
        assert run(["reduce", "-i", str(model), "-o", str(red),
                    "--map", str(tmp_path / f"star{n}.map.json"),
                    "--report", str(rep)]) == 0
        total_s[n] = time.perf_counter() - t0
        payload = json.loads(rep.read_text())
        assert payload["input"]["species"] == 4 * n
        report(2, payload["blocks"] == 7,
               f"star SIR n={n} ({4 * n} variables) reduces to "
               f"{payload['blocks']} blocks")
        lump_ms[n] = max(payload["phases_ms"]["lump"], 0.5)
    report(2, total_s[5000] < 5.0,
           f"n=5000 reduce completed in {total_s[5000]:.2f}s "
           f"(lumping {lump_ms[5000]:.0f}ms); bound 5s")
    xs = np.log([100, 1000, 5000])
    ys = np.log([lump_ms[n] for n in (100, 1000, 5000)])
    slope = float(np.polyfit(xs, ys, 1)[0])
    report(2, slope < 2.0, f"log-log runtime slope {slope:.2f} < 2 "
                           "(sub-quadratic growth)")


def test_criterion_3_multisite_scaling(tmp_path):
    for n in (4, 9, 12):
        model = tmp_path / f"ms{n}.crn"
        red = tmp_path / f"ms{n}.red.crn"
        mp = tmp_path / f"ms{n}.map.json"
        rep = tmp_path / f"ms{n}.json"
        assert run(["generate", "multisite", "--n", str(n),
                    "-o", str(model)]) == 0
        t0 = time.perf_counter()
        assert run(["reduce", "-i", str(model), "-o", str(red),
                    "--map", str(mp), "--report", str(rep)]) == 0
        elapsed = time.perf_counter() - t0
        payload = json.loads(rep.read_text())
        assert payload["input"]["species"] == 2 ** n + 1
        blocks = json.loads(mp.read_text())["blocks"]
        got = {frozenset(b["members"]) for b in blocks}
        want = {frozenset(["B"])}
        patterns = ["".join(bits) for bits in
                    itertools.product("01", repeat=n)]
        for k in range(n + 1):
            want.add(frozenset(f"A{p}" for p in patterns if p.count("1") == k))
        report(3, got == want,
               f"multisite n={n} ({2 ** n + 1} variables) reduces to the "
               f"{n + 2} occupancy classes")
        if n == 12:
            report(3, elapsed < 5.0,
                   f"n=12 (4097 variables) reduce completed in {elapsed:.2f}s; "
                   "bound 5s")


def _oracle_agrees(net, part, pop_bound):
    ball = cl.enumerate_ball(net, pop_bound)
    reaction_level = cl.check_equivalence(net, part)
    state_level = all(
        cl.check_ordinary_lumpability(cl.build_generator(ball, net, e), ball,
                                      part).ok
        for e in ("lower", "upper"))
    return reaction_level == state_level, reaction_level


def test_criterion_4_oracle_equivalence():
    cases = 0
    disagreements = 0

    def examine(net, parts, pop_bound):
        nonlocal cases, disagreements
        for part in parts:
            cases += 1
            agree, _ = _oracle_agrees(net, part, pop_bound)
            if not agree:
                disagreements += 1

    # running example plus a perturbation that breaks the pair symmetry
    doc = cl.parse_model(TWO_SITE_TEXT)
    merged = Partition([[0], [1], [2, 3, 4]], 5)
    examine(doc.network, [doc.initial_partition, merged,
                          Partition.singletons(5)], 4)

    # tiny case studies: coarsest partitions plus merges that break them
    star = cl.sir_star_model(2, SIR)
    star_part = cl.coarsest_equivalence(star.network, star.initial_partition)
    sblocks = list(star_part.blocks)
    star_merged = Partition([sblocks[0] + sblocks[1]] + sblocks[2:], 8)
    examine(star.network, [star_part, star_merged], 3)

    ms = cl.multisite_binding_model(2)
    ms_part = cl.coarsest_equivalence(ms.network, ms.initial_partition)
    mblocks = list(ms_part.blocks)
    ms_merged = Partition([mblocks[0] + mblocks[1]] + mblocks[2:], 5)
    examine(ms.network, [ms_part, ms_merged], 4)

    # 200 random networks with population-non-increasing reactions (closed,
    # untruncated ball), checked with equivalent, perturbed and random
    # partitions
    rng = random.Random(20240817)
    for _ in range(200):
        net = random_network(rng)
        n = net.n_species
        coarsest = cl.coarsest_equivalence(net, Partition.one_block(n))
        parts = [coarsest, Partition.singletons(n), random_partition(rng, n)]
        if coarsest.n_blocks >= 2:
            blocks = list(coarsest.blocks)
            i, j = rng.sample(range(len(blocks)), 2)
            merged = [b for k, b in enumerate(blocks) if k not in (i, j)]
            merged.append(tuple(sorted(blocks[i] + blocks[j])))
            parts.append(Partition(merged, n))
        examine(net, parts, 4)

    report(4, disagreements == 0,
           f"reaction-level equivalence agreed with the state-space "
           f"lumpability oracle in {cases}/{cases} cases"
           if disagreements == 0 else
           f"{disagreements} of {cases} cases disagreed")


def _preservation_gap(doc, v0, seed):
    net = doc.network
    part = cl.coarsest_equivalence(net, doc.initial_partition)
    lumped, _ = cl.quotient(net, part)
    rng = np.random.default_rng(seed)
    sched = random_schedule(net, 10, 10.0, rng)
    t0 = time.perf_counter()
    traj = cl.simulate(net, v0, sched, 10.0, 1e-3)
    lsched, residual = cl.project_control(net, part, lumped, traj, sched)
    ltraj = cl.simulate(lumped, block_indicator(part) @ v0, lsched, 10.0, 1e-3)
    elapsed = time.perf_counter() - t0
    gap = float(np.max(np.abs(cl.block_sums(traj, part).states - ltraj.states)))
    tol = 1e-6 * (1.0 + float(traj.states.max()))
    return gap, tol, elapsed, residual


def test_criterion_5_trajectory_preservation():
    doc = cl.parse_model(TWO_SITE_TEXT)
    v0 = np.array([1.0, 1.0, 0.0, 0.0, 0.0])
    gap, tol, elapsed, _ = _preservation_gap(doc, v0, seed=11)
    report(5, gap <= tol and elapsed < 10.0,
           f"two-site block sums track the lumped trajectory within "
           f"{gap:.2e} (tol {tol:.2e}) in {elapsed:.1f}s")

    ms = cl.multisite_binding_model(4)
    v0 = np.zeros(ms.network.n_species)
    v0[ms.network.index_of("B")] = 1.0
    v0[ms.network.index_of("A0000")] = 1.0
    gap, tol, elapsed, _ = _preservation_gap(ms, v0, seed=12)
    report(5, gap <= tol and elapsed < 10.0,
           f"multisite n=4 block sums track the lumped trajectory within "
           f"{gap:.2e} (tol {tol:.2e}) in {elapsed:.1f}s")


def test_criterion_6_cost_preservation():
    doc = cl.sir_star_model(10, SIR)
    net = doc.network
    part = cl.coarsest_equivalence(net, doc.initial_partition)
    lumped, _ = cl.quotient(net, part)
    rng = np.random.default_rng(21)
    sched = random_schedule(net, 10, 10.0, rng)
    v0 = np.zeros(net.n_species)
    for i in range(1, 11):
        v0[net.index_of(f"S{i}")] = 0.9
        v0[net.index_of(f"I{i}")] = 0.1
    traj = cl.simulate(net, v0, sched, 10.0, 1e-3)
    lsched, _ = cl.project_control(net, part, lumped, traj, sched)
    ltraj = cl.simulate(lumped, block_indicator(part) @ v0, lsched, 10.0, 1e-3)
    w_run = np.zeros(net.n_species)
    w_fin = np.zeros(net.n_species)
    for i in range(1, 11):
        w_run[net.index_of(f"I{i}")] = 1.0   # cumulative infected over time
        w_fin[net.index_of(f"V{i}")] = 1.0   # vaccinations at the horizon
    cost = cl.CostSpec(w_run, w_fin, 10.0)
    assert cost.respects(part)
    J = cl.evaluate_cost(traj, cost)
    J_lumped = cl.evaluate_cost(ltraj, cost.project(part))
    rel = abs(J - J_lumped) / abs(J)
    report(6, rel <= 1e-6,
           f"star SIR n=10 cost matches between original and lumped: "
           f"J={J:.6f}, relative gap {rel:.2e}")


def test_criterion_7_reconstruction():
    doc = cl.parse_model(TWO_SITE_TEXT)
    net, part = doc.network, doc.initial_partition
    lumped, _ = cl.quotient(net, part)
    rng = np.random.default_rng(31)
    lsched = random_schedule(lumped, 10, 10.0, rng)
    v0 = np.array([0.6, 0.5, 0.2, 0.3, 0.1])
    ltraj = cl.simulate(lumped, block_indicator(part) @ v0, lsched, 10.0, 1e-3)
    result = cl.reconstruct_trajectory(net, part, ltraj, lsched, v0)
    bs = cl.block_sums(result.trajectory, part)
    tracking = float(np.max(np.abs(bs.states - ltraj.states)))
    report(7, result.max_residual <= 1e-8,
           f"per-step drift-match residual {result.max_residual:.2e} <= 1e-8")
    report(7, tracking <= 1e-4,
           f"reconstructed block sums track the lumped trajectory within "
           f"{tracking:.2e} <= 1e-4 over [0, 10]")

    # quadratic-program oracle: dense grid search on small random instances
    rng = np.random.default_rng(32)
    pitch = 1e-2
    worst = 0.0
    for rows, cols in [(2, 2), (3, 3), (4, 3), (4, 6)]:
        for _ in range(3):
            M = rng.standard_normal((rows, cols))
            lo = rng.random(cols)
            hi = lo + pitch * rng.integers(3, 6, cols)
            b = M @ (lo + (hi - lo) * rng.random(cols)) \
                + 0.05 * rng.standard_normal(rows)
            res = cl.solve_box_ls(cl.DriftMatchProblem(M, b, lo, hi))
            axes = [np.arange(l, h + pitch / 2, pitch) for l, h in zip(lo, hi)]
            best = min(float(np.sum((M @ np.array(p) - b) ** 2))
                       for p in itertools.product(*axes))
            worst = max(worst, float(np.sum((M @ res.x - b) ** 2)) - best)
    report(7, worst <= 1e-4,
           f"box-constrained solver within {worst:.2e} <= 1e-4 of the "
           "grid-search oracle objective")


def test_criterion_8_transient_lumping():
    doc = cl.parse_model(TWO_SITE_TEXT)
    net, part = doc.network, doc.initial_partition
    lumped, _ = cl.quotient(net, part)
    init = net.multiset({"A00": 2, "B": 1})
    linit = lumped.multiset({"A00": 2, "B": 1})
    space_o = cl.enumerate_states(net, init, 3)
    space_l = cl.enumerate_states(lumped, linit, 3)
    assert not space_o.truncated and not space_l.truncated
    worst = 0.0
    for extremal in ("lower", "upper"):
        gen_o = cl.build_generator(space_o, net, extremal)
        gen_l = cl.build_generator(space_l, lumped, extremal)
        p0 = np.zeros(space_o.n_states)
        p0[space_o.index[init]] = 1.0
        q0 = np.zeros(space_l.n_states)
        q0[space_l.index[linit]] = 1.0
        for t in (0.5, 1.0, 5.0):
            pt = cl.transient_solve(gen_o, p0, t)
            qt = cl.transient_solve(gen_l, q0, t)
            lifted = {}
            for i, s in enumerate(space_o.states):
                key = project_key(s.entries, part.block_of)
                lifted[key] = lifted.get(key, 0.0) + pt[i]
            for j, s in enumerate(space_l.states):
                gap = abs(qt[j] - lifted.get(tuple(s.entries), 0.0))
                worst = max(worst, gap)
    report(8, worst <= 1e-9,
           f"lifted transient probabilities of original vs quotient agree "
           f"within {worst:.2e} <= 1e-9 at t in {{0.5, 1, 5}}, both extremals")


def test_criterion_9_fluid_convergence_evidence():
    doc = cl.parse_model(TWO_SITE_TEXT)
    net = doc.network
    alpha = [r.rate.midpoint for r in net.reactions]
    sched = cl.ControlSchedule.constant(alpha)
    v0 = np.array([1.0, 1.0, 0.0, 0.0, 0.0])
    t_end = 1.0
    traj = cl.simulate(net, v0, sched, t_end, 1e-3)
    grid = np.linspace(0.0, t_end, 21)
    idx = np.searchsorted(traj.times, grid)
    ode_states = traj.states[np.minimum(idx, len(traj.times) - 1)]
    gaps = []
    for N in (10, 100, 1000):
        init = Multiset([(0, N), (1, N)])
        acc = np.zeros((len(grid), net.n_species))
        for p in range(100):
            path = cl.ssa_simulate(net, init, alpha, t_end, seed=1000 * N + p,
                                   N=N, c=4.0)
            acc += path.states_at(grid) / N
        mean = acc / 100.0
        gaps.append(float(np.max(np.abs(mean - ode_states))))
    ok = gaps[0] >= gaps[1] >= gaps[2]
    report(9, ok, "scaled sample-mean gap to the deterministic trajectory is "
                  f"non-increasing in N: {gaps[0]:.4f} >= {gaps[1]:.4f} >= "
                  f"{gaps[2]:.4f} for N in {{10, 100, 1000}}")


def _sir_reduction_ratio(doc):
    """Reduced over original variable count among the S/I/R species; the
    vaccination trackers V are excluded (they have no outgoing reactions and
    always lump, which would mask the qualitative signal)."""
    net = doc.network
    part = cl.coarsest_equivalence(net, doc.initial_partition)
    sir_blocks = [b for b in part.blocks
                  if not net.names[b[0]].startswith("V")]
    sir_species = sum(1 for name in net.names if not name.startswith("V"))
    return len(sir_blocks) / sir_species


def test_criterion_10_weighted_network_reduction():
    n = 50
    unit = "\n".join(f"1 {i} 1.0" for i in range(2, n + 1))
    g = cl.parse_edge_list(unit, undirected=True)
    ratio = _sir_reduction_ratio(cl.sir_network_model(g, SIR))
    report(10, ratio < 0.2,
           f"unit-weight 50-node star: reduction ratio {ratio:.3f} < 0.2")

    rng = random.Random(77)
    weights = [1.0 + rng.uniform(-0.05, 0.05) for _ in range(2, n + 1)]
    assert len(set(weights)) == len(weights)  # no shared intervals
    jittered = "\n".join(f"1 {i} {w!r}" for i, w in zip(range(2, n + 1), weights))
    gj = cl.parse_edge_list(jittered, undirected=True)
    ratio_j = _sir_reduction_ratio(cl.sir_network_model(gj, SIR))
    report(10, ratio_j == 1.0,
           f"after +-0.05 weight jitter with no shared intervals the ratio "
           f"is {ratio_j:.3f} (no reduction)")

    # modeling the same uncertainty as one shared interval restores symmetry
    ratio_u = _sir_reduction_ratio(
        cl.sir_network_model(g, SIR, uncertainty_halfwidth=0.05))
    report(10, ratio_u < 0.2,
           f"with symmetric intervals [0.95, 1.05] the ratio is "
           f"{ratio_u:.3f} < 0.2 again")
