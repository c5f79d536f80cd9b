#!/usr/bin/env python3
# Deterministic semantics under time-varying controls: simulate the original
# model under a random piecewise-constant control, project that control onto
# the quotient by per-step drift matching, and verify that block sums and a
# block-respecting cost are preserved.
import numpy as np

import crnlump as cl

params = cl.SirParams(beta=0.4, gamma=0.25, eta=0.1,
                      vaccination=cl.RateInterval(0.0, 1.0))
doc = cl.sir_star_model(10, params)
net = doc.network
part = cl.coarsest_equivalence(net, doc.initial_partition)
lumped, _ = cl.quotient(net, part)
print(f"{net.n_species} variables -> {lumped.n_species}")

# random piecewise-constant controls within each reaction's interval
rng = np.random.default_rng(2)
lo, hi = net.table.lo, net.table.hi
sched = cl.ControlSchedule(np.arange(10.0),
                           lo + (hi - lo) * rng.random((10, net.n_reactions)))

v0 = np.zeros(net.n_species)
for i in range(1, 11):
    v0[net.index_of(f"S{i}")] = 0.9
    v0[net.index_of(f"I{i}")] = 0.1

traj = cl.simulate(net, v0, sched, 10.0, 1e-3)
lumped_sched, residual = cl.project_control(net, part, lumped, traj, sched)
print(f"drift-match residual of the projected control: {residual:.2e}")

lumped_traj = cl.simulate(lumped, part.sums(v0), lumped_sched, 10.0, 1e-3)
gap = np.max(np.abs(cl.block_sums(traj, part).states - lumped_traj.states))
print(f"max |block sums - lumped trajectory| over [0, 10]: {gap:.2e}")

# a cost of cumulative infections plus final vaccinations, constant within
# every block of the partition, transfers to the quotient unchanged
w_run = np.zeros(net.n_species)
w_fin = np.zeros(net.n_species)
for i in range(1, 11):
    w_run[net.index_of(f"I{i}")] = 1.0
    w_fin[net.index_of(f"V{i}")] = 1.0
cost = cl.CostSpec(w_run, w_fin, 10.0)
J = cl.evaluate_cost(traj, cost)
J_hat = cl.evaluate_cost(lumped_traj, cost.project(part))
print(f"cost on the original: {J:.8f}")
print(f"cost on the quotient: {J_hat:.8f}   (relative gap {abs(J - J_hat) / J:.2e})")
