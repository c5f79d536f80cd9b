#!/usr/bin/env python3
# The stochastic side, at populations small enough to enumerate: the lifted
# partition is an ordinary lumpability of both extremal generators, transient
# distributions of original and quotient agree on lifted classes, and scaled
# stochastic simulations drift toward the deterministic trajectory as the
# population scale grows.
import numpy as np

import crnlump as cl

MODEL = """species B A00 A01 A10 A11
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
doc = cl.parse_model(MODEL)
net, part = doc.network, doc.initial_partition

# 1. ordinary lumpability of the lifted partition, checked on the full
#    population ball so every relevant state is present
ball = cl.enumerate_ball(net, 4)
for extremal in ("lower", "upper"):
    gen = cl.build_generator(ball, net, extremal)
    res = cl.check_ordinary_lumpability(gen, ball, part)
    print(f"lifted partition lumpable on the {extremal} generator:", res.ok)

# ... and a broken variant produces a concrete counterexample
broken = cl.parse_model(MODEL.replace("[1.25 : 2.25]", "[1.25 : 2.26]", 1)).network
gen = cl.build_generator(ball, broken, "upper")
res = cl.check_ordinary_lumpability(gen, ball, part)
print("perturbed model still lumpable:", res.ok)
print("counterexample:", res.counterexample.to_json_dict(broken))

# 2. transient distributions agree on lifted classes
init = net.multiset({"A00": 2, "B": 1})
space = cl.enumerate_states(net, init, 3)
lumped, _ = cl.quotient(net, part)
lspace = cl.enumerate_states(lumped, lumped.multiset({"A00": 2, "B": 1}), 3)
gen_o = cl.build_generator(space, net, "lower")
gen_l = cl.build_generator(lspace, lumped, "lower")
p0 = np.zeros(space.n_states)
p0[space.index[init]] = 1.0
q0 = np.zeros(lspace.n_states)
q0[lspace.index[lumped.multiset({"A00": 2, "B": 1})]] = 1.0
pt = cl.transient_solve(gen_o, p0, 1.0)
qt = cl.transient_solve(gen_l, q0, 1.0)
# each original state's block sums are a state of the quotient
lifted = np.bincount(lspace.locate(part.sums(space.counts)), pt,
                     lspace.n_states)
gap = np.max(np.abs(qt - lifted))
print(f"\nlifted transient gap at t = 1: {gap:.2e}")

# 3. fluid convergence: scaled sample means approach the deterministic path
alpha = 0.5 * (net.table.lo + net.table.hi)
traj = cl.simulate(net, np.array([1.0, 1.0, 0, 0, 0]),
                   cl.ControlSchedule.constant(alpha), 1.0, 1e-3)
grid = np.linspace(0.0, 1.0, 21)
ode = traj.states[np.searchsorted(traj.times, grid)]
print("\nscale N  sup-norm gap of the 100-path sample mean")
for N in (10, 100, 1000):
    acc = np.zeros((len(grid), net.n_species))
    for p in range(100):
        path = cl.ssa_simulate(net, cl.Multiset([(0, N), (1, N)]), alpha, 1.0,
                               seed=1000 * N + p, N=N, c=4.0)
        acc += path.states_at(grid) / N
    print(f"  {N:5d}  {np.max(np.abs(acc / 100.0 - ode)):.4f}")
