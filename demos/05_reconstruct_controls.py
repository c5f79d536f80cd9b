#!/usr/bin/env python3
# Going back up: given a trajectory and control schedule of the quotient,
# recover a control for the original network whose block-summed behavior
# reproduces it. Each integration stage solves a small box-constrained least
# squares problem matching the block-summed original drift to the lumped one.
import numpy as np

import crnlump as cl

doc = cl.parse_model("""species B A00 A01 A10 A11
A00 + B -> A10 , [1.0 : 2.0]
A10 -> A00 + B , [0.5 : 0.75]
A00 + B -> A01 , [1.0 : 2.0]
A01 -> A00 + B , [0.5 : 0.75]
A10 + B -> A11 , [1.25 : 2.25]
A11 -> A10 + B , [0.25 : 0.4]
A01 + B -> A11 , [1.25 : 2.25]
A11 -> A01 + B , [0.25 : 0.4]
partition { B } { A00 } { A01 A10 } { A11 }
""")
net, part = doc.network, doc.initial_partition
lumped, _ = cl.quotient(net, part)

# pretend an optimizer handed us this lumped control
rng = np.random.default_rng(5)
lo, hi = lumped.table.lo, lumped.table.hi
lumped_sched = cl.ControlSchedule(
    np.arange(10.0), lo + (hi - lo) * rng.random((10, lumped.n_reactions)))

# any original initial state consistent with the lumped one will do; here we
# split the lumped A01 mass unevenly between A01 and A10
v0 = np.array([0.6, 0.5, 0.2, 0.3, 0.1])
vhat0 = part.sums(v0)
lumped_traj = cl.simulate(lumped, vhat0, lumped_sched, 10.0, 1e-3)

result = cl.reconstruct_trajectory(net, part, lumped_traj, lumped_sched, v0)
print(f"worst per-step drift-match residual: {result.max_residual:.2e}")

bs = cl.block_sums(result.trajectory, part)
gap = np.max(np.abs(bs.states - lumped_traj.states))
print(f"block sums of the reconstruction track the lumped trajectory "
      f"within {gap:.2e}")

# the realized original control stays inside every rate interval
result.schedule.validate_for(net)
print("realized control is feasible for the original network")
print("first-step controls:",
      np.array2string(result.schedule.values[0], precision=4))
