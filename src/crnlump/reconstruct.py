"""Drift matching and closed-loop control reconstruction.

Given a state v of the original network and a target per-block drift, the
drift-match problem asks for per-reaction controls a inside their rate
intervals minimizing ||M a - b||, where column r of M is the block-summed
stoichiometric change of reaction r scaled by its mass-action monomial at v.
The objective is convex; on consistent states (block sums of v equal to the
lumped state that produced the target) the minimum is zero.

Every drift match, here and in `ode.project_control`, is solved in group
space by `ode.DriftMatch` on the partition itself. Reactions with the same
block-summed change give parallel columns of M, and real networks have
only a few such directions. So each RK4 stage solves for one flux per
direction with `ode.BoxLeastSquares`, the one box least-squares solver,
which keeps the pseudo-inverse of each free set of the constant group
matrix. Each member of a group then takes the group's relative position
in the range of its own flux (its monomial times its control, counted
from the upper rate when the monomial is negative), and each stage
warm-starts at the previous stage's positions. When M is rank-deficient
the minimizer is not unique; this one has the optimal residual of the
full problem, which `build_drift_match` and `solve_box_ls` state and
solve over all reactions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .lumping import quotient
from .model import Partition, ReactionNetwork, StructuralError
from .ode import (RESIDUAL_MAX, BoxLeastSquares, BoxLsResult,
                  ControlSchedule, DriftMatch, Trajectory, VectorField,
                  _MatchFailure, block_indicator, require_steps, rk4_step)

# Largest gap allowed between the block sums of `v0` and the lumped start.
CONSISTENCY_TOL = 1e-9


class ReconstructionFailureError(_MatchFailure):
    """A drift match of a reconstruction step failed."""

    word = "reconstruction"


@dataclass
class DriftMatchProblem:
    """min ||M a - b||^2 subject to lo <= a <= hi, convex in a."""

    M: np.ndarray
    b: np.ndarray
    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        self.M = np.asarray(self.M, dtype=float)
        self.b = np.asarray(self.b, dtype=float)
        self.lo = np.asarray(self.lo, dtype=float)
        self.hi = np.asarray(self.hi, dtype=float)
        if self.M.shape != (len(self.b), len(self.lo)):
            raise ValueError("inconsistent problem dimensions")
        if np.any(self.lo > self.hi):
            raise ValueError("box lower bound exceeds upper bound")


def build_drift_match(net: ReactionNetwork, part: Partition,
                      v: np.ndarray, target: np.ndarray) -> DriftMatchProblem:
    """Assemble the drift-match problem at state `v` with a per-block target,
    using linearity of the mass-action drift in the controls."""
    v = np.asarray(v, dtype=float)
    vf = VectorField(net)
    coeff = (vf.block_coefficients(part) * vf.monomials(v)[:, None]).T
    return DriftMatchProblem(coeff, np.asarray(target, dtype=float),
                             net.compiled.lo, net.compiled.hi)


def solve_box_ls(prob: DriftMatchProblem, max_iter: Optional[int] = None,
                 x0: Optional[np.ndarray] = None) -> BoxLsResult:
    """Solve `prob` with the active-set solver `ode.BoxLeastSquares`,
    warm-started from `x0` (default: the box midpoint). A solve stopped by
    `max_iter` returns its last point with `converged=False`. When M is
    identically zero any point is optimal and the box midpoint is returned."""
    return BoxLeastSquares(prob.M).solve(prob.b, prob.lo, prob.hi, x0, max_iter)


def stage_drifts(net: ReactionNetwork, traj: Trajectory,
                 schedule: ControlSchedule) -> Tuple[np.ndarray, ...]:
    """The four RK4 stage drifts of every step of `traj`, replayed from its
    grid values under `schedule` for all steps at once: arrays of shape
    (steps, species), bit-identical to `rk4_step` one step at a time."""
    times = np.asarray(traj.times, dtype=float)
    alpha = schedule.values[schedule.segments(times[:-1])]
    vf = VectorField(net)
    _, stages = rk4_step(lambda x: vf(x, alpha),
                         np.asarray(traj.states, dtype=float)[:-1],
                         np.diff(times)[:, None])
    return stages


@dataclass
class ReconstructionResult:
    trajectory: Trajectory
    schedule: ControlSchedule
    step_residuals: np.ndarray
    max_residual: float


def reconstruct_trajectory(net: ReactionNetwork, part: Partition,
                           lumped_traj, lumped_schedule, v0
                           ) -> ReconstructionResult:
    """Closed-loop reconstruction of an original-network trajectory from a
    lumped trajectory and control schedule.

    The original state is integrated with RK4 on the lumped trajectory's time
    grid. At each stage the target drift is the lumped vector field evaluated
    on the lumped trajectory under the lumped control of the current step;
    between grid points the lumped trajectory is reconstituted by replaying
    the integrator's own stages from the grid values, for all steps in one
    batch, which keeps the targets exactly consistent with the data. Each
    stage control solves the drift-match problem at the current
    reconstructed state with one `DriftMatch`, warm-started from the
    previous stage. Returns the reconstructed trajectory, the realized
    piecewise-constant control (the first-stage solution of each step) and
    per-step residuals. A stage residual above RESIDUAL_MAX, or a stage solve
    that does not converge, raises ReconstructionFailureError.
    """
    require_steps(lumped_traj)
    lumped, _ = quotient(net, part)
    lumped_schedule.validate_for(lumped)
    B = block_indicator(part)
    v0 = np.asarray(v0, dtype=float)
    if v0.shape != (net.n_species,):
        raise StructuralError("initial state length mismatch")
    gap = float(np.max(np.abs(B @ v0 - lumped_traj.states[0]), initial=0.0))
    if gap > CONSISTENCY_TOL:
        raise StructuralError(
            f"initial state inconsistent with lumped trajectory (gap {gap:.3e})")

    vf = VectorField(net)
    match = DriftMatch(vf, part, net.compiled.lo, net.compiled.hi,
                       ReconstructionFailureError)
    times = np.asarray(lumped_traj.times, dtype=float)
    dt = np.diff(times)
    targets = stage_drifts(lumped, lumped_traj, lumped_schedule)

    n_steps = len(times) - 1
    states = np.empty((n_steps + 1, net.n_species))
    states[0] = v0
    controls = np.empty((n_steps, net.n_reactions))
    residuals = np.empty(n_steps)
    v = v0.copy()
    for k in range(n_steps):
        t = float(times[k])
        solved = []  # (control, residual) of each stage in turn

        def field(x):
            mono = vf.monomials(x)
            alpha, residual = match.solve(mono, targets[len(solved)][k], t)
            solved.append((alpha, residual))
            mono *= alpha
            return vf.drift(mono)

        v, _ = rk4_step(field, v, dt[k])
        if not np.all(np.isfinite(v)):
            raise ReconstructionFailureError(float(times[k + 1]), float("inf"))
        states[k + 1] = v
        controls[k] = solved[0][0]
        residuals[k] = worst = max(r for _, r in solved)
        if worst > RESIDUAL_MAX:
            raise ReconstructionFailureError(t, worst)

    schedule = ControlSchedule(times[:-1].copy(), controls)
    traj = Trajectory(times, states, schedule, net.names)
    return ReconstructionResult(traj, schedule, residuals, float(residuals.max()))
