"""Deterministic semantics: mass-action vector field, fixed-step integration
under piecewise-constant controls, block-sum projection, cost functionals,
the box least-squares solver and the group-space drift match behind
control transfer, and projection of controls onto a quotient network.

The vector field of species A is

    f_A(v, a) = sum_r a_r (product_r(A) - reactant_r(A)) prod_B v_B^{rho(B)} / rho(B)!

with the factorial divisor convention, so it is the large-population limit of
the count-scaled stochastic model and is linear in the control vector `a`.
Integration is classical fixed-step RK4 with steps split at schedule
breakpoints: bit-identical output for identical inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .model import Partition, ReactionNetwork, StructuralError, row_keys
from .parser import ParseError

# Drift-match residual above which projection and reconstruction fail.
RESIDUAL_MAX = 1e-6
# KKT sign tolerance of `BoxLeastSquares`, relative to the size of the
# terms summed into each gradient entry times the problem's dimensions.
KKT_RTOL = 1e-14
# Iteration cap of `BoxLeastSquares` per coordinate of the problem.
ITERS_PER_COORDINATE = 3
# Most grid points times species `simulate` allocates a trajectory for.
MAX_GRID_CELLS = 10 ** 8


class DivergenceError(RuntimeError):
    """Integration produced a non-finite state."""

    def __init__(self, time: float):
        super().__init__(f"non-finite state at t = {time}")
        self.time = time


class _MatchFailure(RuntimeError):
    """A drift match at `time` left `residual` above RESIDUAL_MAX, or its
    solve stopped at its iteration cap (`converged` is then False); the
    message starts with the subclass's `word`."""

    def __init__(self, time: float, residual: float, converged: bool = True):
        super().__init__(f"{self.word} residual {residual:.3e} at t = {time}"
                         + ("" if converged else "; solver did not converge"))
        self.time = time
        self.residual = residual
        self.converged = converged


class ProjectionFailureError(_MatchFailure):
    """A projection drift match failed: the partition is not an equivalence
    or the trajectory is inconsistent with the network."""

    word = "projection"


class ControlSchedule:
    """Piecewise-constant per-reaction control values.

    `breakpoints` start at 0 and increase strictly; value row i applies on
    [breakpoints[i], breakpoints[i+1]) and the last row extends to the end of
    any horizon it is used with.
    """

    def __init__(self, breakpoints: Sequence[float], values: Sequence[Sequence[float]]):
        self.breakpoints = np.asarray(breakpoints, dtype=float)
        self.values = np.asarray(values, dtype=float)
        if self.breakpoints.ndim != 1 or self.values.ndim != 2:
            raise ValueError("breakpoints must be 1-D and values 2-D")
        if len(self.breakpoints) != len(self.values):
            raise ValueError("one value row per breakpoint required")
        if len(self.breakpoints) == 0 or self.breakpoints[0] != 0.0:
            raise ValueError("schedule must start at t = 0")
        if np.any(np.diff(self.breakpoints) <= 0):
            raise ValueError("breakpoints must increase strictly")

    @classmethod
    def constant(cls, values: Sequence[float]) -> "ControlSchedule":
        return cls([0.0], [list(values)])

    @classmethod
    def midpoint(cls, net: ReactionNetwork) -> "ControlSchedule":
        return cls.constant(0.5 * (net.compiled.lo + net.compiled.hi))

    @property
    def n_reactions(self) -> int:
        return self.values.shape[1]

    def validate_for(self, net: ReactionNetwork):
        if self.n_reactions != net.n_reactions:
            raise StructuralError("schedule width does not match reaction count")
        c = net.compiled
        if not np.all((self.values >= c.lo) & (self.values <= c.hi)):
            raise StructuralError("schedule value outside its rate interval")

    def segments(self, times) -> np.ndarray:
        """Index of the value row in force at each of `times`."""
        return np.maximum(
            np.searchsorted(self.breakpoints, times, side="right") - 1, 0)

    def value_at(self, t: float) -> np.ndarray:
        if t < 0:
            raise ValueError("negative time")
        return self.values[int(self.segments(t))]


@dataclass
class Trajectory:
    """Time grid plus per-time state vectors, with the schedule that drove it."""

    times: np.ndarray
    states: np.ndarray
    schedule: Optional[ControlSchedule] = None
    names: Optional[Tuple[str, ...]] = None

    def state_at(self, t: float) -> np.ndarray:
        """Linear interpolation between grid points."""
        times = self.times
        if t < times[0] - 1e-12 or t > times[-1] + 1e-12:
            raise StructuralError(f"time {t} outside trajectory range")
        i = int(np.searchsorted(times, t, side="right")) - 1
        i = min(max(i, 0), len(times) - 2)
        t0, t1 = times[i], times[i + 1]
        w = 0.0 if t1 == t0 else (t - t0) / (t1 - t0)
        return (1.0 - w) * self.states[i] + w * self.states[i + 1]


_ONE = np.ones(1)


class VectorField:
    """Evaluator of one network's vector field: monomials, drift, and the
    coefficient matrix of the drift as a linear function of the controls.

    It reads the network's compiled arrays (`ReactionNetwork.compiled`),
    so one evaluation costs O(nnz), not O(R * S): the monomials are a
    product over the (K, R) reactant table, whose padding slots point at
    an extra state entry holding 1.0, and the drift sums the nonzero
    (reaction, species, change) triples in their fixed order, so identical
    inputs give bit-identical output. Given 2-D arrays, one state per row,
    the evaluation is batched and bit-identical to row-by-row calls."""

    def __init__(self, net: ReactionNetwork):
        c = net.compiled
        self.n_species = net.n_species
        self.idx, self.exp, self.fact = c.idx, c.exp, c.fact
        self.rx, self.sp, self.dn = c.rx, c.sp, c.dn

    def monomials(self, v: np.ndarray) -> np.ndarray:
        """prod_B v_B^{rho(B)} / rho(B)! per reaction; per row for a 2-D `v`."""
        if v.ndim == 1:
            terms = np.concatenate((v, _ONE))[self.idx]
        else:
            terms = np.take(np.concatenate((v, np.ones((len(v), 1))), axis=1),
                            self.idx, axis=1)
        np.power(terms, self.exp, out=terms)
        mono = terms.prod(axis=-2)
        mono /= self.fact
        return mono

    def drift(self, rate: np.ndarray) -> np.ndarray:
        """Species drift of the per-reaction rates a_r m_r(v); per row for a
        2-D `rate`, summed in the same order as one row at a time."""
        if rate.ndim == 1:
            return np.bincount(self.sp, weights=rate[self.rx] * self.dn,
                               minlength=self.n_species)
        n, S = len(rate), self.n_species
        bins = (np.arange(n)[:, None] * S + self.sp).ravel()
        return np.bincount(bins, weights=(rate[:, self.rx] * self.dn).ravel(),
                           minlength=n * S).reshape(n, S)

    def __call__(self, v: np.ndarray, alpha: np.ndarray) -> np.ndarray:
        """The drift at state `v` under controls `alpha`; per row of 2-D
        `v` and `alpha` alike."""
        return self.drift(alpha * self.monomials(v))

    def block_coefficients(self, part: Partition) -> np.ndarray:
        """Per-reaction block-summed stoichiometric change under `part`,
        shape (R, part.n_blocks): one `bincount` over (reaction, block)."""
        if part.n != self.n_species:
            raise StructuralError("partition over wrong species universe")
        R, n = len(self.fact), part.n_blocks
        cell = self.rx * n + np.asarray(part.block_of, dtype=np.intp)[self.sp]
        return np.bincount(cell, weights=self.dn,
                           minlength=R * n).reshape(R, n)


def block_indicator(part: Partition) -> np.ndarray:
    """0/1 matrix (n_blocks, n_species) summing species into their blocks."""
    B = np.zeros((part.n_blocks, part.n), dtype=float)
    B[part.block_of, np.arange(part.n)] = 1.0
    return B


def _time_grid(t_end: float, step: float, breakpoints: np.ndarray,
               width: int) -> np.ndarray:
    """Grid 0, step, 2 step, ..., t_end plus the breakpoints inside it;
    a ValueError names the argument that is not finite or out of range, or
    `t_end` and `step` when the grid times `width` species would hold more
    than MAX_GRID_CELLS values."""
    if not (math.isfinite(step) and step > 0):
        raise ValueError(f"step must be a positive finite number, got {step!r}")
    if not (math.isfinite(t_end) and t_end >= 0):
        raise ValueError(f"t_end must be a nonnegative finite number, "
                         f"got {t_end!r}")
    if not math.isfinite(t_end / step):
        raise ValueError(f"t_end / step overflows: {t_end!r} / {step!r}")
    n = int(math.floor(t_end / step + 1e-9))
    if (n + 1) * max(width, 1) > MAX_GRID_CELLS:
        raise ValueError(f"t_end / step gives {n + 1} grid points of {width} "
                         f"species, more than {MAX_GRID_CELLS} values: "
                         f"{t_end!r} / {step!r}")
    grid = np.arange(n + 1) * step
    if abs(grid[-1] - t_end) > 1e-9 * max(1.0, t_end):
        grid = np.append(grid, t_end)
    else:
        grid[-1] = t_end
    extra = [b for b in breakpoints if 0.0 < b < t_end
             and np.min(np.abs(grid - b)) > 1e-12 * max(1.0, t_end)]
    if extra:
        grid = np.sort(np.concatenate([grid, np.array(extra)]))
    return grid


def rk4_step(f, v: np.ndarray, dt: float):
    """One classical RK4 step of dv/dt = f(v): the new state and the four
    stage derivatives, f evaluated once per stage in order."""
    k1 = f(v)
    k2 = f(v + 0.5 * dt * k1)
    k3 = f(v + 0.5 * dt * k2)
    k4 = f(v + dt * k3)
    return v + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), (k1, k2, k3, k4)


def require_steps(traj: Trajectory):
    """A StructuralError unless `traj` has the two time points or more that
    control transfer, which works step by step, needs."""
    if len(traj.times) < 2:
        raise StructuralError(f"the trajectory has {len(traj.times)} time "
                              "point(s); control transfer needs at least two")


def simulate(net: ReactionNetwork, v0: Sequence[float], schedule: ControlSchedule,
             t_end: float, step: float = 1e-3) -> Trajectory:
    """Integrate the deterministic model with classical RK4 at fixed step,
    splitting steps at schedule breakpoints. Controls are held at the value of
    the segment containing the step's left endpoint."""
    schedule.validate_for(net)
    v = np.asarray(v0, dtype=float).copy()
    if v.shape != (net.n_species,):
        raise StructuralError("initial state length mismatch")
    times = _time_grid(t_end, step, schedule.breakpoints, net.n_species)
    vf = VectorField(net)
    states = np.empty((len(times), net.n_species))
    states[0] = v
    seg = schedule.segments(times[:-1])
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(len(times) - 1):
            alpha = schedule.values[seg[k]]
            v, _ = rk4_step(lambda x: vf(x, alpha), v, times[k + 1] - times[k])
            if not np.all(np.isfinite(v)):
                raise DivergenceError(times[k + 1])
            states[k + 1] = v
    return Trajectory(np.asarray(times), states, schedule, net.names)


def block_sums(traj: Trajectory, part: Partition) -> Trajectory:
    """Per-block cumulative trajectory: one component per partition block."""
    if traj.states.shape[1] != part.n:
        raise StructuralError("trajectory width does not match partition universe")
    B = block_indicator(part)
    names = None
    if traj.names is not None:
        names = tuple(traj.names[b[0]] for b in part.blocks)
    return Trajectory(traj.times, traj.states @ B.T, traj.schedule, names)


@dataclass
class CostSpec:
    """Linear running and final cost: integral of `running_weights . v(t)` over
    [0, horizon] plus `final_weights . v(horizon)`. Weights must be constant
    within each block of the partition the cost is used with."""

    running_weights: np.ndarray
    final_weights: np.ndarray
    horizon: float

    def __post_init__(self):
        self.running_weights = np.asarray(self.running_weights, dtype=float)
        self.final_weights = np.asarray(self.final_weights, dtype=float)
        if not (math.isfinite(self.horizon) and self.horizon >= 0):
            raise ValueError(f"horizon must be a nonnegative finite number, "
                             f"got {self.horizon!r}")
        if not np.all(np.isfinite(np.r_[self.running_weights,
                                        self.final_weights])):
            raise ValueError("cost weights must be finite numbers")

    def respects(self, part: Partition) -> bool:
        return all(len({w[i] for i in block}) == 1 for block in part.blocks
                   for w in (self.running_weights, self.final_weights))

    def project(self, part: Partition) -> "CostSpec":
        """Equivalent cost on the quotient network (one weight per block)."""
        if not self.respects(part):
            raise StructuralError("cost weights are not block-respecting")
        reps = part.representatives
        return CostSpec(self.running_weights[list(reps)],
                        self.final_weights[list(reps)], self.horizon)


def evaluate_cost(traj: Trajectory, cost: CostSpec) -> float:
    """Trapezoidal quadrature of the running cost over the trajectory grid
    plus the final cost at the horizon."""
    T = cost.horizon
    times = traj.times
    widths = (len(cost.running_weights), len(cost.final_weights))
    if widths != (traj.states.shape[1],) * 2:
        raise StructuralError(f"cost weights of lengths {widths} for a "
                              f"trajectory of {traj.states.shape[1]} species")
    if T > times[-1] + 1e-9 * max(1.0, T):
        raise StructuralError("cost horizon exceeds trajectory range")
    running = traj.states @ cost.running_weights
    total = 0.0
    for k in range(len(times) - 1):
        t1 = times[k + 1]
        if t1 >= T:
            w = 1.0 if times[k + 1] == times[k] else (T - times[k]) / (t1 - times[k])
            rT = running[k] + w * (running[k + 1] - running[k])
            total += 0.5 * (T - times[k]) * (running[k] + rT)
            break
        total += 0.5 * (t1 - times[k]) * (running[k] + running[k + 1])
    return total + float(cost.final_weights @ traj.state_at(T))


@dataclass
class BoxLsResult:
    x: np.ndarray
    residual: float
    converged: bool
    iterations: int


class BoxLeastSquares:
    """Exact active-set solver of min ||M x - b|| subject to lo <= x <= hi
    for one fixed matrix M (Lawson-Hanson NNLS extended to boxes, as in
    Stark-Parker BVLS).

    The coordinates on a bound of the warm start `x0` (default: the box
    midpoint) start fixed there. Each iteration moves the free coordinates
    by the minimum-norm least-squares correction from the current point,
    which copes with wide, rank-deficient M. The pseudo-inverse of M's free
    columns gives that correction; it is computed once per free set and
    kept, so repeated solves with the same M cost matrix-vector products.
    If the correction leaves the box, the step stops at the first bound
    crossed and fixes that coordinate. Otherwise the point is optimal when
    no coordinate is fixed; else the fixed coordinates' gradient signs are
    checked and the worst violator is freed, or the point is optimal. A
    coordinate with lo == hi is never freed. After `max_iter` iterations
    (default ITERS_PER_COORDINATE * (n + 1) for n coordinates) the current
    point is returned with `converged=False`."""

    def __init__(self, M: np.ndarray):
        self.M = M
        self.absM = np.abs(M)
        self._pinv: Dict[bytes, np.ndarray] = {}

    def _correction(self, free: np.ndarray, r: np.ndarray) -> np.ndarray:
        P = self._pinv.get(free.tobytes())
        if P is None:
            A = self.M[:, free]
            # the cutoff of `np.linalg.lstsq`'s default
            P = np.linalg.pinv(A, rcond=np.finfo(float).eps * max(A.shape))
            self._pinv[free.tobytes()] = P
        return P @ r

    def solve(self, b: np.ndarray, lo: np.ndarray, hi: np.ndarray,
              x0: Optional[np.ndarray] = None,
              max_iter: Optional[int] = None) -> BoxLsResult:
        M, absM = self.M, self.absM
        m, n = M.shape
        x = 0.5 * (lo + hi) if x0 is None else np.minimum(np.maximum(x0, lo), hi)
        at_lo, at_hi = x <= lo, x >= hi
        movable = lo < hi
        cap = ITERS_PER_COORDINATE * (n + 1) if max_iter is None else max_iter
        for it in range(1, cap + 1):
            free = ~(at_lo | at_hi)
            r = b - M @ x
            n_free = np.count_nonzero(free)
            if n_free:
                d = self._correction(free, r)
                xf, lf, hf = x[free], lo[free], hi[free]
                z = xf + d
                out = (z < lf) | (z > hf)
                if np.count_nonzero(out):
                    bound = np.where(d < 0, lf, hf)
                    t = np.full(len(d), np.inf)
                    t[out] = (bound[out] - xf[out]) / d[out]
                    j = int(np.argmin(t))
                    x[free] = np.clip(xf + t[j] * d, lf, hf)
                    k = int(np.flatnonzero(free)[j])
                    x[k] = bound[j]
                    (at_lo if d[j] < 0 else at_hi)[k] = True
                    continue
                x[free] = z
                r = b - M @ x
                if n_free == n:
                    # an unconstrained least-squares point: no sign to check
                    return BoxLsResult(x, math.sqrt(r @ r), True, it)
            g = -(M.T @ r)
            tol = KKT_RTOL * (m + n) * (absM.T @ (absM @ np.abs(x) + np.abs(b)))
            viol = np.where(at_lo, -g, np.where(at_hi, g, 0.0)) - tol
            viol[~movable] = 0.0
            if viol.max(initial=0.0) <= 0:
                return BoxLsResult(x, math.sqrt(r @ r), True, it)
            i = int(np.argmax(viol))
            at_lo[i] = at_hi[i] = False
        r = b - M @ x
        return BoxLsResult(x, math.sqrt(r @ r), False, cap)


class DriftMatch:
    """The drift matches of one network against target drifts per block of
    `part`, solved one at a time, each warm-started from the one before.

    At state v, column r of the drift-match matrix is reaction r's
    block-summed change (its row of `vf.block_coefficients(part)`) times
    its monomial m_r(v), so reactions with the same change give parallel
    columns. The reactions are grouped once by their distinct change, the
    G columns of a constant matrix D, and each solve is the box
    least-squares problem over the group fluxes phi_g = sum m_r a_r: the
    residual ||D phi - target|| is the full problem's, and phi_g ranges
    over [sum min(m_r lo_r, m_r hi_r), sum max(m_r lo_r, m_r hi_r)], the
    sum of the members' ranges. Each member then takes the group's relative
    position theta_g in its own range: a_r = lo_r + theta_g (hi_r - lo_r)
    when m_r >= 0, else lo_r + (1 - theta_g) (hi_r - lo_r), which realizes
    phi_g for monomials of either sign (a negative state gives negative
    ones). A solve warm-starts at the previous solve's theta (the box
    midpoint at first); a group whose box is one point keeps it. A solve
    that does not converge raises `error(time, residual, False)`."""

    def __init__(self, vf: VectorField, part: Partition, lo: np.ndarray,
                 hi: np.ndarray, error):
        # rows keyed by their bytes; adding 0.0 turns -0.0 into 0.0
        coeff = vf.block_coefficients(part) + 0.0
        _, first, self.group = np.unique(row_keys(coeff.view(np.int64)),
                                         return_index=True, return_inverse=True)
        self.solver = BoxLeastSquares(coeff[first].T)
        self.lo, self.hi, self.width = lo, hi, hi - lo
        self.theta = np.full(len(first), 0.5)
        self.error = error

    def solve(self, mono: np.ndarray, target: np.ndarray,
              time: float) -> Tuple[np.ndarray, float]:
        """Controls matching `target` at the per-reaction monomials `mono`,
        and the drift-match residual."""
        g, theta = self.group, self.theta
        at_lo, at_hi = mono * self.lo, mono * self.hi
        flo = np.bincount(g, weights=np.minimum(at_lo, at_hi),
                          minlength=len(theta))
        fhi = np.bincount(g, weights=np.maximum(at_lo, at_hi),
                          minlength=len(theta))
        span = fhi - flo
        x0 = np.where(theta == 1.0, fhi, flo + theta * span)
        res = self.solver.solve(target, flo, fhi, x0)
        if not res.converged:
            raise self.error(time, res.residual, False)
        # in [0, 1]: flo <= x <= fhi, and rounding is monotonic
        np.divide(res.x - flo, span, out=theta, where=span > 0)
        alpha = theta[g]
        np.subtract(1.0, alpha, out=alpha, where=mono < 0)
        alpha *= self.width
        alpha += self.lo
        return np.minimum(alpha, self.hi, out=alpha), res.residual


def project_control(net: ReactionNetwork, part: Partition,
                    lumped: ReactionNetwork, traj: Trajectory,
                    schedule: ControlSchedule
                    ) -> Tuple[ControlSchedule, float]:
    """Controls for the quotient network matching a trajectory of the original.

    At every grid time the box-constrained least-squares drift match is solved
    in the lumped parameter box by `DriftMatch`: the block-summed original
    drift is the target and the lumped drift is linear in the lumped
    controls. Each step of the returned piecewise-constant schedule averages
    the solutions at its two endpoints (both evaluated under that step's
    original control value), which centers the constant approximation on the
    step. Returns the schedule and the worst drift-match residual; a residual
    above RESIDUAL_MAX, or a solve that does not converge, raises
    ProjectionFailureError.
    """
    schedule.validate_for(net)
    if traj.states.shape[1] != net.n_species:
        raise StructuralError("trajectory does not match network")
    if part.n != net.n_species:
        raise StructuralError("partition over wrong species universe")
    require_steps(traj)
    if part.n_blocks != lumped.n_species:
        raise StructuralError("partition size does not match lumped network")
    B = block_indicator(part)
    vf = VectorField(net)
    lvf = VectorField(lumped)
    lo, hi = lumped.compiled.lo, lumped.compiled.hi
    match = DriftMatch(lvf, Partition.singletons(lumped.n_species), lo, hi,
                       ProjectionFailureError)
    mono = lvf.monomials(traj.states @ B.T)
    times = traj.times
    seg = schedule.segments(times[:-1])

    solves = [(0.0, 0.0)]  # (residual, time) of every solve

    def solve_at(k: int, alpha: np.ndarray) -> np.ndarray:
        t = float(times[k])
        a, residual = match.solve(mono[k], B @ vf(traj.states[k], alpha), t)
        solves.append((residual, t))
        return a

    n_steps = len(times) - 1
    out = np.empty((n_steps, lumped.n_reactions))
    # the left control of a step is the previous step's right one while the
    # original control stays in one segment
    for k in range(n_steps):
        alpha = schedule.values[seg[k]]
        if k == 0 or seg[k] != seg[k - 1]:
            left = solve_at(k, alpha)
        right = solve_at(k + 1, alpha)
        out[k] = np.minimum(np.maximum(0.5 * (left + right), lo), hi)
        left = right
    worst, worst_time = max(solves, key=lambda s: s[0])
    if worst > RESIDUAL_MAX:
        raise ProjectionFailureError(worst_time, worst)
    return ControlSchedule(times[:-1].copy(), out), worst


# ---------------------------------------------------------------------------
# CSV interchange: trajectories as `t,<species...>`, schedules as
# `t_start,<reaction controls...>`.

def _fmt(x: float) -> str:
    return repr(float(x))


def trajectory_to_csv(traj: Trajectory) -> str:
    names = traj.names or tuple(f"x{i}" for i in range(traj.states.shape[1]))
    lines = ["t," + ",".join(names)]
    for t, row in zip(traj.times, traj.states):
        lines.append(_fmt(t) + "," + ",".join(_fmt(x) for x in row))
    return "\n".join(lines) + "\n"


def _read_csv(text: str, first: str, header_required: bool,
              t0: Optional[float] = None
              ) -> Tuple[Optional[List[str]], List[float], List[List[float]]]:
    """Header fields (None when absent), times and value rows of a numeric
    CSV file whose header starts with `first`. Blank lines are skipped. Every
    row must have the header's width (without a header, the first row's),
    every cell must be a finite number, times must increase strictly and,
    when `t0` is given, start at it; anything else is a ParseError at its
    line and column."""
    rows = [(no, ln) for no, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    header = None
    if rows and rows[0][1].split(",")[0].strip() == first:
        header = [h.strip() for h in rows.pop(0)[1].split(",")]
    elif header_required:
        raise ParseError(f"header must start with {first!r}",
                         rows[0][0] if rows else 1, 1)
    if not rows:
        raise ParseError("no data rows", text.count("\n") + 1, 1)
    width = len(header or rows[0][1].split(","))
    times: List[float] = []
    values: List[List[float]] = []
    for no, ln in rows:
        cells = ln.split(",")
        if len(cells) != width:
            raise ParseError(f"row has {len(cells)} cells, expected {width}", no, 1)
        row = []
        col = 1
        for cell in cells:
            try:
                x = float(cell)
            except ValueError:
                x = math.nan
            if not math.isfinite(x):
                raise ParseError(f"cell {cell.strip()!r} is not a finite number",
                                 no, col)
            row.append(x)
            col += len(cell) + 1
        if times and row[0] <= times[-1]:
            raise ParseError(f"time {row[0]!r} is not after the previous "
                             f"row's {times[-1]!r}", no, 1)
        if not times and t0 is not None and row[0] != t0:
            raise ParseError(f"first row must be at t = {t0!r}", no, 1)
        times.append(row[0])
        values.append(row[1:])
    return header, times, values


def trajectory_from_csv(text: str) -> Trajectory:
    """Read a `t,<species...>` trajectory; bad input is a located ParseError."""
    header, times, states = _read_csv(text, "t", header_required=True)
    return Trajectory(np.array(times), np.array(states), None, tuple(header[1:]))


def schedule_to_csv(sched: ControlSchedule) -> str:
    header = "t_start," + ",".join(f"r{i}" for i in range(sched.n_reactions))
    lines = [header]
    for t, row in zip(sched.breakpoints, sched.values):
        lines.append(_fmt(t) + "," + ",".join(_fmt(x) for x in row))
    return "\n".join(lines) + "\n"


def schedule_from_csv(text: str) -> ControlSchedule:
    """Read a schedule, `t_start,<controls...>` rows with an optional header;
    bad input, including a first row not at t = 0, is a located ParseError."""
    _, breakpoints, values = _read_csv(text, "t_start", header_required=False,
                                       t0=0.0)
    return ControlSchedule(breakpoints, values)
