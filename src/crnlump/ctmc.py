"""Stochastic semantics at desk scale: explicit state enumeration, extremal
generator matrices, the ordinary-lumpability oracle, uniformized transient
solves, and stochastic simulation, optionally population-scaled with a
cutoff.

Everything here deliberately enumerates states and is only meant for small
populations; it serves as an independent oracle against the reaction-level
equivalence check, which never touches the state space.
"""

from __future__ import annotations

import math
import random
import warnings
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from .model import (Multiset, Partition, ReactionNetwork, StructuralError,
                    falling_binomial, project_key)


class CapacityError(RuntimeError):
    """State enumeration exceeded the configured state cap."""


class PropensityOverflowError(RuntimeError):
    """Total propensity became non-finite or absurdly large."""

    def __init__(self, state: np.ndarray):
        super().__init__("propensity overflow")
        self.state = state


class ApproximateResultWarning(UserWarning):
    """The result was computed on a truncated state space."""


@dataclass
class StateSpace:
    """Enumerated CTMC states in canonical order: breadth-first from the
    initial state with lexicographic tie-breaking within each level.
    `truncated` is set when any transition left the population bound."""

    states: List[Multiset]
    index: Dict[Multiset, int]
    truncated: bool

    @property
    def n_states(self) -> int:
        return len(self.states)


def enumerate_states(net: ReactionNetwork, init: Multiset, pop_bound: int,
                     max_states: int = 10 ** 6) -> StateSpace:
    """Breadth-first closure of the initial state under all applicable
    reactions, discarding successors whose total population exceeds
    `pop_bound` (and flagging the space truncated when that happens)."""
    if init.total > pop_bound:
        raise StructuralError("population bound smaller than the initial state")
    states: List[Multiset] = []
    index: Dict[Multiset, int] = {}
    truncated = False
    frontier = [init]
    seen = {init}
    while frontier:
        frontier.sort(key=lambda m: m.entries)
        for s in frontier:
            index[s] = len(states)
            states.append(s)
        nxt: List[Multiset] = []
        for sigma in frontier:
            for r in net.reactions:
                if r.is_noop:
                    continue
                if falling_binomial(sigma, r.reactant) == 0:
                    continue
                theta = sigma.subtract(r.reactant).add(r.product)
                if theta.total > pop_bound:
                    truncated = True
                    continue
                if theta not in seen:
                    seen.add(theta)
                    nxt.append(theta)
        if len(seen) > max_states:
            raise CapacityError(f"state space exceeds cap of {max_states}")
        frontier = nxt
    return StateSpace(states, index, truncated)


def enumerate_ball(net: ReactionNetwork, pop_bound: int,
                   max_states: int = 10 ** 6) -> StateSpace:
    """Every multiset with total population <= pop_bound, ordered by total then
    lexicographically. Flagged truncated when some reaction can increase the
    population (its transitions out of the ball are dropped)."""
    n = net.n_species
    if math.comb(pop_bound + n, n) > max_states:
        raise CapacityError(f"population ball exceeds cap of {max_states}")
    states: List[Multiset] = []

    def rec(idx: int, remaining: int, acc: List[Tuple[int, int]], total: int):
        if idx == n:
            states.append(Multiset(list(acc)))
            return
        for c in range(remaining + 1):
            if c:
                acc.append((idx, c))
            rec(idx + 1, remaining - c, acc, total + c)
            if c:
                acc.pop()

    rec(0, pop_bound, [], 0)
    if len(states) > max_states:
        raise CapacityError(f"state space exceeds cap of {max_states}")
    states.sort(key=lambda m: (m.total, m.entries))
    index = {s: i for i, s in enumerate(states)}
    truncated = any(r.product.total > r.reactant.total for r in net.reactions)
    return StateSpace(states, index, truncated)


@dataclass
class Generator:
    """Sparse transition-rate matrix over an enumerated space; the diagonal is
    the negated row sum of the retained off-diagonal entries, so rows sum to
    zero exactly even on truncated spaces."""

    matrix: sp.csr_matrix
    space: StateSpace
    extremal: str

    @property
    def truncated(self) -> bool:
        return self.space.truncated


def build_generator(space: StateSpace, net: ReactionNetwork,
                    extremal: str) -> Generator:
    rates = net.rates(extremal)
    rows: List[int] = []
    cols: List[int] = []
    vals: List[float] = []
    for si, sigma in enumerate(space.states):
        acc: Dict[int, List[float]] = {}
        for r in net.reactions:
            if r.is_noop or rates[r.id] == 0.0:
                continue
            fb = falling_binomial(sigma, r.reactant)
            if fb == 0:
                continue
            theta = sigma.subtract(r.reactant).add(r.product)
            ti = space.index.get(theta)
            if ti is None:
                if not space.truncated:
                    raise StructuralError("state space not closed under reactions")
                continue
            acc.setdefault(ti, []).append(rates[r.id] * fb)
        # entries and the diagonal are exact sums, so rows sum to zero and
        # symmetric states get bit-identical rate values
        row_vals = []
        for ti in sorted(acc):
            rows.append(si)
            cols.append(ti)
            value = math.fsum(acc[ti])
            vals.append(value)
            row_vals.append(value)
        rows.append(si)
        cols.append(si)
        vals.append(-math.fsum(row_vals))
    n = space.n_states
    matrix = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
    matrix.sum_duplicates()
    return Generator(matrix, space, extremal)


@dataclass
class LumpabilityCounterexample:
    state_a: Multiset
    state_b: Multiset
    target_key: Tuple[Tuple[int, int], ...]
    aggregate_a: float
    aggregate_b: float

    def to_json_dict(self, net: ReactionNetwork) -> dict:
        names = net.names
        return {
            "state_a": self.state_a.format(names),
            "state_b": self.state_b.format(names),
            "target_block_counts": {str(b): int(c) for b, c in self.target_key},
            "aggregate_a": float(self.aggregate_a),
            "aggregate_b": float(self.aggregate_b),
        }


@dataclass
class LumpabilityResult:
    ok: bool
    counterexample: Optional[LumpabilityCounterexample] = None


def check_ordinary_lumpability(gen: Generator, space: StateSpace,
                               part: Partition) -> LumpabilityResult:
    """Lift the species partition to states via block projection and test that
    all states in a lifted class have equal off-diagonal aggregate rates into
    every other lifted class (exact comparison; entries summed in state-index
    order).

    The class containing the compared pair is suppressed, mirroring the
    signature convention: rows of the generator sum to zero, so equality of
    the aggregates into all other classes already forces equality on the own
    class, and skipping it avoids re-deriving sums through the diagonal
    (which mixes every rate value and is needlessly exposed to rounding).
    Aggregates are exact sums of the entries, so states whose outflows are
    rearrangements or refactorings of the same real rates compare equal.
    """
    block_of = part.block_of
    keys = [project_key(s.entries, block_of) for s in space.states]
    groups: Dict[tuple, List[int]] = {}
    for i, k in enumerate(keys):
        groups.setdefault(k, []).append(i)
    Q = gen.matrix

    def row_aggregates(i: int, own: tuple) -> Dict[tuple, float]:
        acc: Dict[tuple, List[float]] = {}
        start, end = Q.indptr[i], Q.indptr[i + 1]
        for pos in range(start, end):
            j = Q.indices[pos]
            if j == i:
                continue
            k = keys[j]
            if k == own:
                continue
            acc.setdefault(k, []).append(Q.data[pos])
        agg = {k: math.fsum(v) for k, v in acc.items()}
        return {k: v for k, v in agg.items() if v != 0.0}

    for own, members in groups.items():
        if len(members) < 2:
            continue
        ref_i = members[0]
        ref = row_aggregates(ref_i, own)
        for i in members[1:]:
            agg = row_aggregates(i, own)
            if agg != ref:
                for k in sorted(set(ref) | set(agg)):
                    va, vb = ref.get(k, 0.0), agg.get(k, 0.0)
                    if va != vb:
                        return LumpabilityResult(False, LumpabilityCounterexample(
                            space.states[ref_i], space.states[i], k, va, vb))
    return LumpabilityResult(True)


def transient_solve(gen: Generator, p0: Sequence[float], t: float,
                    eps: float = 1e-12) -> np.ndarray:
    """Transient distribution p(t) = p0 exp(t Q) by uniformization with
    Poisson-series truncation error at most `eps`. Long horizons are split so
    the Poisson weights never underflow. Warns when the space is truncated."""
    p = np.asarray(p0, dtype=float).copy()
    if abs(float(p.sum()) - 1.0) > 1e-9:
        raise ValueError("initial distribution must sum to 1")
    if t < 0:
        raise ValueError("negative time")
    if gen.truncated:
        warnings.warn("transient solve on a truncated space is approximate",
                      ApproximateResultWarning, stacklevel=2)
    Q = gen.matrix
    rate = float(-Q.diagonal().min())
    if rate <= 0.0 or t == 0.0:
        return p
    chunks = max(1, int(math.ceil(rate * t / 100.0)))
    dt = t / chunks
    chunk_eps = eps / chunks
    # stepped as PT @ term: `term @ P` would transpose P on every product
    PT = (sp.eye(Q.shape[0], format="csr") + Q.multiply(1.0 / rate)).T.tocsr()
    for _ in range(chunks):
        lam = rate * dt
        weight = math.exp(-lam)
        term = p.copy()
        out = weight * term
        cumulative = weight
        k = 0
        while cumulative < 1.0 - chunk_eps:
            k += 1
            term = PT @ term
            weight *= lam / k
            out += weight * term
            cumulative += weight
        p = out
    return p


@dataclass
class JumpPath:
    """A single stochastic path: jump times (starting at 0) and the state
    after each jump, as count vectors; the path is constant between jumps and
    the last row extends to the simulation horizon."""

    times: np.ndarray
    states: np.ndarray
    t_end: float

    def states_at(self, grid: Sequence[float]) -> np.ndarray:
        grid = np.asarray(grid, dtype=float)
        idx = np.clip(np.searchsorted(self.times, grid, side="right") - 1,
                      0, len(self.times) - 1)
        return self.states[idx]


def jump_path_to_csv(path: JumpPath, names: Sequence[str]) -> str:
    """Jump path as CSV: `t,<species...>`, one row per jump."""
    lines = ["t," + ",".join(names)]
    for t, row in zip(path.times, path.states):
        lines.append(repr(float(t)) + "," + ",".join(str(int(x)) for x in row))
    return "\n".join(lines) + "\n"


def distribution_to_csv(space: StateSpace, p: Sequence[float],
                        names: Sequence[str]) -> str:
    """Distribution over an enumerated space as CSV: `state,probability`."""
    lines = ["state,probability"]
    for s, v in zip(space.states, p):
        lines.append(f"\"{s.format(names)}\",{float(v)!r}")
    return "\n".join(lines) + "\n"


def ssa_simulate(net: ReactionNetwork, init: Multiset, alpha: Sequence[float],
                 t_end: float, seed: int, N: Optional[int] = None,
                 c: Optional[float] = None) -> JumpPath:
    """Stochastic simulation by direct next-reaction sampling with mass-action
    propensities alpha_r * C(state, reactant_r); when `N` is given, rates are
    population-scaled and damped by the cutoff (then `c` is required).
    Reproducible for a fixed seed."""
    alpha = list(alpha)
    if len(alpha) != net.n_reactions:
        raise ValueError("one rate per reaction required")
    for a, r in zip(alpha, net.reactions):
        if not (r.rate.lo <= a <= r.rate.hi):
            raise ValueError(f"rate {a} outside interval of reaction {r.id}")
    if N is not None and c is None:
        raise ValueError("scaled simulation requires the cutoff scale c")

    n = net.n_species
    reactants: List[List[Tuple[int, int]]] = []
    changes: List[List[Tuple[int, int]]] = []
    eff_rate: List[float] = []
    for r in net.reactions:
        reactants.append(list(r.reactant))
        delta: Dict[int, int] = {}
        for i, cc in r.reactant:
            delta[i] = delta.get(i, 0) - cc
        for i, cc in r.product:
            delta[i] = delta.get(i, 0) + cc
        changes.append([(i, d) for i, d in sorted(delta.items()) if d != 0])
        scale = 1.0 if N is None else 1.0 / N ** (r.arity - 1)
        eff_rate.append(alpha[r.id] * scale)

    state = [0] * n
    for i, cc in init:
        state[i] = cc
    rng = random.Random(seed)
    comb = math.comb
    times = [0.0]
    snapshots = [list(state)]
    t = 0.0
    m = len(reactants)
    props = [0.0] * m
    while True:
        total = 0.0
        for ridx in range(m):
            p = eff_rate[ridx]
            if p > 0.0:
                for i, cc in reactants[ridx]:
                    s = state[i]
                    if s < cc:
                        p = 0.0
                        break
                    p *= s if cc == 1 else comb(s, cc)
            props[ridx] = p
            total += p
        exit_rate = total
        if N is not None:
            exit_rate = total * max(0.0, min(1.0, 2.0 - sum(state) / (N * c)))
        if not math.isfinite(exit_rate) or exit_rate > 1e18:
            raise PropensityOverflowError(np.array(state))
        if exit_rate <= 0.0:
            break
        t += rng.expovariate(exit_rate)
        if t > t_end:
            break
        # the cutoff scales every propensity equally, so selection uses the
        # unscaled proportions
        pick = rng.random() * total
        acc = 0.0
        chosen = m - 1
        for ridx in range(m):
            acc += props[ridx]
            if pick <= acc:
                chosen = ridx
                break
        for i, d in changes[chosen]:
            state[i] += d
        times.append(t)
        snapshots.append(list(state))
    return JumpPath(np.array(times), np.array(snapshots, dtype=np.int64), t_end)
