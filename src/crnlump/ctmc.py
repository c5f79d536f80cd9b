"""Stochastic semantics at desk scale: explicit state enumeration, extremal
generator matrices, the ordinary-lumpability oracle, uniformized transient
solves, and stochastic simulation, optionally population-scaled with a
cutoff.

Everything here deliberately enumerates states and is only meant for small
populations; it serves as an independent oracle against the reaction-level
equivalence check, which never touches the state space.

scipy is needed only here, by `build_generator` and `transient_solve`
(and so by `crnlump check --oracle`), and is loaded on first use:
`import crnlump`, `reduce`, `check` without `--oracle`,
`simulate`, `generate` and `reconstruct` never load it.
"""

from __future__ import annotations

import math
import numbers
import random
import warnings
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Dict, List, NamedTuple, Optional, Sequence,
                    Tuple)

import numpy as np

if TYPE_CHECKING:
    import scipy.sparse as sp

from .model import (Multiset, Partition, ReactionNetwork, StructuralError,
                    group_sums, row_keys, side_texts)


class CapacityError(RuntimeError):
    """State enumeration exceeded the configured state cap."""


class PropensityOverflowError(RuntimeError):
    """A propensity or generator entry is non-finite, absurdly large, or
    cannot be represented exactly; `state` is where it happened."""

    def __init__(self, state, message: str = "propensity overflow"):
        super().__init__(message)
        self.state = state


class ApproximateResultWarning(UserWarning):
    """The result was computed on a truncated state space."""


# Largest falling binomial that is an exact float, so that the TwoProduct
# split of rate x binomial below stays error-free.
_EXACT_INT_MAX = 2 ** 53
_SPLITTER = 134217729.0  # 2**27 + 1, Veltkamp's splitting constant
# Largest uniformization rate x time `transient_solve` accepts: its work is
# about lam + 8 sqrt(lam) sparse products for lam = rate x time.
MAX_UNIFORMIZATION = 10 ** 6


def _canonical_order(counts: np.ndarray) -> np.ndarray:
    """Permutation sorting count rows as their `Multiset.entries` tuples
    sort: lexicographic over the flattened (index, count) pairs, a shorter
    prefix first (padding with -1 gives exactly that)."""
    if counts.shape[1] == 0:
        return np.arange(len(counts))
    cols = np.argsort(counts == 0, axis=1, kind="stable")
    vals = np.take_along_axis(counts, cols, axis=1)
    pad = vals == 0
    flat = np.empty((len(counts), 2 * counts.shape[1]), dtype=np.int64)
    flat[:, 0::2] = np.where(pad, -1, cols)
    flat[:, 1::2] = np.where(pad, -1, vals)
    return np.lexsort(flat.T[::-1])


def _initial_counts(net: ReactionNetwork, init: Multiset) -> np.ndarray:
    """`init` as a count vector over the network's species."""
    counts = np.zeros(net.n_species, dtype=np.int64)
    for i, c in init:
        if i >= net.n_species:
            raise StructuralError(f"initial state references species index "
                                  f"{i}; the network has {net.n_species}")
        counts[i] = c
    return counts


def _check_bound(pop_bound: int):
    if not isinstance(pop_bound, numbers.Integral) or pop_bound < 0:
        raise ValueError(f"pop_bound must be a non-negative integer, "
                         f"got {pop_bound!r}")


@dataclass
class StateSpace:
    """Enumerated CTMC states in canonical order: breadth-first from the
    initial state with lexicographic tie-breaking within each level.
    `truncated` is set when any transition left the population bound.
    `counts` holds the same states as a (states, species) integer matrix."""

    states: List[Multiset]
    index: Dict[Multiset, int]
    truncated: bool
    counts: np.ndarray = field(repr=False, compare=False)

    def __post_init__(self):
        self._keys = row_keys(self.counts)  # a view of `counts`
        self._order = np.argsort(self._keys)

    @property
    def n_states(self) -> int:
        return len(self.states)

    def locate(self, rows: np.ndarray) -> np.ndarray:
        """State index of each count row, -1 for a row not in the space."""
        keys = row_keys(rows)
        pos = np.searchsorted(self._keys, keys, sorter=self._order)
        at = self._order[np.minimum(pos, len(self._order) - 1)]
        return np.where(self._keys[at] == keys, at, -1)


def _space(counts: np.ndarray, truncated: bool) -> StateSpace:
    """The space of the given count rows, in their order."""
    rows, cols = np.nonzero(counts)
    pairs = list(zip(cols.tolist(), counts[rows, cols].tolist()))
    bounds = np.searchsorted(rows, np.arange(len(counts) + 1)).tolist()
    states = [Multiset.from_canonical(tuple(pairs[a:b]))
              for a, b in zip(bounds, bounds[1:])]
    return StateSpace(states, dict(zip(states, range(len(states)))),
                      truncated, counts)


def enumerate_states(net: ReactionNetwork, init: Multiset, pop_bound: int,
                     max_states: int = 10 ** 6) -> StateSpace:
    """Breadth-first closure of the initial state under all applicable
    reactions, discarding successors whose total population exceeds
    `pop_bound` (and flagging the space truncated when that happens).

    Each level is expanded on arrays: every reaction is applied to the whole
    frontier at once through its (reaction, species, change) triples, and
    successors are deduplicated and checked against the states seen so far
    by their row keys."""
    _check_bound(pop_bound)
    if init.total > pop_bound:
        raise StructuralError("population bound smaller than the initial state")
    level = _initial_counts(net, init)[None, :]
    c = net.compiled
    # every reaction that is not a no-op: its reactant needs, its first
    # triple and number of triples, and its change of total population
    live = np.flatnonzero(np.diff(c.offsets))
    idx, need = c.idx[:, live], c.exp[:, live].astype(np.int64)
    first, size = c.offsets[live], np.diff(c.offsets)[live]
    grow = np.bincount(c.rx, c.dn, net.n_reactions)[live]
    dn = c.dn.astype(np.int64)
    levels = [level]
    seen = row_keys(level)
    n_seen = 1
    truncated = False
    while True:
        ext = np.column_stack([level, np.zeros(len(level), np.int64)])
        ok = np.all(ext[:, idx] >= need, axis=1)
        over = ok & (level.sum(axis=1)[:, None] + grow > pop_bound) & (grow > 0)
        truncated |= bool(over.any())
        src, move = np.nonzero(ok & ~over)
        cand = level[src]  # plus each reaction's triples, one per species
        n = size[move]
        tri = np.repeat(first[move] - np.cumsum(n) + n, n) + np.arange(n.sum())
        cand[np.repeat(np.arange(len(src)), n), c.sp[tri]] += dn[tri]
        keys, at = np.unique(row_keys(cand), return_index=True)
        pos = np.minimum(np.searchsorted(seen, keys), len(seen) - 1)
        fresh = seen[pos] != keys
        new = cand[at[fresh]]
        seen = np.sort(np.concatenate([seen, keys[fresh]]))
        n_seen += len(new)
        if n_seen > max_states:
            raise CapacityError(f"state space exceeds cap of {max_states}")
        if not len(new):
            break
        level = new[_canonical_order(new)]
        levels.append(level)
    return _space(np.concatenate(levels), truncated)


def enumerate_ball(net: ReactionNetwork, pop_bound: int,
                   max_states: int = 10 ** 6) -> StateSpace:
    """Every multiset with total population <= pop_bound, ordered by total then
    lexicographically. Flagged truncated when some reaction can increase the
    population (its transitions out of the ball are dropped)."""
    _check_bound(pop_bound)
    n = net.n_species
    if math.comb(pop_bound + n, n) > max_states:
        raise CapacityError(f"population ball exceeds cap of {max_states}")
    # species by species, each partial row branches into every count that
    # its remaining budget allows
    counts = np.zeros((1, 0), dtype=np.int64)
    for _ in range(n):
        width = pop_bound - counts.sum(axis=1) + 1
        counts = np.repeat(counts, width, axis=0)
        first = np.repeat(np.cumsum(width) - width, width)
        value = np.arange(len(counts)) - first
        counts = np.column_stack([counts, value])
    order = _canonical_order(counts)
    order = order[np.argsort(counts.sum(axis=1)[order], kind="stable")]
    counts = counts[order]
    grow = np.bincount(net.compiled.rx, net.compiled.dn, net.n_reactions)
    return _space(counts, bool(np.any(grow > 0)))


class ExactTerms(NamedTuple):
    """Error-free transition rates, one per (state, reaction) transition kept
    in a generator, sorted by (row, col): the real rate of the transition
    from state `row` to state `col` is exactly `hi + lo`."""

    row: np.ndarray
    col: np.ndarray
    hi: np.ndarray
    lo: np.ndarray


@dataclass
class Generator:
    """Sparse transition-rate matrix over an enumerated space; the diagonal is
    the negated row sum of the retained off-diagonal entries, so rows sum to
    zero exactly even on truncated spaces. Each off-diagonal entry is the
    correctly rounded sum of its `terms`."""

    matrix: sp.csr_matrix
    space: StateSpace
    extremal: str
    terms: ExactTerms

    @property
    def truncated(self) -> bool:
        return self.space.truncated


def _falling_binomials(counts: np.ndarray, species: np.ndarray,
                       need: np.ndarray) -> np.ndarray:
    """C(sigma, rho) for every state row sigma, rho needing `need[k]` of
    `species[k]`, in exact integers; any value above _EXACT_INT_MAX comes out
    as _EXACT_INT_MAX + 1."""
    cap = _EXACT_INT_MAX + 1
    out = np.ones(len(counts), dtype=np.int64)
    for i, c in zip(species.tolist(), need.tolist()):
        col = counts[:, i]
        if c == 1:
            b = col
        else:
            vals, inv = np.unique(col, return_inverse=True)
            b = np.array([min(math.comb(v, c), cap) for v in vals.tolist()],
                         dtype=np.int64)[inv]
        over = (b > _EXACT_INT_MAX) | (out > _EXACT_INT_MAX // np.maximum(b, 1))
        out = np.where(over & (b > 0) & (out > 0), cap, out * b)
    return out


def _split(a):
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


def _two_product(rate: float, fb: np.ndarray):
    """(hi, lo) with hi + lo == rate * fb exactly (Dekker's TwoProduct with
    Veltkamp's split), for integers fb <= 2**53. The rate is scaled into
    [0.5, 1) by its binary exponent first, so no split can overflow, and
    scaling back is exact unless hi overflows to infinity."""
    m, e = math.frexp(rate)
    p = m * fb
    mh, ml = _split(m)
    fh, fl = _split(fb)
    err = ((mh * fh - p) + mh * fl + ml * fh) + ml * fl
    with np.errstate(over="ignore"):
        return np.ldexp(p, e), np.ldexp(err, e)


def build_generator(space: StateSpace, net: ReactionNetwork,
                    extremal: str) -> Generator:
    """Extremal generator over an enumerated space, built one reaction at a
    time over all states at once. Each transition rate, rate x falling
    binomial, is split exactly into a pair (hi, lo); each off-diagonal entry
    is the `math.fsum` of its pairs and the diagonal is minus the `fsum` of
    the row's entries. A falling binomial above 2**53, a product that
    overflows or an overflowing row sum raises PropensityOverflowError
    naming the state (and the reaction, for the first two)."""
    import scipy.sparse as sp

    if extremal not in ("lower", "upper"):
        raise ValueError(f"extremal must be 'lower' or 'upper', "
                         f"got {extremal!r}")
    c = net.compiled
    rates = (c.lo if extremal == "lower" else c.hi).tolist()
    counts = space.counts
    if counts.shape[1] != net.n_species:
        raise StructuralError("state space and network have different species")
    names = net.names

    def overflow(si: int, what: str, j=None) -> PropensityOverflowError:
        if j is not None:
            sides = side_texts(net.table, names)
            what = (f"reaction {j} ({sides[net.table.lhs[j]]} -> "
                    f"{sides[net.table.rhs[j]]}): {what}")
        return PropensityOverflowError(
            counts[si].copy(),
            f"{what} at state {space.states[si].format(names)}")

    need = c.exp.astype(np.int64)
    dn = c.dn.astype(np.int64)
    parts = []
    for j in np.flatnonzero(np.diff(c.offsets)).tolist():
        rate = rates[j]
        if rate == 0.0:
            continue
        used = need[:, j] > 0
        fb = _falling_binomials(counts, c.idx[used, j], need[used, j])
        src = np.flatnonzero(fb)
        if not len(src):
            continue
        big = np.flatnonzero(fb[src] > _EXACT_INT_MAX)
        if len(big):
            raise overflow(src[big[0]], "falling binomial exceeds 2**53", j)
        succ = counts[src]
        a, b = c.offsets[j], c.offsets[j + 1]
        succ[:, c.sp[a:b]] += dn[a:b]
        dst = space.locate(succ)
        inside = dst >= 0
        if not inside.all():
            if not space.truncated:
                raise StructuralError("state space not closed under reactions")
            src, dst = src[inside], dst[inside]
        hi, lo = _two_product(rate, fb[src].astype(float))
        bad = np.flatnonzero(~np.isfinite(hi))
        if len(bad):
            si = src[bad[0]]
            raise overflow(si, f"rate {rate!r} x falling binomial "
                               f"{int(fb[si])} overflows", j)
        parts.append((src.astype(np.int32), dst.astype(np.int32), hi, lo))
    n = space.n_states
    if parts:
        row, col, hi, lo = (np.concatenate(x) for x in zip(*parts))
    else:
        row = col = np.zeros(0, dtype=np.int32)
        hi = lo = np.zeros(0)
    del parts  # keep one copy of the terms alive at a time
    key = row.astype(np.int64) * n + col
    order = np.argsort(key, kind="stable")
    terms = ExactTerms(row[order], col[order], hi[order], lo[order])
    del row, col, hi, lo
    key = key[order]
    start, entries = group_sums(key, terms.hi, terms.lo)
    e_row, e_col = terms.row[start], terms.col[start]
    # the diagonal is minus the exact row sum, so rows sum to zero exactly;
    # an infinite entry makes its row sum infinite too
    first, row_sums = group_sums(e_row, entries, np.zeros_like(entries))
    diag = np.zeros(n)
    diag[e_row[first]] = -row_sums
    bad = np.flatnonzero(~np.isfinite(diag))
    if len(bad):
        raise overflow(bad[0], "total outflow overflows")
    # CSR rows: the sorted entries with the diagonal slotted in by column
    at = np.searchsorted(key[start], np.arange(n) * (n + 1))
    indptr = np.r_[0, np.cumsum(np.bincount(e_row, minlength=n) + 1)]
    matrix = sp.csr_matrix((np.insert(entries, at, diag),
                            np.insert(e_col, at, np.arange(n)), indptr),
                           shape=(n, n))
    return Generator(matrix, space, extremal, terms)


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
    every other lifted class (exact comparison).

    The class containing the compared pair is suppressed, mirroring the
    signature convention: rows of the generator sum to zero, so equality of
    the aggregates into all other classes already forces equality on the own
    class, and skipping it avoids re-deriving sums through the diagonal
    (which mixes every rate value and is needlessly exposed to rounding).
    Each aggregate is one `math.fsum` over the generator's exact terms, the
    correctly rounded real sum, so states whose outflows are rearrangements
    or refactorings of the same real rates compare equal, exactly as
    `lumping` compares its signatures. Every state is compared with the
    first state of its class; the counterexample is the first failing pair
    in state order. StructuralError when `part` is over another number of
    species than the states.
    """
    n = space.n_states
    lifted = part.sums(space.counts)
    _, first, cls = np.unique(row_keys(lifted), return_index=True,
                              return_inverse=True)
    ref = first[cls]  # the lowest-index state of each state's lifted class
    row, col, hi, lo = gen.terms
    tgt = cls[col]
    sel = np.flatnonzero(tgt != cls[row])
    key = row[sel].astype(np.int64) * len(first) + tgt[sel]
    order = np.argsort(key, kind="stable")
    key, sel = key[order], sel[order]
    at, agg = group_sums(key, hi[sel], lo[sel])
    a_row, a_tgt = row[sel[at]], tgt[sel[at]]
    # state s's aggregates are items start[s]:start[s + 1], sorted by class;
    # compare them item by item with those of ref[s]
    start = np.searchsorted(a_row, np.arange(n + 1))
    size = np.diff(start)
    bad = size != size[ref]
    same = ~bad[a_row]
    mate = np.where(same, start[ref[a_row]] + np.arange(len(a_row))
                    - start[a_row], 0)
    differs = same & ((a_tgt[mate] != a_tgt) | (agg[mate] != agg))
    bad[a_row[differs]] = True
    failing = np.flatnonzero(bad)
    if not len(failing):
        return LumpabilityResult(True)
    sb = int(failing[np.lexsort((failing, ref[failing]))[0]])
    sa = int(ref[sb])

    def aggregates(s: int) -> Dict[tuple, float]:
        # a class's key is its (block id, count) pairs of non-zero counts
        return {tuple((b, m) for b, m in enumerate(lifted[first[c]].tolist())
                      if m): float(v)
                for c, v in zip(a_tgt[start[s]:start[s + 1]].tolist(),
                                agg[start[s]:start[s + 1]].tolist())}

    agg_a, agg_b = aggregates(sa), aggregates(sb)
    k = next(k for k in sorted(set(agg_a) | set(agg_b))
             if agg_a.get(k, 0.0) != agg_b.get(k, 0.0))
    return LumpabilityResult(False, LumpabilityCounterexample(
        space.states[sa], space.states[sb], k, agg_a.get(k, 0.0),
        agg_b.get(k, 0.0)))


def transient_solve(gen: Generator, p0: Sequence[float], t: float,
                    eps: float = 1e-12) -> np.ndarray:
    """Transient distribution p(t) = p0 exp(t Q) by uniformization over one
    window of Poisson weights around the mode (Fox and Glynn), within `eps`
    of p(t) in the 1-norm. Warns when the space is truncated."""
    import scipy.sparse as sp

    if not (math.isfinite(eps) and 0.0 < eps < 1.0):
        raise ValueError(f"eps must be a finite number in (0, 1), got {eps!r}")
    p = np.asarray(p0, dtype=float).copy()
    if p.shape != (gen.space.n_states,):
        raise ValueError(f"p0 has shape {p.shape}; the space has "
                         f"{gen.space.n_states} states")
    if not (np.all(np.isfinite(p)) and np.all(p >= 0.0)):
        raise ValueError("p0 must hold finite non-negative probabilities")
    if abs(float(p.sum()) - 1.0) > 1e-9:
        raise ValueError("p0 must sum to 1")
    if not math.isfinite(t):
        raise ValueError(f"t must be a finite number, got {t}")
    if t < 0:
        raise ValueError("negative time")
    if gen.truncated:
        warnings.warn("transient solve on a truncated space is approximate",
                      ApproximateResultWarning, stacklevel=2)
    Q = gen.matrix
    rate = float(-Q.diagonal().min())
    if rate <= 0.0 or t == 0.0:
        return p
    if not rate * t <= MAX_UNIFORMIZATION:
        raise ValueError(f"uniformization rate {rate!r} x t {t!r} exceeds "
                         f"{MAX_UNIFORMIZATION}")
    # Poisson weights scaled to 1 at the mode, spread out from it until the
    # geometric bound w q / (1 - q) on the rest of each side is at most eps / 4
    lam = rate * t
    left = right = int(lam)
    w, below = 1.0, []
    while w * left > 0.25 * eps * (lam - left):  # q = left / lam
        w *= left / lam
        left -= 1
        below.append(w)
    w, weights = 1.0, below[::-1] + [1.0]
    while w * lam > 0.25 * eps * (right + 1 - lam):  # q = lam / (right + 1)
        right += 1
        w *= lam / right
        weights.append(w)
    total = math.fsum(weights)
    # stepped as PT @ term: `term @ P` would transpose P on every product
    PT = (sp.eye(Q.shape[0], format="csr") + Q.multiply(1.0 / rate)).T.tocsr()
    for _ in range(left):
        p = PT @ p
    out = (weights[0] / total) * p
    for w in weights[1:]:
        p = PT @ p
        out += (w / total) * p
    return out


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


def ssa_simulate(net: ReactionNetwork, init: Multiset, alpha: Sequence[float],
                 t_end: float, seed: int, N: Optional[int] = None,
                 c: Optional[float] = None) -> JumpPath:
    """Stochastic simulation by direct next-reaction sampling with mass-action
    propensities alpha_r * C(state, reactant_r); when `N` (a positive
    integer) is given, rates are population-scaled and damped by the cutoff
    (then a finite `c > 0` is required). Reproducible for a fixed seed."""
    if not (math.isfinite(t_end) and t_end >= 0):
        raise ValueError(f"t_end must be a nonnegative finite number, "
                         f"got {t_end!r}")
    if N is not None and not (isinstance(N, (int, np.integer)) and N > 0):
        raise ValueError(f"N must be a positive integer, got {N!r}")
    if N is not None and not (c is not None and math.isfinite(c) and c > 0):
        raise ValueError(f"scaled simulation requires a finite cutoff scale "
                         f"c > 0, got {c!r}")
    cn = net.compiled
    rates = np.asarray(alpha, dtype=float)
    if rates.shape != (net.n_reactions,):
        raise ValueError("one rate per reaction required")
    outside = np.flatnonzero(~((cn.lo <= rates) & (rates <= cn.hi)))
    if len(outside):
        j = int(outside[0])
        raise ValueError(f"rate {rates[j]} outside interval of reaction {j}")

    # the Python event loop reads list views of the compiled arrays, without
    # the padding slots (count 0, C(0, 0) = 1)
    reactants = [[(i, k) for i, k in zip(ii, kk) if k > 0] for ii, kk in
                 zip(cn.idx.T.tolist(), cn.exp.T.astype(np.int64).tolist())]
    species, change = cn.sp.tolist(), cn.dn.astype(np.int64).tolist()
    bounds = cn.offsets.tolist()
    eff_rate = rates.tolist()
    if N is not None:
        arity = cn.exp.sum(axis=0).astype(np.int64).tolist()
        eff_rate = [a * (1.0 / int(N) ** (k - 1))
                    for a, k in zip(eff_rate, arity)]

    state = _initial_counts(net, init).tolist()
    rng = random.Random(seed)
    comb = math.comb
    times = [0.0]
    snapshots = [state[:]]
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
        for j in range(bounds[chosen], bounds[chosen + 1]):
            state[species[j]] += change[j]
        times.append(t)
        snapshots.append(state[:])
    return JumpPath(np.array(times), np.array(snapshots, dtype=np.int64), t_end)
