import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

import numpy as np
import pytest

import crnlump as cl
from crnlump.model import (CompiledNetwork, Multiset, Partition,
                           RateInterval, Reaction, ReactionNetwork,
                           ReactionTable, StructuralError,
                           falling_binomial)

# Two-site reversible binding with sitewise-symmetric rate intervals: the
# binding/unbinding pair of site 1 mirrors the pair of site 2, which makes
# {A01, A10} lumpable while keeping the two sites kinetically distinct.
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


@pytest.fixture
def two_site_doc():
    return cl.parse_model(TWO_SITE_TEXT)


@pytest.fixture
def two_site(two_site_doc):
    return two_site_doc.network


@pytest.fixture
def two_site_partition(two_site_doc):
    return two_site_doc.initial_partition


def flat_sides(sides) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The `size`, `species` and `count` arrays of a `ReactionTable` whose
    sides are the given canonical entry tuples, in order."""
    size = np.fromiter(map(len, sides), np.int64, len(sides))
    n = int(size.sum())
    chain = itertools.chain.from_iterable
    sp, cnt = np.fromiter(chain(chain(sides)), np.int64,
                          2 * n).reshape(n, 2).T
    return size, sp, cnt


def from_reactions(names, reactions,
                   initial_concentration=None) -> ReactionNetwork:
    """The network of `Reaction` objects, taken in order (their ids are not
    read), through the table constructor; each distinct side is one side
    of the table, numbered in order of first use."""
    ids: Dict[tuple, int] = {}
    lhs = [ids.setdefault(r.reactant.entries, len(ids)) for r in reactions]
    rhs = [ids.setdefault(r.product.entries, len(ids)) for r in reactions]
    table = ReactionTable(*flat_sides(tuple(ids)), lhs, rhs,
                          [r.rate.lo for r in reactions],
                          [r.rate.hi for r in reactions])
    return ReactionNetwork(names, table, initial_concentration)


def perturb_rate(net: ReactionNetwork, reaction_id: int, dlo: float = 0.0,
                 dhi: float = 0.0) -> ReactionNetwork:
    reactions = list(net.reactions)
    r = reactions[reaction_id]
    reactions[reaction_id] = Reaction(
        r.reactant, r.product, RateInterval(r.rate.lo + dlo, r.rate.hi + dhi), r.id)
    return from_reactions(net.names, reactions, net.initial_concentration)


def random_network(rng: random.Random, max_species: int = 5,
                   max_reactions: int = 8) -> ReactionNetwork:
    """Random population-non-increasing network with rate values from a small
    palette and occasional transposed twin reactions, so nontrivial species
    equivalences actually occur."""
    k = rng.randint(2, max_species)
    m = rng.randint(1, max_reactions)
    names = [f"S{i}" for i in range(k)]
    palette = [0.25, 0.5, 0.75, 1.0, 1.5, 2.0]
    widths = [0.0, 0.25, 0.5]
    reactions = []
    while len(reactions) < m:
        size = rng.randint(1, 3)
        reactant = Multiset([(rng.randrange(k), 1) for _ in range(size)])
        psize = rng.randint(0, reactant.total)
        product = Multiset([(rng.randrange(k), 1) for _ in range(psize)])
        lo = rng.choice(palette)
        rate = RateInterval(lo, lo + rng.choice(widths))
        reactions.append(Reaction(reactant, product, rate, len(reactions)))
        if len(reactions) < m and rng.random() < 0.5 and k >= 2:
            a, b = rng.sample(range(k), 2)

            def swap(idx):
                return b if idx == a else (a if idx == b else idx)

            reactions.append(Reaction(
                Multiset([(swap(i), c) for i, c in reactant]),
                Multiset([(swap(i), c) for i, c in product]),
                rate, len(reactions)))
    return from_reactions(names, reactions)


def swapped_twin_network(rng: random.Random, max_species: int = 5,
                         max_reactions: int = 6) -> ReactionNetwork:
    """A random network together with its image under swapping two of its
    species, a and b, where the image of one reaction that consumes a or b
    has one rate endpoint moved: the lower and upper extremals then often
    lump a and b differently."""
    net = random_network(rng, max_species, max_reactions)
    a, b = rng.sample(range(net.n_species), 2)

    def swap(ms):
        return Multiset([(b if i == a else a if i == b else i, c)
                         for i, c in ms])

    touching = [r.id for r in net.reactions
                if r.reactant.count(a) or r.reactant.count(b)]
    moved = rng.choice(touching) if touching else -1
    reactions = []
    for r in net.reactions:
        rate = r.rate
        if r.id == moved:
            step = rng.choice((0.25, 0.5))
            rate = (RateInterval(rate.lo, rate.hi + step)
                    if rate.lo < step or rng.random() < 0.5
                    else RateInterval(rate.lo - step, rate.hi))
        reactions += [Reaction(r.reactant, r.product, r.rate, len(reactions)),
                      Reaction(swap(r.reactant), swap(r.product), rate,
                               len(reactions) + 1)]
    return from_reactions(net.names, reactions)


def varied_network(rng: random.Random, max_species: int = 5,
                   max_reactions: int = 10) -> ReactionNetwork:
    """Random network with the cases a reaction table must tell apart or
    merge: no species or no reactions, a species in no reaction, duplicate
    reactions, no-ops, reactants of up to three distinct species, and
    `[-0 : hi]` and point `-0` rates. Half of the reactions come with a
    twin under swapping two species, so that lumping merges species."""
    k = rng.randint(0, max_species)
    if k == 0:
        return from_reactions([], [])
    # species k is in no reaction
    names = [f"S{i}" for i in range(k + 1)]
    reactions: List[Reaction] = []

    def add(reactant, product, rate):
        reactions.append(Reaction(reactant, product, rate, len(reactions)))

    def side():
        return Multiset([(rng.randrange(k), rng.randint(1, 2))
                         for _ in range(rng.randint(0, 3))])

    m = rng.randint(0, max_reactions)
    while len(reactions) < m:
        reactant = side()
        product = reactant if rng.random() < 0.15 else side()
        lo = rng.choice([-0.0, 0.0, 0.25, 0.5, 1.0])
        hi = lo if rng.random() < 0.4 else lo + rng.choice([0.25, 1.0])
        add(reactant, product, RateInterval(lo, hi))
        if rng.random() < 0.2:
            add(reactant, product, RateInterval(lo, hi))
        if rng.random() < 0.5 and k >= 2:
            a, b = rng.sample(range(k), 2)

            def swap(ms):
                return Multiset([(b if i == a else a if i == b else i, c)
                                 for i, c in ms])

            add(swap(reactant), swap(product), RateInterval(lo, hi))
    return from_reactions(names, reactions)


def jittered_edge_list(seed: int, nodes: int, edges: int) -> str:
    """Edge-list text of a seeded random directed graph without self-loops
    or repeated edges, with weights jittered around 1.0."""
    rng = random.Random(seed)
    lines, seen = [], set()
    while len(lines) < edges:
        a, b = rng.randrange(nodes), rng.randrange(nodes)
        if a != b and (a, b) not in seen:
            seen.add((a, b))
            lines.append(f"{a} {b} {1.0 + rng.uniform(-0.05, 0.05)!r}")
    return "\n".join(lines) + "\n"


def random_partition(rng: random.Random, n: int) -> Partition:
    labels = [rng.randrange(1 + rng.randrange(n)) for _ in range(n)]
    blocks = {}
    for i, lab in enumerate(labels):
        blocks.setdefault(lab, []).append(i)
    return Partition(blocks.values(), n)


def refines(fine: Partition, coarse: Partition) -> bool:
    """True iff every block of `fine` is contained in a single block of `coarse`."""
    if fine.n != coarse.n:
        raise StructuralError("partitions over different species universes")
    for b in fine.blocks:
        target = coarse.block_of[b[0]]
        if any(coarse.block_of[i] != target for i in b[1:]):
            return False
    return True


def contains(big: Multiset, small: Multiset) -> bool:
    """True iff `small` is a sub-multiset of `big`."""
    return all(big.count(idx) >= cnt for idx, cnt in small.entries)


def networks_equal(a: ReactionNetwork, b: ReactionNetwork) -> bool:
    """Equality of species names, reaction sets (as sets), and initial data."""
    if a.names != b.names:
        return False

    def rows(net):
        return sorted((r.reactant.entries, r.product.entries, r.rate.lo,
                       r.rate.hi) for r in net.reactions)

    return (rows(a) == rows(b) and a.initial_state == b.initial_state
            and a.initial_concentration == b.initial_concentration)


def documents_equal(a: "cl.ModelDocument", b: "cl.ModelDocument") -> bool:
    """`networks_equal` networks, equal initial partitions and labels."""
    return (networks_equal(a.network, b.network)
            and a.initial_partition == b.initial_partition
            and a.labels == b.labels)


def table_sides(t: ReactionTable) -> list:
    """The canonical entry tuples of a reaction table's sides, in order."""
    pairs = list(zip(t.species.tolist(), t.count.tolist()))
    end = np.cumsum(t.size).tolist()
    return [tuple(pairs[a:e]) for a, e in zip([0] + end, end)]


def table_is_canonical(t: ReactionTable) -> bool:
    """True iff the table's arrays are read-only and its sides distinct and
    canonical."""
    sides = table_sides(t)
    return (not any(a.flags.writeable for a in t)
            and len(set(sides)) == len(sides)
            and all(Multiset(s).entries == s for s in sides))


def set_partitions(items):
    """All set partitions of a list (Bell-number enumeration)."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for smaller in set_partitions(rest):
        for i in range(len(smaller)):
            yield smaller[:i] + [smaller[i] + [first]] + smaller[i + 1:]
        yield [[first]] + smaller


# ---------------------------------------------------------------------------
# Reference oracles: direct, unoptimized restatements of the signature
# definition in crnlump.lumping, used to cross-check the compiled sweep.

def block_projection(sigma: Multiset, part: Partition) -> Tuple[int, ...]:
    """Per-block cumulative counts of a multiset, dense over all blocks."""
    counts = [0] * part.n_blocks
    for idx, cnt in sigma:
        counts[part.block_of[idx]] += cnt
    return tuple(counts)


def project_key(entries: Tuple[Tuple[int, int], ...],
                block_of) -> Tuple[Tuple[int, int], ...]:
    """Per-block cumulative counts of a multiset's canonical `entries`, as
    sorted (block id, count) pairs: the computable fingerprint of the
    multiset lifting. Two multisets are lifted-equivalent exactly when their
    keys are equal."""
    acc: Dict[int, int] = {}
    for i, c in entries:
        b = block_of[i]
        acc[b] = acc.get(b, 0) + c
    return tuple(sorted(acc.items()))


@dataclass
class Signature:
    """Off-diagonal aggregate rates of one species, keyed by
    (context multiset, dense lifted-target projection)."""

    entries: Dict[Tuple[Multiset, Tuple[int, ...]], float]


def extremal_rates(net: ReactionNetwork, extremal: str) -> Tuple[float, ...]:
    """Rate vector with every interval pinned at its 'lower' or 'upper' end."""
    return tuple(r.rate.lo if extremal == "lower" else r.rate.hi
                 for r in net.reactions)


def species_signature(net: ReactionNetwork, part: Partition, extremal: str,
                      species: int) -> Signature:
    """Signature of one species under a partition and extremal rate vector,
    straight from the definition: every reaction with the species among its
    reactants contributes its rate at (reactant minus one copy of the
    species, projected product), unless the projection of the product equals
    that of the reactant. Contributions sharing a key are summed exactly."""
    rates = extremal_rates(net, extremal)
    acc: Dict[Tuple[Multiset, Tuple[int, ...]], list] = {}
    for r in net.reactions:
        if r.is_noop or r.reactant.count(species) == 0:
            continue
        rate = rates[r.id]
        if rate == 0.0:
            continue
        tgt = block_projection(r.product, part)
        if tgt == block_projection(r.reactant, part):
            continue
        ctx = r.reactant.subtract(Multiset(((species, 1),)))
        acc.setdefault((ctx, tgt), []).append(rate)
    return Signature({k: math.fsum(v) for k, v in acc.items()})


def refine_partition(net: ReactionNetwork, part: Partition,
                     extremal: str) -> Partition:
    """Coarsest partition refining `part` that is a species equivalence of
    the single extremal network: split every block by oracle signature until
    nothing splits."""
    while True:
        blocks = []
        for block in part.blocks:
            groups: Dict[frozenset, list] = {}
            for a in block:
                sig = species_signature(net, part, extremal, a)
                groups.setdefault(frozenset(sig.entries.items()), []).append(a)
            blocks.extend(groups.values())
        if len(blocks) == part.n_blocks:
            return part
        part = Partition(blocks, part.n)


def alternating_refinement(net: ReactionNetwork,
                           part: Partition) -> Partition:
    """Coarsest partition refining `part` that is a species equivalence of
    both extremal networks, by alternating rounds: refine under the lower
    rates until stable, then under the upper rates, until a whole round
    leaves the partition unchanged."""
    while True:
        before = part.n_blocks
        for extremal in ("lower", "upper"):
            part = refine_partition(net, part, extremal)
        if part.n_blocks == before:
            return part


class DenseVectorField:
    """Mass-action vector field from dense (R, S) exponent and
    stoichiometry matrices: the direct formula `crnlump.ode.VectorField`
    evaluates sparsely, kept as the reference it is compared against."""

    def __init__(self, net: ReactionNetwork):
        R, S = net.n_reactions, net.n_species
        self.cols = sorted({i for r in net.reactions for i, _ in r.reactant})
        pos = {c: k for k, c in enumerate(self.cols)}
        self.E = np.zeros((R, len(self.cols)))
        self.fact = np.ones(R)
        self.stoich = np.zeros((R, S))
        for r in net.reactions:
            for i, c in r.reactant:
                self.E[r.id, pos[i]] = c
                self.fact[r.id] *= math.factorial(c)
                self.stoich[r.id, i] -= c
            for i, c in r.product:
                self.stoich[r.id, i] += c

    def monomials(self, v: np.ndarray) -> np.ndarray:
        if not self.cols:
            return 1.0 / self.fact
        base = v[self.cols]
        return np.prod(base[None, :] ** self.E, axis=1) / self.fact

    def __call__(self, v: np.ndarray, alpha: np.ndarray) -> np.ndarray:
        return (alpha * self.monomials(v)) @ self.stoich


def loop_time_grid(t_end: float, step: float,
                   breakpoints: np.ndarray) -> np.ndarray:
    """The integration grid of `crnlump.ode._time_grid` for valid arguments,
    with one search over the whole grid per breakpoint for the grid point
    nearest to it: the reference the sorted search is compared against."""
    n = int(math.floor(t_end / step + 1e-9))
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


# ---------------------------------------------------------------------------
# Reference state-space oracles: the per-state, per-reaction loops over
# `Multiset` objects that crnlump.ctmc evaluates on count arrays, with exact
# rational arithmetic (fractions.Fraction) where ctmc splits products into
# error-free float pairs.

@dataclass
class LoopSpace:
    states: List[Multiset]
    index: Dict[Multiset, int]
    truncated: bool


def loop_enumerate_states(net: ReactionNetwork, init: Multiset,
                          pop_bound: int) -> LoopSpace:
    """Breadth-first closure of `init`, one state and reaction at a time;
    each level sorted by `Multiset.entries`."""
    states: List[Multiset] = []
    truncated = False
    frontier = [init]
    seen = {init}
    while frontier:
        frontier.sort(key=lambda m: m.entries)
        states.extend(frontier)
        nxt: List[Multiset] = []
        for sigma in frontier:
            for r in net.reactions:
                if r.is_noop or falling_binomial(sigma, r.reactant) == 0:
                    continue
                theta = sigma.subtract(r.reactant).add(r.product)
                if theta.total > pop_bound:
                    truncated = True
                    continue
                if theta not in seen:
                    seen.add(theta)
                    nxt.append(theta)
        frontier = nxt
    return LoopSpace(states, {s: i for i, s in enumerate(states)}, truncated)


def loop_enumerate_ball(net: ReactionNetwork, pop_bound: int) -> LoopSpace:
    """Every multiset of total <= pop_bound, by total then entries."""
    n = net.n_species
    states: List[Multiset] = []

    def rec(idx: int, remaining: int, acc: List[Tuple[int, int]]):
        if idx == n:
            states.append(Multiset(list(acc)))
            return
        for c in range(remaining + 1):
            rec(idx + 1, remaining - c, acc + [(idx, c)] if c else acc)

    rec(0, pop_bound, [])
    states.sort(key=lambda m: (m.total, m.entries))
    truncated = any(r.product.total > r.reactant.total for r in net.reactions)
    return LoopSpace(states, {s: i for i, s in enumerate(states)}, truncated)


def exact_transitions(space, net: ReactionNetwork,
                      extremal: str) -> List[Dict[int, Fraction]]:
    """Per state, the exact rational rate into each successor state: the sum
    over reactions of rate x falling binomial."""
    rates = extremal_rates(net, extremal)
    out = []
    for sigma in space.states:
        acc: Dict[int, Fraction] = {}
        for r in net.reactions:
            if r.is_noop or rates[r.id] == 0.0:
                continue
            fb = falling_binomial(sigma, r.reactant)
            if fb == 0:
                continue
            ti = space.index.get(sigma.subtract(r.reactant).add(r.product))
            if ti is None:
                if not space.truncated:
                    raise StructuralError("state space not closed under reactions")
                continue
            acc[ti] = acc.get(ti, 0) + Fraction(rates[r.id]) * fb
        out.append(acc)
    return out


def loop_generator(space, net: ReactionNetwork, extremal: str) -> np.ndarray:
    """Dense generator: every off-diagonal entry is its exact rate rounded
    once to float, the diagonal minus the `fsum` of the row's entries."""
    n = len(space.states)
    Q = np.zeros((n, n))
    for i, acc in enumerate(exact_transitions(space, net, extremal)):
        for j, v in acc.items():
            Q[i, j] = float(v)
        Q[i, i] = -math.fsum(float(v) for v in acc.values())
    return Q


def loop_lumpability(space, net: ReactionNetwork, extremal: str,
                     part: Partition) -> Optional[tuple]:
    """Ordinary lumpability straight from the definition, with each aggregate
    the exact rational rate into a lifted class other than the state's own,
    rounded once to float. Returns None when lumpable, otherwise the first
    counterexample (state a, state b, class key, aggregate a, aggregate b):
    classes in order of their first state, a the first state of its class,
    b the first state after it that differs, the key the smallest that
    differs."""
    trans = exact_transitions(space, net, extremal)
    keys = [project_key(s.entries, part.block_of) for s in space.states]
    groups: Dict[tuple, List[int]] = {}
    for i, k in enumerate(keys):
        groups.setdefault(k, []).append(i)

    def aggregates(i: int) -> Dict[tuple, float]:
        acc: Dict[tuple, Fraction] = {}
        for j, v in trans[i].items():
            if keys[j] != keys[i]:
                acc[keys[j]] = acc.get(keys[j], 0) + v
        return {k: float(v) for k, v in acc.items()}

    for members in groups.values():
        ref = aggregates(members[0])
        for i in members[1:]:
            agg = aggregates(i)
            if agg != ref:
                k = min(k for k in set(ref) | set(agg)
                        if ref.get(k, 0.0) != agg.get(k, 0.0))
                return (space.states[members[0]], space.states[i], k,
                        ref.get(k, 0.0), agg.get(k, 0.0))
    return None


# ---------------------------------------------------------------------------
# Reference network construction: the walks over `Reaction` objects that
# crnlump replaces by work on each network's reaction table.

def loop_compile_network(net: ReactionNetwork) -> CompiledNetwork:
    """`crnlump.model.compile_network` from the reaction objects, one side
    at a time."""
    R, S = net.n_reactions, net.n_species
    chain = itertools.chain.from_iterable

    def flat(sides):
        """(reaction, slot, species, count) of every entry of the R sides."""
        size = np.fromiter(map(len, sides), np.int64, R)
        n = int(size.sum())
        i, c = np.fromiter(chain(chain(sides)), np.int64, 2 * n).reshape(n, 2).T
        slot = np.arange(n) - np.repeat(np.cumsum(size) - size, size)
        return np.repeat(np.arange(R), size), slot, i, c

    rin, slot, sin, cin = flat([r.reactant.entries for r in net.reactions])
    rout, _, sout, cout = flat([r.product.entries for r in net.reactions])
    K = int(slot.max(initial=-1)) + 1
    idx = np.full((K, R), S, dtype=np.intp)
    exp, fact = np.zeros((K, R)), np.ones((K, R))
    idx[slot, rin], exp[slot, rin] = sin, cin
    counts, at = np.unique(cin, return_inverse=True)
    fact[slot, rin] = np.array([float(math.factorial(c))
                                for c in counts.tolist()])[at]
    keys, at = np.unique(np.r_[rin, rout] * max(S, 1) + np.r_[sin, sout],
                         return_inverse=True)
    # float64 even with no entries, where bincount would give int64
    change = np.bincount(at, np.r_[-cin, cout], len(keys)).astype(np.float64)
    rx, sp = np.divmod(keys[change != 0], max(S, 1))
    bounds = np.fromiter(chain((r.rate.lo, r.rate.hi) for r in net.reactions),
                         float, 2 * R).reshape(R, 2).T.copy()
    return CompiledNetwork(idx, exp, fact.prod(axis=0), rx, sp,
                           change[change != 0],
                           np.searchsorted(rx, np.arange(R + 1)), *bounds)


def dict_quotient(net: ReactionNetwork, part: Partition) -> ReactionNetwork:
    """`crnlump.quotient` without its check, from the reaction objects:
    the kept reactions, projected, are grouped in a dict in the order of
    their first member and each group's bounds are summed by `math.fsum`."""
    reps = part.representatives
    block_of = part.block_of
    is_rep = [False] * net.n_species
    for orig in reps:
        is_rep[orig] = True
    fused: Dict[Tuple[tuple, tuple], Tuple[List[float], List[float]]] = {}
    for r in net.reactions:
        rent = r.reactant.entries
        if not all(is_rep[i] for i, _ in rent):
            continue
        key = (project_key(rent, block_of),
               project_key(r.product.entries, block_of))
        rates = fused.setdefault(key, ([], []))
        rates[0].append(r.rate.lo)
        rates[1].append(r.rate.hi)
    reactions = [Reaction(Multiset.from_canonical(rx), Multiset.from_canonical(px),
                          RateInterval(math.fsum(los), math.fsum(his)), rid)
                 for rid, ((rx, px), (los, his)) in enumerate(fused.items())]
    init_conc = None
    if net.initial_concentration is not None:
        acc = [0.0] * len(reps)
        for i, v in enumerate(net.initial_concentration):
            acc[block_of[i]] += v
        init_conc = tuple(acc)
    return from_reactions([net.names[i] for i in reps], reactions, init_conc)


def reaction_rows(net: ReactionNetwork) -> list:
    """The reactions in order as (reactant, product, lo bits, hi bits), so
    that -0.0 and 0.0 differ."""
    return [(r.id, r.reactant.entries, r.product.entries,
             float(r.rate.lo).hex(), float(r.rate.hi).hex())
            for r in net.reactions]
