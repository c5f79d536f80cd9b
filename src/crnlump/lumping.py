"""Species-equivalence partition refinement and quotient construction.

A species partition is an equivalence for a fixed rate vector when any two
species in a block have identical signatures. The signature of species A maps
each pair (context, lifted target) to the aggregate rate out of the state
A + context into that lifted target, where a lifted target is the per-block
projection of a product multiset. Targets whose projection equals that of the
source state are suppressed: with the diagonal defined as the negated row
sum, equality of all off-diagonal lifted sums implies equality of the
diagonal one, so off-diagonal comparison suffices. Contexts are enumerated
only from reactants that actually occur (reactant minus one occurrence of
A); for any other context both sides of the comparison are zero.

The coarsest equivalence refining a given partition is computed by iterated
block splitting on signature equality, run to a fixpoint alternately on the
lower- and upper-extremal rate vectors until one full round leaves the
partition unchanged.

Aggregate rates are compared with exact floating-point equality. Per key,
contributions are aggregated with exact (correctly rounded) summation, which
is independent of enumeration order: two aggregates compare equal exactly
when the real sums of their contributions are equal, so symmetric sums built
from permuted or differently factored reaction lists cannot drift apart by
rounding.
"""

from __future__ import annotations

import math
import weakref
from typing import Dict, List, Optional, Sequence, Tuple

from .model import (Multiset, Partition, RateInterval, Reaction,
                    ReactionNetwork, Species, StructuralError, project_key)


class InvalidPartitionError(ValueError):
    """The supplied partition is not a species equivalence of the network."""


class _ProvedPartition(Partition):
    """A partition that `coarsest_equivalence` proved to be a species
    equivalence of one network object, held by weak reference. `quotient`
    trusts it for that network only."""

    __slots__ = ("_proved_for",)

    def __init__(self, blocks, net: ReactionNetwork):
        super().__init__(blocks, net.n_species)
        self._proved_for = weakref.ref(net)

    def __reduce__(self):
        # a weak reference cannot be pickled; a copy is a plain partition
        return (Partition, (self.blocks, self.n))


# ---------------------------------------------------------------------------
# Compiled reaction tables for the refinement hot path.

class _Compiled:
    """Partition-independent per-reaction data: reactant/product supports,
    extremal rates, and one (species, context) pair per distinct reactant
    species. No-op reactions are dropped up front."""

    __slots__ = ("rx", "pr", "rates", "ctxs", "n_species")

    def __init__(self, net: ReactionNetwork):
        rx: List[Tuple[Tuple[int, int], ...]] = []
        pr: List[Tuple[Tuple[int, int], ...]] = []
        lower: List[float] = []
        upper: List[float] = []
        ctxs: List[Tuple[Tuple[int, Tuple[Tuple[int, int], ...]], ...]] = []
        for r in net.reactions:
            if r.is_noop:
                continue
            rent = r.reactant.entries
            rx.append(rent)
            pr.append(r.product.entries)
            lower.append(r.rate.lo)
            upper.append(r.rate.hi)
            per_species = []
            for idx, cnt in rent:
                ctx = tuple((i, c - 1 if i == idx else c) for i, c in rent
                            if c - 1 > 0 or i != idx)
                per_species.append((idx, ctx))
            ctxs.append(tuple(per_species))
        self.rx = rx
        self.pr = pr
        self.rates = {"lower": tuple(lower), "upper": tuple(upper)}
        self.ctxs = ctxs
        self.n_species = net.n_species


def _sweep(comp: _Compiled, rates: Sequence[float], block_of: Sequence[int],
           block_size_of: Sequence[int]) -> Dict[int, Dict[tuple, float]]:
    """One signature pass over all reactions. Contributions sharing a key are
    collected and summed exactly at the end.

    Species sitting in singleton blocks are skipped: they can never split
    further and need no signature.
    """
    sigs: Dict[int, Dict] = {}
    project = project_key
    rx, pr, ctxs = comp.rx, comp.pr, comp.ctxs
    for r in range(len(rx)):
        rate = rates[r]
        if rate == 0.0:
            continue
        per_species = ctxs[r]
        if all(block_size_of[block_of[a]] == 1 for a, _ in per_species):
            continue
        tgt = project(pr[r], block_of)
        if tgt == project(rx[r], block_of):
            continue
        for a, ctx in per_species:
            if block_size_of[block_of[a]] == 1:
                continue
            d = sigs.get(a)
            if d is None:
                d = sigs[a] = {}
            key = (ctx, tgt)
            cur = d.get(key)
            if cur is None:
                d[key] = rate
            elif type(cur) is list:
                cur.append(rate)
            else:
                d[key] = [cur, rate]
    # a single contribution stays as it is; several are summed exactly
    # (correctly rounded, independent of their order)
    return {a: {k: math.fsum(v) if type(v) is list else v for k, v in d.items()}
            for a, d in sigs.items()}


def _split_blocks(blocks: Sequence[Tuple[int, ...]],
                  sigs: Dict[int, Dict[tuple, float]]
                  ) -> Tuple[List[Tuple[int, ...]], bool]:
    new_blocks: List[Tuple[int, ...]] = []
    changed = False
    for block in blocks:
        if len(block) == 1:
            new_blocks.append(block)
            continue
        groups: Dict[tuple, List[int]] = {}
        for a in block:
            d = sigs.get(a)
            key = tuple(sorted(d.items())) if d else ()
            groups.setdefault(key, []).append(a)
        if len(groups) == 1:
            new_blocks.append(block)
        else:
            changed = True
            new_blocks.extend(tuple(p) for p in groups.values())
    if changed:
        new_blocks.sort(key=lambda b: b[0])
    return new_blocks, changed


def _refine_fixpoint(comp: _Compiled, blocks: List[Tuple[int, ...]],
                     extremal: str, counter: dict) -> List[Tuple[int, ...]]:
    rates = comp.rates[extremal]
    n = comp.n_species
    block_of = [0] * n
    for bid, b in enumerate(blocks):
        for i in b:
            block_of[i] = bid
    while True:
        sizes = [len(b) for b in blocks]
        sigs = _sweep(comp, rates, block_of, sizes)
        counter["sweeps"] = counter.get("sweeps", 0) + 1
        blocks, changed = _split_blocks(blocks, sigs)
        if not changed:
            return blocks
        for bid, b in enumerate(blocks):
            for i in b:
                block_of[i] = bid


def coarsest_equivalence(net: ReactionNetwork, initial: Partition,
                         stats: Optional[dict] = None) -> Partition:
    """Coarsest species equivalence of both extremal networks refining
    `initial`: alternate single-extremal refinement until a full round leaves
    the partition unchanged. The result refines the input, passes
    check_equivalence, and successive rounds only ever split blocks.

    The last round is the proof: its sweeps under both extremals split
    nothing, which is check_equivalence's criterion, so `quotient` on this
    same network does not check the result again."""
    if initial.n != net.n_species:
        raise StructuralError("initial partition over wrong species universe")
    comp = _Compiled(net)
    blocks = list(initial.blocks)
    rounds = 0
    counter: dict = {}
    while True:
        rounds += 1
        before = len(blocks)
        blocks = _refine_fixpoint(comp, blocks, "lower", counter)
        blocks = _refine_fixpoint(comp, blocks, "upper", counter)
        if len(blocks) == before:
            break
    if stats is not None:
        stats["rounds"] = rounds
        stats["sweeps"] = counter.get("sweeps", 0)
    return _ProvedPartition(blocks, net)


def check_equivalence(net: ReactionNetwork, part: Partition) -> bool:
    """Direct criterion check: every pair of species sharing a block must have
    equal signatures under both extremal rate vectors, so that no block
    splits."""
    if part.n != net.n_species:
        raise StructuralError("partition over wrong species universe")
    if all(len(b) == 1 for b in part.blocks):
        return True
    comp = _Compiled(net)
    sizes = [len(b) for b in part.blocks]
    for extremal in ("lower", "upper"):
        sigs = _sweep(comp, comp.rates[extremal], part.block_of, sizes)
        if _split_blocks(part.blocks, sigs)[1]:
            return False
    return True


def quotient(net: ReactionNetwork,
             part: Partition) -> Tuple[ReactionNetwork, Partition]:
    """Lumped network over block representatives, and the partition it was
    lumped by. The species of block i is the block's representative (its
    smallest member), renumbered to index i.

    Reactions whose reactant mentions a non-representative are discarded,
    product species are rewritten to their block representatives, and
    reactions sharing (reactant, product) are fused by summing lower and
    upper bounds independently. Raises InvalidPartitionError when the
    partition is not a species equivalence. The check is skipped only for
    a result of `coarsest_equivalence` on this same network.
    """
    proved = isinstance(part, _ProvedPartition) and part._proved_for() is net
    if not proved and not check_equivalence(net, part):
        raise InvalidPartitionError("partition is not a species equivalence")
    reps = part.representatives
    block_of = part.block_of
    is_rep = [False] * net.n_species
    for orig in reps:
        is_rep[orig] = True

    # a representative's new index is its block id, so a side's new entries
    # are its canonical per-block projection
    species = tuple(Species(net.species[orig].name, new_i)
                    for new_i, orig in enumerate(reps))
    fused: Dict[Tuple[tuple, tuple], Tuple[List[float], List[float]]] = {}
    for r in net.reactions:
        rent = r.reactant.entries
        if not all(is_rep[i] for i, _ in rent):
            continue
        key = (project_key(rent, block_of),
               project_key(r.product.entries, block_of))
        rates = fused.get(key)
        if rates is None:
            rates = fused[key] = ([], [])
        rates[0].append(r.rate.lo)
        rates[1].append(r.rate.hi)
    reactions = [Reaction(Multiset.from_canonical(rx), Multiset.from_canonical(px),
                          RateInterval(math.fsum(los), math.fsum(his)), rid)
                 for rid, ((rx, px), (los, his)) in enumerate(fused.items())]

    init_state = None
    if net.initial_state is not None:
        init_state = Multiset.from_canonical(
            project_key(net.initial_state.entries, block_of))
    init_conc = None
    if net.initial_concentration is not None:
        acc = [0.0] * len(reps)
        for i, v in enumerate(net.initial_concentration):
            acc[block_of[i]] += v
        init_conc = tuple(acc)

    lumped = ReactionNetwork(species, reactions, init_state, init_conc)
    return lumped, part
