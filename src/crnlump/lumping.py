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
rounding. An optional absolute tolerance (default 0) supports models
authored with rounded rates; it weakens soundness and is surfaced as such by
the command-line tool.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .model import (BlockProjection, Multiset, Partition, RateInterval,
                    Reaction, ReactionNetwork, Species, StructuralError,
                    block_projection)


class InvalidPartitionError(ValueError):
    """The supplied partition is not a species equivalence of the network."""


class _ProvedPartition(Partition):
    """A partition that exact-mode `coarsest_equivalence` proved to be a
    species equivalence of one network object, held by weak reference.
    `quotient` trusts it for that network only."""

    __slots__ = ("_proved_for",)

    def __init__(self, blocks, net: ReactionNetwork):
        super().__init__(blocks, net.n_species)
        self._proved_for = weakref.ref(net)

    def proved_for(self, net: ReactionNetwork) -> bool:
        return self._proved_for() is net

    def __reduce__(self):
        # a weak reference cannot be pickled; a copy is a plain partition
        return (Partition, (self.blocks, self.n))


@dataclass
class Signature:
    """Off-diagonal aggregate rates of one species, keyed by
    (context multiset, lifted-target projection). Zero aggregates are omitted."""

    entries: Dict[Tuple[Multiset, BlockProjection], float]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Signature) and self.entries == other.entries

    def close_to(self, other: "Signature", tolerance: float) -> bool:
        if tolerance <= 0.0:
            return self.entries == other.entries
        keys = set(self.entries) | set(other.entries)
        return all(abs(self.entries.get(k, 0.0) - other.entries.get(k, 0.0)) <= tolerance
                   for k in keys)


def rate_between(net: ReactionNetwork, extremal: str, rho: Multiset,
                 pi: Multiset) -> float:
    """Aggregate extremal rate from reactant multiset `rho` to product `pi`.

    For rho != pi this sums the chosen endpoint of every reaction with exactly
    that reactant and product; the diagonal is the negated total outflow.
    """
    rates = net.rates(extremal)
    if rho != pi:
        return math.fsum(rates[r.id] for r in net.reactions
                         if r.reactant == rho and r.product == pi)
    return -math.fsum(rates[r.id] for r in net.reactions
                      if r.reactant == rho and r.product != rho)


# ---------------------------------------------------------------------------
# Compiled reaction tables for the refinement hot path.

class _Compiled:
    """Partition-independent per-reaction data: reactant/product supports,
    extremal rates, and one (species, context) pair per distinct reactant
    species. No-op reactions are dropped up front."""

    __slots__ = ("rx", "pr", "lower", "upper", "ctxs", "n_species")

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
        self.lower = tuple(lower)
        self.upper = tuple(upper)
        self.ctxs = ctxs
        self.n_species = net.n_species

    def rates(self, extremal: str) -> Tuple[float, ...]:
        if extremal == "lower":
            return self.lower
        if extremal == "upper":
            return self.upper
        raise ValueError(f"extremal must be 'lower' or 'upper', got {extremal!r}")


def _project_key(pairs: Tuple[Tuple[int, int], ...],
                 block_of: Sequence[int]) -> Tuple[Tuple[int, int], ...]:
    """Sparse canonical per-block counts of a support list."""
    m = len(pairs)
    if m == 0:
        return ()
    if m == 1:
        i, c = pairs[0]
        return ((block_of[i], c),)
    if m == 2:
        (i, c), (j, d) = pairs
        bi, bj = block_of[i], block_of[j]
        if bi == bj:
            return ((bi, c + d),)
        if bi < bj:
            return ((bi, c), (bj, d))
        return ((bj, d), (bi, c))
    acc: Dict[int, int] = {}
    for i, c in pairs:
        b = block_of[i]
        acc[b] = acc.get(b, 0) + c
    return tuple(sorted(acc.items()))


def _exact_sum(value) -> float:
    """Finalize an accumulator cell: single contributions stay as they are,
    multiple ones are summed exactly (correctly rounded, order-independent)."""
    return math.fsum(value) if type(value) is list else value


def _finalize(acc: Dict) -> Dict[tuple, float]:
    return {k: _exact_sum(v) for k, v in acc.items()}


def _accumulate(d: Dict, key, rate: float):
    cur = d.get(key)
    if cur is None:
        d[key] = rate
    elif type(cur) is list:
        cur.append(rate)
    else:
        d[key] = [cur, rate]


def _sweep(comp: _Compiled, rates: Sequence[float], block_of: Sequence[int],
           block_size_of: Optional[Sequence[int]]) -> Dict[int, Dict[tuple, float]]:
    """One signature pass over all reactions. Contributions sharing a key are
    collected and summed exactly at the end.

    When `block_size_of` is given, species sitting in singleton blocks are
    skipped: they can never split further and need no signature.
    """
    sigs: Dict[int, Dict] = {}
    project = _project_key
    rx, pr, ctxs = comp.rx, comp.pr, comp.ctxs
    for r in range(len(rx)):
        rate = rates[r]
        if rate == 0.0:
            continue
        per_species = ctxs[r]
        if block_size_of is not None:
            if all(block_size_of[block_of[a]] == 1 for a, _ in per_species):
                continue
        tgt = project(pr[r], block_of)
        if tgt == project(rx[r], block_of):
            continue
        for a, ctx in per_species:
            if block_size_of is not None and block_size_of[block_of[a]] == 1:
                continue
            d = sigs.get(a)
            if d is None:
                d = sigs[a] = {}
            _accumulate(d, (ctx, tgt), rate)
    return {a: _finalize(d) for a, d in sigs.items()}


def _sig_close(a: Dict[tuple, float], b: Dict[tuple, float], tol: float) -> bool:
    for k in a.keys() | b.keys():
        if abs(a.get(k, 0.0) - b.get(k, 0.0)) > tol:
            return False
    return True


def _split_blocks(blocks: Sequence[Tuple[int, ...]],
                  sigs: Dict[int, Dict[tuple, float]],
                  tolerance: float) -> Tuple[List[Tuple[int, ...]], bool]:
    new_blocks: List[Tuple[int, ...]] = []
    changed = False
    for block in blocks:
        if len(block) == 1:
            new_blocks.append(block)
            continue
        if tolerance <= 0.0:
            groups: Dict[tuple, List[int]] = {}
            for a in block:
                d = sigs.get(a)
                key = tuple(sorted(d.items())) if d else ()
                groups.setdefault(key, []).append(a)
            pieces = list(groups.values())
        else:
            leaders: List[Tuple[Dict[tuple, float], List[int]]] = []
            for a in block:
                d = sigs.get(a) or {}
                for sig0, members in leaders:
                    if _sig_close(d, sig0, tolerance):
                        members.append(a)
                        break
                else:
                    leaders.append((d, [a]))
            pieces = [members for _, members in leaders]
        if len(pieces) == 1:
            new_blocks.append(block)
        else:
            changed = True
            new_blocks.extend(tuple(p) for p in pieces)
    if changed:
        new_blocks.sort(key=lambda b: b[0])
    return new_blocks, changed


def _refine_fixpoint(comp: _Compiled, blocks: List[Tuple[int, ...]],
                     extremal: str, tolerance: float,
                     counter: Optional[dict] = None) -> List[Tuple[int, ...]]:
    rates = comp.rates(extremal)
    n = comp.n_species
    block_of = [0] * n
    for bid, b in enumerate(blocks):
        for i in b:
            block_of[i] = bid
    while True:
        sizes = [len(b) for b in blocks]
        sigs = _sweep(comp, rates, block_of, sizes)
        if counter is not None:
            counter["sweeps"] = counter.get("sweeps", 0) + 1
        blocks, changed = _split_blocks(blocks, sigs, tolerance)
        if not changed:
            return blocks
        for bid, b in enumerate(blocks):
            for i in b:
                block_of[i] = bid


def refine_partition(net: ReactionNetwork, part: Partition, extremal: str,
                     tolerance: float = 0.0) -> Partition:
    """Coarsest partition refining `part` that is a species equivalence of the
    single extremal network, computed by block splitting to a fixpoint."""
    comp = _Compiled(net)
    blocks = _refine_fixpoint(comp, list(part.blocks), extremal, tolerance)
    return Partition(blocks, net.n_species)


def coarsest_equivalence(net: ReactionNetwork, initial: Partition,
                         tolerance: float = 0.0,
                         stats: Optional[dict] = None) -> Partition:
    """Coarsest species equivalence of both extremal networks refining
    `initial`: alternate single-extremal refinement until a full round leaves
    the partition unchanged. The result refines the input, passes
    check_equivalence, and successive rounds only ever split blocks.

    In exact mode the last round is the proof: its sweeps under both
    extremals split nothing, which is check_equivalence's criterion, so
    `quotient` on this same network does not check the result again."""
    if initial.n != net.n_species:
        raise StructuralError("initial partition over wrong species universe")
    comp = _Compiled(net)
    blocks = list(initial.blocks)
    rounds = 0
    counter: dict = {}
    while True:
        rounds += 1
        before = len(blocks)
        blocks = _refine_fixpoint(comp, blocks, "lower", tolerance, counter)
        blocks = _refine_fixpoint(comp, blocks, "upper", tolerance, counter)
        if len(blocks) == before:
            break
    if stats is not None:
        stats["rounds"] = rounds
        stats["sweeps"] = counter.get("sweeps", 0)
    if tolerance <= 0.0:
        return _ProvedPartition(blocks, net)
    # greedy-leader clustering is not transitive: no proof
    return Partition(blocks, net.n_species)


def species_signature(net: ReactionNetwork, part: Partition, extremal: str,
                      species: int) -> Signature:
    """Signature of one species under a partition and extremal rate vector."""
    if part.n != net.n_species:
        raise StructuralError("partition over wrong species universe")
    rates = net.rates(extremal)
    acc: Dict[Tuple[Multiset, BlockProjection], object] = {}
    for r in net.reactions:
        if r.is_noop or r.reactant.count(species) == 0:
            continue
        rate = rates[r.id]
        if rate == 0.0:
            continue
        ctx = r.reactant.remove_one(species)
        tgt = block_projection(r.product, part)
        if tgt == block_projection(r.reactant, part):
            continue
        _accumulate(acc, (ctx, tgt), rate)
    return Signature(_finalize(acc))


def check_equivalence(net: ReactionNetwork, part: Partition,
                      tolerance: float = 0.0) -> bool:
    """Direct criterion check: every pair of species sharing a block must have
    equal signatures under both extremal rate vectors."""
    if part.n != net.n_species:
        raise StructuralError("partition over wrong species universe")
    if all(len(b) == 1 for b in part.blocks):
        return True
    comp = _Compiled(net)
    block_of = part.block_of
    sizes = [len(b) for b in part.blocks]
    for extremal in ("lower", "upper"):
        sigs = _sweep(comp, comp.rates(extremal), block_of, sizes)
        for block in part.blocks:
            if len(block) == 1:
                continue
            ref = sigs.get(block[0]) or {}
            for a in block[1:]:
                d = sigs.get(a) or {}
                if tolerance <= 0.0:
                    if d != ref:
                        return False
                elif not _sig_close(d, ref, tolerance):
                    return False
    return True


@dataclass
class BlockMap:
    """Representative selection for a partition: block id -> representative
    species index (the smallest member) and species index -> block id."""

    representatives: Tuple[int, ...]
    member_of: Tuple[int, ...]

    @classmethod
    def for_partition(cls, part: Partition) -> "BlockMap":
        return cls(part.representatives, part.block_of)

    def to_json_dict(self, net: ReactionNetwork, part: Partition) -> dict:
        blocks = []
        for bid, block in enumerate(part.blocks):
            blocks.append({
                "representative": net.species[self.representatives[bid]].name,
                "members": [net.species[i].name for i in block],
            })
        return {"blocks": blocks}


def quotient(net: ReactionNetwork, part: Partition,
             tolerance: float = 0.0) -> Tuple[ReactionNetwork, BlockMap]:
    """Lumped network over block representatives.

    Reactions whose reactant mentions a non-representative are discarded,
    product species are rewritten to their block representatives, and
    reactions sharing (reactant, product) are fused by summing lower and
    upper bounds independently. Raises InvalidPartitionError when the
    partition is not a species equivalence. The check is skipped only for
    an exact-mode result of `coarsest_equivalence` on this same network.
    """
    proved = isinstance(part, _ProvedPartition) and part.proved_for(net)
    if not proved and not check_equivalence(net, part, tolerance):
        raise InvalidPartitionError("partition is not a species equivalence")
    bmap = BlockMap.for_partition(part)
    reps = bmap.representatives
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
        key = (_project_key(rent, block_of),
               _project_key(r.product.entries, block_of))
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
        sums: Dict[int, int] = {}
        for i, c in net.initial_state:
            b = part.block_of[i]
            sums[b] = sums.get(b, 0) + c
        init_state = Multiset(sums.items())
    init_conc = None
    if net.initial_concentration is not None:
        acc = [0.0] * len(reps)
        for i, v in enumerate(net.initial_concentration):
            acc[part.block_of[i]] += v
        init_conc = tuple(acc)

    lumped = ReactionNetwork(species, reactions, init_state, init_conc)
    return lumped, bmap
