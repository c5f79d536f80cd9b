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

The refinement keys a signature entry by (context, projected net change)
instead, the projected net change being the per-block sums of a reaction's
net change. For two species in one block with one context, the projected
reactants A + context are equal, and projected product = projected
reactant + projected change, so the two keys are in bijection and give the
same signature equality. A target equal to the source's projection is
exactly a zero projected change.

The coarsest equivalence refining a given partition is computed by iterated
block splitting on signature equality, run to a fixpoint alternately on the
lower- and upper-extremal rate vectors until one full round leaves the
partition unchanged. Each splitting pass works on the network's compiled
arrays (`ReactionNetwork.compiled`).

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
from typing import Dict, List, Optional, Tuple

import numpy as np

from .model import (CompiledNetwork, Multiset, Partition, RateInterval,
                    Reaction, ReactionNetwork, Species, StructuralError,
                    group_sums, project_key, row_keys)


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
# Refinement passes over the compiled arrays. A partition is a vector of
# block labels 0..n_blocks-1, one per species.

def _reactant_pairs(c: CompiledNetwork, n_species: int):
    """(reaction, species, context id) of every distinct reactant species of
    every reaction with a net change. A context, the reactant minus one copy
    of the species, is numbered by its padded (species, count) row with the
    species sorted, so equal multisets get one id."""
    slot, r = np.nonzero((c.exp > 0) & (np.diff(c.offsets) > 0))
    idx, exp = c.idx[:, r].T, c.exp[:, r].T.astype(np.int64)
    exp[np.arange(len(r)), slot] -= 1
    idx[exp == 0] = n_species
    order = np.argsort(idx, axis=1, kind="stable")
    rows = np.hstack((np.take_along_axis(idx, order, axis=1),
                      np.take_along_axis(exp, order, axis=1)))
    return r, c.idx[slot, r], _row_ids(rows)


def _run_ids(*cols: np.ndarray) -> np.ndarray:
    """Number of the run of equal rows each row of sorted columns is in."""
    new = np.zeros(len(cols[0]), dtype=bool)
    new[:1] = True
    for col in cols:
        new[1:] |= col[1:] != col[:-1]
    return np.cumsum(new) - 1


def _row_ids(rows: np.ndarray) -> np.ndarray:
    """One id per row of a 2-D array, equal rows sharing it, from 0 up."""
    keys = row_keys(rows)
    order = np.argsort(keys)
    ids = np.empty(len(keys), dtype=np.int64)
    ids[order] = _run_ids(keys[order])
    return ids


def _change_ids(c: CompiledNetwork, need: np.ndarray,
                label: np.ndarray) -> np.ndarray:
    """Per reaction, an id of its projected net change, the sorted nonzero
    (block, change) sums over its triples; -1 for a zero change or a
    reaction not in `need`."""
    t = np.flatnonzero(need[c.rx])
    rx, b, dn = c.rx[t], label[c.sp[t]], c.dn[t]
    order = np.lexsort((b, rx))
    rx, b = rx[order], b[order]
    run = _run_ids(rx, b)
    change = np.bincount(run, dn[order])
    first = np.flatnonzero(np.diff(run, prepend=-1))[change != 0]
    rx, b, change = rx[first], b[first], change[change != 0]
    # one row of (block, change) pairs per reaction, padded with -1
    reaction = _run_ids(rx)
    pos = np.arange(len(rx)) - np.searchsorted(reaction, reaction)
    table = np.full((reaction.max(initial=-1) + 1,
                     2 * (pos.max(initial=-1) + 1)), -1, dtype=np.int64)
    table[reaction, 2 * pos], table[reaction, 2 * pos + 1] = b, change
    ids = np.full(len(need), -1)
    ids[np.unique(rx)] = _row_ids(table)
    return ids


def _sweep(c: CompiledNetwork, pairs, rates: np.ndarray,
           label: np.ndarray) -> Tuple[np.ndarray, int]:
    """One signature pass: new labels splitting each block of `label` by its
    members' signatures, and their number. Species in singleton blocks are
    skipped: they can never split further and need no signature."""
    r, a, ctx = pairs
    keep = (rates[r] != 0.0) & (np.bincount(label)[label[a]] > 1)
    need = np.zeros(len(rates), dtype=bool)
    need[r[keep]] = True
    change = _change_ids(c, need, label)[r]
    keep &= change >= 0
    sel = np.flatnonzero(keep)[np.lexsort((change[keep], ctx[keep], a[keep]))]
    a, ctx, change, val = a[sel], ctx[sel], change[sel], rates[r[sel]]
    # a single contribution stays as it is; several are summed exactly
    # (correctly rounded, independent of their order)
    start, val = group_sums(_run_ids(a, ctx, change), val, np.zeros_like(val))
    if not np.all(np.isfinite(val)):
        raise OverflowError("an aggregate rate overflows")
    a = a[start]
    items = np.column_stack((ctx[start], change[start], val.view(np.int64)))
    # a species' signature is its run of sorted (context, change, rate)
    # items; runs of one length are compared as rows, an empty one is 0
    size = np.bincount(a, minlength=len(label))
    first = np.cumsum(size) - size
    sig = np.zeros(len(label), dtype=np.int64)
    for n in np.unique(size[size > 0]).tolist():
        who = np.flatnonzero(size == n)
        rows = items[first[who, None] + np.arange(n)].reshape(len(who), -1)
        sig[who] = sig.max() + 1 + _row_ids(rows)
    label = _row_ids(np.column_stack((label, sig)))
    return label, int(label.max(initial=-1)) + 1


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
    c = net.compiled
    pairs = _reactant_pairs(c, net.n_species)
    label = np.asarray(initial.block_of, dtype=np.int64)
    n_blocks = initial.n_blocks
    rounds = sweeps = 0
    while True:
        rounds += 1
        before = n_blocks
        for rates in (c.lo, c.hi):
            while True:  # sweep this extremal until nothing splits
                sweeps += 1
                label, n = _sweep(c, pairs, rates, label)
                if n == n_blocks:
                    break
                n_blocks = n
        if n_blocks == before:
            break
    if stats is not None:
        stats["rounds"] = rounds
        stats["sweeps"] = sweeps
    members = np.argsort(label, kind="stable").tolist()
    ends = np.cumsum(np.bincount(label)).tolist()
    blocks = (members[s:e] for s, e in zip([0] + ends, ends))
    return _ProvedPartition(blocks, net)


def check_equivalence(net: ReactionNetwork, part: Partition) -> bool:
    """Direct criterion check: every pair of species sharing a block must have
    equal signatures under both extremal rate vectors, so that no block
    splits."""
    if part.n != net.n_species:
        raise StructuralError("partition over wrong species universe")
    if all(len(b) == 1 for b in part.blocks):
        return True
    c = net.compiled
    pairs = _reactant_pairs(c, net.n_species)
    label = np.asarray(part.block_of, dtype=np.int64)
    return all(_sweep(c, pairs, rates, label)[1] == part.n_blocks
               for rates in (c.lo, c.hi))


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
