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

A partition is an equivalence of the interval-rate network when it is one
for both extremal rate vectors, `lo` and `hi`. One sweep covers both: it
keeps the pairs whose `hi` rate is nonzero (0 <= lo <= hi, so the rate is
nonzero under some extremal), sums the `lo` and the `hi` terms of each key
separately, and splits each block by its members' sorted (context, change,
lo sum, hi sum) items. A key is kept exactly when its `hi` sum is nonzero,
and a zero `lo` sum is an absent lower entry, so two species have equal
items exactly when their lower and their upper signatures are equal: a
sweep splits each block into the meet of the two single-extremal splits.
Sweeping until a sweep splits nothing thus gives the coarsest partition
stable under both extremals (which is unique), and that last sweep proves
it. Each sweep works on the network's compiled arrays
(`ReactionNetwork.compiled`).

Aggregate rates are compared with exact floating-point equality. Per key,
contributions are aggregated with exact (correctly rounded) summation, which
is independent of enumeration order: two aggregates compare equal exactly
when the real sums of their contributions are equal, so symmetric sums built
from permuted or differently factored reaction lists cannot drift apart by
rounding. A sum of -0.0 (a `[-0 : hi]` rate) is compared as 0.0.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .model import (CompiledNetwork, Partition, ReactionNetwork,
                    ReactionTable, _block_sums, _canonical_sides, _list_ids,
                    _row_ids, _run_ids, group_sums)


class InvalidPartitionError(ValueError):
    """The supplied partition is not a species equivalence of the network."""


# ---------------------------------------------------------------------------
# Refinement passes over the compiled arrays. A partition is a vector of
# block labels 0..n_blocks-1, one per species.

def _narrow(n: int):
    """int32 when it holds every value below `n`, else int64: the type of
    the sweep's per-pair and per-triple index temporaries."""
    return np.int32 if n <= 2**31 else np.int64


def _reactant_pairs(c: CompiledNetwork, n_species: int):
    """(reaction, species, context id) of every distinct reactant species of
    every reaction with a net change. A context, the reactant minus one copy
    of the species, is numbered by its padded (species, count) row with the
    species sorted, so equal multisets get one id. The three are stored
    narrow (`_narrow`), as they live through every sweep."""
    K, R = c.idx.shape
    slot, r = np.divmod(np.flatnonzero((c.exp > 0) & (np.diff(c.offsets) > 0)),
                        R)
    kind = _narrow(max(R, n_species, len(r)))
    r = r.astype(kind)
    a = c.idx[slot, r].astype(kind)
    # a reactant's slots hold its species in increasing order, padding
    # last; where the context keeps no copy of `a`, the slots after a's
    # move one left and padding fills the last one
    rows = np.empty((len(r), 2 * K), dtype=np.int64)
    rows[:, :K], rows[:, K:] = c.idx[:, r].T, c.exp[:, r].T
    rows[np.arange(len(r)), K + slot] -= 1
    gone = np.flatnonzero(c.exp[slot, r] == 1)
    slot = slot[gone]
    for k in range(K):
        move = gone[slot <= k]
        rows[move, k::K] = (rows[move, k + 1::K] if k < K - 1
                            else (n_species, 0))
    del slot, gone
    ctx = _row_ids(rows)
    del rows
    return r, a, ctx.astype(kind)


def _change_ids(c: CompiledNetwork, need: np.ndarray,
                label: np.ndarray) -> np.ndarray:
    """Per reaction, an id of its projected net change, the sorted nonzero
    (block, change) sums over its triples; -1 for a zero change or a
    reaction not in `need`."""
    t = need[c.rx]
    if t.all():  # no gathers
        rx, block, change = _block_sums(c.rx, label[c.sp], c.dn)
    else:
        rx, block, change = _block_sums(c.rx[t], label[c.sp[t]], c.dn[t])
    del t
    # (block, change) rows as int64: the changes are integer counts
    keep = change != 0
    size = np.bincount(rx[keep], minlength=len(need))
    del rx
    rows = np.empty((np.count_nonzero(keep), 2), dtype=np.int64)
    rows[:, 0] = block[keep]
    del block
    rows[:, 1] = change[keep]
    del change, keep
    return _list_ids(size, rows)


def _sweep(c: CompiledNetwork, pairs,
           label: np.ndarray) -> Tuple[np.ndarray, int]:
    """One signature pass under both extremals: new labels splitting each
    block of `label` by its members' signatures, and their number. Species
    in singleton blocks are skipped: they can never split further and need
    no signature."""
    r, a, ctx = pairs
    label = label.astype(_narrow(len(label)))
    keep = (c.hi[r] != 0.0) & (np.bincount(label)[label[a]] > 1)
    need = np.zeros(len(c.hi), dtype=bool)
    need[r[keep]] = True
    change = _change_ids(c, need, label)[r]
    del need
    keep &= change >= 0
    sel = np.flatnonzero(keep)
    del keep
    sel = sel[np.lexsort((change[sel], ctx[sel], a[sel]))]
    a, ctx, change, r = a[sel], ctx[sel], change[sel], r[sel]
    del sel
    # a single contribution stays as it is; several are summed exactly
    # (correctly rounded, independent of their order); + 0.0 turns -0.0
    # into 0.0 before the bits are compared
    run = _run_ids(a, ctx, change)
    start, lo = group_sums(run, c.lo[r])
    hi = group_sums(run, c.hi[r])[1]
    del run, r
    val = np.column_stack((lo, hi)) + 0.0
    del lo, hi
    if not np.all(np.isfinite(val)):
        raise OverflowError("an aggregate rate overflows")
    # a species' signature is its sorted (context, change, lo, hi) items
    items = np.column_stack((ctx[start], change[start], val.view(np.int64)))
    del ctx, change, val
    size = np.bincount(a[start], minlength=len(label))
    del a, start
    sig = _list_ids(size, items)
    del size, items
    label = _row_ids(np.column_stack((label, sig)))
    return label, int(label.max(initial=-1)) + 1


def coarsest_equivalence(net: ReactionNetwork, initial: Partition,
                         stats: Optional[dict] = None) -> Partition:
    """Coarsest species equivalence of both extremal networks refining
    `initial`: sweep under both extremals until a sweep splits nothing. The
    result refines the input, passes check_equivalence, and successive
    sweeps only ever split blocks. `stats` receives the number of sweeps as
    both `rounds` and `sweeps`.

    The last sweep is the proof: it split nothing, which is
    check_equivalence's criterion, so the result is recorded on `net` and
    `quotient` on this same network does not check it again."""
    label = initial.labels(net.n_species)
    c = net.compiled
    pairs = _reactant_pairs(c, net.n_species)
    n_blocks, before, sweeps = initial.n_blocks, -1, 0
    while n_blocks != before:  # until a sweep splits nothing
        before = n_blocks
        label, n_blocks = _sweep(c, pairs, label)
        sweeps += 1
    if stats is not None:
        stats["rounds"] = stats["sweeps"] = sweeps
    members = np.argsort(label, kind="stable").tolist()
    ends = np.cumsum(np.bincount(label)).tolist()
    part = Partition((members[s:e] for s, e in zip([0] + ends, ends)),
                     net.n_species)
    net.proved = part
    return part


def check_equivalence(net: ReactionNetwork, part: Partition) -> bool:
    """Direct criterion check: every pair of species sharing a block must have
    equal signatures under both extremal rate vectors, so that one sweep
    splits no block. A partition that passes is recorded on `net`, so
    `quotient` on this same network does not check it again."""
    label = part.labels(net.n_species)
    if part.n_blocks < part.n:
        c = net.compiled
        pairs = _reactant_pairs(c, net.n_species)
        if _sweep(c, pairs, label)[1] != part.n_blocks:
            return False
    net.proved = part
    return True


def quotient(net: ReactionNetwork,
             part: Partition) -> Tuple[ReactionNetwork, Partition]:
    """Lumped network over block representatives, and the partition it was
    lumped by. The species of block i is the block's representative (its
    smallest member), renumbered to index i.

    Reactions whose reactant mentions a non-representative are discarded,
    product species are rewritten to their block representatives, and
    reactions sharing (reactant, product) are fused by summing lower and
    upper bounds independently, each exactly; the fused reactions are in
    the order of their first member. Raises InvalidPartitionError when the
    partition is not a species equivalence, and OverflowError when a fused
    rate overflows or a summed count exceeds int64. The check is skipped
    exactly when `part` equals, by value, the partition that
    `coarsest_equivalence` or `check_equivalence` last proved on this same
    network object.
    """
    if part != net.proved and not check_equivalence(net, part):
        raise InvalidPartitionError("partition is not a species equivalence")
    reps = part.representatives
    t = net.table

    # a representative's new index is its block id, so a side's new entries
    # are its canonical per-block projection; every distinct side is
    # projected and the distinct projections are numbered
    n_sides = len(t.size)
    owner = np.repeat(np.arange(n_sides), t.size)
    label = part.labels(net.n_species)
    size, block, count, proj = _canonical_sides(owner, label[t.species],
                                                t.count, n_sides)
    is_rep = np.zeros(net.n_species, dtype=bool)
    is_rep[list(reps)] = True
    rep_only = np.bincount(owner, ~is_rep[t.species], n_sides) == 0
    keep = np.flatnonzero(rep_only[t.lhs])
    key = proj[t.lhs[keep]] * len(size) + proj[t.rhs[keep]]
    order = np.argsort(key, kind="stable")
    key, keep = key[order], keep[order]
    # a lone rate stays as it is and several are summed exactly; + 0.0
    # turns -0.0 into 0.0, as math.fsum does
    start, lo = group_sums(key, t.lo[keep])
    hi = group_sums(key, t.hi[keep])[1]
    first = np.argsort(keep[start])
    members, lo, hi = keep[start][first], lo[first] + 0.0, hi[first] + 0.0
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
        raise OverflowError("a fused rate overflows")
    # the new sides: the projections the fused reactions use, renumbered
    lhs, rhs = proj[t.lhs[members]], proj[t.rhs[members]]
    used = np.zeros(len(size), dtype=bool)
    used[lhs] = used[rhs] = True
    new = np.cumsum(used) - 1
    entry = np.repeat(used, size)
    table = ReactionTable(size[used], block[entry], count[entry], new[lhs],
                          new[rhs], lo, hi)

    conc = net.initial_concentration
    lumped = ReactionNetwork([net.names[i] for i in reps], table,
                             None if conc is None else part.sums(conc))
    return lumped, part
