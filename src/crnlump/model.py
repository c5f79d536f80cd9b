"""Core domain types: multisets, rate intervals, the reaction table that
`ReactionNetwork(names, table)` checks and builds a network from, the
`Reaction` objects that only view that table, partitions, and the compiled
array form every layer reads a network through.

Everything in this module is immutable after construction and safe to share
across threads. A network's species are its tuple of names, and species i is
the name at position i: all hot paths work on these integer indices instead
of strings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import (Dict, Iterable, Iterator, NamedTuple, Optional, Sequence,
                    Tuple)

import numpy as np


class StructuralError(ValueError):
    """An input violates a structural precondition (unknown species index,
    mismatched species universes, malformed partition, horizon out of range)."""


class Multiset:
    """Immutable multiset over species indices.

    Stored as a tuple of (index, count) pairs sorted by index with all counts
    positive. The canonical representation makes multisets hashable and
    usable as dictionary keys; `entries` is the key to sort them by.
    """

    __slots__ = ("entries",)

    def __init__(self, items: Iterable[Tuple[int, int]] = ()):
        acc: Dict[int, int] = {}
        for idx, cnt in items:
            if cnt == 0:
                continue
            if idx < 0:
                raise ValueError(f"negative species index {idx}")
            acc[idx] = acc.get(idx, 0) + cnt
        for idx, cnt in acc.items():
            if cnt < 0:
                raise ValueError(f"negative count for species index {idx}")
        self.entries: Tuple[Tuple[int, int], ...] = tuple(sorted(acc.items()))

    @classmethod
    def from_canonical(cls, entries: Tuple[Tuple[int, int], ...]) -> "Multiset":
        """Trusted constructor: `entries` must already be canonical (sorted
        by distinct index, counts positive); it is stored without checks."""
        ms = object.__new__(cls)
        ms.entries = entries
        return ms

    @property
    def total(self) -> int:
        """Total number of molecules, i.e. the sum of all counts."""
        return sum(c for _, c in self.entries)

    def count(self, index: int) -> int:
        for idx, cnt in self.entries:
            if idx == index:
                return cnt
        return 0

    def add(self, other: "Multiset") -> "Multiset":
        return Multiset(self.entries + other.entries)

    def subtract(self, other: "Multiset") -> "Multiset":
        """Multiset difference; raises if `other` is not contained in self."""
        acc = dict(self.entries)
        for idx, cnt in other.entries:
            left = acc.get(idx, 0) - cnt
            if left < 0:
                raise ValueError("multiset subtraction would go negative")
            if left == 0:
                acc.pop(idx, None)
            else:
                acc[idx] = left
        return Multiset(acc.items())

    def format(self, names: Sequence[str]) -> str:
        """Render as '2 A + B', or '0' for the empty multiset."""
        if not self.entries:
            return "0"
        terms = []
        for idx, cnt in self.entries:
            terms.append(names[idx] if cnt == 1 else f"{cnt} {names[idx]}")
        return " + ".join(terms)

    def __iter__(self) -> Iterator[Tuple[int, int]]:
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Multiset) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        inner = ", ".join(f"{i}:{c}" for i, c in self.entries)
        return f"Multiset({{{inner}}})"


@dataclass(frozen=True)
class RateInterval:
    """Closed nonnegative finite interval [lo, hi] bounding a kinetic rate."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (0.0 <= self.lo <= self.hi and math.isfinite(self.hi)):
            raise ValueError(f"invalid rate interval [{self.lo}; {self.hi}]")

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lo + self.hi)


@dataclass(frozen=True)
class Reaction:
    """A reaction: reactant multiset -> product multiset with a rate interval.

    Reactions with reactant == product are legal; they contribute nothing to
    the dynamics or to equivalence signatures.
    """

    reactant: Multiset
    product: Multiset
    rate: RateInterval
    id: int

    @property
    def is_noop(self) -> bool:
        return self.reactant == self.product


class ReactionTable(NamedTuple):
    """A network's reactions as one table of read-only arrays. Side k, a
    canonical reaction side, has `size[k]` entries, which are the next
    `size[k]` (`species`, `count`) pairs after those of sides 0..k-1, in
    increasing species order. Reaction j is side `lhs[j]` -> side `rhs[j]`
    with rate bounds `[lo[j], hi[j]]`."""

    size: np.ndarray
    species: np.ndarray
    count: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    lo: np.ndarray
    hi: np.ndarray


def _read_only(name: str, a, dtype) -> np.ndarray:
    """`a` as a contiguous read-only array of `dtype`. StructuralError names
    the table array `name` when `a` is not 1-D or when the cast changes one
    of its values (a fractional or non-finite id or count)."""
    given = np.asarray(a)
    if given.ndim != 1:
        raise StructuralError(f"table array {name} has shape {given.shape}, "
                              "not one dimension")
    with np.errstate(invalid="ignore"):
        a = np.ascontiguousarray(given, dtype=dtype)
        # compared in the given type: as floats, 2**53 + 1 equals its cast
        changed = [] if given.dtype == a.dtype else np.flatnonzero(
            a.astype(given.dtype) != given)
    if len(changed):
        i = int(changed[0])
        raise StructuralError(f"table array {name} has {given[i].item()!r} "
                              f"at index {i}, which {a.dtype} cannot hold")
    a.setflags(write=False)
    return a


def _check_table(t: ReactionTable, n: int):
    """Raise StructuralError naming the first bad reaction or side of `t`."""
    size, sp, cnt, lhs, rhs, lo, hi = t
    if {len(rhs), len(lo), len(hi)} != {len(lhs)}:
        raise StructuralError("lhs, rhs, lo and hi have lengths "
                              f"{[len(a) for a in t[3:]]}")
    if (size < 0).any() or size.sum() != len(sp) or len(cnt) != len(sp):
        raise StructuralError("side sizes must be non-negative and sum to "
                              f"the {len(sp)} species and {len(cnt)} counts")
    k = len(size)
    bad = np.flatnonzero((lhs < 0) | (lhs >= k) | (rhs < 0) | (rhs >= k))
    if len(bad):
        j = int(bad[0])
        raise StructuralError(f"reaction {j} has side ids {lhs[j]} -> "
                              f"{rhs[j]}, not in 0..{k - 1}")
    # a canonical side's species increase strictly and are in range, and
    # its counts are positive
    ok = np.ones(len(sp), dtype=bool)
    ok[1:] = sp[1:] > sp[:-1]
    ok[(np.cumsum(size) - size)[size > 0]] = True
    ok &= (sp >= 0) & (sp < n) & (cnt >= 1)
    if not ok.all():
        e = int(np.argmin(ok))
        side = int(np.searchsorted(np.cumsum(size), e, "right"))
        uses = np.flatnonzero((lhs == side) | (rhs == side))
        where = f"reaction {uses[0]}" if len(uses) else f"side {side}"
        i = int(sp[e])
        raise StructuralError(
            f"{where} references species index {i} >= {n}" if i >= n else
            f"{where} references species index {i} < 0" if i < 0 else
            f"{where} has count {cnt[e]} of species index {i}" if cnt[e] < 1
            else f"{where} has species index {i} after {sp[e - 1]} in a side")
    bad = np.flatnonzero(~((0.0 <= lo) & (lo <= hi) & np.isfinite(hi)))
    if len(bad):
        j = int(bad[0])
        raise StructuralError(f"reaction {j} has invalid rate interval "
                              f"[{lo[j]}; {hi[j]}]")


class ReactionNetwork:
    """A finite species set plus reactions with interval-valued rates.

    The species are the tuple of distinct strings `names`: species i is
    `names[i]`. The reactions are the rows of `table`, a `ReactionTable`,
    which the constructor checks and keeps as read-only arrays:
    `StructuralError` names the array that is not 1-D or that holds a value
    its type (int64 for the first five, float64 for `lo`/`hi`) cannot hold,
    or the first bad reaction or side when the arrays' lengths disagree, a
    side id is out of range, a side is not canonical (species strictly
    increasing, each below `len(names)`, counts at least 1) or a rate
    interval is invalid. `reactions`, the reactions as objects, is a view
    built from the table on first use. The table's `lo` and `hi` vectors
    pin every rate at its interval endpoint; these two extremal networks
    drive both the equivalence check and the stochastic semantics.
    The optional initial data is one vector of finite non-negative values,
    `initial_concentration`; `initial_state` is the molecule multiset it
    gives when every value is an integer. `names`, `table` and
    `initial_concentration` cannot be rebound or deleted. `proved` is the
    partition that lumping last proved an equivalence of this network, or
    None.
    """

    __slots__ = ("names", "table", "initial_concentration", "proved",
                 "_reactions", "_index_of", "_compiled")

    def __init__(self, names: Sequence[str], table: ReactionTable,
                 initial_concentration: Optional[Sequence[float]] = None):
        self.names: Tuple[str, ...] = tuple(names)
        n = len(self.names)
        self._index_of: Dict[str, int] = dict(zip(self.names, range(n)))
        if len(self._index_of) != n:
            raise StructuralError("duplicate species names")
        self.table = ReactionTable(*(
            _read_only(name, a, np.int64 if k < 5 else np.float64)
            for k, (name, a) in enumerate(zip(ReactionTable._fields, table))))
        _check_table(self.table, n)
        conc: Optional[Tuple[float, ...]] = None
        if initial_concentration is not None:
            conc = tuple(float(x) for x in initial_concentration)
            if len(conc) != n:
                raise StructuralError("initial concentration length mismatch")
            bad = [i for i, v in enumerate(conc) if not 0.0 <= v < math.inf]
            if bad:
                raise StructuralError(
                    f"initial concentration of {self.names[bad[0]]!r} is "
                    f"{conc[bad[0]]}, not a finite non-negative number")
        self.initial_concentration = conc
        self._reactions: Optional[Tuple[Reaction, ...]] = None
        self._compiled: Optional[CompiledNetwork] = None
        self.proved: Optional[Partition] = None

    def __setattr__(self, name: str, value):
        if name in ("names", "table", "initial_concentration") and hasattr(self, name):
            raise AttributeError(f"ReactionNetwork.{name} cannot be rebound")
        object.__setattr__(self, name, value)

    def __delattr__(self, name: str):
        if name in ("names", "table", "initial_concentration"):
            raise AttributeError(f"ReactionNetwork.{name} cannot be deleted")
        object.__delattr__(self, name)

    @property
    def reactions(self) -> Tuple[Reaction, ...]:
        """The reactions as objects, built from the table on first use."""
        if self._reactions is None:
            t = self.table
            pairs = list(zip(t.species.tolist(), t.count.tolist()))
            end = np.cumsum(t.size).tolist()
            sides = [Multiset.from_canonical(tuple(pairs[a:e]))
                     for a, e in zip([0] + end, end)]
            self._reactions = tuple(
                Reaction(sides[a], sides[b], RateInterval(lo, hi), j)
                for j, (a, b, lo, hi) in enumerate(zip(
                    t.lhs.tolist(), t.rhs.tolist(), t.lo.tolist(),
                    t.hi.tolist())))
        return self._reactions

    @property
    def initial_state(self) -> Optional[Multiset]:
        """The molecule counts of `initial_concentration` when every value
        is an integer; None otherwise or without initial data."""
        conc = self.initial_concentration
        if conc is None or not all(v.is_integer() for v in conc):
            return None
        return Multiset((i, int(v)) for i, v in enumerate(conc))

    @property
    def n_species(self) -> int:
        return len(self.names)

    @property
    def n_reactions(self) -> int:
        return len(self.table.lhs)

    @property
    def compiled(self) -> "CompiledNetwork":
        """The network's read-only array form, built on first use."""
        if self._compiled is None:
            self._compiled = compile_network(self)
        return self._compiled

    def index_of(self, name: str) -> int:
        try:
            return self._index_of[name]
        except KeyError:
            raise StructuralError(f"unknown species {name!r}") from None

    def multiset(self, text_counts: Dict[str, int]) -> Multiset:
        """Build a multiset from a name -> count mapping."""
        return Multiset((self.index_of(n), c) for n, c in text_counts.items())

    def __repr__(self) -> str:
        return f"ReactionNetwork({self.n_species} species, {self.n_reactions} reactions)"


class Partition:
    """A partition of the species index set {0, ..., n-1}.

    Canonical form: each block is a sorted tuple of indices, blocks are sorted
    by their smallest member, and block ids are positions in that order. The
    representative of a block is its smallest member, which makes quotient
    construction deterministic.
    """

    __slots__ = ("n", "blocks", "block_of", "_label")

    def __init__(self, blocks: Iterable[Iterable[int]], n: int):
        if n < 0:
            raise StructuralError(f"partition over {n} species")
        blks = sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0] if b else -1)
        bo = [-1] * n
        for bid, b in enumerate(blks):
            if not b:
                raise StructuralError("empty partition block")
            for i in b:
                if not (0 <= i < n):
                    raise StructuralError(f"species index {i} outside universe of size {n}")
                if bo[i] >= 0:
                    raise StructuralError(f"species index {i} in two blocks")
                bo[i] = bid
        if -1 in bo:
            missing = [i for i, b in enumerate(bo) if b < 0]
            raise StructuralError(f"partition does not cover species {missing}")
        self.n = n
        self.blocks: Tuple[Tuple[int, ...], ...] = tuple(blks)
        self.block_of: Tuple[int, ...] = tuple(bo)
        self._label = np.fromiter(bo, np.intp, n)
        self._label.flags.writeable = False

    @classmethod
    def singletons(cls, n: int) -> "Partition":
        return cls(((i,) for i in range(n)), n)

    @classmethod
    def one_block(cls, n: int) -> "Partition":
        if n == 0:
            return cls((), 0)
        return cls((tuple(range(n)),), n)

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    @property
    def representatives(self) -> Tuple[int, ...]:
        return tuple(b[0] for b in self.blocks)

    def labels(self, n: int) -> np.ndarray:
        """Read-only block id per species; StructuralError unless n == self.n."""
        if n != self.n:
            raise StructuralError("partition over wrong species universe")
        return self._label

    def sums(self, x) -> np.ndarray:
        """Block sums over the last axis of a 1-D or 2-D `x`, members added
        one at a time in increasing species order, integers exactly in their
        type. StructuralError unless that axis is over the species."""
        x = np.asarray(x)
        label = self.labels(x.shape[-1] if x.ndim else -1)
        out = np.zeros(x.shape[:-1] + (len(self.blocks),), dtype=x.dtype)
        np.add.at(out, (..., label), x)
        return out

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Partition) and self.n == other.n
                and self.blocks == other.blocks)

    def __hash__(self) -> int:
        return hash((self.n, self.blocks))

    def __repr__(self) -> str:
        return f"Partition({self.n_blocks} blocks over {self.n} species)"


def falling_binomial(sigma: Multiset, rho: Multiset) -> int:
    """Product of per-species binomial coefficients C(sigma(B), rho(B)).

    This counts the distinct ways to pick the reactant molecules `rho` out of
    the state `sigma`; it is zero exactly when rho is not contained in sigma.
    """
    out = 1
    for idx, cnt in rho:
        out *= math.comb(sigma.count(idx), cnt)
        if out == 0:
            return 0
    return out


class CompiledNetwork(NamedTuple):
    """Read-only array form of a network, shared by the vector field, the
    state-space oracle and stochastic simulation.

    `idx`/`exp` is a (K, R) table of reactant species and counts, K the
    most distinct reactant species of any reaction (K-major: the vector
    field's product over a short inner axis would be slow); padding slots
    hold species S with count 0. `fact` is the product of the reactant
    counts' factorials. `rx`/`sp`/`dn` are the nonzero (reaction, species,
    net change) triples sorted by reaction, then species; reaction r owns
    `offsets[r]:offsets[r + 1]`, none for a no-op. `lo`/`hi` are the rate
    bounds, the reaction table's own arrays. Counts are floats, exact below
    2**53."""

    idx: np.ndarray
    exp: np.ndarray
    fact: np.ndarray
    rx: np.ndarray
    sp: np.ndarray
    dn: np.ndarray
    offsets: np.ndarray
    lo: np.ndarray
    hi: np.ndarray


def side_texts(t: ReactionTable, names: Sequence[str]) -> np.ndarray:
    """`Multiset.format` of each side of the table `t`, as an object array,
    built one term position at a time."""
    size, sp, cnt = t.size, t.species, t.count
    term = np.array(names, dtype=object)[sp]
    many = np.flatnonzero(cnt != 1)
    term[many] = [f"{c} {name}" for c, name in
                  zip(cnt[many].tolist(), term[many].tolist())]
    start = np.cumsum(size) - size
    text = np.full(len(size), "0", dtype=object)
    for k in range(int(size.max(initial=0))):
        more = np.flatnonzero(size > k)
        text[more] = (term[start[more]] if k == 0 else
                      text[more] + " + " + term[start[more] + k])
    return text


def _net_changes(t: ReactionTable, R: int, S: int):
    """(reaction, species, net change) of every nonzero net change of the
    R reactions of `t` over S species, sorted by reaction, then species;
    the changes are floats."""
    start = np.cumsum(t.size) - t.size

    def keys(side, sign):
        """reaction * S + species of every entry of the sides `side[r]` of
        the reactions r, increasing, and the entry's count times `sign`."""
        k = t.size[side]
        at = np.repeat(start[side] - np.cumsum(k) + k, k)
        at += np.arange(len(at))
        key = np.repeat(np.arange(R) * max(S, 1), k)
        key += t.species[at]
        return key, sign * t.count[at]

    # the stable sort puts a key's product entry right after its reactant
    # one, and each array is dropped at its last use
    key, change = map(np.concatenate, zip(keys(t.lhs, -1.0), keys(t.rhs, 1.0)))
    order = np.argsort(key, kind="stable")
    key = key[order]
    change = change[order]
    del order
    first = np.flatnonzero(_run_starts(key))
    key = key[first]
    change = np.add.reduceat(change, first)
    del first
    nonzero = change != 0
    key, change = key[nonzero], change[nonzero]
    return (*np.divmod(key, max(S, 1)), change)


def compile_network(net: ReactionNetwork) -> CompiledNetwork:
    """Build `net`'s CompiledNetwork from its reaction table;
    `ReactionNetwork.compiled` caches it. The triples are built first and
    the (K, R) tables one slot at a time, so the build peaks near the size
    of the arrays it returns."""
    t = net.table
    R, S = net.n_reactions, net.n_species
    rx, sp, dn = _net_changes(t, R, S)
    # slot k of every reactant side, gathered per side, then per reaction;
    # `fact` multiplies the slots' factorials in slot order
    start = np.cumsum(t.size) - t.size
    reactant = np.zeros(len(t.size), dtype=bool)
    reactant[t.lhs] = True
    K = int(t.size[reactant].max(initial=0))
    idx, exp = np.empty((K, R), dtype=np.intp), np.empty((K, R))
    side_fact = np.ones(len(t.size))
    for k in range(K):
        s = np.flatnonzero(reactant & (t.size > k))
        at = start[s] + k
        col = np.full(len(t.size), S)
        col[s] = t.species[at]
        np.take(col, t.lhs, out=idx[k])
        col = np.zeros(len(t.size))
        col[s] = t.count[at]
        np.take(col, t.lhs, out=exp[k])
        counts, at = np.unique(t.count[at], return_inverse=True)
        side_fact[s] *= np.array([float(math.factorial(c))
                                  for c in counts.tolist()])[at]
    arrays = CompiledNetwork(idx, exp, side_fact[t.lhs], rx, sp, dn,
                             np.searchsorted(rx, np.arange(R + 1)), t.lo, t.hi)
    for a in arrays:
        a.setflags(write=False)
    return arrays


def row_keys(rows: np.ndarray) -> np.ndarray:
    """One opaque fixed-width key per row of an integer array (the row's
    bytes as int64), so rows sort, deduplicate and search as scalars, with
    no bound on the values; a view of `rows` when they are contiguous
    int64. TypeError for rows of another kind, such as floats."""
    c = np.asarray(rows)
    if c.dtype.kind not in "iu":
        raise TypeError(f"row keys need integer rows, not {c.dtype}")
    c = np.ascontiguousarray(c, dtype=np.int64)
    if c.shape[1] == 0:
        c = np.zeros((len(c), 1), dtype=np.int64)
    return c.view(np.dtype((np.void, 8 * c.shape[1]))).ravel()


def _run_starts(*cols: np.ndarray) -> np.ndarray:
    """Whether each row of sorted columns starts a run of equal rows."""
    new = np.zeros(len(cols[0]), dtype=bool)
    new[:1] = True
    for col in cols:
        new[1:] |= col[1:] != col[:-1]
    return new


def _run_ids(*cols: np.ndarray) -> np.ndarray:
    """Number of the run of equal rows each row of sorted columns is in."""
    return np.cumsum(_run_starts(*cols)) - 1


_ROW_CHUNK = 4096  # sorted keys compared at a time


def _row_ids(rows: np.ndarray) -> np.ndarray:
    """One id per row of a 2-D array, equal rows sharing it, from 0 up. The
    sorted keys are compared a chunk at a time, so that no sorted copy of
    all of them is made."""
    keys = row_keys(rows)
    order = np.argsort(keys)
    new = np.ones(len(keys), dtype=bool)
    for i in range(0, len(keys), _ROW_CHUNK):
        s = keys[order[max(i - 1, 0):i + _ROW_CHUNK]]
        new[max(i, 1):i + _ROW_CHUNK] = s[1:] != s[:-1]
    ids = np.empty(len(keys), dtype=np.int64)
    ids[order] = np.cumsum(new) - 1
    return ids


def _block_sums(owner: np.ndarray, block: np.ndarray, value: np.ndarray):
    """Owner, block and summed value of each (owner, block) run of the
    terms, sorted by owner, then block. Integer values are summed exactly:
    OverflowError when a sum of a run of fewer than 2**26 terms does not
    fit in int64."""
    # each copy replaces its source at once, so that a source the caller
    # no longer holds is freed before the next copy is made
    order = np.lexsort((block, owner))
    owner = owner[order]
    block = block[order]
    value = value[order]
    del order
    first = np.flatnonzero(_run_starts(owner, block))
    total = np.add.reduceat(value, first)
    if value.dtype.kind == "i" and len(value) and max(
            int(value.max()), -int(value.min())) > (2**63 - 1) // len(value):
        # an int64 sum that wrapped is off by a multiple of 2**64, a
        # float64 sum of fewer than 2**26 terms by less than 2**62
        approx = np.add.reduceat(value.astype(np.float64), first)
        if (np.abs(approx - total) >= 2.0**63).any():
            raise OverflowError("integer sum does not fit in int64")
    del value
    owner = owner[first]
    return owner, block[first], total


def _list_ids(size: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """For the rows of a 2-D array grouped by owner, `size[o]` rows for
    owner o in owner order: per owner, an id of its list of rows, equal
    lists sharing it; -1 for an owner with no row. The lists of one length
    are compared as one flat row each; when all lists have one length, that
    is a view of `rows`."""
    first = np.cumsum(size) - size
    ids = np.full(len(size), -1, dtype=np.int64)
    for k in np.unique(size[size > 0]).tolist():
        who = np.flatnonzero(size == k)
        flat = (rows if len(who) * k == len(rows) else
                rows[first[who, None] + np.arange(k)]).reshape(len(who), -1)
        ids[who] = ids.max() + 1 + _row_ids(flat)
    return ids


def _canonical_sides(owner: np.ndarray, sp: np.ndarray, cnt: np.ndarray,
                     n: int):
    """Sides 0..n-1 given as (side, species, count) terms: the `size`,
    `species` and `count` arrays of the distinct canonical sides, numbered
    by first appearance, and the canonical id of each side. The counts of
    one species in one side are summed."""
    owner, sp, cnt = _block_sums(owner, sp, cnt)
    size = np.bincount(owner, minlength=n)
    ids = _list_ids(size, np.column_stack((sp, cnt)))
    _, first, inverse = np.unique(ids, return_index=True, return_inverse=True)
    is_first = np.zeros(n, dtype=bool)
    is_first[first] = True
    entry = np.repeat(is_first, size)
    rank = np.cumsum(is_first) - 1
    return size[is_first], sp[entry], cnt[entry], rank[first][inverse]


_FSUM_CHUNK = 4096  # terms turned into Python floats at a time


def group_sums(key: np.ndarray, hi: np.ndarray,
               lo: Optional[np.ndarray] = None):
    """For terms sorted by `key`: the position of each key's first term and
    the correctly rounded sum of the key's terms hi (+ lo, when given). A
    single term's sum is its `hi` (for an exact product split, the rounded
    product); a longer group's is one `math.fsum` over all its hi (and lo)
    parts, inf if that overflows."""
    start = np.flatnonzero(_run_starts(key))
    sums = hi[start]
    size = np.diff(np.r_[start, len(key)])
    multi = np.flatnonzero(size > 1)
    parts = 1 if lo is None else 2
    base, flat = 0, []
    for g, s, k in zip(multi.tolist(), start[multi].tolist(),
                       size[multi].tolist()):
        if parts * (s + k - base) > len(flat):
            base = s
            end = s + max(k, _FSUM_CHUNK)
            flat = (hi[s:end] if lo is None else np.column_stack(
                [hi[s:end], lo[s:end]]).ravel()).tolist()
        try:
            sums[g] = math.fsum(flat[parts * (s - base):
                                     parts * (s + k - base)])
        except OverflowError:  # the terms are non-negative
            sums[g] = math.inf
    return start, sums
