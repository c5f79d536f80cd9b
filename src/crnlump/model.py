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

import itertools
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
    `initial_concentration` cannot be rebound. `proved` is the partition
    that lumping last proved an equivalence of this network, or None.
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

    __slots__ = ("n", "blocks", "block_of")

    def __init__(self, blocks: Iterable[Iterable[int]], n: int):
        blks = sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0] if b else -1)
        seen = [False] * n
        for b in blks:
            if not b:
                raise StructuralError("empty partition block")
            for i in b:
                if not (0 <= i < n):
                    raise StructuralError(f"species index {i} outside universe of size {n}")
                if seen[i]:
                    raise StructuralError(f"species index {i} in two blocks")
                seen[i] = True
        if not all(seen):
            missing = [i for i, s in enumerate(seen) if not s]
            raise StructuralError(f"partition does not cover species {missing}")
        self.n = n
        self.blocks: Tuple[Tuple[int, ...], ...] = tuple(blks)
        bo = [0] * n
        for bid, b in enumerate(self.blocks):
            for i in b:
                bo[i] = bid
        self.block_of: Tuple[int, ...] = tuple(bo)

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

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Partition) and self.n == other.n
                and self.blocks == other.blocks)

    def __hash__(self) -> int:
        return hash((self.n, self.blocks))

    def __repr__(self) -> str:
        return f"Partition({self.n_blocks} blocks over {self.n} species)"


def project_key(entries: Tuple[Tuple[int, int], ...],
                block_of: Sequence[int]) -> Tuple[Tuple[int, int], ...]:
    """Per-block cumulative counts of a multiset's canonical `entries`, as
    sorted (block id, count) pairs: the computable fingerprint of the
    multiset lifting. Two multisets are lifted-equivalent exactly when their
    keys are equal."""
    acc: Dict[int, int] = {}
    for i, c in entries:
        b = block_of[i]
        acc[b] = acc.get(b, 0) + c
    return tuple(sorted(acc.items()))


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


def flat_sides(sides) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The `size`, `species` and `count` arrays of a `ReactionTable` whose
    sides are the given canonical entry tuples, in order."""
    size = np.fromiter(map(len, sides), np.int64, len(sides))
    n = int(size.sum())
    chain = itertools.chain.from_iterable
    sp, cnt = np.fromiter(chain(chain(sides)), np.int64,
                          2 * n).reshape(n, 2).T
    return size, sp, cnt


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


def compile_network(net: ReactionNetwork) -> CompiledNetwork:
    """Build `net`'s CompiledNetwork from its reaction table;
    `ReactionNetwork.compiled` caches it."""
    t = net.table
    R, S = net.n_reactions, net.n_species
    size, species, count = t.size, t.species, t.count
    start = np.cumsum(size) - size

    def gather(side):
        """(reaction, slot, species, count) of every entry of the sides
        `side[r]` of the reactions r."""
        k = size[side]
        reaction = np.repeat(np.arange(R), k)
        slot = np.arange(len(reaction)) - np.repeat(np.cumsum(k) - k, k)
        at = start[side][reaction] + slot
        return reaction, slot, species[at], count[at]

    rin, slot, sin, cin = gather(t.lhs)
    rout, _, sout, cout = gather(t.rhs)
    K = int(slot.max(initial=-1)) + 1
    idx = np.full((K, R), S, dtype=np.intp)
    exp, fact = np.zeros((K, R)), np.ones((K, R))
    idx[slot, rin], exp[slot, rin] = sin, cin
    counts, at = np.unique(cin, return_inverse=True)
    fact[slot, rin] = np.array([float(math.factorial(c))
                                for c in counts.tolist()])[at]
    # net change per (reaction, species) key, summed over both sides
    keys, at = np.unique(np.r_[rin, rout] * max(S, 1) + np.r_[sin, sout],
                         return_inverse=True)
    change = np.bincount(at, np.r_[-cin, cout], len(keys))
    rx, sp = np.divmod(keys[change != 0], max(S, 1))
    arrays = CompiledNetwork(idx, exp, fact.prod(axis=0), rx, sp,
                             change[change != 0],
                             np.searchsorted(rx, np.arange(R + 1)), t.lo, t.hi)
    for a in arrays:
        a.setflags(write=False)
    return arrays


def row_keys(rows: np.ndarray) -> np.ndarray:
    """One opaque fixed-width key per row (the row's bytes), so rows sort,
    deduplicate and search as scalars, with no bound on the values."""
    c = np.ascontiguousarray(rows, dtype=np.int64)
    if c.shape[1] == 0:
        c = np.zeros((len(c), 1), dtype=np.int64)
    return c.view(np.dtype((np.void, 8 * c.shape[1]))).ravel()


_FSUM_CHUNK = 4096  # terms turned into Python floats at a time


def group_sums(key: np.ndarray, hi: np.ndarray, lo: np.ndarray):
    """For terms sorted by `key`: the position of each key's first term and
    the correctly rounded sum of the key's terms hi + lo. A single term's
    sum is its `hi` (for an exact product split, the rounded product); a
    longer group's is one `math.fsum` over all its hi and lo parts, inf if
    that overflows."""
    start = np.flatnonzero(np.r_[True, key[1:] != key[:-1]][:len(key)])
    sums = hi[start]
    size = np.diff(np.r_[start, len(key)])
    multi = np.flatnonzero(size > 1)
    base, flat = 0, []
    for g, s, k in zip(multi.tolist(), start[multi].tolist(),
                       size[multi].tolist()):
        if 2 * (s + k - base) > len(flat):
            base = s
            end = s + max(k, _FSUM_CHUNK)
            flat = np.column_stack([hi[s:end], lo[s:end]]).ravel().tolist()
        try:
            sums[g] = math.fsum(flat[2 * (s - base):2 * (s + k - base)])
        except OverflowError:  # the terms are non-negative
            sums[g] = math.inf
    return start, sums
