"""Programmatic construction of the bundled model families: SIR with
vaccination over a star topology or an arbitrary weighted network, and
multisite reversible binding of a ligand to a substrate. Each family fills
its reaction table with array arithmetic."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import Partition, RateInterval, ReactionNetwork, ReactionTable
from .parser import EdgeListGraph, ModelDocument

MAX_SITES = 20  # n = 20: 2**20 + 1 species and 20 * 2**20 reactions
DEFAULT_ASSOCIATION = RateInterval(9.95, 10.05)
DEFAULT_DISSOCIATION = RateInterval(0.05, 0.15)
DEFAULT_VACCINATION = RateInterval(0.0, 1.0)


def _check_rate(name: str, value: float):
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"{name} must be finite and nonnegative, got {value}")


@dataclass(frozen=True)
class SirParams:
    """SIR-with-vaccination kinetics: infection scaling beta (used by the
    adjacency form), recovery gamma, immunity-loss eta, and the vaccination
    rate interval."""

    beta: float
    gamma: float
    eta: float
    vaccination: RateInterval = DEFAULT_VACCINATION

    def __post_init__(self):
        for name in ("beta", "gamma", "eta"):
            _check_rate(name, getattr(self, name))


def _network(names, rows: np.ndarray, bounds: np.ndarray) -> ReactionNetwork:
    """The network of the reactions a + b -> c + d at rates [lo, hi], one
    per row (a, b, c, d) of species indices and row (lo, hi) of `bounds`,
    where -1 stands for no species and a species given twice counts twice.
    The distinct sides are numbered in sorted order of their (smaller,
    larger) index pairs."""
    base = len(names) + 1
    pairs = np.sort(np.concatenate((rows[:, :2], rows[:, 2:])), axis=1) + 1
    keys, ids = np.unique(pairs[:, 0] * base + pairs[:, 1],
                          return_inverse=True)
    sides = np.column_stack((keys // base, keys % base)) - 1
    twice = sides[:, 0] == sides[:, 1]
    # which of a side's (smaller, larger) slots are entries, and their counts
    entry = np.column_stack(((sides[:, 0] >= 0) & ~twice, sides[:, 1] >= 0))
    count = np.column_stack((np.ones(len(keys), dtype=np.int64), 1 + twice))
    return ReactionNetwork(names, ReactionTable(
        entry.sum(axis=1), sides[entry], count[entry], ids[:len(rows)],
        ids[len(rows):], bounds[:, 0], bounds[:, 1]))


def _sir_network(n: int, p: SirParams, src: np.ndarray, dst: np.ndarray,
                 bounds: np.ndarray) -> ReactionNetwork:
    """SIR with vaccination over `n` locations: per location vaccination
    S -> R + V, then per edge the infection S_dst + I_src -> I_dst + I_src
    at the edge's row of `bounds`, then per location recovery I -> R, then
    per location immunity loss R -> S. Location i's species S, I, R and V
    have indices 4i to 4i + 3."""
    names = [f"{kind}{i}" for i in range(1, n + 1) for kind in "SIRV"]
    s, none = 4 * np.arange(n), np.full(n, -1)
    rows = np.concatenate((
        np.column_stack((s, none, s + 2, s + 3)),
        np.column_stack((4 * dst, 4 * src + 1, 4 * dst + 1, 4 * src + 1)),
        np.column_stack((s + 1, none, s + 2, none)),
        np.column_stack((s + 2, none, s, none))))
    return _network(names, rows, np.concatenate((
        np.full((n, 2), (p.vaccination.lo, p.vaccination.hi)), bounds,
        np.full((n, 2), p.gamma), np.full((n, 2), p.eta))))


def sir_star_model(n: int, p: SirParams) -> ModelDocument:
    """SIR with vaccination over a star with `n` locations: infections occur
    only between the center (location 1) and the leaves, at rate beta.

    Species per location i: S_i, I_i, R_i and the vaccination tracker V_i.
    The bundled initial partition is {S1}, {I1}, {R1}, {V1..Vn}, {rest}.
    """
    if n < 2:
        raise ValueError("a star needs at least 2 locations")
    # the edges leaf j -> center, then center -> leaf j, for each leaf j
    leaf, center = np.arange(1, n), np.zeros(n - 1, dtype=np.int64)
    net = _sir_network(n, p, np.column_stack((leaf, center)).ravel(),
                       np.column_stack((center, leaf)).ravel(),
                       np.full((2 * n - 2, 2), p.beta))
    rest = [4 * i + k for i in range(1, n) for k in range(3)]
    blocks = [(0,), (1,), (2,), range(3, 4 * n, 4), rest]
    return ModelDocument(net, Partition(blocks, net.n_species))


def sir_network_model(graph: EdgeListGraph, p: SirParams,
                      uncertainty_halfwidth: Optional[float] = None
                      ) -> ModelDocument:
    """SIR with vaccination over a weighted directed graph: each edge i -> j
    with weight w adds an infection S_j + I_i -> I_j + I_i at rate w, or at
    the interval [w - hw, w + hw] when an uncertainty halfwidth is given.
    Locations are numbered by node order; the bundled initial partition
    groups species by type across all locations."""
    n = graph.n_nodes
    if n < 1:
        raise ValueError("graph has no nodes")
    edges = np.array(graph.edges, dtype=float).reshape(-1, 3)
    if np.any((edges[:, :2] < 0) | (edges[:, :2] >= n)):
        raise ValueError(f"graph has an edge to a node outside 0..{n - 1}")
    bounds = edges[:, [2, 2]]
    if uncertainty_halfwidth is not None:
        _check_rate("uncertainty_halfwidth", uncertainty_halfwidth)
        bounds += (-uncertainty_halfwidth, uncertainty_halfwidth)
        bad = np.flatnonzero(bounds[:, 0] < 0)
        if len(bad):
            raise ValueError("uncertainty halfwidth makes interval endpoint "
                             f"negative ({float(bounds[bad[0], 0])})")
    src, dst = edges[:, :2].T.astype(np.int64)
    net = _sir_network(n, p, src, dst, bounds)
    blocks = [range(k, 4 * n, 4) for k in range(4)]
    return ModelDocument(net, Partition(blocks, net.n_species))


def multisite_binding_model(n: int,
                            assoc: RateInterval = DEFAULT_ASSOCIATION,
                            dissoc: RateInterval = DEFAULT_DISSOCIATION
                            ) -> ModelDocument:
    """Reversible binding of ligand B to a substrate with `n` sites.

    Species: B plus one A<bits> per site-occupancy pattern (2^n + 1 in
    total). Every free site can bind one B and every occupied site can
    release it, giving n * 2^(n-1) reactions in each direction. The bundled
    initial partition is the single all-species block.
    """
    if n < 1:
        raise ValueError("at least one binding site required")
    if n > MAX_SITES:
        raise ValueError(f"n = {n} exceeds the configured cap of {MAX_SITES} sites")
    # pattern p is the species A<bits of p>, index p + 1; site i (the i-th
    # bit from the left) is bit n - 1 - i of p
    names = ["B"] + [f"A{p:0{n}b}" for p in range(2 ** n)]
    pattern = np.repeat(np.arange(2 ** n), n)
    site = np.tile(1 << np.arange(n - 1, -1, -1), 2 ** n)
    free = (pattern & site) == 0
    # binding A<p> + B -> A<p | site> at each free site, then unbinding
    # A<p> -> A<p & ~site> + B at each occupied one: both flip the site's bit
    a, flipped = pattern + 1, (pattern ^ site) + 1
    B, none = np.zeros(len(a) // 2, dtype=np.int64), np.full(len(a) // 2, -1)
    rows = np.concatenate((
        np.column_stack((a[free], B, flipped[free], none)),
        np.column_stack((a[~free], none, flipped[~free], B))))
    net = _network(names, rows, np.repeat(
        [[assoc.lo, assoc.hi], [dissoc.lo, dissoc.hi]], len(B), axis=0))
    return ModelDocument(net, Partition.one_block(net.n_species))
