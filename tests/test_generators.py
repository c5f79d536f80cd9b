import hashlib
import math

import pytest

import crnlump as cl
from crnlump.generators import (DEFAULT_ASSOCIATION, DEFAULT_DISSOCIATION,
                                MAX_SITES, SirParams, multisite_binding_model,
                                sir_network_model, sir_star_model)
from crnlump.model import Partition, RateInterval
from crnlump.parser import parse_edge_list

from conftest import jittered_edge_list, table_is_canonical

PARAMS = SirParams(beta=0.4, gamma=0.25, eta=0.1,
                   vaccination=RateInterval(0.0, 1.0))

SEEDED_EDGES = jittered_edge_list(7, 60, 360)
# a self-loop edge `b b`, an edge `a b` given twice and a self-loop `a a`
LOOP_EDGES = "a b 0.5\nb b 0.75\na b 0.5\nc a 1.25\na a 2.0\n"

CASES = {
    "ms1": lambda: multisite_binding_model(1),
    "ms2": lambda: multisite_binding_model(2),
    "ms5": lambda: multisite_binding_model(5),
    "ms8": lambda: multisite_binding_model(8),
    "ms3-rates": lambda: multisite_binding_model(
        3, RateInterval(1.5, 2.5), RateInterval(0.0, 0.3)),
    "star2": lambda: sir_star_model(2, PARAMS),
    "star3": lambda: sir_star_model(3, PARAMS),
    "star40": lambda: sir_star_model(40, PARAMS),
    "sirnet60": lambda: sir_network_model(parse_edge_list(SEEDED_EDGES),
                                          PARAMS),
    "sirnet60-hw": lambda: sir_network_model(parse_edge_list(SEEDED_EDGES),
                                             PARAMS, 0.01),
    "sirnet60-undirected": lambda: sir_network_model(
        parse_edge_list(SEEDED_EDGES, undirected=True), PARAMS),
    "sirnet-loops": lambda: sir_network_model(parse_edge_list(LOOP_EDGES),
                                              PARAMS),
}


class TestGeneratedTables:
    """sha256 of the serialized generator output: any change in those bytes
    shows here."""

    @pytest.mark.parametrize("case,sha", [
        ("ms1", "20e49b4d0988eddf9a34a9078e9cf683d1c1cc6f768ce83325ffad23c1b89be8"),
        ("ms2", "ec34fcf11745ef7dd1b2aa732cea3bad0b5ff379a27906157e246b981831c027"),
        ("ms5", "6ee750b4f771b3095e3755e078fcaeeaed7b7dd226ce9064c2d320a13cd323f6"),
        ("ms8", "4475116b47c9f34cbbf3796847cf0714ce0918a2235073d0b06b9f128d2e4169"),
        ("ms3-rates",
         "fd075df3eca93189f8ea4b1e6e97a05fde48a537b350a3f8c2c2a00eb5da3807"),
        ("star2", "8b2b9f274df1163381fd3f6ce17449e63dbfd904e560b303f07f52417e852acb"),
        ("star3", "b4b43adfa6f54dfd06bed61a683295e13737066fa09e79c2239b7c08a9ceda31"),
        ("star40",
         "c1e5d1cff9dae5fcda57bb3431da4b0f477d0c12676cd93e98702e5d3a54d7ea"),
        ("sirnet60",
         "089a7f51c7ad7f09a58ba50771ee8f55f30a237607da78422da871e5229d2047"),
        ("sirnet60-hw",
         "fea052d8315992d9a65551f62cb9f5f7b743ba5ec6d580cbfc00c5c63c50e100"),
        ("sirnet60-undirected",
         "daa20d2191506ed979eac7f62c6cc7295842b7179fad8dbed1d505fb28e8b520"),
        ("sirnet-loops",
         "b22fd3a6853e2559a515b8381739b54675d1e90bd33d7791cad7afcb846c9096"),
    ])
    def test_serialized_digest(self, case, sha):
        text = cl.serialize_model(CASES[case]())
        assert hashlib.sha256(text.encode()).hexdigest() == sha

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_canonical_table_and_no_reaction_objects(self, case):
        net = CASES[case]().network
        assert table_is_canonical(net.table)
        assert net._reactions is None


def reaction_set(net):
    return {(r.reactant.format(net.names), r.product.format(net.names),
             r.rate.lo, r.rate.hi) for r in net.reactions}


class TestSirStar:
    def test_two_locations(self):
        doc = sir_star_model(2, PARAMS)
        net = doc.network
        assert net.n_species == 8
        infections = {(r.reactant.format(net.names), r.product.format(net.names))
                      for r in net.reactions if r.reactant.total == 2}
        # multiset rendering orders by species index: I1 precedes S2
        assert infections == {("S1 + I2", "I1 + I2"), ("I1 + S2", "I1 + I2")}

    def test_sizes_scale(self):
        doc = sir_star_model(5000, PARAMS)
        assert doc.network.n_species == 20000

    def test_bundled_partition(self):
        doc = sir_star_model(3, PARAMS)
        net = doc.network
        part = doc.initial_partition
        assert part.n_blocks == 5
        names = [sorted(net.names[i] for i in b) for b in part.blocks]
        assert ["S1"] in names and ["I1"] in names and ["R1"] in names
        assert sorted(["V1", "V2", "V3"]) in names

    def test_reduces_to_seven_blocks(self):
        for n in (2, 3, 17):
            doc = sir_star_model(n, PARAMS)
            part = cl.coarsest_equivalence(doc.network, doc.initial_partition)
            assert part.n_blocks == 7

    def test_too_small(self):
        with pytest.raises(ValueError):
            sir_star_model(1, PARAMS)


class TestSirNetwork:
    def test_two_node_graph(self):
        g = parse_edge_list("1 2 0.5\n2 1 0.5\n")
        doc = sir_network_model(g, PARAMS)
        net = doc.network
        infections = {(r.reactant.format(net.names), r.product.format(net.names),
                       r.rate.lo)
                      for r in net.reactions if r.reactant.total == 2}
        assert infections == {("I1 + S2", "I1 + I2", 0.5),
                              ("S1 + I2", "I1 + I2", 0.5)}

    def test_uncertainty_halfwidth(self):
        g = parse_edge_list("1 2 1.0\n")
        doc = sir_network_model(g, PARAMS, uncertainty_halfwidth=0.05)
        infection = [r for r in doc.network.reactions if r.reactant.total == 2][0]
        assert infection.rate == RateInterval(0.95, 1.05)

    def test_negative_endpoint_rejected(self):
        g = parse_edge_list("1 2 0.5\n1 2 0.01\n")
        with pytest.raises(ValueError, match=r"makes interval endpoint "
                                             r"negative \(-0\.04"):
            sir_network_model(g, PARAMS, uncertainty_halfwidth=0.05)

    @pytest.mark.parametrize("halfwidth", [-0.1, math.nan, math.inf])
    def test_bad_halfwidth_rejected_by_name(self, halfwidth):
        g = parse_edge_list("1 2 0.5\n")
        with pytest.raises(ValueError, match="^uncertainty_halfwidth must be "
                                             "finite and nonnegative"):
            sir_network_model(g, PARAMS, uncertainty_halfwidth=halfwidth)

    @pytest.mark.parametrize("edge", [(0, 2, 1.0), (-1, 0, 1.0)])
    def test_edge_outside_the_nodes_rejected(self, edge):
        g = cl.EdgeListGraph(["a", "b"], [(0, 1, 0.5), edge])
        with pytest.raises(ValueError, match=r"outside 0\.\.1"):
            sir_network_model(g, PARAMS)

    def test_self_loop_infection_is_canonical(self):
        text = cl.serialize_model(sir_network_model(
            parse_edge_list("a a 2.0\n"), PARAMS))
        assert "S1 + I1 -> 2 I1 , 2.0\n" in text

    def test_type_grouped_partition(self):
        g = parse_edge_list("1 2 1.0\n", undirected=True)
        doc = sir_network_model(g, PARAMS)
        assert doc.initial_partition.n_blocks == 4

    def test_neighborhood_homogeneous_graph_reduces_to_type_blocks(self):
        # complete graph with self-loops: every susceptible sees the same
        # infected-partner profile, so the type-grouped partition is already
        # an equivalence
        n = 6
        lines = [f"{i} {j} 1.0" for i in range(1, n + 1) for j in range(1, n + 1)]
        g = parse_edge_list("\n".join(lines))
        doc = sir_network_model(g, PARAMS)
        part = cl.coarsest_equivalence(doc.network, doc.initial_partition)
        assert part.n_blocks == 4

    def test_cycle_does_not_lump_by_type(self):
        # vertex transitivity alone is not enough: on a unit-weight ring the
        # state S1 + I1 (non-neighbors) has no infection outflow while
        # S1 + I2 does, so the lifted type partition is not lumpable; the
        # species criterion agrees
        n = 6
        lines = [f"{i} {(i % n) + 1} 1.0" for i in range(1, n + 1)]
        g = parse_edge_list("\n".join(lines), undirected=True)
        doc = sir_network_model(g, PARAMS)
        assert not cl.check_equivalence(doc.network, doc.initial_partition)
        ball = cl.enumerate_ball(doc.network, 2)
        gen = cl.build_generator(ball, doc.network, "upper")
        assert not cl.check_ordinary_lumpability(gen, ball,
                                                 doc.initial_partition).ok

    def test_star_leaves_lump_and_jitter_breaks_it(self):
        lines = [f"1 {i} 1.0" for i in range(2, 11)]
        g = parse_edge_list("\n".join(lines), undirected=True)
        doc = sir_network_model(g, PARAMS)
        part = cl.coarsest_equivalence(doc.network, doc.initial_partition)
        assert part.n_blocks == 7  # center S/I/R, leaf S/I/R, all V
        jitter = [f"1 {i} {1.0 + 0.01 * i}" for i in range(2, 11)]
        g2 = parse_edge_list("\n".join(jitter), undirected=True)
        doc2 = sir_network_model(g2, PARAMS)
        part2 = cl.coarsest_equivalence(doc2.network, doc2.initial_partition)
        srs = 3 * g2.n_nodes
        blocks_srs = sum(1 for b in part2.blocks
                         if not doc2.network.names[b[0]].startswith("V"))
        assert blocks_srs == srs  # no reduction left outside the V tracker


class TestMultisite:
    def test_matches_two_site_structure(self):
        doc = multisite_binding_model(2)
        net = doc.network
        assert set(net.names) == {"B", "A00", "A01", "A10", "A11"}
        a, d = DEFAULT_ASSOCIATION, DEFAULT_DISSOCIATION
        expected = {
            ("B + A00", "A10", a.lo, a.hi), ("A10", "B + A00", d.lo, d.hi),
            ("B + A00", "A01", a.lo, a.hi), ("A01", "B + A00", d.lo, d.hi),
            ("B + A10", "A11", a.lo, a.hi), ("A11", "B + A10", d.lo, d.hi),
            ("B + A01", "A11", a.lo, a.hi), ("A11", "B + A01", d.lo, d.hi),
        }
        assert reaction_set(net) == expected
        assert doc.initial_partition == Partition.one_block(5)

    def test_counts(self):
        for n in (1, 3, 9):
            doc = multisite_binding_model(n)
            assert doc.network.n_species == 2 ** n + 1
            assert doc.network.n_reactions == 2 * n * 2 ** (n - 1)
        assert multisite_binding_model(9).network.n_species == 513

    def test_reduction_to_occupancy_chain(self):
        n = 5
        doc = multisite_binding_model(n)
        net = doc.network
        part = cl.coarsest_equivalence(net, doc.initial_partition)
        assert part.n_blocks == n + 2
        lumped, _ = cl.quotient(net, part)
        assert lumped.n_species == n + 2
        assert lumped.n_reactions == 2 * n
        a, d = DEFAULT_ASSOCIATION, DEFAULT_DISSOCIATION
        # association step k -> k+1 fuses the representative's free sites
        up = {}
        down = {}
        for r in lumped.reactions:
            reactant_names = [lumped.names[i] for i, _ in r.reactant]
            if "B" in reactant_names:
                src = next(nm for nm in reactant_names if nm != "B")
                up[src.count("1")] = r.rate
            else:
                src = reactant_names[0]
                down[src.count("1")] = r.rate
        for k in range(n):
            free = n - k
            assert up[k] == RateInterval(free * a.lo, free * a.hi)
        for k in range(1, n + 1):
            assert down[k] == RateInterval(k * d.lo, k * d.hi)

    def test_site_cap(self):
        with pytest.raises(ValueError, match=f"n = {MAX_SITES + 1} exceeds "
                                             f"the configured cap of "
                                             f"{MAX_SITES} sites"):
            multisite_binding_model(MAX_SITES + 1)
        with pytest.raises(ValueError):
            multisite_binding_model(0)


class TestSirParams:
    def test_nonnegative(self):
        with pytest.raises(ValueError):
            SirParams(-0.1, 0.2, 0.3)

    @pytest.mark.parametrize("name", ["beta", "gamma", "eta"])
    @pytest.mark.parametrize("value", [-0.1, math.nan, math.inf])
    def test_rejected_by_name(self, name, value):
        rates = {"beta": 0.4, "gamma": 0.25, "eta": 0.1, name: value}
        with pytest.raises(ValueError, match=f"^{name} must be finite and "
                                             f"nonnegative, got {value}"):
            SirParams(**rates)

    def test_network_model_rejects_nan_beta(self):
        # the network form does not use beta, but still rejects a nan
        with pytest.raises(ValueError, match="^beta must be finite"):
            sir_network_model(parse_edge_list("1 2 0.5\n"),
                              SirParams(math.nan, 0.25, 0.1))
