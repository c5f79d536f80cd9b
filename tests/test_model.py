import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crnlump as cl
from crnlump import cli, model
from crnlump.model import (CompiledNetwork, Multiset, Partition, RateInterval,
                           Reaction, ReactionNetwork, ReactionTable,
                           StructuralError, falling_binomial, flat_sides,
                           project_key)

from conftest import (TWO_SITE_TEXT, contains, from_reactions,
                      loop_compile_network, refines, table_is_canonical,
                      table_sides, varied_network)


def ms(*pairs):
    return Multiset(pairs)


class TestMultiset:
    def test_canonical_and_hashable(self):
        a = ms((3, 1), (1, 2))
        b = Multiset([(1, 1), (3, 1), (1, 1)])
        assert a == b and hash(a) == hash(b)
        assert a.entries == ((1, 2), (3, 1))

    def test_zero_counts_dropped(self):
        assert Multiset([(2, 0)]) == Multiset()
        assert len(Multiset([(2, 0), (1, 1)])) == 1

    def test_total_and_count(self):
        a = ms((0, 2), (4, 3))
        assert a.total == 5
        assert a.count(4) == 3 and a.count(1) == 0

    def test_add_subtract_contains(self):
        a = ms((0, 1), (1, 1))
        b = ms((1, 1))
        assert a.add(b) == ms((0, 1), (1, 2))
        assert a.subtract(b) == ms((0, 1))
        assert contains(a, b) and not contains(b, a)
        with pytest.raises(ValueError):
            b.subtract(a)

    def test_lexicographic_order(self):
        # multisets sort by their canonical entries
        assert ms((0, 1)).entries < ms((0, 2)).entries
        assert ms((0, 1)).entries < ms((1, 1)).entries
        assert sorted([ms((1, 1)), ms((0, 2)), ms((0, 1))],
                      key=lambda m: m.entries) \
            == [ms((0, 1)), ms((0, 2)), ms((1, 1))]

    def test_format(self):
        names = ("B", "A")
        assert ms((0, 1), (1, 2)).format(names) == "B + 2 A"
        assert Multiset().format(names) == "0"


class TestRateInterval:
    @pytest.mark.parametrize("lo,hi", [
        (-1.0, 1.0), (2.0, 1.0), (1.0, float("inf")),
        (float("inf"), float("inf")), (float("nan"), 1.0), (0.0, float("nan")),
    ])
    def test_invalid_rejected(self, lo, hi):
        with pytest.raises(ValueError):
            RateInterval(lo, hi)


class TestPartition:
    def test_canonical_block_order(self):
        p = Partition([[4], [1, 3], [0, 2]], 5)
        assert p.blocks == ((0, 2), (1, 3), (4,))
        assert p.block_of == (0, 1, 0, 1, 2)
        assert p.representatives == (0, 1, 4)

    def test_validation(self):
        with pytest.raises(StructuralError):
            Partition([[0, 1]], 3)  # not covering
        with pytest.raises(StructuralError):
            Partition([[0, 1], [1, 2]], 3)  # overlap
        with pytest.raises(StructuralError):
            Partition([[0], [], [1]], 2)  # empty block
        with pytest.raises(StructuralError):
            Partition([[0, 5]], 2)  # out of range


class TestBlockProjection:
    # universe: B=0, A00=1, A01=2, A10=3, A11=4
    PART = Partition([[0], [1], [2, 3], [4]], 5)

    def key(self, sigma):
        return project_key(sigma.entries, self.PART.block_of)

    def test_pair_matches_double(self):
        one_each = ms((2, 1), (3, 1))  # A01 + A10
        double = ms((2, 2))            # 2 A01
        assert self.key(one_each) == ((2, 2),)
        assert self.key(one_each) == self.key(double)

    def test_empty(self):
        assert self.key(Multiset()) == ()

    def test_distinct_classes(self):
        mixed = ms((1, 1), (3, 1))  # A00 + A10
        assert self.key(mixed) == ((1, 1), (2, 1))
        assert self.key(mixed) != self.key(ms((2, 2)))


class TestFallingBinomial:
    def test_triple_choose_double(self):
        assert falling_binomial(ms((0, 3)), ms((0, 2))) == 3

    def test_product_of_singles(self):
        sigma = ms((2, 1), (3, 1), (0, 1))  # A01 + A10 + B
        rho = ms((2, 1), (0, 1))            # A01 + B
        assert falling_binomial(sigma, rho) == 1

    def test_insufficient_copies(self):
        assert falling_binomial(ms((0, 1)), ms((0, 2))) == 0

    def test_empty_reactant_always_one(self):
        assert falling_binomial(ms((0, 2)), Multiset()) == 1


class TestRefines:
    def test_singletons_refine_everything(self):
        fine = Partition.singletons(5)
        coarse = Partition([[0, 2, 4], [1, 3]], 5)
        assert refines(fine, coarse)

    def test_straddling_blocks(self):
        # {A00, A01} straddles {A00} and {A01, A10}
        fine = Partition([[1, 2], [3, 4], [0]], 5)
        coarse = Partition([[1], [2, 3], [4], [0]], 5)
        assert not refines(fine, coarse)

    def test_reflexive(self):
        p = Partition([[0, 1], [2]], 3)
        assert refines(p, p)

    def test_universe_mismatch(self):
        with pytest.raises(StructuralError):
            refines(Partition.singletons(3), Partition.singletons(4))


@st.composite
def partitions(draw, n):
    labels = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    blocks = {}
    for i, lab in enumerate(labels):
        blocks.setdefault(lab, []).append(i)
    return Partition(blocks.values(), n)


@settings(max_examples=60)
@given(st.integers(2, 8).flatmap(lambda n: st.tuples(
    st.just(n), partitions(n), partitions(n), partitions(n))))
def test_refines_is_a_partial_order(data):
    n, p, q, r = data
    assert refines(p, p)
    if refines(p, q) and refines(q, p):
        assert p == q
    if refines(p, q) and refines(q, r):
        assert refines(p, r)


@st.composite
def multisets(draw, n):
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(1, 3)),
                          max_size=5))
    return Multiset(pairs)


@settings(max_examples=80)
@given(st.integers(2, 6).flatmap(lambda n: st.tuples(
    st.just(n), multisets(n), multisets(n))))
def test_falling_binomial_zero_iff_not_contained(data):
    n, sigma, rho = data
    assert (falling_binomial(sigma, rho) == 0) == (not contains(sigma, rho))


@settings(max_examples=80)
@given(st.integers(2, 6).flatmap(lambda n: st.tuples(
    st.just(n), partitions(n), multisets(n), multisets(n))))
def test_projection_separates_exactly_the_lifted_classes(data):
    n, part, a, b = data
    same_proj = (project_key(a.entries, part.block_of)
                 == project_key(b.entries, part.block_of))
    per_block_equal = all(
        sum(a.count(i) for i in blk) == sum(b.count(i) for i in blk)
        for blk in part.blocks)
    assert same_proj == per_block_equal


class TestCompiledNetwork:
    def test_layout_of_a_small_network(self):
        net = cl.parse_model("species A B C D\n"
                             "2 A + B -> C , [1 : 2]\n"
                             "C -> C , 3\n"
                             "0 -> A , 0.5\n"
                             "A + C -> 2 C + B , [0.25 : 4]\n").network
        c = net.compiled
        # padding slots point at species 4 (one past D) with count 0
        assert c.idx.tolist() == [[0, 2, 4, 0], [1, 4, 4, 2]]
        assert c.exp.tolist() == [[2, 1, 0, 1], [1, 0, 0, 1]]
        assert c.fact.tolist() == [2, 1, 1, 1]
        # the no-op `C -> C` owns no triple; D is in no reaction
        assert list(zip(c.rx.tolist(), c.sp.tolist(), c.dn.tolist())) == [
            (0, 0, -2), (0, 1, -1), (0, 2, 1), (2, 0, 1),
            (3, 0, -1), (3, 1, 1), (3, 2, 1)]
        assert c.offsets.tolist() == [0, 3, 3, 4, 7]
        assert c.lo.tolist() == [1, 3, 0.5, 0.25]
        assert c.hi.tolist() == [2, 3, 0.5, 4]

    def test_arrays_are_read_only(self, two_site):
        for name, array in two_site.compiled._asdict().items():
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0

    def test_built_once_per_network(self, monkeypatch, two_site_doc):
        built = Counter()
        compile_network = model.compile_network

        def counting(net):
            built[id(net)] += 1
            return compile_network(net)

        monkeypatch.setattr(model, "compile_network", counting)
        net, part = two_site_doc.network, two_site_doc.initial_partition
        lumped, _ = cl.quotient(net, part)
        sched = cl.ControlSchedule.midpoint(net)
        init = net.multiset({"A00": 2, "B": 2})
        for _ in range(2):
            cl.coarsest_equivalence(net, part)
            cl.check_equivalence(net, part)
            cl.VectorField(net)
            traj = cl.simulate(net, np.full(5, 0.5), sched, 0.01, 0.005)
            cl.project_control(net, part, lumped, traj, sched)
            space = cl.enumerate_states(net, init, 4)
            cl.build_generator(space, net, "lower")
            cl.build_generator(space, net, "upper")
            cl.ssa_simulate(net, init, sched.values[0], 0.5, seed=1)
        assert built == {id(net): 1, id(lumped): 1}

    def test_arrays_match_the_object_walking_oracle(self):
        rng = random.Random(23)
        sir = cl.SirParams(0.4, 0.25, 0.1)
        graph = cl.parse_edge_list("0 1 0.5\n1 2 1.5\n2 0 0.25\n0 2 1.0\n")
        loops = cl.parse_edge_list("a b 0.5\nb b 0.75\na b 0.5\na a 2.0\n",
                                   undirected=True)
        nets = [varied_network(rng) for _ in range(250)] + [
            cl.parse_model(TWO_SITE_TEXT).network,
            cl.multisite_binding_model(1).network,
            cl.multisite_binding_model(4).network,
            cl.multisite_binding_model(3, cl.RateInterval(0.0, 2.5),
                                       cl.RateInterval(0.5, 0.5)).network,
            cl.sir_star_model(2, sir).network,
            cl.sir_star_model(6, sir).network,
            cl.sir_network_model(graph, sir).network,
            cl.sir_network_model(graph, sir, 0.25).network,
            cl.sir_network_model(loops, sir).network]
        # the same networks with the tables the parser builds from text
        nets += [cl.parse_model(cl.serialize_model(cl.ModelDocument(net))).network
                 for net in nets]
        assert sum(net.n_species == 0 for net in nets) >= 10
        assert sum(net.n_reactions == 0 and net.n_species > 0
                   for net in nets) >= 10
        for net in nets:
            got, want = net.compiled, loop_compile_network(net)
            for name, a, b in zip(CompiledNetwork._fields, got, want):
                assert (a.dtype, a.shape, a.tobytes()) \
                    == (b.dtype, b.shape, b.tobytes()), name


class TestReactionTable:
    def test_given_reactions_are_kept_and_interned(self):
        rng = random.Random(4)
        for _ in range(100):
            net = varied_network(rng)
            given = net.reactions
            t = from_reactions(net.names, given).table
            assert table_is_canonical(t)
            sides = table_sides(t)
            assert [(sides[a], sides[b]) for a, b in
                    zip(t.lhs.tolist(), t.rhs.tolist())] \
                == [(r.reactant.entries, r.product.entries) for r in given]
            assert t.lo.tolist() == [r.rate.lo for r in given]
            assert t.hi.tolist() == [r.rate.hi for r in given]

    def test_parsed_reactions_are_built_once_on_first_use(self, two_site):
        assert two_site._reactions is None
        built = two_site.reactions
        assert two_site.reactions is built
        assert [r.id for r in built] == list(range(8))
        assert built[0] == Reaction(Multiset([(0, 1), (1, 1)]),
                                    Multiset([(3, 1)]), RateInterval(1.0, 2.0), 0)

    def test_reduce_pipeline_builds_no_reaction_objects(self):
        doc = cl.parse_model(cl.serialize_model(cl.multisite_binding_model(4)))
        net = doc.network
        part = cl.coarsest_equivalence(net, doc.initial_partition)
        lumped, _ = cl.quotient(net, part)
        cl.serialize_model(cl.ModelDocument(lumped))
        assert net._reactions is None and lumped._reactions is None

    def test_no_command_reads_the_reaction_view(self, tmp_path, monkeypatch):
        """The commands, `project_control`, `ssa_simulate` and the overflow
        message of `build_generator` work from the table alone."""
        def unread(net):
            raise AssertionError("ReactionNetwork.reactions was read")

        monkeypatch.setattr(ReactionNetwork, "reactions", property(unread))
        path = {name: str(tmp_path / name) for name in (
            "two_site.crn", "ms3.crn", "red.crn", "map.json", "traj.csv",
            "lt.csv", "ls.csv", "p.txt", "rec.csv")}
        (tmp_path / "two_site.crn").write_text(TWO_SITE_TEXT)
        (tmp_path / "p.txt").write_text(
            "partition { B } { A00 } { A01 A10 } { A11 }\n")
        doc = cl.parse_model(TWO_SITE_TEXT)
        net, part = doc.network, doc.initial_partition
        lumped, _ = cl.quotient(net, part)
        sched = cl.ControlSchedule.midpoint(lumped)
        (tmp_path / "ls.csv").write_text(cl.schedule_to_csv(sched))
        (tmp_path / "lt.csv").write_text(cl.trajectory_to_csv(cl.simulate(
            lumped, np.array([0.6, 0.5, 0.5, 0.1]), sched, 0.05, 0.01)))
        for argv in (
                ["generate", "multisite", "--n", "3", "-o", path["ms3.crn"]],
                ["reduce", "-i", path["ms3.crn"], "-o", path["red.crn"],
                 "--map", path["map.json"]],
                ["check", path["two_site.crn"], "--oracle", "--pop-bound", "3"],
                ["simulate", path["two_site.crn"], "--t-end", "0.05",
                 "--step", "0.01", "--init", "B=1,A00=1",
                 "-o", path["traj.csv"]],
                ["reconstruct", path["two_site.crn"],
                 "--partition-file", path["p.txt"],
                 "--lumped-traj", path["lt.csv"],
                 "--lumped-schedule", path["ls.csv"],
                 "--v0", "B=0.6,A00=0.5,A01=0.2,A10=0.3,A11=0.1",
                 "-o", path["rec.csv"]]):
            assert cli.run(argv) == 0, argv[0]
        full = cl.ControlSchedule.midpoint(net)
        traj = cl.simulate(net, np.full(5, 0.5), full, 0.05, 0.01)
        cl.project_control(net, part, lumped, traj, full)
        cl.ssa_simulate(net, net.multiset({"A00": 2, "B": 2}),
                        full.values[0], 0.5, seed=1)
        big = cl.parse_model("species A B\n2 A -> B , [1e306 : 1e307]\n")
        space = cl.enumerate_states(big.network, ms((0, 400)), 400)
        with pytest.raises(cl.PropensityOverflowError,
                           match=r"reaction 0 \(2 A -> B\)"):
            cl.build_generator(space, big.network, "upper")

    @pytest.mark.parametrize("sides,lhs,rhs,lo,hi,message,conc", [
        ([((0, 1),), ((2, 1),)], [0], [1], [1.0], [1.0],
         "reaction 0 references species index 2 >= 2", None),
        ([((0, 1),)], [0], [0], [2.0], [1.0], "invalid rate interval", None),
        ([((0, 1),)], [0], [0], [-1.0], [1.0], "invalid rate interval", None),
        ([((0, 1),)], [0], [0], [0.0], [np.inf], "invalid rate interval",
         None),
        ([((0, 1),)], [0], [0], [np.nan], [1.0], "invalid rate interval",
         None),
        # `A + A` stored as two entries would have twice the drift of `2 A`
        ([((0, 1), (0, 1)), ()], [0], [1], [1.0], [1.0],
         "reaction 0 has species index 0 after 0 in a side", None),
        ([(), ((1, 1), (0, 1))], [0], [1], [1.0], [1.0],
         "reaction 0 has species index 0 after 1 in a side", None),
        ([((0, 1),), ((1, 0),)], [0], [1], [1.0], [1.0],
         "reaction 0 has count 0 of species index 1", None),
        ([((-1, 1),)], [0], [0], [1.0], [1.0],
         "reaction 0 references species index -1 < 0", None),
        # a bad side that no reaction uses is named as a side
        ([((0, 1),), ((0, 1), (0, 2))], [0], [0], [1.0], [1.0],
         "side 1 has species index 0 after 0 in a side", None),
        ([((0, 1),)], [0], [0, 0], [1.0], [1.0],
         r"lhs, rhs, lo and hi have lengths \[1, 2, 1, 1\]", None),
        ([((0, 1),)], [0], [1], [1.0], [1.0],
         "reaction 0 has side ids 0 -> 1, not in 0..0", None),
        ([((0, 1),)], [-1], [0], [1.0], [1.0],
         "reaction 0 has side ids -1 -> 0, not in 0..0", None),
        ((np.array([2]), np.array([0]), np.array([1])), [0], [0], [1.0],
         [1.0], "side sizes must be non-negative and sum to the 1 species",
         None),
        ((np.array([2, -1]), np.array([0]), np.array([1])), [0], [1], [1.0],
         [1.0], "side sizes must be non-negative", None),
        # each would make `serialize_model` write an `init` line that
        # `parse_model` rejects
        ([((0, 1),)], [0], [0], [1.0], [1.0],
         "initial concentration of 'A' is nan", (np.nan, 0.0)),
        ([((0, 1),)], [0], [0], [1.0], [1.0],
         "initial concentration of 'B' is inf", (1.0, np.inf)),
        ([((0, 1),)], [0], [0], [1.0], [1.0],
         "initial concentration of 'A' is -1.0", (-1.0, 2.0)),
        # an array that is not 1-D, or whose values its int64 or float64
        # cast would change, is named instead of truncated
        ([((0, 1),), ((1, 1),)], [0.7], [1], [1.0], [1.0],
         "table array lhs has 0.7 at index 0, which int64 cannot hold", None),
        ([((0, 1),), ((1, 1),)], [0], [np.inf], [1.0], [1.0],
         "table array rhs has inf at index 0", None),
        ((np.array([1]), np.array([0]), np.array([1.5])), [0], [0], [1.0],
         [1.0], "table array count has 1.5 at index 0", None),
        ((np.array([1]), np.array([np.nan]), np.array([1])), [0], [0], [1.0],
         [1.0], "table array species has nan at index 0", None),
        ((np.array([[1]]), np.array([0]), np.array([1])), [0], [0], [1.0],
         [1.0], r"table array size has shape \(1, 1\), not one dimension",
         None),
        ([((0, 1),)], [0], [0], [[1.0]], [[1.0]],
         r"table array lo has shape \(1, 1\)", None),
        ([((0, 1),)], [0], [0], [2 ** 53 + 1], [2 ** 60],
         "table array lo has 9007199254740993 at index 0", None),
    ])
    def test_trusted_constructor_checks_the_table(self, sides, lhs, rhs, lo,
                                                  hi, message, conc):
        flat = flat_sides(sides) if isinstance(sides, list) else sides
        table = ReactionTable(*flat, np.array(lhs), np.array(rhs),
                              np.array(lo), np.array(hi))
        with pytest.raises(StructuralError, match=message):
            ReactionNetwork(["A", "B"], table, conc)
        if conc is not None:
            net = ReactionNetwork(["A", "B"], table)
            with pytest.raises(AttributeError, match="cannot be rebound"):
                net.initial_concentration = tuple(conc)
            object.__setattr__(net, "initial_concentration", tuple(conc))
            with pytest.raises(cl.ParseError):
                cl.parse_model(cl.serialize_model(cl.ModelDocument(net)))

    @pytest.mark.parametrize("slot", ["names", "table",
                                      "initial_concentration"])
    def test_checked_slots_cannot_be_rebound(self, two_site_doc, slot):
        net, part = two_site_doc.network, two_site_doc.initial_partition
        kept = getattr(net, slot)
        with pytest.raises(AttributeError, match=f"{slot} cannot be rebound"):
            setattr(net, slot, kept)
        assert getattr(net, slot) is kept
        # the lazy caches and lumping's proof record still fill in
        assert len(net.reactions) == net.n_reactions == len(net.compiled.lo)
        cl.coarsest_equivalence(net, part)
        assert net.proved is not None


class TestNames:
    def test_duplicate_names_rejected(self):
        with pytest.raises(StructuralError, match="duplicate species names"):
            from_reactions(["A", "A"], [])
        table = ReactionTable(*flat_sides([((0, 1),), ((1, 1),)]),
                              np.array([0]), np.array([1]), np.array([1.0]),
                              np.array([1.0]))
        with pytest.raises(StructuralError, match="duplicate species names"):
            ReactionNetwork(["A", "A"], table)

    @staticmethod
    def _assert_names(net, want):
        assert type(net.names) is tuple and net.names == tuple(want)
        assert all(type(name) is str for name in net.names)
        assert [net.index_of(name) for name in want] == list(range(len(want)))

    def test_parsed_generated_and_lumped_networks(self, two_site_doc):
        self._assert_names(two_site_doc.network,
                           ["B", "A00", "A01", "A10", "A11"])
        star = cl.sir_star_model(3, cl.SirParams(0.4, 0.25, 0.1)).network
        self._assert_names(star, [f"{kind}{i}" for i in (1, 2, 3)
                                  for kind in "SIRV"])
        multisite = cl.multisite_binding_model(2)
        self._assert_names(multisite.network, ["B", "A00", "A01", "A10", "A11"])
        part = cl.coarsest_equivalence(multisite.network,
                                       multisite.initial_partition)
        lumped, _ = cl.quotient(multisite.network, part)
        self._assert_names(lumped, [multisite.network.names[i]
                                    for i in part.representatives])
        assert lumped.names == ("B", "A00", "A01", "A11")



class TestInitialState:
    @staticmethod
    def _assert_derived(net):
        """`initial_state` is the counts of an integral initial vector, and
        None for a non-integral one or none."""
        conc = net.initial_concentration
        if conc is not None and all(v.is_integer() for v in conc):
            assert net.initial_state == Multiset(
                (i, int(v)) for i, v in enumerate(conc))
        else:
            assert net.initial_state is None

    @pytest.mark.parametrize("init,state", [
        ("init A = 2.0, C = 1", ms((0, 2), (2, 1))),
        ("init A = 2.0, B = 0.5", None),
        ("init A = 0", ms()),
        ("", None),
    ])
    def test_parsed(self, init, state):
        net = cl.parse_model(f"species A B C\nA -> B , 1.0\n{init}\n").network
        assert net.initial_state == state
        self._assert_derived(net)

    def test_generated_networks_have_none(self):
        params = cl.SirParams(0.4, 0.25, 0.1, RateInterval(0.0, 1.0))
        for doc in (cl.multisite_binding_model(3),
                    cl.sir_star_model(3, params)):
            assert doc.network.initial_state is None

    @pytest.mark.parametrize("conc,state", [
        ((1.0, 2.0, 0.0), ms((0, 1), (1, 2))),
        ((1.0, 2.5, 0.0), None),
    ])
    def test_built_from_a_vector(self, conc, state):
        reactions = [Reaction(ms((0, 1)), ms((1, 1)), RateInterval(1.0, 1.0),
                              0)]
        net = from_reactions(["A", "B", "C"], reactions, conc)
        assert net.initial_state == state
        self._assert_derived(net)

    @pytest.mark.parametrize("init,state", [
        ("A = 1.0, B = 2.0, C = 3", ms((0, 3), (1, 3))),
        # a non-integral vector whose block sums are integral: the lumped
        # network has a state although the original has none
        ("A = 0.5, B = 0.5, C = 2", ms((0, 1), (1, 2))),
        ("A = 0.5, B = 1.0, C = 2", None),
    ])
    def test_lumped(self, init, state):
        doc = cl.parse_model(f"species A B C\nA -> C , 1.0\nB -> C , 1.0\n"
                             f"init {init}\n")
        lumped, _ = cl.quotient(doc.network, Partition([[0, 1], [2]], 3))
        assert lumped.initial_state == state
        self._assert_derived(doc.network)
        self._assert_derived(lumped)
