import pickle
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crnlump as cl
from crnlump import lumping
from crnlump.lumping import (InvalidPartitionError, check_equivalence,
                             coarsest_equivalence, quotient)
from crnlump.model import (Multiset, Partition, RateInterval, Reaction,
                           ReactionNetwork, StructuralError)

from conftest import (alternating_refinement, block_projection,
                      dict_quotient, from_reactions, networks_equal,
                      perturb_rate, random_network, random_partition,
                      reaction_rows, refine_partition, refines,
                      set_partitions, species_signature,
                      swapped_twin_network, table_is_canonical,
                      varied_network)

# two-site fixture rate endpoints, by reaction id (0-based)
A1 = (1.0, 2.0)     # site-1 binding == site-2 binding (ids 0, 2)
A2 = (0.5, 0.75)    # unbinding pair (ids 1, 3)
A5 = (1.25, 2.25)   # second binding pair (ids 4, 6)
A6 = (0.25, 0.4)    # second unbinding pair (ids 5, 7)


class TestSpeciesSignature:
    def test_signature_of_a01(self, two_site, two_site_partition):
        sig = species_signature(two_site, two_site_partition, "upper",
                                two_site.index_of("A01"))
        ctx_empty = Multiset()
        ctx_b = two_site.multiset({"B": 1})
        bp_a00_b = block_projection(two_site.multiset({"A00": 1, "B": 1}),
                                    two_site_partition)
        bp_a11 = block_projection(two_site.multiset({"A11": 1}), two_site_partition)
        assert sig.entries == {(ctx_empty, bp_a00_b): A2[1], (ctx_b, bp_a11): A5[1]}

    def test_signature_matches_a10(self, two_site, two_site_partition):
        s01 = species_signature(two_site, two_site_partition, "upper",
                                two_site.index_of("A01"))
        s10 = species_signature(two_site, two_site_partition, "upper",
                                two_site.index_of("A10"))
        assert s01 == s10

    def test_species_without_reactant_occurrences(self):
        doc = cl.parse_model("species A B\nA -> B , 1.0\n")
        sig = species_signature(doc.network, Partition.one_block(2), "upper", 1)
        assert sig.entries == {}

    def test_binding_reactions_aggregate_over_lifted_block(self, two_site,
                                                           two_site_partition):
        # both bindings from A00 land in the {A01, A10} block, so they fuse
        sig = species_signature(two_site, two_site_partition, "upper",
                                two_site.index_of("A00"))
        ctx_b = two_site.multiset({"B": 1})
        bp_mid = block_projection(two_site.multiset({"A01": 1}), two_site_partition)
        assert sig.entries == {(ctx_b, bp_mid): A1[1] + A1[1]}


class TestRefinePartition:
    def test_singletons_are_stable(self, two_site):
        fine = Partition.singletons(5)
        assert refine_partition(two_site, fine, "lower") == fine

    def test_two_site_partition_is_stable(self, two_site, two_site_partition):
        for extremal in ("lower", "upper"):
            assert refine_partition(two_site, two_site_partition, extremal) \
                == two_site_partition

    def test_isolating_one_site_forces_singletons(self, two_site):
        a10 = two_site.index_of("A10")
        rest = [i for i in range(5) if i != a10]
        start = Partition([[a10], rest], 5)
        out = refine_partition(two_site, start, "lower")
        assert out == Partition.singletons(5)


class TestCoarsestEquivalence:
    def test_two_site_partition_already_coarsest(self, two_site, two_site_partition):
        assert coarsest_equivalence(two_site, two_site_partition) == two_site_partition

    def test_isolating_one_site(self, two_site):
        a10 = two_site.index_of("A10")
        start = Partition([[a10], [i for i in range(5) if i != a10]], 5)
        assert coarsest_equivalence(two_site, start) == Partition.singletons(5)

    def test_star_sir_reduces_to_seven_blocks(self):
        doc = cl.sir_star_model(30, cl.SirParams(0.4, 0.25, 0.1))
        part = coarsest_equivalence(doc.network, doc.initial_partition)
        assert part.n_blocks == 7

    def test_multisite_reduces_to_occupancy_classes(self):
        doc = cl.multisite_binding_model(4)
        net = doc.network
        part = coarsest_equivalence(net, doc.initial_partition)
        assert part.n_blocks == 6
        groups = {}
        for block in part.blocks:
            names = sorted(net.names[i] for i in block)
            groups[tuple(names)] = block
        assert (("B",),) and ("B",) in groups
        by_count = {}
        for name in net.names:
            if name != "B":
                by_count.setdefault(name.count("1"), set()).add(name)
        for k, members in by_count.items():
            assert tuple(sorted(members)) in groups

    def test_sweeps_peak_per_reaction(self):
        # the refinement's transient peak above the compiled network, in
        # bytes per reaction: the reactant pairs, with the context rows or
        # the (block, change) rows and their sort order; measured 150 on
        # multisite n=10 under CPython 3.11
        warm = cl.multisite_binding_model(3)  # numpy's lazy imports
        coarsest_equivalence(warm.network, warm.initial_partition)
        doc = cl.multisite_binding_model(10)
        net = doc.network
        net.compiled
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            part = coarsest_equivalence(net, doc.initial_partition)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert part.n_blocks == 12
        assert peak / net.n_reactions <= 188, peak / net.n_reactions

    def test_rounds_reported(self, two_site, two_site_partition):
        # a round is one sweep under both extremals; the last splits nothing
        for start, sweeps in ((two_site_partition, 1),
                              (Partition.one_block(5), 2)):
            stats = {}
            coarsest_equivalence(two_site, start, stats=stats)
            assert stats == {"rounds": sweeps, "sweeps": sweeps}

    @pytest.mark.parametrize("text", [
        "A -> C , [-0 : 1]\nB -> C , [0 : 1]\n",
        "A -> C , [-0 : 1]\nA -> C , [0 : 1]\nB -> C , [0 : 2]\n",
        "A -> C , [-0 : -0]\nB -> C , [0 : 0]\n",
    ])
    def test_negative_zero_rate_is_zero(self, text):
        net = cl.parse_model("species A B C\n" + text).network
        part = Partition([[0, 1], [2]], 3)
        assert check_equivalence(net, part)
        assert coarsest_equivalence(net, part) == part

    def test_matches_alternating_rounds_oracle(self):
        rng = random.Random(23)
        differing = 0
        for k in range(400):
            net = swapped_twin_network(rng)
            initial = (Partition.one_block(net.n_species) if k % 2
                       else random_partition(rng, net.n_species))
            if (refine_partition(net, initial, "lower")
                    != refine_partition(net, initial, "upper")):
                differing += 1
            assert coarsest_equivalence(net, initial) \
                == alternating_refinement(net, initial)
        assert differing >= 40  # lo and hi must often split differently


class TestCheckEquivalence:
    def test_finest_always_true(self, two_site):
        assert check_equivalence(two_site, Partition.singletons(5))

    def test_two_site_partition_true(self, two_site, two_site_partition):
        assert check_equivalence(two_site, two_site_partition)

    def test_breaking_the_second_binding_pair(self, two_site, two_site_partition):
        # reaction 4 is A10 + B -> A11; nudging its upper bound desynchronizes
        # the {A01, A10} block
        broken = perturb_rate(two_site, 4, dhi=0.01)
        assert not check_equivalence(broken, two_site_partition)

    def test_breaking_the_unbinding_pair(self, two_site, two_site_partition):
        broken = perturb_rate(two_site, 1, dhi=0.01)
        assert not check_equivalence(broken, two_site_partition)

    def test_first_binding_rate_is_not_pair_constrained(self, two_site,
                                                        two_site_partition):
        # A00 and B sit in singleton blocks, so the binding rates out of
        # A00 + B never get compared pairwise; both bindings also land in the
        # same lifted block. Perturbing reaction 0 therefore keeps the
        # partition an equivalence (and the state-space oracle agrees).
        perturbed = perturb_rate(two_site, 0, dhi=0.01)
        assert check_equivalence(perturbed, two_site_partition)
        space = cl.enumerate_ball(perturbed, 3)
        for extremal in ("lower", "upper"):
            gen = cl.build_generator(space, perturbed, extremal)
            assert cl.check_ordinary_lumpability(gen, space,
                                                 two_site_partition).ok


class TestQuotient:
    def test_two_site_quotient_structure(self, two_site, two_site_partition):
        lumped, part = quotient(two_site, two_site_partition)
        assert lumped.names == ("B", "A00", "A01", "A11")
        expected = {
            (("A00", "B"), ("A01",), A1[0] + A1[0], A1[1] + A1[1]),
            (("A01",), ("A00", "B"), A2[0], A2[1]),
            (("A01", "B"), ("A11",), A5[0], A5[1]),
            (("A11",), ("A01", "B"), A6[0] + A6[0], A6[1] + A6[1]),
        }
        actual = set()
        for r in lumped.reactions:
            reactant = tuple(sorted(lumped.names[i] for i, c in r.reactant
                                    for _ in range(c)))
            product = tuple(sorted(lumped.names[i] for i, c in r.product
                                   for _ in range(c)))
            actual.add((reactant, product, r.rate.lo, r.rate.hi))
        assert actual == expected
        assert part == two_site_partition
        assert [two_site.names[i] for i in part.blocks[2]] == ["A01", "A10"]
        assert two_site.names[part.representatives[2]] == "A01"

    def test_counts_beyond_float_precision_stay_exact(self):
        net = cl.parse_model("9007199254740993 A -> B , 1\n").network
        lumped, _ = quotient(net, Partition.singletons(2))
        assert lumped.table.count.tolist() == [2**53 + 1, 1]

    def test_finest_partition_identity(self, two_site):
        lumped, _ = quotient(two_site, Partition.singletons(5))
        assert networks_equal(lumped, two_site)

    def test_three_site_chain(self):
        doc = cl.multisite_binding_model(3)
        part = coarsest_equivalence(doc.network, doc.initial_partition)
        lumped, _ = quotient(doc.network, part)
        assert lumped.n_species == 5
        assert lumped.n_reactions == 6

    def test_invalid_partition_rejected(self, two_site):
        bad = Partition([[0, 1], [2, 3], [4]], 5)
        with pytest.raises(InvalidPartitionError):
            quotient(two_site, bad)

    def test_initial_data_is_block_summed(self):
        doc = cl.parse_model(
            "species A B C\nA -> C , 1.0\nB -> C , 1.0\ninit A = 1.0, B = 2.0\n")
        part = Partition([[0, 1], [2]], 3)
        lumped, _ = quotient(doc.network, part)
        assert lumped.initial_concentration == (3.0, 0.0)
        assert lumped.initial_state == Multiset([(0, 3)])

    def test_initial_data_is_summed_in_species_order(self):
        doc = cl.sir_star_model(30, cl.SirParams(0.4, 0.25, 0.1))
        part = coarsest_equivalence(doc.network, doc.initial_partition)
        gen = np.random.default_rng(3)
        n = doc.network.n_species
        conc = gen.random(n) * 10.0 ** gen.integers(-6, 6, n)
        net = ReactionNetwork(doc.network.names, doc.network.table, conc)
        lumped, _ = quotient(net, part)
        want = []
        for block in part.blocks:
            total = 0.0
            for i in block:
                total += conc[i]
            want.append(total)
        assert max(map(len, part.blocks)) >= 3
        assert lumped.initial_concentration == tuple(want)

    def test_representative_independence_up_to_renaming(self):
        # same model with A10 and A01 swapped in declaration order, so the
        # other member becomes the block minimum / representative
        text_a = ("species B A00 A01 A10 A11\n"
                  "A00 + B -> A10 , [1.0 : 2.0]\nA10 -> A00 + B , [0.5 : 0.75]\n"
                  "A00 + B -> A01 , [1.0 : 2.0]\nA01 -> A00 + B , [0.5 : 0.75]\n"
                  "A10 + B -> A11 , [1.25 : 2.25]\nA11 -> A10 + B , [0.25 : 0.4]\n"
                  "A01 + B -> A11 , [1.25 : 2.25]\nA11 -> A01 + B , [0.25 : 0.4]\n"
                  "partition { B } { A00 } { A01 A10 } { A11 }\n")
        text_b = text_a.replace("species B A00 A01 A10 A11",
                                "species B A00 A10 A01 A11")
        out = []
        for text in (text_a, text_b):
            doc = cl.parse_model(text)
            lumped, _ = quotient(doc.network, doc.initial_partition)
            canon = set()
            block_of_name = {}
            for bid, block in enumerate(doc.initial_partition.blocks):
                for i in block:
                    block_of_name[doc.network.names[i]] = bid
            for r in lumped.reactions:
                reactant = tuple(sorted(block_of_name[lumped.names[i]]
                                        for i, c in r.reactant for _ in range(c)))
                product = tuple(sorted(block_of_name[lumped.names[i]]
                                       for i, c in r.product for _ in range(c)))
                canon.add((reactant, product, r.rate.lo, r.rate.hi))
            out.append(canon)
        assert out[0] == out[1]


class TestQuotientOracle:
    def test_matches_dict_quotient_on_random_networks(self):
        rng = random.Random(31)
        lumped = fused = 0
        for _ in range(300):
            net = varied_network(rng)
            n = net.n_species
            start = (random_partition(rng, n) if n and rng.random() < 0.5
                     else Partition.one_block(n))
            part = coarsest_equivalence(net, start)
            # the same network parsed back, so that its table comes from text
            text = cl.serialize_model(cl.ModelDocument(net))
            for source in (net, cl.parse_model(text).network):
                got, _ = quotient(source, part)
                want = dict_quotient(source, part)
                assert got.names == want.names
                assert reaction_rows(got) == reaction_rows(want)
                assert networks_equal(got, want)
                # distinct canonical sides, each used by a reaction
                t = got.table
                assert table_is_canonical(t)
                assert set(t.lhs.tolist()) | set(t.rhs.tolist()) \
                    == set(range(len(t.size)))
                for a, b in zip(got.compiled, want.compiled):
                    assert (a.dtype, a.shape, a.tobytes()) \
                        == (b.dtype, b.shape, b.tobytes())
            reps = set(part.representatives)
            lumped += part.n_blocks < n
            fused += got.n_reactions < sum(
                all(i in reps for i, _ in r.reactant) for r in net.reactions)
        assert lumped >= 100 and fused >= 50

    def test_negative_zero_sums_are_zero(self):
        net = cl.parse_model("species A B C\n"
                             "A -> B , [-0 : 1]\nA -> C , [-0 : 1]\n"
                             "B -> A , -0\nB -> 0 , -0\nC -> A , 0\n").network
        part = Partition([[0], [1, 2]], 3)
        got, _ = quotient(net, part)
        assert reaction_rows(got) == reaction_rows(dict_quotient(net, part))
        assert [r.rate.lo.hex() for r in got.reactions] \
            == [(0.0).hex()] * got.n_reactions

    def test_fused_rates_that_overflow_raise(self):
        # A is alone in its block, so no sweep sums the two rates
        doc = cl.parse_model("species A B C\nA -> B , 1e308\nA -> C , 1e308\n"
                             "partition { A } { B C }\n")
        net, part = doc.network, doc.initial_partition
        assert check_equivalence(net, part)
        with pytest.raises(OverflowError):
            dict_quotient(net, part)
        with pytest.raises(OverflowError):
            quotient(net, part)


class TestProvedPartition:
    """quotient skips its equivalence check exactly for a partition equal,
    by value, to the one lumping last proved on the same network object."""

    @pytest.fixture
    def check_calls(self, monkeypatch):
        calls = []
        real = lumping.check_equivalence

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(lumping, "check_equivalence", counting)
        return calls

    def test_exact_result_on_same_network_is_not_rechecked(
            self, two_site, two_site_partition, check_calls):
        part = coarsest_equivalence(two_site, two_site_partition)
        lumped, _ = quotient(two_site, part)
        assert check_calls == []
        assert lumped.n_species == 4

    def test_other_network_of_equal_size_is_checked(
            self, two_site, two_site_partition, check_calls):
        part = coarsest_equivalence(two_site, two_site_partition)
        broken = perturb_rate(two_site, 4, dhi=0.01)
        assert broken.n_species == two_site.n_species
        with pytest.raises(InvalidPartitionError):
            quotient(broken, part)
        twin = ReactionNetwork(two_site.names, two_site.table)
        quotient(twin, part)
        assert [args[0] for args in check_calls] == [broken, twin]

    def test_copies_are_trusted_and_other_partitions_checked(
            self, two_site, two_site_partition, check_calls):
        part = coarsest_equivalence(two_site, two_site_partition)
        quotient(two_site, Partition(part.blocks, part.n))
        quotient(two_site, pickle.loads(pickle.dumps(part)))
        assert check_calls == []
        finest = Partition.singletons(5)
        quotient(two_site, finest)
        with pytest.raises(InvalidPartitionError):
            quotient(two_site, Partition.one_block(5))
        assert [args[1] for args in check_calls] \
            == [finest, Partition.one_block(5)]

    def test_partition_accepted_by_check_is_trusted(
            self, two_site, two_site_partition, check_calls):
        twin = ReactionNetwork(two_site.names, two_site.table)
        assert check_equivalence(twin, two_site_partition)
        assert not check_equivalence(twin, Partition.one_block(5))
        quotient(twin, Partition(two_site_partition.blocks, 5))
        assert check_calls == []


class TestSignatureOracle:
    """One pass of the array sweep splits every block exactly as grouping its
    members by both of their oracle signatures, lower and upper, does."""

    @staticmethod
    def split_by_sweep(net, part):
        c = net.compiled
        label, n_blocks = lumping._sweep(
            c, lumping._reactant_pairs(c, net.n_species),
            np.asarray(part.block_of))
        return Partition([np.flatnonzero(label == b).tolist()
                          for b in range(n_blocks)], net.n_species)

    @staticmethod
    def split_by_oracle(net, part, extremals=("lower", "upper")):
        groups = {}
        for a in range(net.n_species):
            sigs = tuple(frozenset(species_signature(net, part, e, a)
                                   .entries.items()) for e in extremals)
            groups.setdefault((part.block_of[a], sigs), []).append(a)
        return Partition(groups.values(), net.n_species)

    def test_sweep_matches_oracle_on_random_networks(self, monkeypatch):
        # each network under a partition with a singleton block, whose
        # species need no signature, so only some reactions' changes are
        # summed, and under one without, where often all of them are
        block_sums, gathered = lumping._block_sums, []

        def spy(owner, block, value):
            gathered.append(owner.flags.writeable)  # not the compiled rx
            return block_sums(owner, block, value)

        monkeypatch.setattr(lumping, "_block_sums", spy)
        rng = random.Random(5)
        nonempty = 0
        for _ in range(80):
            net = random_network(rng)
            part = random_partition(rng, net.n_species)
            big = [list(b) for b in part.blocks if len(b) > 1]
            lone = [b[0] for b in part.blocks if len(b) == 1]
            if not lone:  # split the last member off the first block
                lone, big[0] = big[0][-1:], big[0][:-1]
            for blocks in (big + [[i] for i in lone],
                           [big[0] + lone] + big[1:] if big else [lone]):
                part = Partition(blocks, net.n_species)
                assert self.split_by_sweep(net, part) \
                    == self.split_by_oracle(net, part)
                nonempty += sum(
                    bool(species_signature(net, part, extremal, a).entries)
                    for extremal in ("lower", "upper")
                    for b in part.blocks if len(b) > 1 for a in b)
        assert nonempty >= 200  # the networks must exercise real signatures
        assert gathered.count(True) >= 40 and gathered.count(False) >= 40

    @pytest.mark.parametrize("text, n_blocks", [
        # one context and total rate, spread differently over two targets
        ("A -> C , 1.0\nA -> D , 0.5\nB -> C , 0.5\nB -> D , 1.0\n", 4),
        # one change: the rates of each context sum to equal signatures
        ("A + C -> C + D , 1.0\nA + D -> 2 D , 1.0\nA + C -> C + D , 0.5\n"
         "B + C -> C + D , 1.5\nB + D -> 2 D , 1.0\n", 3),
        # one change and total rate, under different contexts
        ("A + C -> C + D , 1.0\nA + D -> 2 D , 1.0\nB + C -> C + D , 2.0\n",
         4),
    ])
    def test_hand_built_keys(self, text, n_blocks):
        net = cl.parse_model("species A B C D\n" + text).network
        part = Partition([[0, 1], [2], [3]], 4)
        got = self.split_by_sweep(net, part)
        assert got == self.split_by_oracle(net, part)
        assert got.n_blocks == n_blocks

    def test_lower_and_upper_splits_differ(self):
        # lower rates part {A B} from C, upper rates part {A C} from B: one
        # sweep splits the block into their meet
        net = cl.parse_model("species A B C D\nA -> D , [1.0 : 2.0]\n"
                             "B -> D , [1.0 : 3.0]\n"
                             "C -> D , [0.5 : 2.0]\n").network
        part = Partition([[0, 1, 2], [3]], 4)
        assert self.split_by_oracle(net, part, ("lower",)) \
            == Partition([[0, 1], [2], [3]], 4)
        assert self.split_by_oracle(net, part, ("upper",)) \
            == Partition([[0, 2], [1], [3]], 4)
        assert self.split_by_sweep(net, part) == Partition.singletons(4)


@st.composite
def owned_lists(draw):
    """Lists of rows of one width, some empty, with values from a small
    range so that equal lists occur."""
    width = draw(st.integers(1, 3))
    row = st.tuples(*[st.integers(-2, 2)] * width)
    return width, draw(st.lists(st.lists(row, max_size=4), max_size=12))


@settings(max_examples=300, deadline=None)
@given(owned_lists())
def test_list_ids_match_a_dict_of_tuples(case):
    width, lists = case
    size = np.array([len(lst) for lst in lists], dtype=np.int64)
    rows = np.array([r for lst in lists for r in lst], dtype=np.int64)
    ids = lumping._list_ids(size, rows.reshape(-1, width)).tolist()
    ref = {}
    for lst, got in zip(lists, ids):
        if lst:
            assert got >= 0 and ref.setdefault(tuple(lst), got) == got
        else:
            assert got == -1
    # only equal lists share an id
    assert len(set(ref.values())) == len(ref)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3),
                          st.sampled_from([1, 2, -3, 2**53 + 1, 2**62,
                                           -2**62, 2**63 - 1])),
                max_size=12))
def test_block_sums_are_exact_integer_sums(terms):
    owner, block, value = (np.array(col, dtype=np.int64).reshape(-1)
                           for col in (zip(*terms) if terms else ((),) * 3))
    ref = {}
    for o, b, v in terms:
        ref[o, b] = ref.get((o, b), 0) + v
    if any(not -2**63 <= v < 2**63 for v in ref.values()):
        with pytest.raises(OverflowError):
            lumping._block_sums(owner, block, value)
        return
    o, b, total = lumping._block_sums(owner, block, value)
    assert total.dtype == np.int64
    assert list(zip(o.tolist(), b.tolist(), total.tolist())) \
        == [(o, b, v) for (o, b), v in sorted(ref.items())]


class TestNoopReactions:
    def test_noop_is_inert_for_equivalence(self, two_site, two_site_partition):
        reactions = list(two_site.reactions)
        a01 = two_site.multiset({"A01": 1})
        reactions.append(Reaction(a01, a01, RateInterval(3.0, 9.0),
                                  len(reactions)))
        withnoop = from_reactions(two_site.names, reactions)
        assert check_equivalence(withnoop, two_site_partition)
        assert coarsest_equivalence(withnoop, two_site_partition) \
            == two_site_partition


class TestProperties:
    def test_soundness_monotonicity_idempotence(self):
        rng = random.Random(99)
        for _ in range(60):
            net = random_network(rng)
            n = net.n_species
            initial = random_partition(rng, n)
            out = coarsest_equivalence(net, initial)
            assert refines(out, initial)
            assert check_equivalence(net, out)
            assert coarsest_equivalence(net, out) == out
            # single-extremal refinement never merges blocks
            once = refine_partition(net, initial, "lower")
            assert refines(once, initial)

    def test_coarsest_by_exhaustive_enumeration(self):
        rng = random.Random(31)
        nontrivial = 0
        for _ in range(40):
            net = random_network(rng, max_species=4, max_reactions=6)
            n = net.n_species
            out = coarsest_equivalence(net, Partition.one_block(n))
            if out.n_blocks < n:
                nontrivial += 1
            for grouping in set_partitions(list(range(out.n_blocks))):
                if len(grouping) == out.n_blocks:
                    continue
                merged = Partition(
                    [tuple(i for a in g for i in out.blocks[a]) for g in grouping],
                    n)
                assert not check_equivalence(net, merged)
        assert nontrivial >= 5  # the generator must exercise real lumping

    def test_any_equivalence_refines_the_coarsest(self):
        rng = random.Random(17)
        for _ in range(120):
            net = random_network(rng, max_species=4)
            n = net.n_species
            out = coarsest_equivalence(net, Partition.one_block(n))
            cand = random_partition(rng, n)
            if check_equivalence(net, cand):
                assert refines(cand, out)

    def test_degenerate_intervals_collapse_to_single_refinement(self):
        rng = random.Random(3)
        cases = []
        for _ in range(40):
            net = random_network(rng)
            cases.append((net, random_partition(rng, net.n_species)))
        # edge inputs, each from one block: no species, no reactions, only
        # no-ops, only 0 -> A, zero rates, a reactant of one species thrice
        texts = ("species A B\n",
                 "species A B\nA -> A , 2.0\nB -> B , 3.0\n",
                 "species A B\n0 -> A , 1.0\n",
                 "species A B C\nA -> C , 0.0\nB -> C , 1.0\nC -> 0 , 0.0\n",
                 "species A B C\n3 A -> C , 1.0\n3 B -> C , 1.0\n"
                 "C -> A + B , 2.0\n")
        edges = [from_reactions([], [])]
        edges += [cl.parse_model(text).network for text in texts]
        cases += [(net, Partition.one_block(net.n_species)) for net in edges]
        for net, initial in cases:
            reactions = [Reaction(r.reactant, r.product,
                                  RateInterval(r.rate.lo, r.rate.lo), r.id)
                         for r in net.reactions]
            degen = from_reactions(net.names, reactions)
            assert coarsest_equivalence(degen, initial) \
                == refine_partition(degen, initial, "lower")


def _reconstruct(net, good, part):
    lumped, _ = quotient(net, good)
    sched = cl.ControlSchedule.midpoint(lumped)
    ltraj = cl.simulate(lumped, good.sums(np.full(5, 0.5)), sched, 0.02, 0.01)
    cl.reconstruct_trajectory(net, part, ltraj, sched, np.full(5, 0.5))


class TestPartitionUniverse:
    """The partition consumers that `Partition.labels` checks, beyond those
    with their own test (`Partition.sums`, `block_coefficients`,
    `DriftMatch`, `build_drift_match`, `project_control`,
    `check_ordinary_lumpability`), say so in the one message. Each gets the
    two-site network, its coarsest equivalence and a partition of another
    number of species into four blocks, as many as the quotient has
    species."""

    CONSUMERS = {
        "coarsest_equivalence": lambda net, good, part:
            coarsest_equivalence(net, part),
        "check_equivalence": lambda net, good, part:
            check_equivalence(net, part),
        "quotient": lambda net, good, part: quotient(net, part),
        "reconstruct_trajectory": _reconstruct,
    }

    @pytest.mark.parametrize("n", [4, 6])
    @pytest.mark.parametrize("consumer", list(CONSUMERS))
    def test_partition_over_wrong_universe_rejected(
            self, two_site, two_site_partition, consumer, n):
        part = Partition([(0,), (1,), (2,), range(3, n)], n)
        assert part.n_blocks == 4
        with pytest.raises(StructuralError,
                           match="^partition over wrong species universe$"):
            self.CONSUMERS[consumer](two_site, two_site_partition, part)
        assert two_site.proved in (None, two_site_partition)
