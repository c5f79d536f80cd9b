import math
import random
import time
import warnings
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse
import scipy.stats

import crnlump as cl
from crnlump.ctmc import (ApproximateResultWarning, CapacityError,
                          PropensityOverflowError, build_generator,
                          check_ordinary_lumpability, enumerate_ball,
                          enumerate_states, ssa_simulate, transient_solve)
from crnlump.model import (Multiset, Partition, RateInterval, Reaction,
                           ReactionNetwork, StructuralError)

from conftest import (exact_transitions, from_reactions,
                      loop_enumerate_ball, loop_enumerate_states,
                      loop_generator, loop_lumpability, perturb_rate,
                      project_key, random_partition)


class TestEnumerateStates:
    def test_two_site_from_single_pair(self, two_site):
        init = two_site.multiset({"A00": 1, "B": 1})
        space = enumerate_states(two_site, init, 2)
        names = {s.format(two_site.names) for s in space.states}
        assert names == {"B + A00", "A01", "A10"}
        assert not space.truncated
        assert space.states[0] == init  # breadth-first: initial state first

    def test_no_reactions(self):
        # zero reactions, a no-op, and a species in no reaction: nothing
        # ever moves, and SSA's no-op events leave the state as it is
        for text in ("species A\n", "species A B\nA -> A , 1.0\n",
                     "species A B\n0 -> 0 , 2.0\n"):
            net = cl.parse_model(text).network
            space = enumerate_states(net, Multiset([(0, 2)]), 5)
            assert space.n_states == 1 and not space.truncated
            for extremal in ("lower", "upper"):
                assert build_generator(space, net, extremal).matrix.nnz == 1
            alpha = [r.rate.lo for r in net.reactions]
            path = ssa_simulate(net, Multiset([(0, 2)]), alpha, 1.0, seed=3)
            assert np.all(path.states == space.counts[0])

    def test_species_creation_truncates(self):
        doc = cl.parse_model("species A\nA -> A + A , 1.0\n")
        space = enumerate_states(doc.network, Multiset([(0, 1)]), 3)
        assert [s.total for s in space.states] == [1, 2, 3]
        assert space.truncated

    def test_bound_below_initial_state(self, two_site):
        with pytest.raises(StructuralError):
            enumerate_states(two_site, two_site.multiset({"A00": 3}), 2)

    def test_initial_state_outside_network(self, two_site):
        with pytest.raises(StructuralError, match="species index 5; the "
                                                  "network has 5"):
            enumerate_states(two_site, Multiset([(5, 1)]), 3)

    def test_capacity_error(self):
        doc = cl.parse_model("species A B\nA -> B , 1.0\nB -> A , 1.0\n")
        with pytest.raises(CapacityError):
            enumerate_states(doc.network, Multiset([(0, 50)]), 50, max_states=10)

    def test_ball_contains_everything(self, two_site):
        ball = enumerate_ball(two_site, 2)
        # C(2 + 5, 5) multisets of size <= 2 over 5 species
        assert ball.n_states == math.comb(7, 5)
        totals = [s.total for s in ball.states]
        assert totals == sorted(totals)


class TestGenerator:
    def test_two_site_outgoing_rates(self, two_site):
        init = two_site.multiset({"A01": 1, "A10": 1, "B": 1})
        space = enumerate_states(two_site, init, 4)
        gen = build_generator(space, two_site, "upper")
        row = gen.matrix.getrow(space.index[init])
        rates = {space.states[j].format(two_site.names): v
                 for j, v in zip(row.indices, row.data) if j != space.index[init]}
        assert rates == {
            "A10 + A11": 2.25,              # A01 + B binds at site 2
            "A01 + A11": 2.25,              # A10 + B binds
            "2 B + A00 + A10": 0.75,        # A01 releases
            "2 B + A00 + A01": 0.75,        # A10 releases
        }

    def test_empty_reaction_set_zero_matrix(self):
        doc = cl.parse_model("species A\n")
        space = enumerate_states(doc.network, Multiset([(0, 1)]), 2)
        gen = build_generator(space, doc.network, "lower")
        assert gen.matrix.nnz == 1 and gen.matrix[0, 0] == 0.0

    def test_homodimer_binomial(self):
        doc = cl.parse_model("species A\n2 A -> 0 , 0.7\n")
        space = enumerate_states(doc.network, Multiset([(0, 2)]), 2)
        gen = build_generator(space, doc.network, "lower")
        i2, i0 = space.index[Multiset([(0, 2)])], space.index[Multiset()]
        assert gen.matrix[i2, i0] == 0.7  # C(2, 2) = 1

    def test_rows_sum_to_zero_exactly(self, two_site):
        # the diagonal is the exact negation of the exact off-diagonal sum,
        # so rows sum to zero under the same (exact) summation that built them
        space = enumerate_ball(two_site, 3)
        for extremal in ("lower", "upper"):
            gen = build_generator(space, two_site, extremal)
            Q = gen.matrix
            for i in range(space.n_states):
                start, end = Q.indptr[i], Q.indptr[i + 1]
                off = [Q.data[p] for p in range(start, end) if Q.indices[p] != i]
                diag = [Q.data[p] for p in range(start, end) if Q.indices[p] == i]
                assert len(diag) == 1
                assert math.fsum(off) == -diag[0]


class TestOrdinaryLumpability:
    def test_finest_partition_trivially_lumpable(self, two_site):
        space = enumerate_ball(two_site, 2)
        gen = build_generator(space, two_site, "upper")
        assert check_ordinary_lumpability(gen, space,
                                          Partition.singletons(5)).ok

    @pytest.mark.parametrize("n", [6, 4])
    def test_partition_over_wrong_universe_rejected(self, two_site, n):
        space = enumerate_ball(two_site, 2)
        gen = build_generator(space, two_site, "upper")
        with pytest.raises(StructuralError,
                           match="partition over wrong species universe"):
            check_ordinary_lumpability(gen, space, Partition.singletons(n))

    def test_two_site_partition_lumpable_both_extremals(self, two_site,
                                                        two_site_partition):
        init = two_site.multiset({"A00": 2, "B": 1})
        space = enumerate_states(two_site, init, 3)
        for extremal in ("lower", "upper"):
            gen = build_generator(space, two_site, extremal)
            assert check_ordinary_lumpability(gen, space, two_site_partition).ok

    def test_exact_aggregation_across_refactored_rates(self):
        # state A0111 + A1011 releases through six reactions of rate 0.05 while
        # 2 A0111 releases through three reactions of rate 0.05 * C(2,1); the
        # real aggregates coincide but sequential float summation differs by
        # one ulp (0.05 summed six times vs 0.1 three times). Exact summation
        # must judge these equal on both sides of the oracle.
        doc = cl.multisite_binding_model(4)
        net = doc.network
        part = cl.coarsest_equivalence(net, doc.initial_partition)
        assert cl.check_equivalence(net, part)
        ball = enumerate_ball(net, 3)
        for extremal in ("lower", "upper"):
            gen = build_generator(ball, net, extremal)
            assert check_ordinary_lumpability(gen, ball, part).ok

    def test_perturbed_binding_rate_yields_counterexample(self, two_site,
                                                          two_site_partition):
        broken = perturb_rate(two_site, 4, dhi=0.01)  # A10 + B -> A11
        # two ligands so states with an occupied site and a free B are reachable
        init = broken.multiset({"A00": 1, "B": 2})
        space = enumerate_states(broken, init, 3)
        gen = build_generator(space, broken, "upper")
        res = check_ordinary_lumpability(gen, space, two_site_partition)
        assert not res.ok
        ce = res.counterexample
        assert ce is not None
        assert project_key(ce.state_a.entries, two_site_partition.block_of) \
            == project_key(ce.state_b.entries, two_site_partition.block_of)
        assert ce.aggregate_a != ce.aggregate_b
        d = ce.to_json_dict(broken)
        assert {"state_a", "state_b", "target_block_counts",
                "aggregate_a", "aggregate_b"} <= set(d)


def free_substrate_start(net, bound: int) -> Multiset:
    """bound // 2 ligands B plus the rest as free substrate A0...0."""
    free = net.index_of("A" + "0" * (len(net.names[1]) - 1))
    return Multiset([(0, bound // 2), (free, bound - bound // 2)])


class TestMultisiteOracleAgreesWithReactionLevel:
    """Multisite rates (9.95, 10.05, 0.05, 0.15) are not dyadic, so rounding
    each rate x binomial product before summing made the oracle report
    differences of one ulp between aggregates whose real values coincide."""

    @pytest.mark.parametrize("n,bound", [(2, 20), (3, 20), (2, 40)])
    def test_coarsest_partition_lumpable_both_extremals(self, n, bound):
        net = cl.multisite_binding_model(n).network
        part = cl.coarsest_equivalence(net, Partition.one_block(net.n_species))
        assert cl.check_equivalence(net, part)
        space = enumerate_states(net, free_substrate_start(net, bound), bound)
        for extremal in ("lower", "upper"):
            gen = build_generator(space, net, extremal)
            res = check_ordinary_lumpability(gen, space, part)
            assert res.ok, res.counterexample

    def test_one_ulp_association_rate_is_a_counterexample(self):
        net = cl.multisite_binding_model(2).network
        part = cl.coarsest_equivalence(net, Partition.one_block(net.n_species))
        # an association whose substrate shares its block with another species
        r = next(r for r in net.reactions if r.reactant.total == 2
                 and len(part.blocks[part.block_of[r.reactant.entries[1][0]]]) > 1)
        # lo + (nextafter(lo) - lo) is nextafter(lo) exactly
        broken = perturb_rate(net, r.id,
                              math.nextafter(r.rate.lo, math.inf) - r.rate.lo,
                              math.nextafter(r.rate.hi, math.inf) - r.rate.hi)
        assert broken.reactions[r.id].rate.hi == math.nextafter(r.rate.hi,
                                                               math.inf)
        assert not cl.check_equivalence(broken, part)
        space = enumerate_states(broken, free_substrate_start(broken, 20), 20)
        for extremal in ("lower", "upper"):
            gen = build_generator(space, broken, extremal)
            res = check_ordinary_lumpability(gen, space, part)
            assert not res.ok
            ce = res.counterexample
            assert project_key(ce.state_a.entries, part.block_of) \
                == project_key(ce.state_b.entries, part.block_of)
            assert ce.aggregate_a != ce.aggregate_b


RATES = [0.05, 0.1, 0.25, 1.0 / 3.0, 2.0, 9.95, 10.05]


def oracle_network(rng: random.Random) -> ReactionNetwork:
    """Small network mixing unimolecular, bimolecular, homodimer and trimer
    reactions, creation reactions (which truncate), degradation, no-ops and
    zero lower rates. Duplicated reactions put several terms into one
    generator entry; species-swapped twins make lifted classes with several
    states lumpable."""
    k = rng.randint(1, 4)
    names = [f"S{i}" for i in range(k)]
    reactions: list = []

    def add(reactant, product, rate):
        reactions.append(Reaction(Multiset(reactant), Multiset(product), rate,
                                  len(reactions)))

    for _ in range(rng.randint(1, 6)):
        a, b, c = (rng.randrange(k) for _ in range(3))
        reactant, product = rng.choice([
            ([(a, 1)], [(b, 1)]), ([(a, 1), (b, 1)], [(c, 1)]),
            ([(a, 2)], [(b, 1)]), ([(a, 3)], [(b, 1), (c, 1)]),
            ([(a, 1)], [(a, 1), (b, 1)]), ([], [(a, 1)]),
            ([(a, 1)], []), ([(a, 1)], [(a, 1)])])
        lo = rng.choice([0.0] + RATES)
        rate = RateInterval(lo, lo + rng.choice([0.0, 0.05, 1.0]))
        add(reactant, product, rate)
        if rng.random() < 0.2:
            point = rng.choice(RATES)
            add(reactant, product, RateInterval(point, point))
        if k >= 2 and rng.random() < 0.5:
            x, y = rng.sample(range(k), 2)
            swap = {x: y, y: x}
            add([(swap.get(i, i), n) for i, n in reactant],
                [(swap.get(i, i), n) for i, n in product], rate)
    return from_reactions(names, reactions)


class TestArrayOracleMatchesLoops:
    """The array-based enumeration, generator and lumpability check against
    the per-state loops in conftest, with exact rational arithmetic."""

    def cases(self):
        rng = random.Random(20261018)
        for _ in range(80):
            net = oracle_network(rng)
            parts = [cl.coarsest_equivalence(net, Partition.one_block(net.n_species)),
                     random_partition(rng, net.n_species)]
            bound = rng.randint(0, 4)
            yield net, parts, enumerate_ball(net, bound), \
                loop_enumerate_ball(net, bound)
            init = Multiset([(rng.randrange(net.n_species), rng.randint(1, 3))
                             for _ in range(2)])
            bound = init.total + rng.randint(0, 3)
            yield net, parts, enumerate_states(net, init, bound), \
                loop_enumerate_states(net, init, bound)

    def test_spaces_generators_and_verdicts(self):
        seen = {"truncated": 0, "multi_term": 0, "lumpable": 0, "not": 0}
        for net, parts, space, ref in self.cases():
            assert space.states == ref.states
            assert space.index == ref.index
            assert space.truncated == ref.truncated
            assert [tuple(r) for r in space.counts.tolist()] == [
                tuple(s.count(i) for i in range(net.n_species))
                for s in ref.states]
            seen["truncated"] += space.truncated
            for extremal in ("lower", "upper"):
                gen = build_generator(space, net, extremal)
                assert np.array_equal(gen.matrix.toarray(),
                                      loop_generator(ref, net, extremal))
                # the terms are error-free: they sum to the exact rates
                exact: dict = {}
                n_terms = Counter()
                for i, j, h, l in zip(*gen.terms):
                    exact[i, j] = exact.get((i, j), 0) + Fraction(h) + Fraction(l)
                    n_terms[i, j] += 1
                seen["multi_term"] += max(n_terms.values(), default=0) > 1
                assert exact == {(i, j): v for i, acc in enumerate(
                    exact_transitions(ref, net, extremal)) for j, v in acc.items()}
                for part in parts:
                    res = check_ordinary_lumpability(gen, space, part)
                    want = loop_lumpability(ref, net, extremal, part)
                    assert res.ok == (want is None)
                    seen["lumpable" if res.ok else "not"] += 1
                    if want is not None:
                        ce = res.counterexample
                        assert (ce.state_a, ce.state_b, ce.target_key,
                                ce.aggregate_a, ce.aggregate_b) == want
        # the corpus exercises every path it is meant to
        assert all(v > 0 for v in seen.values()), seen


class TestGeneratorRange:
    def test_large_rates_keep_their_entries(self):
        # near the float maximum the split must not overflow: a single-term
        # entry is the rounded product rate x binomial, as it always was
        doc = cl.parse_model("species A B\n2 A -> B , [1e306 : 1.7e308]\n"
                             "A -> 0 , 0.1\n")
        net = doc.network
        for extremal, rate, n in (("lower", 1e306, 4), ("upper", 1.7e308, 2)):
            space = enumerate_states(net, Multiset([(0, n)]), n)
            gen = build_generator(space, net, extremal)
            i = space.index[Multiset([(0, n)])]
            j = space.index[Multiset([(0, n - 2), (1, 1)])]
            assert gen.matrix[i, j] == rate * math.comb(n, 2)
            assert np.array_equal(gen.matrix.toarray(),
                                  loop_generator(space, net, extremal))
            exact = exact_transitions(space, net, extremal)
            assert all(Fraction(h) + Fraction(l) == exact[i][j]
                       for i, j, h, l in zip(*gen.terms))

    @pytest.mark.parametrize("extremal", ["lower", "upper"])
    def test_overflowing_product_names_reaction_and_state(self, extremal):
        doc = cl.parse_model("species A B\n2 A -> B , [1e306 : 1e307]\n")
        net = doc.network
        space = enumerate_states(net, Multiset([(0, 400)]), 400)
        with pytest.raises(PropensityOverflowError,
                           match=r"reaction 0 \(2 A -> B\).* at state 400 A$"):
            build_generator(space, net, extremal)

    def test_overflowing_row_sum_names_state(self):
        doc = cl.parse_model("species A B C\nA -> B , 1.7e308\n"
                             "A -> C , 1.7e308\n")
        net = doc.network
        space = enumerate_states(net, Multiset([(0, 1)]), 1)
        with pytest.raises(PropensityOverflowError,
                           match="total outflow overflows at state A$"):
            build_generator(space, net, "lower")

    def test_falling_binomial_above_2_53_is_rejected(self):
        # C(5000, 5) > 2**53 > C(4000, 5)
        doc = cl.parse_model("species A\n5 A -> 0 , 0.1\n")
        net = doc.network
        space = enumerate_states(net, Multiset([(0, 5000)]), 5000)
        with pytest.raises(PropensityOverflowError,
                           match=r"falling binomial exceeds 2\*\*53 at state 5000 A$"):
            build_generator(space, net, "lower")
        space = enumerate_states(net, Multiset([(0, 4000)]), 4000)
        gen = build_generator(space, net, "lower")
        i = space.index[Multiset([(0, 4000)])]
        assert gen.matrix[i, space.index[Multiset([(0, 3995)])]] == float(
            Fraction(0.1) * math.comb(4000, 5))

    def test_negative_bound_is_rejected(self, two_site):
        for enumerate_ in (lambda: enumerate_ball(two_site, -1),
                           lambda: enumerate_states(two_site, Multiset(), -1)):
            with pytest.raises(ValueError, match="pop_bound .* got -1"):
                enumerate_()

    @pytest.mark.parametrize("bound", [2.5, 2.0])
    def test_non_integer_bound_is_rejected(self, two_site, bound):
        for enumerate_ in (lambda: enumerate_ball(two_site, bound),
                           lambda: enumerate_states(two_site, Multiset(),
                                                    bound)):
            with pytest.raises(ValueError,
                               match=f"^pop_bound must be a non-negative "
                                     f"integer, got {bound}$"):
                enumerate_()
        # a numpy integer is an integer
        assert enumerate_ball(two_site, np.int64(2)).n_states == 21


class TestTransient:
    def test_time_zero_is_identity(self, two_site):
        init = two_site.multiset({"A00": 1, "B": 1})
        space = enumerate_states(two_site, init, 2)
        gen = build_generator(space, two_site, "lower")
        p0 = np.zeros(space.n_states)
        p0[space.index[init]] = 1.0
        assert np.array_equal(transient_solve(gen, p0, 0.0), p0)

    def test_two_state_chain_closed_form(self):
        doc = cl.parse_model("species a b\na -> b , 1.0\nb -> a , 1.0\n")
        net = doc.network
        space = enumerate_states(net, Multiset([(0, 1)]), 1)
        gen = build_generator(space, net, "lower")
        p0 = np.zeros(2)
        p0[space.index[Multiset([(0, 1)])]] = 1.0
        for t in (0.3, 1.0, 10.0):
            pt = transient_solve(gen, p0, t)
            exact_a = 0.5 * (1.0 + math.exp(-2.0 * t))
            assert pt[space.index[Multiset([(0, 1)])]] == pytest.approx(
                exact_a, abs=1e-10)
        pt = transient_solve(gen, p0, 10.0)
        assert np.all(np.abs(pt - 0.5) < 1e-6)
        assert abs(pt.sum() - 1.0) < 1e-10

    def test_lifted_transients_match_quotient(self, two_site, two_site_partition):
        init = two_site.multiset({"A00": 2, "B": 1})
        space_o = enumerate_states(two_site, init, 3)
        assert not space_o.truncated
        lumped, _ = cl.quotient(two_site, two_site_partition)
        linit = lumped.multiset({"A00": 2, "B": 1})
        space_l = enumerate_states(lumped, linit, 3)
        assert not space_l.truncated
        for extremal in ("lower", "upper"):
            gen_o = build_generator(space_o, two_site, extremal)
            gen_l = build_generator(space_l, lumped, extremal)
            p0 = np.zeros(space_o.n_states)
            p0[space_o.index[init]] = 1.0
            q0 = np.zeros(space_l.n_states)
            q0[space_l.index[linit]] = 1.0
            for t in (0.5, 1.0, 5.0):
                pt = transient_solve(gen_o, p0, t)
                qt = transient_solve(gen_l, q0, t)
                lifted = {}
                for i, s in enumerate(space_o.states):
                    key = project_key(s.entries, two_site_partition.block_of)
                    lifted[key] = lifted.get(key, 0.0) + pt[i]
                for j, s in enumerate(space_l.states):
                    key = tuple((i, c) for i, c in s.entries)
                    assert qt[j] == pytest.approx(lifted.get(key, 0.0), abs=1e-9)

    @staticmethod
    def _window(lam, eps):
        """First index and weights of the Poisson window: w = 1 at the mode
        floor(lam), w_{k-1} = w_k k / lam below it and w_{k+1} = w_k lam /
        (k + 1) above it, each side ending at the first k whose geometric
        tail bound w q / (1 - q) is at most eps / 4 (q = k / lam below, q =
        lam / (k + 1) above), normalized by the fsum of the kept weights."""
        def side(k, q_of, step):
            w, out = 1.0, []
            while True:
                q = q_of(k)
                if q == 0.0 or (q < 1.0 and w * q / (1.0 - q) <= eps / 4):
                    return k, out
                w *= q
                k += step
                out.append(w)

        m = int(lam)
        left, below = side(m, lambda k: k / lam, -1)
        _, above = side(m, lambda k: lam / (k + 1), 1)
        weights = below[::-1] + [1.0] + above
        total = math.fsum(weights)
        return left, [w / total for w in weights]

    def test_matches_row_vector_product_bit_for_bit(self, two_site):
        """Stepping with the transposed matrix gives exactly the numbers of
        the row-vector product p @ P of the uniformization series over the
        window of Poisson weights around the mode."""
        init = two_site.multiset({"A00": 3, "B": 4})
        space = enumerate_states(two_site, init, 7)
        gen = build_generator(space, two_site, "upper")
        p0 = np.zeros(space.n_states)
        p0[space.index[init]] = 1.0
        Q = gen.matrix
        rate = float(-Q.diagonal().min())
        P = scipy.sparse.eye(Q.shape[0], format="csr") + Q.multiply(1.0 / rate)
        for t in (0.05, 0.7, 40.0):  # rate 48
            left, weights = self._window(rate * t, 1e-12)
            term = p0.copy()
            for _ in range(left):
                term = term @ P
            p = weights[0] * term
            for w in weights[1:]:
                term = term @ P
                p += w * term
            assert (left == 0) == (t < 0.1)  # only lam = 2.4 starts at 0
            assert np.array_equal(transient_solve(gen, p0, t), p)

    @staticmethod
    def _two_state_chain():
        """`a <-> b` at rate 1 from `a`: uniformization rate 1, and
        p_a(t) = (1 + exp(-2 t)) / 2."""
        net = cl.parse_model("species a b\na -> b , 1.0\nb -> a , 1.0\n").network
        space = enumerate_states(net, Multiset([(0, 1)]), 1)
        gen = build_generator(space, net, "lower")
        a = space.index[Multiset([(0, 1)])]
        p0 = np.zeros(2)
        p0[a] = 1.0
        return gen, p0, a

    @pytest.mark.parametrize("eps", [1e-16, 1e-300])
    def test_tiny_eps_returns(self, eps):
        # the chunked series stopped at `cumulative >= 1 - eps / chunks`,
        # which never held once eps / chunks fell below half an ulp of 1
        gen, p0, a = self._two_state_chain()
        start = time.perf_counter()
        pt = transient_solve(gen, p0, 60.0, eps=eps)
        assert time.perf_counter() - start < 1.0
        assert pt[a] == pytest.approx(0.5 * (1.0 + math.exp(-120.0)),
                                      abs=1e-15)
        assert abs(pt.sum() - 1.0) <= 1e-15

    @pytest.mark.parametrize("t", [0.3, 60.0, 5000.0])
    def test_within_eps_of_the_closed_form(self, t):
        # lam t = 0.3 has its mode at 0, so the window has no lower side
        gen, p0, a = self._two_state_chain()
        exact = np.full(2, 0.5 * (1.0 - math.exp(-2.0 * t)))
        exact[a] = 0.5 * (1.0 + math.exp(-2.0 * t))
        for eps in (1e-12, 1e-6):
            pt = transient_solve(gen, p0, t, eps=eps)
            assert np.abs(pt - exact).sum() <= eps + 1e-13

    @pytest.mark.parametrize("t", [0.3, 40.0, 60.0, 5000.0])
    def test_products_within_the_window_bound(self, t, monkeypatch):
        # at most lam + 9 sqrt(lam) + 10 sparse products at eps = 1e-12
        gen, p0, _ = self._two_state_chain()
        matmul, count = scipy.sparse.csr_matrix.__matmul__, [0]

        def counted(self, other):
            count[0] += 1
            return matmul(self, other)

        monkeypatch.setattr(scipy.sparse.csr_matrix, "__matmul__", counted)
        transient_solve(gen, p0, t)
        left, weights = self._window(t, 1e-12)
        assert count[0] == left + len(weights) - 1
        assert count[0] <= t + 9.0 * math.sqrt(t) + 10.0

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_time_is_rejected(self, two_site, t):
        init = two_site.multiset({"A00": 1, "B": 1})
        space = enumerate_states(two_site, init, 2)
        gen = build_generator(space, two_site, "lower")
        p0 = np.zeros(space.n_states)
        p0[space.index[init]] = 1.0
        with pytest.raises(ValueError, match="^t must be a finite number"):
            transient_solve(gen, p0, t)

    def test_truncated_space_warns(self):
        doc = cl.parse_model("species A\nA -> A + A , 1.0\n")
        space = enumerate_states(doc.network, Multiset([(0, 1)]), 3)
        gen = build_generator(space, doc.network, "lower")
        with pytest.warns(ApproximateResultWarning):
            transient_solve(gen, np.array([1.0, 0.0, 0.0]), 0.5)

    def test_fast_chain_is_rejected(self):
        doc = cl.parse_model("species A B\nA -> B , 1e300\n")
        space = enumerate_states(doc.network, Multiset([(0, 1)]), 1)
        gen = build_generator(space, doc.network, "lower")
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"rate 1e\+300 x t 1\.0 exceeds"):
            transient_solve(gen, np.array([1.0, 0.0]), 1.0)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("p0, eps, message", [
        ([1.0, 0.0, 0.0], -1.0, "^eps must be a finite number in"),
        ([1.0, 0.0, 0.0], 0.0, "^eps must be a finite number in"),
        ([1.0, 0.0, 0.0], 1.0, "^eps must be a finite number in"),
        ([1.0, 0.0, 0.0], math.nan, "^eps must be a finite number in"),
        ([1.0, 0.0, 0.0], math.inf, "^eps must be a finite number in"),
        ([1.0, 0.0], 1e-12, r"^p0 has shape \(2,\); the space has 3 states"),
        ([[1.0, 0.0, 0.0]], 1e-12, r"^p0 has shape \(1, 3\)"),
        ([math.nan, 0.5, 0.5], 1e-12, "^p0 must hold finite non-negative"),
        ([math.inf, 0.0, 0.0], 1e-12, "^p0 must hold finite non-negative"),
        ([1.5, -0.5, 0.0], 1e-12, "^p0 must hold finite non-negative"),
        ([0.5, 0.0, 0.0], 1e-12, "^p0 must sum to 1"),
    ])
    def test_bad_eps_and_p0_are_rejected(self, p0, eps, message):
        # eps = -1 used to loop forever, eps = nan and a nan p0 to return a
        # wrong distribution, a short p0 to fail inside numpy
        doc = cl.parse_model("species A B\nA -> B , 1.0\n")
        space = enumerate_states(doc.network, Multiset([(0, 2)]), 2)
        gen = build_generator(space, doc.network, "lower")
        assert space.n_states == 3
        with pytest.raises(ValueError, match=message):
            transient_solve(gen, p0, 1.0, eps=eps)

    def test_long_horizon(self):
        doc = cl.parse_model("species a b\na -> b , 30.0\nb -> a , 30.0\n")
        net = doc.network
        space = enumerate_states(net, Multiset([(0, 1)]), 1)
        gen = build_generator(space, net, "lower")
        pt = transient_solve(gen, np.array([1.0, 0.0]), 50.0)
        assert np.all(np.abs(pt - 0.5) < 1e-9)
        assert abs(pt.sum() - 1.0) < 1e-10


class TestSsa:
    def test_zero_rates_constant_path(self):
        doc = cl.parse_model("species A B\nA -> B , [0.0 : 1.0]\n")
        path = ssa_simulate(doc.network, Multiset([(0, 5)]), [0.0], 2.0, seed=1)
        assert len(path.times) == 1
        assert np.array_equal(path.states_at([0.0, 1.0, 2.0]),
                              [[5, 0], [5, 0], [5, 0]])

    def test_reproducible_for_fixed_seed(self, two_site):
        alpha = [r.rate.midpoint for r in two_site.reactions]
        init = two_site.multiset({"A00": 5, "B": 5})
        a = ssa_simulate(two_site, init, alpha, 1.0, seed=42)
        b = ssa_simulate(two_site, init, alpha, 1.0, seed=42)
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.states, b.states)

    def test_death_process_mean(self):
        doc = cl.parse_model("species A\nA -> 0 , 1.0\n")
        net = doc.network
        n_paths = 10_000
        total = 0.0
        for seed in range(n_paths):
            path = ssa_simulate(net, Multiset([(0, 100)]), [1.0], 1.0, seed)
            total += path.states_at([1.0])[0][0]
        mean = total / n_paths
        exact = 100.0 * math.exp(-1.0)
        se = math.sqrt(100.0 * math.exp(-1.0) * (1 - math.exp(-1.0)) / n_paths)
        assert abs(mean - exact) <= 3.0 * se

    def test_holding_times_exponential(self):
        # pure-death chain: holding time i is Exp(count_i); rescaling by the
        # state propensity gives an i.i.d. Exp(1) sample
        doc = cl.parse_model("species A\nA -> 0 , 1.0\n")
        path = ssa_simulate(doc.network, Multiset([(0, 600)]), [1.0], 1e9, seed=3)
        holds = np.diff(path.times)
        counts = path.states[:-1, 0].astype(float)
        sample = holds * counts
        stat = scipy.stats.kstest(sample, "expon")
        assert stat.pvalue > 0.01

    def test_rates_validated_against_intervals(self, two_site):
        alpha = [r.rate.hi + 1.0 for r in two_site.reactions]
        with pytest.raises(ValueError):
            ssa_simulate(two_site, two_site.multiset({"A00": 1}), alpha, 1.0, 0)

    def test_propensity_overflow_aborts(self):
        doc = cl.parse_model("species A\n2 A -> 2 A + A , 1.0\n")
        with pytest.raises(PropensityOverflowError):
            ssa_simulate(doc.network, Multiset([(0, 3_000_000_000)]), [1.0],
                         1.0, seed=0)

    def test_golden_paths(self, two_site):
        # paths recorded at fixed seeds: the sampling order and arithmetic
        # must not change, with or without population scaling
        alpha = [r.rate.midpoint for r in two_site.reactions]
        path = ssa_simulate(two_site, two_site.multiset(
            {"A00": 3, "B": 3, "A11": 1}), alpha, 1.5, seed=11)
        assert [t.hex() for t in path.times.tolist()] == [
            '0x0.0p+0', '0x1.64d13e5a677a0p-6', '0x1.678f732abb8b3p-3',
            '0x1.0a347dc2b0acfp-2', '0x1.76cd70d47a339p-2',
            '0x1.eff7cbea08349p-2', '0x1.1246af00ad48ap-1',
            '0x1.18f1460190cb4p-1', '0x1.29b4e90e7cd33p+0']
        assert path.states.tolist() == [
            [3, 3, 0, 0, 1], [2, 2, 1, 0, 1], [1, 1, 2, 0, 1], [0, 1, 1, 0, 2],
            [1, 1, 1, 1, 1], [0, 1, 0, 1, 2], [1, 2, 0, 0, 2], [0, 1, 1, 0, 2],
            [1, 2, 0, 0, 2]]
        path = ssa_simulate(two_site, two_site.multiset(
            {"A00": 6, "B": 6, "A11": 2}), alpha, 0.3, seed=4, N=4, c=3.0)
        assert [t.hex() for t in path.times.tolist()] == [
            '0x0.0p+0', '0x1.761c911569d86p-7', '0x1.22a52126e2a96p-5',
            '0x1.41e23f8ed4567p-5', '0x1.44d33377fb335p-3',
            '0x1.e9377676100c2p-3', '0x1.2d70211be7826p-2']
        assert path.states.tolist() == [
            [6, 6, 0, 0, 2], [5, 5, 0, 1, 2], [4, 4, 0, 2, 2], [5, 5, 0, 1, 2],
            [4, 4, 1, 1, 2], [3, 3, 1, 2, 2], [4, 4, 1, 1, 2]]

    @pytest.mark.parametrize("t_end", [math.nan, math.inf, -1.0])
    def test_bad_horizon_is_rejected(self, two_site, t_end):
        alpha = [r.rate.midpoint for r in two_site.reactions]
        with pytest.raises(ValueError, match="^t_end must be a nonnegative"):
            ssa_simulate(two_site, two_site.multiset({"A00": 1, "B": 1}),
                         alpha, t_end, seed=0)

    def test_initial_state_outside_network(self, two_site):
        alpha = [r.rate.midpoint for r in two_site.reactions]
        with pytest.raises(StructuralError, match="species index 9; the "
                                                  "network has 5"):
            ssa_simulate(two_site, Multiset([(9, 1)]), alpha, 1.0, seed=0)

    @pytest.mark.parametrize("N, c, message", [
        (0, 1.0, "N must be a positive integer"),
        (-2, 1.0, "N must be a positive integer"),
        (2.5, 1.0, "N must be a positive integer"),
        (10, None, "requires a finite cutoff scale c > 0"),
        (10, 0.0, "requires a finite cutoff scale c > 0"),
        (10, -1.0, "requires a finite cutoff scale c > 0"),
        (10, math.inf, "requires a finite cutoff scale c > 0"),
        (10, math.nan, "requires a finite cutoff scale c > 0"),
    ])
    def test_bad_scaling_is_rejected(self, two_site, N, c, message):
        alpha = [r.rate.midpoint for r in two_site.reactions]
        with pytest.raises(ValueError, match=message):
            ssa_simulate(two_site, two_site.multiset({"A00": 1, "B": 1}),
                         alpha, 1.0, seed=0, N=N, c=c)

    def test_scaled_cutoff_freezes_path(self, two_site):
        alpha = [r.rate.midpoint for r in two_site.reactions]
        # initial mass 2N means |sigma| = 2 >= 2c for c = 1: nothing fires
        init = two_site.multiset({"A00": 10, "B": 10})
        path = ssa_simulate(two_site, init, alpha, 1.0, seed=5, N=10, c=1.0)
        assert len(path.times) == 1
