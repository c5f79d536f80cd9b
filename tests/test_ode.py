import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crnlump as cl
from crnlump.model import (Multiset, Partition, RateInterval, Reaction,
                           ReactionNetwork, StructuralError)
from crnlump.parser import ParseError
from crnlump.ode import (RESIDUAL_MAX, ControlSchedule, CostSpec,
                         DivergenceError, Trajectory, block_indicator,
                         block_sums, evaluate_cost, project_control,
                         schedule_from_csv, schedule_to_csv, simulate,
                         trajectory_from_csv, trajectory_to_csv)

from conftest import DenseVectorField, from_reactions, random_partition


class TestVectorField:
    def test_two_site_binding_only(self, two_site):
        # only the two bindings from A00 + B active, both at rate 1
        alpha = np.zeros(8)
        alpha[0] = alpha[2] = 1.0
        v = np.zeros(5)
        v[two_site.index_of("A00")] = 1.0
        v[two_site.index_of("B")] = 1.0
        f = cl.VectorField(two_site)(v, alpha)
        by = {name: f[two_site.index_of(name)] for name in two_site.names}
        assert by["A00"] == -2.0 and by["B"] == -2.0
        assert by["A10"] == 1.0 and by["A01"] == 1.0 and by["A11"] == 0.0

    def test_zero_state_zero_drift(self, two_site):
        alpha = np.ones(8)
        assert np.all(cl.VectorField(two_site)(np.zeros(5), alpha) == 0.0)

    def test_factorial_divisor_on_homodimer(self):
        doc = cl.parse_model("species A\n2 A -> 0 , 1.0\n")
        f = cl.VectorField(doc.network)(np.array([2.0]), np.array([3.0]))
        # -2 * alpha * v^2 / 2! = -2 * 3 * 4 / 2
        assert f[0] == pytest.approx(-12.0)

    def test_linearity_in_controls(self, two_site):
        rng = np.random.default_rng(0)
        v = rng.random(5)
        a1, a2 = rng.random(8), rng.random(8)
        f = cl.VectorField(two_site)(v, 2.0 * a1 + 0.5 * a2)
        vf = cl.VectorField(two_site)
        f12 = 2.0 * vf(v, a1) + 0.5 * vf(v, a2)
        assert np.allclose(f, f12, rtol=0, atol=1e-14)

    def test_creation_from_nothing(self):
        doc = cl.parse_model("species A\n0 -> A , 2.0\n")
        f = cl.VectorField(doc.network)(np.array([5.0]), np.array([2.0]))
        assert f[0] == 2.0


def mass_action_network(rng: random.Random) -> ReactionNetwork:
    """Random network over S0..S{k-1} with `0 -> S0`, `2 S0 + S1 -> S2`, the
    no-op `S0 -> S0`, and random reactions of up to three distinct reactant
    species with counts up to 3; the last species occurs only as a product."""
    k = rng.randint(3, 7)
    sides = [([], [(0, 1)]), ([(0, 2), (1, 1)], [(2, 1)]), ([(0, 1)], [(0, 1)])]
    for _ in range(rng.randint(0, 12)):
        picked = rng.sample(range(k - 1), rng.randint(0, min(3, k - 1)))
        reactant = [(i, rng.randint(1, 3)) for i in picked]
        product = [(rng.randrange(k), rng.randint(1, 2))
                   for _ in range(rng.randint(0, 3))]
        sides.append((reactant, product))
    rng.shuffle(sides)
    reactions = [Reaction(Multiset(a), Multiset(b), RateInterval(1.0, 2.0), j)
                 for j, (a, b) in enumerate(sides)]
    return from_reactions([f"S{i}" for i in range(k)], reactions)


class TestSparseVectorField:
    """The sparse evaluator against the dense reference formula."""

    @staticmethod
    def _compare(net: ReactionNetwork, v: np.ndarray, alpha: np.ndarray):
        vf, ref = cl.VectorField(net), DenseVectorField(net)
        mono, mono_ref = vf.monomials(v), ref.monomials(v)
        few = np.array([len(r.reactant.entries) <= 2 for r in net.reactions],
                       dtype=bool)
        assert np.array_equal(mono[few], mono_ref[few])
        assert np.allclose(mono[~few], mono_ref[~few], rtol=1e-15, atol=0)
        # the sums run in another order: bound the difference by the
        # magnitude of the summed terms
        scale = np.abs(alpha * mono_ref) @ np.abs(ref.stoich)
        assert np.all(np.abs(vf(v, alpha) - ref(v, alpha)) <= 1e-12 * scale)
        assert np.array_equal(
            vf.block_coefficients(Partition.singletons(net.n_species)),
            ref.stoich)
        return vf, ref

    def test_matches_dense_reference_on_random_networks(self):
        for seed in range(150):
            rng = random.Random(seed)
            net = mass_action_network(rng)
            nprng = np.random.default_rng(seed)
            v = nprng.uniform(0.0, 2.0, net.n_species)
            v[nprng.random(net.n_species) < 0.2] = 0.0
            alpha = nprng.uniform(0.1, 3.0, net.n_reactions)
            vf, ref = self._compare(net, v, alpha)
            part = random_partition(rng, net.n_species)
            B = block_indicator(part)
            assert np.array_equal(vf.block_coefficients(part), ref.stoich @ B.T)

    @staticmethod
    def _assert_batched_rows_match(net: ReactionNetwork, rng):
        vf = cl.VectorField(net)
        V = rng.uniform(0.0, 2.0, (6, net.n_species))
        V[rng.random(V.shape) < 0.2] = 0.0
        A = rng.uniform(0.1, 3.0, (6, net.n_reactions))
        mono = vf.monomials(V)
        assert np.array_equal(mono, np.stack([vf.monomials(v) for v in V]))
        assert np.array_equal(vf.drift(A * mono),
                              np.stack([vf.drift(r) for r in A * mono]))
        assert np.array_equal(vf(V, A),
                              np.stack([vf(v, a) for v, a in zip(V, A)]))

    def test_batched_rows_match_row_calls(self):
        for seed in range(40):
            self._assert_batched_rows_match(
                mass_action_network(random.Random(seed)),
                np.random.default_rng(seed))
        params = cl.SirParams(0.4, 0.25, 0.1, RateInterval(0.2, 0.6))
        for doc in (cl.multisite_binding_model(4),
                    cl.sir_star_model(10, params)):
            self._assert_batched_rows_match(doc.network,
                                            np.random.default_rng(0))

    @pytest.mark.parametrize("sides", [
        [],
        [([], [(0, 1)])],
        [([], [(0, 1)]), ([], [(1, 2)])],
        [([(0, 1)], [(0, 1)])],
    ], ids=["no-reactions", "creation", "creations", "noop"])
    def test_degenerate_networks(self, sides):
        reactions = [Reaction(Multiset(a), Multiset(b), RateInterval(1.0, 1.0), j)
                     for j, (a, b) in enumerate(sides)]
        net = from_reactions(["A", "B"], reactions)
        self._compare(net, np.array([0.5, 3.0]), np.full(len(sides), 1.5))
        self._assert_batched_rows_match(net, np.random.default_rng(1))


class TestSchedule:
    def test_validation(self, two_site):
        good = ControlSchedule.midpoint(two_site)
        good.validate_for(two_site)
        bad = ControlSchedule.constant([100.0] * 8)
        with pytest.raises(StructuralError):
            bad.validate_for(two_site)

    def test_segment_lookup_right_continuous(self):
        s = ControlSchedule([0.0, 1.0, 2.5], [[1.0], [2.0], [3.0]])
        assert s.value_at(0.0)[0] == 1.0
        assert s.value_at(0.999)[0] == 1.0
        assert s.value_at(1.0)[0] == 2.0
        assert s.value_at(7.0)[0] == 3.0

    def test_bad_breakpoints(self):
        with pytest.raises(ValueError):
            ControlSchedule([0.5], [[1.0]])
        with pytest.raises(ValueError):
            ControlSchedule([0.0, 0.0], [[1.0], [1.0]])

    def test_csv_round_trip(self):
        s = ControlSchedule([0.0, 0.25], [[1.0, 2.0], [0.5, 0.125]])
        again = schedule_from_csv(schedule_to_csv(s))
        assert np.array_equal(again.breakpoints, s.breakpoints)
        assert np.array_equal(again.values, s.values)


class TestSimulate:
    def test_zero_rates_constant(self):
        doc = cl.parse_model("species A B\nA -> B , 0.0\n")
        v0 = np.array([1.5, 0.25])
        traj = simulate(doc.network, v0, ControlSchedule.constant([0.0]), 1.0, 1e-2)
        assert np.all(traj.states == v0)
        assert len(traj.times) == 101

    def test_grid_includes_breakpoints(self, two_site):
        sched = ControlSchedule([0.0, 0.0305], [[1.0] * 8, [1.5] * 8])
        # clamp values into intervals
        lo = np.array([r.rate.lo for r in two_site.reactions])
        hi = np.array([r.rate.hi for r in two_site.reactions])
        sched = ControlSchedule([0.0, 0.0305],
                                np.clip([[1.0] * 8, [1.5] * 8], lo, hi))
        traj = simulate(two_site, np.ones(5), sched, 0.1, 1e-2)
        assert np.any(np.isclose(traj.times, 0.0305))

    def test_deterministic_bit_identical(self, two_site):
        sched = ControlSchedule.midpoint(two_site)
        v0 = np.array([1.0, 1.0, 0.0, 0.0, 0.0])
        a = simulate(two_site, v0, sched, 1.0, 1e-3)
        b = simulate(two_site, v0, sched, 1.0, 1e-3)
        assert np.array_equal(a.states, b.states)

    def test_substrate_conservation(self):
        doc = cl.multisite_binding_model(2)
        net = doc.network
        v0 = np.zeros(net.n_species)
        v0[net.index_of("B")] = 1.0
        v0[net.index_of("A00")] = 1.0
        traj = simulate(net, v0, ControlSchedule.midpoint(net), 1.0, 1e-3)
        a_cols = [i for i, n in enumerate(net.names) if n.startswith("A")]
        total_a = traj.states[:, a_cols].sum(axis=1)
        assert np.max(np.abs(total_a - total_a[0])) <= 1000 * 10 * np.finfo(float).eps
        # bound ligand conservation: B + occupied sites
        occupied = sum(traj.states[:, net.index_of(f"A{b}")] * f"{b}".count("1")
                       for b in ("00", "01", "10", "11"))
        total_b = traj.states[:, net.index_of("B")] + occupied
        assert np.max(np.abs(total_b - total_b[0])) <= 1e-11

    def test_fourth_order_step_halving(self, two_site):
        sched = ControlSchedule.midpoint(two_site)
        v0 = np.array([1.0, 1.0, 0.0, 0.0, 0.0])
        ref = simulate(two_site, v0, sched, 1.0, 2.5e-4)
        errs = []
        for h in (4e-3, 2e-3):
            traj = simulate(two_site, v0, sched, 1.0, h)
            stride = int(round(h / 2.5e-4))
            errs.append(np.max(np.abs(traj.states - ref.states[::stride])))
        assert errs[0] / errs[1] >= 8.0

    def test_divergence_guard(self):
        doc = cl.parse_model("species A\n2 A -> 3 A , 1.0\n")
        with pytest.raises(DivergenceError) as err:
            simulate(doc.network, np.array([10.0]), ControlSchedule.constant([1.0]),
                     5.0, 1e-3)
        assert 0.0 < err.value.time <= 5.0

    def test_csv_round_trip(self, two_site):
        traj = simulate(two_site, np.ones(5), ControlSchedule.midpoint(two_site),
                        0.01, 1e-3)
        again = trajectory_from_csv(trajectory_to_csv(traj))
        assert np.array_equal(again.times, traj.times)
        assert np.array_equal(again.states, traj.states)
        assert again.names == two_site.names


class TestCsvReaders:
    @pytest.mark.parametrize("text,line,col,message", [
        ("", 1, 1, "header must start with 't'"),
        ("x,A\n0,1\n", 1, 1, "header must start with 't'"),
        ("t,A\n", 2, 1, "no data rows"),
        ("t,A\n0,1\n1,2,3\n", 3, 1, "row has 3 cells, expected 2"),
        ("t,A\n0,1\n\n1\n", 4, 1, "row has 1 cells, expected 2"),
        ("t,A,B\n0,1,x\n", 2, 5, "'x' is not a finite number"),
        ("t,A\n0, nan\n", 2, 3, "'nan' is not a finite number"),
        ("t,A\ninf,1\n", 2, 1, "'inf' is not a finite number"),
        ("t,A\n0,1\n0,2\n", 3, 1, "not after the previous"),
        ("t,A\n0,1\n1,2\n0.5,3\n", 4, 1, "not after the previous"),
    ])
    def test_trajectory_errors_are_located(self, text, line, col, message):
        with pytest.raises(ParseError) as err:
            trajectory_from_csv(text)
        assert (err.value.line, err.value.col) == (line, col)
        assert message in err.value.message

    @pytest.mark.parametrize("text,line,col,message", [
        ("", 1, 1, "no data rows"),
        ("t_start,r0\n", 2, 1, "no data rows"),
        ("t_start,r0,r1\n0,1,2\n1,2\n", 3, 1, "row has 2 cells, expected 3"),
        ("0,1\n1,2,3\n", 2, 1, "row has 3 cells, expected 2"),
        ("t_start,r0\n0,nan\n", 2, 3, "'nan' is not a finite number"),
        ("t_start,r0\n0,1e999\n", 2, 3, "'1e999' is not a finite number"),
        ("t_start,r0\n0,1\n0,2\n", 3, 1, "not after the previous"),
        ("t_start,r0\n0.5,1\n", 2, 1, "first row must be at t = 0.0"),
    ])
    def test_schedule_errors_are_located(self, text, line, col, message):
        with pytest.raises(ParseError) as err:
            schedule_from_csv(text)
        assert (err.value.line, err.value.col) == (line, col)
        assert message in err.value.message

    def test_headerless_schedule(self):
        s = schedule_from_csv("0,1,2\n0.5,3,4\n")
        assert np.array_equal(s.breakpoints, [0.0, 0.5])
        assert np.array_equal(s.values, [[1.0, 2.0], [3.0, 4.0]])

    def test_nan_control_fails_validation(self, two_site):
        values = [r.rate.midpoint for r in two_site.reactions]
        values[3] = float("nan")
        with pytest.raises(StructuralError):
            ControlSchedule.constant(values).validate_for(two_site)

    @settings(max_examples=300)
    @given(st.one_of(
        st.text(alphabet="0123456789.,-+eEnaif t_sr\n ", max_size=60),
        st.lists(st.lists(st.sampled_from(
            ["t", "t_start", "0", "0.5", "1", "-1", "2e-3", " 3 ", "nan",
             "inf", "1e999", "x", ""]), min_size=1, max_size=4).map(",".join),
            max_size=6).map("\n".join)))
    def test_only_parse_errors_escape(self, text):
        for reader in (trajectory_from_csv, schedule_from_csv):
            try:
                reader(text)
            except ParseError:
                pass


class TestBlockSums:
    def test_singleton_partition_identity(self, two_site):
        traj = simulate(two_site, np.ones(5), ControlSchedule.midpoint(two_site),
                        0.01, 1e-3)
        bs = block_sums(traj, Partition.singletons(5))
        assert np.array_equal(bs.states, traj.states)

    def test_two_site_block_sum(self, two_site, two_site_partition):
        traj = simulate(two_site, np.array([1.0, 1.0, 0, 0, 0]),
                        ControlSchedule.midpoint(two_site), 0.1, 1e-3)
        bs = block_sums(traj, two_site_partition)
        mid = traj.states[:, two_site.index_of("A01")] \
            + traj.states[:, two_site.index_of("A10")]
        assert np.allclose(bs.states[:, 2], mid, rtol=0, atol=0)
        assert bs.names == ("B", "A00", "A01", "A11")

    def test_zero_trajectory(self, two_site, two_site_partition):
        traj = Trajectory(np.array([0.0, 1.0]), np.zeros((2, 5)))
        assert np.all(block_sums(traj, two_site_partition).states == 0.0)


class TestEvaluateCost:
    def test_zero_weights(self, two_site):
        traj = simulate(two_site, np.ones(5), ControlSchedule.midpoint(two_site),
                        1.0, 1e-2)
        cost = CostSpec(np.zeros(5), np.zeros(5), 1.0)
        assert evaluate_cost(traj, cost) == 0.0

    def test_constant_trajectory_closed_form(self):
        doc = cl.parse_model("species A B\nA -> B , 0.0\n")
        v0 = np.array([0.7, 0.7])
        traj = simulate(doc.network, v0, ControlSchedule.constant([0.0]), 1.0, 1e-2)
        cost = CostSpec(np.ones(2), np.ones(2), 1.0)
        # L = sum v = 1.4 over T = 1, plus K = 1.4
        assert evaluate_cost(traj, cost) == pytest.approx(2.8, rel=1e-12)

    def test_against_independent_quadrature(self):
        doc = cl.sir_star_model(5, cl.SirParams(0.4, 0.25, 0.1))
        net = doc.network
        v0 = np.zeros(net.n_species)
        for i in range(1, 6):
            v0[net.index_of(f"S{i}")] = 0.9
            v0[net.index_of(f"I{i}")] = 0.1
        traj = simulate(net, v0, ControlSchedule.midpoint(net), 2.0, 1e-3)
        w_run = np.zeros(net.n_species)
        w_fin = np.zeros(net.n_species)
        for i in range(1, 6):
            w_run[net.index_of(f"I{i}")] = 1.0
            w_fin[net.index_of(f"V{i}")] = 1.0
        cost = CostSpec(w_run, w_fin, 2.0)
        mine = evaluate_cost(traj, cost)
        oracle = float(np.trapezoid(traj.states @ w_run, traj.times)
                       + traj.states[-1] @ w_fin)
        assert mine == pytest.approx(oracle, rel=1e-9)

    def test_horizon_beyond_trajectory(self, two_site):
        traj = simulate(two_site, np.ones(5), ControlSchedule.midpoint(two_site),
                        1.0, 1e-2)
        with pytest.raises(StructuralError):
            evaluate_cost(traj, CostSpec(np.ones(5), np.zeros(5), 2.0))

    @pytest.mark.parametrize("horizon", [math.nan, math.inf, -1.0])
    def test_bad_horizon_rejected(self, horizon):
        with pytest.raises(ValueError, match="^horizon must be a nonnegative"):
            CostSpec(np.ones(2), np.ones(2), horizon)

    @pytest.mark.parametrize("running, final", [
        ([1.0, math.nan], [0.0, 0.0]), ([0.0, 0.0], [-math.inf, 0.0])])
    def test_non_finite_weights_rejected(self, running, final):
        with pytest.raises(ValueError, match="^cost weights must be finite"):
            CostSpec(np.array(running), np.array(final), 1.0)

    @pytest.mark.parametrize("running, final", [(4, 5), (5, 6), (6, 6)])
    def test_weights_must_match_trajectory_width(self, two_site, running,
                                                 final):
        traj = simulate(two_site, np.ones(5), ControlSchedule.midpoint(two_site),
                        1.0, 1e-2)
        cost = CostSpec(np.ones(running), np.ones(final), 1.0)
        with pytest.raises(StructuralError, match=r"cost weights of lengths "
                           rf"\({running}, {final}\) for a trajectory of 5"):
            evaluate_cost(traj, cost)

    def test_block_respecting_projection(self, two_site_partition):
        w = np.array([1.0, 2.0, 3.0, 3.0, 4.0])
        cost = CostSpec(w, w, 1.0)
        assert cost.respects(two_site_partition)
        lumped = cost.project(two_site_partition)
        assert np.array_equal(lumped.running_weights, [1.0, 2.0, 3.0, 4.0])
        bad = CostSpec(np.array([1, 2, 3, 9, 4.0]), w, 1.0)
        assert not bad.respects(two_site_partition)
        with pytest.raises(StructuralError):
            bad.project(two_site_partition)


class TestProjectControl:
    def _setup(self, two_site, two_site_partition, vals):
        lumped, _ = cl.quotient(two_site, two_site_partition)
        sched = ControlSchedule([0.0], [vals])
        v0 = np.array([0.6, 0.5, 0.2, 0.3, 0.1])
        traj = simulate(two_site, v0, sched, 0.2, 1e-3)
        return lumped, sched, traj

    def _witness(self, two_site, lumped, vals, v):
        """Analytic lumped control matching the block-summed drift term by
        term: fused bindings sum, opposing unbindings take the state-weighted
        mean. One of many minimizers (reverse reaction pairs make drift-match
        columns anti-parallel, so the optimum is a face, not a point)."""
        i01, i10 = two_site.index_of("A01"), two_site.index_of("A10")
        mid = v[i01] + v[i10]
        by_key = {(r.reactant.format(lumped.names), r.product.format(lumped.names)):
                  r.id for r in lumped.reactions}
        w = np.empty(4)
        w[by_key[("B + A00", "A01")]] = vals[0] + vals[2]
        w[by_key[("A01", "B + A00")]] = \
            (vals[1] * v[i10] + vals[3] * v[i01]) / mid if mid else vals[1]
        w[by_key[("B + A01", "A11")]] = \
            (vals[4] * v[i10] + vals[6] * v[i01]) / mid if mid else vals[4]
        w[by_key[("A11", "B + A01")]] = vals[5] + vals[7]
        return w

    def _drift_match_residual(self, two_site, two_site_partition, lumped,
                              v, alpha, ahat):
        B = block_indicator(two_site_partition)
        target = B @ cl.VectorField(two_site)(v, np.asarray(alpha))
        lvf = cl.VectorField(lumped)
        coeff = lvf.block_coefficients(Partition.singletons(lumped.n_species))
        M = (coeff * lvf.monomials(B @ v)[:, None]).T
        return float(np.linalg.norm(M @ ahat - target))

    def test_symmetric_controls_match_term_by_term(self, two_site,
                                                   two_site_partition):
        # alpha2 == alpha4 and alpha5 == alpha7: summing the bindings and
        # keeping the shared unbinding value matches the drift exactly
        vals = [1.2, 0.6, 1.7, 0.6, 2.0, 0.3, 2.0, 0.35]
        lumped, sched, traj = self._setup(two_site, two_site_partition, vals)
        lsched, worst = project_control(two_site, two_site_partition, lumped,
                                        traj, sched)
        assert worst <= 1e-10
        lsched.validate_for(lumped)
        for k in (0, 100, 199):
            w = self._witness(two_site, lumped, vals, traj.states[k])
            res = self._drift_match_residual(two_site, two_site_partition,
                                             lumped, traj.states[k], vals, w)
            assert res <= 1e-12
            unbind1 = next(r.id for r in lumped.reactions
                           if r.reactant.format(lumped.names) == "A01")
            assert w[unbind1] == 0.6  # shared unbinding value survives

    def test_asymmetric_controls_weighted_mean_is_a_minimizer(
            self, two_site, two_site_partition):
        vals = [1.2, 0.55, 1.7, 0.7, 2.0, 0.3, 2.0, 0.35]
        lumped, sched, traj = self._setup(two_site, two_site_partition, vals)
        lsched, worst = project_control(two_site, two_site_partition, lumped,
                                        traj, sched)
        assert worst <= 1e-10
        lsched.validate_for(lumped)
        lo = np.array([r.rate.lo for r in lumped.reactions])
        hi = np.array([r.rate.hi for r in lumped.reactions])
        for k in (50, 120, 180):
            w = self._witness(two_site, lumped, vals, traj.states[k])
            assert np.all((w >= lo) & (w <= hi))  # weighted means stay in box
            res = self._drift_match_residual(two_site, two_site_partition,
                                             lumped, traj.states[k], vals, w)
            assert res <= 1e-12
        # the returned schedule reproduces the lumped dynamics regardless of
        # which minimizer was selected
        vhat0 = block_indicator(two_site_partition) @ traj.states[0]
        ltraj = simulate(lumped, vhat0, lsched, 0.2, 1e-3)
        gap = np.max(np.abs(block_sums(traj, two_site_partition).states
                            - ltraj.states))
        assert gap <= 1e-7

    def test_one_point_trajectory_rejected(self, two_site, two_site_partition):
        lumped, _ = cl.quotient(two_site, two_site_partition)
        sched = ControlSchedule.midpoint(two_site)
        traj = simulate(two_site, np.full(5, 0.5), sched, 0.0, 1e-3)
        assert len(traj.times) == 1
        with pytest.raises(StructuralError, match="the trajectory has 1 time "
                           r"point\(s\); control transfer needs at least two"):
            project_control(two_site, two_site_partition, lumped, traj, sched)

    @staticmethod
    def _multisite_2():
        doc = cl.multisite_binding_model(2)
        net = doc.network
        part = cl.coarsest_equivalence(net, doc.initial_partition)
        lumped, _ = cl.quotient(net, part)
        sched = ControlSchedule.midpoint(net)
        traj = simulate(net, np.full(5, 0.5), sched, 0.02, 0.01)
        return net, part, lumped, sched, traj

    @pytest.mark.parametrize("case,message", [
        ("universe-6", "partition over wrong species universe"),
        ("universe-4", "partition over wrong species universe"),
        ("trajectory", "trajectory does not match network"),
        ("blocks", "partition size does not match lumped network")])
    def test_mismatched_inputs_rejected(self, case, message):
        net, part, lumped, sched, traj = self._multisite_2()
        if case.startswith("universe"):
            # as many blocks as the lumped network has species
            n, m = int(case[-1]), lumped.n_species
            part = Partition([(i,) for i in range(m - 1)] + [range(m - 1, n)],
                             n)
        elif case == "trajectory":
            traj = Trajectory(traj.times, traj.states[:, 1:], sched)
        else:
            part = Partition.singletons(net.n_species)
        with pytest.raises(StructuralError, match=message):
            project_control(net, part, lumped, traj, sched)

    def test_residual_above_threshold_raises(self):
        # a lumped network whose rates are pinned at zero cannot match the
        # original's nonzero block drift
        net, part, lumped, sched, traj = self._multisite_2()
        t = lumped.table
        pinned = ReactionNetwork(lumped.names, t._replace(lo=0.0 * t.lo,
                                                          hi=0.0 * t.hi))
        with pytest.raises(cl.ProjectionFailureError,
                           match="projection residual") as err:
            project_control(net, part, pinned, traj, sched)
        assert err.value.residual > RESIDUAL_MAX
        assert err.value.converged and err.value.time in traj.times

    def test_zero_state_any_feasible(self, two_site, two_site_partition):
        lumped, _ = cl.quotient(two_site, two_site_partition)
        sched = ControlSchedule.midpoint(two_site)
        traj = Trajectory(np.array([0.0, 0.1, 0.2]), np.zeros((3, 5)), sched)
        lsched, worst = project_control(two_site, two_site_partition, lumped,
                                        traj, sched)
        assert worst == 0.0
        lsched.validate_for(lumped)

    def test_non_convergence_raises(self, two_site, two_site_partition,
                                    monkeypatch):
        vals = [1.2, 0.55, 1.7, 0.7, 2.0, 0.3, 2.0, 0.35]
        lumped, sched, traj = self._setup(two_site, two_site_partition, vals)
        monkeypatch.setattr("crnlump.ode.ITERS_PER_COORDINATE", 0)
        with pytest.raises(cl.ProjectionFailureError,
                           match="solver did not converge") as err:
            project_control(two_site, two_site_partition, lumped, traj, sched)
        assert err.value.time == 0.0 and not err.value.converged
