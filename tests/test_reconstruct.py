import itertools

import numpy as np
import pytest

import crnlump as cl
from crnlump.model import Multiset, Partition, RateInterval, Reaction, \
    StructuralError
from crnlump.ode import (BoxLeastSquares, ControlSchedule, DriftMatch,
                         Trajectory, VectorField, block_indicator, block_sums,
                         rk4_step, simulate)
from crnlump.reconstruct import (DriftMatchProblem, ReconstructionFailureError,
                                 build_drift_match, reconstruct_trajectory,
                                 solve_box_ls, stage_drifts)

from conftest import TWO_SITE_TEXT, from_reactions


def bundled_model(name):
    """A bundled model and its coarsest equivalence."""
    doc = {"two-site": lambda: cl.parse_model(TWO_SITE_TEXT),
           "multisite-4": lambda: cl.multisite_binding_model(4),
           "star-sir-10": lambda: cl.sir_star_model(
               10, cl.SirParams(0.4, 0.25, 0.1, RateInterval(0.2, 0.6)))}[name]()
    net = doc.network
    return net, cl.coarsest_equivalence(net, doc.initial_partition)


BUNDLED = ("two-site", "multisite-4", "star-sir-10")


class TestBuildDriftMatch:
    def test_zero_state_zero_matrix(self, two_site, two_site_partition):
        prob = build_drift_match(two_site, two_site_partition, np.zeros(5),
                                 np.zeros(4))
        assert not np.any(prob.M)

    def test_two_site_coefficients(self, two_site, two_site_partition):
        v = np.zeros(5)
        v[two_site.index_of("A00")] = 1.0
        v[two_site.index_of("B")] = 1.0
        prob = build_drift_match(two_site, two_site_partition, v, np.zeros(4))
        # block {A01, A10} gains one unit from each binding reaction (ids 0, 2)
        # at monomial v_A00 * v_B = 1
        mid_row = prob.M[2]
        assert mid_row[0] == 1.0 and mid_row[2] == 1.0
        # unbinding reactions have zero monomial at this state
        assert mid_row[1] == 0.0 and mid_row[3] == 0.0
        # B row loses one unit per binding
        assert prob.M[0][0] == -1.0 and prob.M[0][2] == -1.0

    def test_single_reaction_decay(self):
        net = from_reactions(
            ["A"],
            [Reaction(Multiset([(0, 1)]), Multiset(), RateInterval(0.0, 2.0), 0)])
        prob = build_drift_match(net, Partition.one_block(1), np.array([2.0]),
                                 np.array([-1.0]))
        assert prob.M.shape == (1, 1) and prob.M[0, 0] == -2.0
        assert prob.b[0] == -1.0


class TestSolveBoxLs:
    def test_consistent_target_reaches_zero(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            M = rng.standard_normal((4, 6))
            lo = rng.random(6)
            hi = lo + rng.random(6)
            a_true = lo + (hi - lo) * rng.random(6)
            res = solve_box_ls(DriftMatchProblem(M, M @ a_true, lo, hi))
            assert res.residual <= 1e-8
            assert np.all(res.x >= lo) and np.all(res.x <= hi)

    def test_interior_optimum_matches_normal_equations(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            M = rng.standard_normal((5, 3)) + np.eye(5, 3)
            x_star = np.array([0.4, 0.5, 0.6])
            b = M @ x_star + 0.01 * rng.standard_normal(5)
            direct, *_ = np.linalg.lstsq(M, b, rcond=None)
            if np.any(direct <= 0.05) or np.any(direct >= 0.95):
                continue
            res = solve_box_ls(DriftMatchProblem(M, b, np.zeros(3), np.ones(3)))
            assert np.allclose(res.x, direct, atol=1e-8)

    def test_zero_target_with_zero_in_box(self):
        M = np.array([[1.0, 2.0], [0.5, -1.0]])
        res = solve_box_ls(DriftMatchProblem(M, np.zeros(2),
                                             np.array([-1.0, -1.0]),
                                             np.array([1.0, 1.0])))
        assert res.residual <= 1e-10

    def test_zero_matrix_returns_midpoint(self):
        res = solve_box_ls(DriftMatchProblem(np.zeros((2, 3)), np.array([1.0, 0.0]),
                                             np.zeros(3), np.ones(3)))
        assert np.array_equal(res.x, [0.5, 0.5, 0.5])
        assert res.residual == 1.0 and res.converged

    @pytest.mark.parametrize("shape,lo,message", [
        ((2, 2), 0.0, "inconsistent problem dimensions"),
        ((2, 3), 2.0, "box lower bound exceeds upper bound")])
    def test_malformed_problem_rejected(self, shape, lo, message):
        with pytest.raises(ValueError, match=message):
            DriftMatchProblem(np.zeros(shape), np.zeros(2), np.full(3, lo),
                              np.ones(3))

    def test_point_box(self):
        M = np.array([[1.0]])
        res = solve_box_ls(DriftMatchProblem(M, np.array([5.0]),
                                             np.array([2.0]), np.array([2.0])))
        assert res.x[0] == 2.0 and res.residual == pytest.approx(3.0)

    def test_unconstrained_step_counts_as_an_iteration(self, monkeypatch):
        # from the midpoint every coordinate is free and the least-squares
        # correction stays inside the box: optimal after one iteration
        M = np.array([[2.0, 1.0], [1.0, 3.0]])
        x_star = np.array([0.3, 0.6])
        lo, hi = np.zeros(2), np.ones(2)
        solver = BoxLeastSquares(M)
        res = solver.solve(M @ x_star, lo, hi)
        assert res.converged and res.iterations == 1
        assert np.allclose(res.x, x_star, rtol=0, atol=1e-15)
        capped = solver.solve(M @ x_star, lo, hi, max_iter=0)
        assert not capped.converged and capped.iterations == 0
        assert np.array_equal(capped.x, [0.5, 0.5])
        monkeypatch.setattr("crnlump.ode.ITERS_PER_COORDINATE", 0)
        res = solver.solve(M @ x_star, lo, hi)
        assert not res.converged and res.iterations == 0

    def test_kept_pseudo_inverses_give_the_one_shot_answers(self):
        rng = np.random.default_rng(4)
        M = rng.standard_normal((3, 2)) @ rng.standard_normal((2, 7))
        solver = BoxLeastSquares(M)
        for _ in range(40):
            lo = rng.random(7)
            hi = lo + rng.random(7)
            b = M @ (lo + (hi - lo) * rng.uniform(-1.0, 2.0, 7))
            x0 = lo + (hi - lo) * rng.random(7)
            x0[rng.random(7) < 0.3] = lo[0]
            kept = solver.solve(b, lo, hi, x0)
            once = BoxLeastSquares(M).solve(b, lo, hi, x0)
            assert np.array_equal(kept.x, once.x)
            assert (kept.residual, kept.iterations) == \
                (once.residual, once.iterations)

    def test_non_convergence_is_flagged(self):
        M = np.array([[1.0, 1.0 + 1e-9]])
        b = np.array([3.0])
        res = solve_box_ls(DriftMatchProblem(M, b, np.zeros(2), np.ones(2)),
                           max_iter=1)
        assert not res.converged and res.iterations == 1
        assert np.all(res.x >= 0.0) and np.all(res.x <= 1.0)

    @staticmethod
    def _assert_kkt(prob, x):
        """x is in the box and satisfies the KKT sign conditions: zero
        gradient on free coordinates, gradient >= 0 at a lower bound and
        <= 0 at an upper one, up to rounding of the gradient's terms."""
        M, b, lo, hi = prob.M, prob.b, prob.lo, prob.hi
        assert np.all(x >= lo) and np.all(x <= hi)
        g = M.T @ (M @ x - b)
        tol = 1e-9 * (np.abs(M).T @ (np.abs(M) @ np.abs(x) + np.abs(b)))
        at_lo = (lo < hi) & (x == lo)
        at_hi = (lo < hi) & (x == hi)
        free = (x > lo) & (x < hi)
        assert np.all(np.abs(g[free]) <= tol[free])
        assert np.all(g[at_lo] >= -tol[at_lo])
        assert np.all(g[at_hi] <= tol[at_hi])

    @pytest.mark.parametrize("rows,cols,rank", [
        (2, 6, 1), (3, 8, 2), (4, 12, 3), (4, 8, 4), (5, 16, 2)])
    def test_wide_rank_deficient_with_point_boxes(self, rows, cols, rank):
        rng = np.random.default_rng(100 * rows + cols)
        for trial in range(20):
            M = rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, cols))
            lo = rng.random(cols)
            hi = lo + rng.random(cols)
            point = rng.random(cols) < 0.25
            hi[point] = lo[point]
            # alternately reachable targets and targets out of the box's reach
            spread = (0.0, 1.0) if trial % 2 else (-1.0, 2.0)
            b = M @ (lo + (hi - lo) * rng.uniform(*spread, cols))
            prob = DriftMatchProblem(M, b, lo, hi)
            res = solve_box_ls(prob)
            assert res.converged
            self._assert_kkt(prob, res.x)
            assert np.array_equal(res.x[point], lo[point])
            if trial % 2:
                assert res.residual <= 1e-10
            # warm-started from its own answer the solver keeps its active
            # set and stops after one least-squares solve and KKT check
            again = solve_box_ls(prob, x0=res.x)
            assert again.converged and again.iterations == 1
            assert np.array_equal(again.x == lo, res.x == lo)
            assert np.array_equal(again.x == hi, res.x == hi)
            assert np.allclose(again.x, res.x, rtol=0, atol=1e-12)

    def test_matches_grid_search_oracle(self):
        rng = np.random.default_rng(3)
        pitch = 1e-2
        for rows, cols in [(2, 2), (3, 2), (4, 3), (3, 3), (4, 4), (4, 6)]:
            for _ in range(4):
                M = rng.standard_normal((rows, cols))
                lo = rng.random(cols)
                hi = lo + pitch * rng.integers(3, 7, cols)
                center = lo + (hi - lo) * rng.random(cols)
                b = M @ center + 0.05 * rng.standard_normal(rows)
                res = solve_box_ls(DriftMatchProblem(M, b, lo, hi))
                axes = [np.arange(l, h + pitch / 2, pitch) for l, h in zip(lo, hi)]
                best_f, best_x = np.inf, None
                for point in itertools.product(*axes):
                    x = np.array(point)
                    f = float(np.sum((M @ x - b) ** 2))
                    if f < best_f:
                        best_f, best_x = f, x
                mine = float(np.sum((M @ res.x - b) ** 2))
                assert mine <= best_f + 1e-4
                if np.linalg.matrix_rank(M) == cols:
                    assert np.max(np.abs(res.x - best_x)) <= 2e-2


class TestReconstructTrajectory:
    def _lumped_setup(self, two_site, two_site_partition, seed=7, t_end=2.0):
        lumped, _ = cl.quotient(two_site, two_site_partition)
        rng = np.random.default_rng(seed)
        lo = np.array([r.rate.lo for r in lumped.reactions])
        hi = np.array([r.rate.hi for r in lumped.reactions])
        vals = lo + (hi - lo) * rng.random((4, lumped.n_reactions))
        sched = ControlSchedule(np.linspace(0.0, t_end, 5)[:-1], vals)
        v0 = np.array([0.6, 0.5, 0.2, 0.3, 0.1])
        vhat0 = block_indicator(two_site_partition) @ v0
        ltraj = simulate(lumped, vhat0, sched, t_end, 1e-3)
        return lumped, sched, ltraj, v0

    def test_tracks_lumped_trajectory(self, two_site, two_site_partition):
        lumped, sched, ltraj, v0 = self._lumped_setup(two_site, two_site_partition)
        result = reconstruct_trajectory(two_site, two_site_partition, ltraj,
                                        sched, v0)
        assert result.max_residual <= 1e-8
        bs = block_sums(result.trajectory, two_site_partition)
        assert np.max(np.abs(bs.states - ltraj.states)) <= 1e-5
        result.schedule.validate_for(two_site)
        assert len(result.step_residuals) == len(ltraj.times) - 1

    def test_inconsistent_initial_state_rejected(self, two_site,
                                                 two_site_partition):
        lumped, sched, ltraj, v0 = self._lumped_setup(two_site, two_site_partition)
        v0 = v0.copy()
        v0[0] += 1e-3
        with pytest.raises(StructuralError):
            reconstruct_trajectory(two_site, two_site_partition, ltraj, sched, v0)

    def test_initial_state_length_rejected(self, two_site, two_site_partition):
        lumped, sched, ltraj, v0 = self._lumped_setup(two_site, two_site_partition)
        with pytest.raises(StructuralError,
                           match="initial state length mismatch"):
            reconstruct_trajectory(two_site, two_site_partition, ltraj, sched,
                                   v0[:-1])

    def test_non_finite_state_raises(self):
        # one RK4 step from 1e308 overflows although every stage target is
        # finite and matched exactly
        net = cl.parse_model("species A\nA -> 2 A , 1.0\n").network
        part = Partition.singletons(1)
        ltraj = Trajectory(np.array([0.0, 0.5]), np.full((2, 1), 1e308))
        with np.errstate(over="ignore"), \
                pytest.raises(ReconstructionFailureError) as err:
            reconstruct_trajectory(net, part, ltraj,
                                   ControlSchedule.midpoint(net), [1e308])
        assert (err.value.time, err.value.residual) == (0.5, float("inf"))
        assert err.value.converged

    def test_network_without_species(self):
        net = cl.parse_model("0 -> 0 , [1 : 2]\n").network
        part = Partition([], 0)
        lumped, _ = cl.quotient(net, part)
        sched = ControlSchedule.midpoint(net)
        traj = simulate(net, np.zeros(0), sched, 0.02, 0.01)
        lsched, worst = cl.project_control(net, part, lumped, traj, sched)
        assert worst == 0.0 and lsched.values.shape == (2, 1)
        result = reconstruct_trajectory(net, part, traj, sched, np.zeros(0))
        assert result.max_residual == 0.0
        assert result.trajectory.states.shape == (3, 0)

    def test_one_point_trajectory_rejected(self, two_site, two_site_partition):
        lumped, sched, ltraj, v0 = self._lumped_setup(two_site, two_site_partition)
        ltraj = simulate(lumped, ltraj.states[0], sched, 0.0)
        assert len(ltraj.times) == 1
        with pytest.raises(StructuralError, match="the trajectory has 1 time "
                           r"point\(s\); control transfer needs at least two"):
            reconstruct_trajectory(two_site, two_site_partition, ltraj, sched, v0)

    def test_degenerate_intervals_give_unique_control(self):
        text = ("species B A00 A01 A10 A11\n"
                "A00 + B -> A10 , 1.0\nA10 -> A00 + B , 0.5\n"
                "A00 + B -> A01 , 1.0\nA01 -> A00 + B , 0.5\n"
                "A10 + B -> A11 , 1.5\nA11 -> A10 + B , 0.25\n"
                "A01 + B -> A11 , 1.5\nA11 -> A01 + B , 0.25\n"
                "partition { B } { A00 } { A01 A10 } { A11 }\n")
        doc = cl.parse_model(text)
        net, part = doc.network, doc.initial_partition
        lumped, _ = cl.quotient(net, part)
        sched = ControlSchedule.midpoint(lumped)
        v0 = np.array([0.6, 0.5, 0.2, 0.3, 0.1])
        ltraj = simulate(lumped, block_indicator(part) @ v0, sched, 1.0, 1e-3)
        result = reconstruct_trajectory(net, part, ltraj, sched, v0)
        expected = np.array([r.rate.lo for r in net.reactions])
        assert np.all(result.schedule.values == expected)
        assert result.max_residual <= 1e-9
        bs = block_sums(result.trajectory, part)
        assert np.max(np.abs(bs.states - ltraj.states)) <= 1e-9

    def test_residual_threshold_enforced(self, two_site, two_site_partition):
        lumped, sched, ltraj, v0 = self._lumped_setup(two_site, two_site_partition)
        # corrupt the trajectory after the start: the target drift moves out
        # of reach of the original parameter box
        states = ltraj.states.copy()
        states[len(states) // 2:] *= 2.5
        corrupted = Trajectory(ltraj.times, states, ltraj.schedule, ltraj.names)
        with pytest.raises(ReconstructionFailureError) as err:
            reconstruct_trajectory(two_site, two_site_partition, corrupted,
                                   sched, v0)
        assert err.value.residual > 1e-6
        assert err.value.time > 0.0 and err.value.converged

    def test_non_convergence_raises(self, two_site, two_site_partition,
                                    monkeypatch):
        lumped, sched, ltraj, v0 = self._lumped_setup(two_site, two_site_partition)
        monkeypatch.setattr("crnlump.ode.ITERS_PER_COORDINATE", 0)
        with pytest.raises(ReconstructionFailureError,
                           match="solver did not converge") as err:
            reconstruct_trajectory(two_site, two_site_partition, ltraj, sched, v0)
        assert err.value.time == 0.0 and not err.value.converged


class TestDriftMatch:
    """The group-space drift match against the full problem over all
    reactions."""

    @pytest.mark.parametrize("n", [6, 4])
    @pytest.mark.parametrize("build", [
        lambda net, part: VectorField(net).block_coefficients(part),
        lambda net, part: build_drift_match(net, part, np.ones(5),
                                            np.zeros(part.n_blocks)),
        lambda net, part: DriftMatch(VectorField(net), part, net.compiled.lo,
                                     net.compiled.hi,
                                     ReconstructionFailureError)],
        ids=["block_coefficients", "build_drift_match", "DriftMatch"])
    def test_partition_over_wrong_universe_rejected(self, two_site, build, n):
        with pytest.raises(StructuralError,
                           match="partition over wrong species universe"):
            build(two_site, Partition.singletons(n))

    @pytest.mark.parametrize("low", [0.0, -1.0], ids=["nonnegative", "signed"])
    @pytest.mark.parametrize("name", BUNDLED)
    def test_reaches_the_full_optimal_residual(self, name, low):
        # negative entries (a negative start, an RK4 stage overshooting
        # zero) give negative monomials, alone or mixed in one group
        net, part = bundled_model(name)
        vf, lo, hi = VectorField(net), net.compiled.lo, net.compiled.hi
        match = DriftMatch(vf, part, lo, hi, ReconstructionFailureError)
        rng = np.random.default_rng(5)
        for trial in range(30):
            v = rng.uniform(low, 2.0, net.n_species)
            v[rng.random(net.n_species) < 0.2] = 0.0
            prob = build_drift_match(net, part, v, np.zeros(part.n_blocks))
            # reachable targets, targets out of the box's reach, and
            # targets off the matrix's range
            spread = [(0.0, 1.0), (-1.0, 2.0)][trial % 2]
            a = lo + (hi - lo) * rng.uniform(*spread, net.n_reactions)
            prob.b = prob.M @ a
            if trial % 3 == 0:
                prob.b += rng.standard_normal(part.n_blocks)
            full = solve_box_ls(prob)
            assert full.converged
            alpha, residual = match.solve(vf.monomials(v), prob.b, 0.0)
            assert np.all((lo <= alpha) & (alpha <= hi))
            scale = max(full.residual, float(np.linalg.norm(prob.b)))
            assert abs(residual - full.residual) <= 1e-9 * scale
            realized = float(np.linalg.norm(prob.M @ alpha - prob.b))
            assert abs(realized - residual) <= 1e-9 * scale

    def test_point_group_boxes_keep_their_positions(self):
        # each binding group has a zero monomial without B; the unbinding
        # group {A10 -> A00 + B, A01 -> A00 + B} is one point when A10 is
        # empty, because the pinned A01 unbinding is its only live member
        doc = cl.parse_model(TWO_SITE_TEXT.replace(
            "A01 -> A00 + B , [0.5 : 0.75]", "A01 -> A00 + B , [0.6 : 0.6]"))
        net, part = doc.network, doc.initial_partition
        vf, lo, hi = VectorField(net), net.compiled.lo, net.compiled.hi
        B = block_indicator(part)
        match = DriftMatch(vf, part, lo, hi, ReconstructionFailureError)
        v = np.array([0.6, 0.5, 0.2, 0.3, 0.1])
        target = B @ vf(v, lo + 0.3 * (hi - lo))
        before, _ = match.solve(vf.monomials(v), target, 0.0)
        live = np.array([0.0, 0.5, 0.4, 0.0, 0.2])
        point = [j for j, r in enumerate(net.reactions)
                 if r.reactant.format(net.names) in ("A00 + B", "A10 + B",
                                                     "A01 + B", "A10")]
        stays = B @ vf(live, before)
        after, residual = match.solve(vf.monomials(live), stays, 0.1)
        assert np.all((lo <= after) & (after <= hi))
        assert np.array_equal(after[point], before[point])
        assert residual <= 1e-12

    @pytest.mark.parametrize("name", ["two-site", "multisite-4"])
    def test_batched_replay_matches_step_by_step(self, name):
        net, part = bundled_model(name)
        lumped, _ = cl.quotient(net, part)
        rng = np.random.default_rng(6)
        lo, hi = lumped.compiled.lo, lumped.compiled.hi
        # breakpoints off the step grid give steps of several lengths
        sched = ControlSchedule([0.0, 0.0137, 0.05, 0.0821], lo + (hi - lo)
                                * rng.random((4, lumped.n_reactions)))
        v0 = rng.random(net.n_species)
        ltraj = simulate(lumped, block_indicator(part) @ v0, sched, 0.1, 0.01)
        stages = stage_drifts(lumped, ltraj, sched)
        lvf = VectorField(lumped)
        times = ltraj.times
        assert len(times) == 13
        for k in range(len(times) - 1):
            a = sched.value_at(times[k])
            _, step = rk4_step(lambda x: lvf(x, a), ltraj.states[k],
                               times[k + 1] - times[k])
            for s in range(4):
                assert np.array_equal(stages[s][k], step[s])

    def test_shortcut_solve_honours_the_iteration_cap(self, two_site,
                                                      two_site_partition,
                                                      monkeypatch):
        vf = VectorField(two_site)
        lo, hi = two_site.compiled.lo, two_site.compiled.hi
        B = block_indicator(two_site_partition)
        v = np.array([0.6, 0.5, 0.2, 0.3, 0.1])
        target = B @ vf(v, 0.5 * (lo + hi))
        monkeypatch.setattr("crnlump.ode.ITERS_PER_COORDINATE", 0)
        match = DriftMatch(vf, two_site_partition, lo, hi,
                           ReconstructionFailureError)
        with pytest.raises(ReconstructionFailureError,
                           match="solver did not converge") as err:
            match.solve(vf.monomials(v), target, 0.25)
        assert err.value.time == 0.25 and not err.value.converged
        monkeypatch.setattr("crnlump.ode.ITERS_PER_COORDINATE", 1)
        alpha, residual = match.solve(vf.monomials(v), target, 0.25)
        assert residual <= 1e-15
