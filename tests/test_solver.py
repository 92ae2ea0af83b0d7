from __future__ import annotations

import math

import numpy as np
import pytest

from rankclique import (
    ArmijoStep,
    EdgelessGraphError,
    NumericalDivergenceError,
    RoundingInvariantError,
    SolverConfig,
    SolverState,
    armijo_outer_iteration,
    d_max,
    default_d0,
    graph_from_edge_list,
    gradient,
    is_maximal_clique,
    lift_ball_point,
    md_matvec,
    md_norm_sq,
    objective_shifted,
    random_graph,
    round_phi,
    solve,
    stationarity_residual,
)
from conftest import small_random_graphs
from oracles import (
    central_diff_gradient,
    dense_adjacency,
    dense_md,
    full_objective_dense,
)


class TestPenaltySchedule:
    def test_default_d0_frozen(self, star5, k3, empty4, path3):
        assert default_d0(star5) == pytest.approx(13.0 / 12.0)
        assert default_d0(empty4) == pytest.approx(1.0 / 3.0)
        assert default_d0(path3) == pytest.approx(3.5)
        # complete graph: no negative entries to balance
        assert default_d0(k3) == 0.0

    def test_d_max_frozen(self, k2, star5):
        assert d_max(k2) == pytest.approx(8.0)
        assert d_max(star5) == pytest.approx(10.0 * math.sqrt(13.0))


class TestImplicitMatrix:
    def test_md_matvec_frozen_star(self, star5):
        got = md_matvec(star5, 2.0, np.ones(5))
        assert got.tolist() == [5.0, -4.0, -4.0, -4.0, -4.0]

    def test_md_matvec_matches_dense(self):
        rng = np.random.default_rng(21)
        for g in small_random_graphs(30, seed0=21):
            d = float(rng.uniform(0.0, 3.0 * g.n))
            u = rng.standard_normal(g.n)  # negative entries allowed
            md = dense_md(dense_adjacency(g), d)
            assert np.allclose(md_matvec(g, d, u), md @ u, atol=1e-10)

    def test_md_norm_sq_matches_dense(self):
        for g in small_random_graphs(10, seed0=77):
            for d in (0.0, 1.0, float(g.n)):
                md = dense_md(dense_adjacency(g), d)
                assert md_norm_sq(g, d) == pytest.approx(float((md * md).sum()))

    def test_wrong_shape_rejected(self, k3):
        with pytest.raises(ValueError, match="shape"):
            md_matvec(k3, 1.0, np.ones(2))


class TestObjective:
    def test_frozen_star_clique_indicator(self, star5):
        u = np.array([1.0, 1.0, 0.0, 0.0, 0.0])
        assert objective_shifted(star5, 5.0, u) == pytest.approx(-2.0)
        assert md_norm_sq(star5, 5.0) == pytest.approx(313.0)
        # full squared error recovers the dense value
        assert 2.0 * -2.0 + 313.0 == pytest.approx(
            full_objective_dense(dense_adjacency(star5), 5.0, u)
        )

    def test_perfect_fit_on_k2(self, k2):
        u = np.ones(2)
        for d in (0.0, 1.0, 7.0):
            assert objective_shifted(k2, d, u) == pytest.approx(-2.0)
            assert 2.0 * objective_shifted(k2, d, u) + md_norm_sq(k2, d) == pytest.approx(0.0)

    def test_shifted_plus_constant_is_dense_error(self):
        rng = np.random.default_rng(5)
        for g in small_random_graphs(20, seed0=5, n_lo=4, n_hi=12):
            d = float(rng.uniform(0.0, 2.0 * g.n))
            u = rng.random(g.n)
            full = 2.0 * objective_shifted(g, d, u) + md_norm_sq(g, d)
            dense = full_objective_dense(dense_adjacency(g), d, u)
            assert full == pytest.approx(dense, rel=1e-8, abs=1e-8)


class TestGradient:
    def test_frozen_k2(self, k2):
        grad = gradient(k2, 3.0, np.array([1.0, 2.0]))
        assert grad.tolist() == [4.0, 14.0]

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        for g in small_random_graphs(10, seed0=9):
            d = float(rng.uniform(0.0, 2.0 * g.n))
            u = rng.random(g.n)
            fd = central_diff_gradient(lambda v: objective_shifted(g, d, v), u)
            grad = gradient(g, d, u)
            denom = max(float(np.linalg.norm(grad)), 1e-12)
            assert float(np.linalg.norm(fd - grad)) / denom < 1e-6


class TestPointwiseOps:
    def test_round_phi(self):
        got = round_phi(np.array([0.3, 0.7, 0.5, 1.0005, -0.2]))
        assert got.tolist() == [0.0, 1.0, 0.0, 1.0, 0.0]


class TestStationarity:
    def test_clique_indicators_are_fixed_points(self, k3, star5):
        assert stationarity_residual(k3, 3.0, np.ones(3)) == pytest.approx(0.0, abs=1e-15)
        u = np.array([1.0, 1.0, 0.0, 0.0, 0.0])
        assert stationarity_residual(star5, 5.0, u) == pytest.approx(0.0, abs=1e-15)

    def test_frozen_interior_point(self, k3):
        u = np.array([1.0, 1.0, 0.5])
        assert stationarity_residual(k3, 3.0, u) == pytest.approx(11.0 / 18.0)

    def test_non_maximal_indicator_has_unit_residual(self, path3):
        assert stationarity_residual(path3, 3.0, np.array([1.0, 0.0, 0.0])) == pytest.approx(1.0)

    def test_zero_vector_rejected(self, k3):
        with pytest.raises(ValueError, match="zero vector"):
            stationarity_residual(k3, 3.0, np.zeros(3))


class TestBallLift:
    def test_lift_reproduces_clique_indicator(self, k3):
        v = np.ones(3) / math.sqrt(3.0)
        assert np.allclose(lift_ball_point(k3, 5.0, v), np.ones(3), atol=1e-12)

    def test_lift_rejects_nonpositive_form(self, path3):
        v = np.array([1.0, 0.0, 1.0]) / math.sqrt(2.0)
        with pytest.raises(ValueError, match="positive"):
            lift_ball_point(path3, 3.0, v)


class TestArmijoIteration:
    def test_fixed_point_is_accepted_unchanged(self, k2):
        u = np.ones(2)
        state = SolverState(u=u, d=0.0, alpha=0.5, iteration=0, alpha0=0.5)
        out = armijo_outer_iteration(k2, SolverConfig(), state)
        step = out.last_step
        assert isinstance(step, ArmijoStep)
        assert step.accepted
        assert step.trials == 1
        assert np.array_equal(out.u, u)
        assert step.f_new == step.f_old == pytest.approx(-2.0)
        # success grows the step by 1/sqrt(beta)
        assert out.alpha == pytest.approx(0.5 / math.sqrt(0.5))
        assert out.iteration == 1

    def test_penalty_advances_geometrically_to_cap(self, k2):
        cfg = SolverConfig(d_max_override=1.5)
        state = SolverState(u=np.ones(2), d=1.0, alpha=0.5, iteration=0, alpha0=0.5)
        state = armijo_outer_iteration(k2, cfg, state)
        assert state.d == pytest.approx(1.1)
        for _ in range(4):
            state = armijo_outer_iteration(k2, cfg, state)
        assert state.d == pytest.approx(1.5)  # clamped at the cap

    def test_all_trials_fail_accepts_last_candidate(self, k2):
        # a gigantic step from a near-minimizer overshoots so badly that
        # every backtracked candidate still fails the decrease test
        u = np.array([1.2, 0.8])
        alpha = 1e9
        cfg = SolverConfig()
        state = SolverState(u=u, d=1.0, alpha=alpha, iteration=0, alpha0=alpha)
        out = armijo_outer_iteration(k2, cfg, state)
        step = out.last_step
        assert not step.accepted
        assert step.trials == cfg.max_armijo_trials
        # iterate moved to the final (most backtracked) candidate anyway
        last_alpha = alpha * cfg.beta ** (cfg.max_armijo_trials - 1)
        expected = np.maximum(u - last_alpha * gradient(k2, 1.0, u), 0.0)
        assert np.array_equal(out.u, expected)
        assert step.alpha_used == pytest.approx(last_alpha)
        assert out.alpha == pytest.approx(alpha * cfg.beta**cfg.max_armijo_trials)

    def test_accepted_steps_satisfy_decrease_bound(self):
        for g in small_random_graphs(8, seed0=31, n_lo=6, n_hi=14):
            res = solve(g, SolverConfig(seed=1), record_iterates=True)
            assert res.iterates is not None
            for rec in res.iterates:
                if rec.step.accepted:
                    slack = rec.step.f_new - rec.step.f_old - rec.step.decrease_bound
                    assert slack <= 1e-9
                assert 1 <= rec.step.trials <= 5

    def test_step_size_cap(self, k2):
        # at an exact fixed point every iteration succeeds and grows alpha;
        # the clamp must stop that at alpha_cap_factor * alpha0
        cfg = SolverConfig(alpha_cap_factor=2.0)
        state = SolverState(u=np.ones(2), d=0.0, alpha=1.0, iteration=0, alpha0=1.0)
        for _ in range(10):
            state = armijo_outer_iteration(k2, cfg, state)
        assert state.alpha == pytest.approx(2.0)

    def test_non_finite_iterate_raises(self, k2):
        state = SolverState(u=np.full(2, 1e200), d=1.0, alpha=0.1, iteration=0)
        with np.errstate(over="ignore"), pytest.raises(NumericalDivergenceError):
            armijo_outer_iteration(k2, SolverConfig(), state)


class TestSolverConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="gamma"):
            SolverConfig(gamma=1.0)
        with pytest.raises(ValueError, match="sigma"):
            SolverConfig(sigma=0.0)
        with pytest.raises(ValueError, match="beta"):
            SolverConfig(beta=1.0)
        with pytest.raises(ValueError, match="max_armijo_trials"):
            SolverConfig(max_armijo_trials=0)


class TestSolve:
    def test_triangle(self, k3):
        res = solve(k3)
        assert res.converged
        assert res.clique.vertices == (0, 1, 2)
        assert res.clique_valid and res.clique_maximal
        assert res.iterations >= 1
        assert len(res.objective_trace) == res.iterations
        assert res.stationarity_residual_final < 1e-2

    def test_star_across_seeds(self, star5):
        for seed in range(5):
            res = solve(star5, SolverConfig(seed=seed))
            assert res.converged
            assert res.clique.size == 2
            assert 0 in res.clique.vertices
            assert is_maximal_clique(star5, res.clique.vertices)

    @pytest.mark.xfail(strict=True, raises=RoundingInvariantError,
                       reason="the binary-band stopping rule can stop next to a non-maximal clique")
    def test_default_config_converges_to_a_maximal_clique(self):
        res = solve(random_graph(400, 0.85, 2001), SolverConfig(seed=2004))
        assert res.converged and res.clique_maximal

    def test_deterministic(self, star5):
        r1 = solve(star5, SolverConfig(seed=3))
        r2 = solve(star5, SolverConfig(seed=3))
        assert np.array_equal(r1.u_final, r2.u_final)
        assert r1.iterations == r2.iterations
        assert r1.objective_trace == r2.objective_trace

    def test_edgeless_raises(self, empty4):
        with pytest.raises(EdgelessGraphError, match="maximal clique is a singleton"):
            solve(empty4)

    def test_single_vertex_raises(self):
        with pytest.raises(EdgelessGraphError):
            solve(graph_from_edge_list(1, []))

    def test_overrides_respected(self, star5):
        res = solve(star5, SolverConfig(d0_override=5.0, d_max_override=7.0), record_iterates=True)
        assert res.iterates is not None
        assert res.iterates[0].d == pytest.approx(5.0)
        assert all(rec.d <= 7.0 + 1e-12 for rec in res.iterates)
        assert res.iterates[-1].d == pytest.approx(7.0)

    def test_iteration_budget_honored(self, star5):
        res = solve(star5, SolverConfig(max_outer_iterations=3))
        assert res.iterations == 3
        assert not res.converged
        assert len(res.objective_trace) == 3

    def test_penalty_never_decreases(self):
        for g in small_random_graphs(6, seed0=61, n_lo=6, n_hi=14):
            res = solve(g, SolverConfig(seed=0), record_iterates=True)
            ds = [rec.d for rec in res.iterates]
            assert all(a <= b + 1e-12 for a, b in zip(ds, ds[1:]))
            assert ds[-1] <= d_max(g) + 1e-9

    def test_converged_runs_round_to_maximal_cliques(self):
        for g in small_random_graphs(20, seed0=300, n_lo=5, n_hi=18):
            for seed in (0, 1):
                res = solve(g, SolverConfig(seed=seed))
                if res.converged:
                    assert res.clique_valid and res.clique_maximal
                    k = res.clique.size
                    # near a k-clique indicator the shifted objective is -k^2/2
                    assert res.objective_trace[-1] == pytest.approx(-0.5 * k * k, rel=0.05)

    def test_recorded_iterates_align_with_trace(self, star5):
        res = solve(star5, record_iterates=True)
        assert res.iterates is not None
        assert len(res.iterates) == res.iterations
        assert [rec.step.f_new for rec in res.iterates] == res.objective_trace
