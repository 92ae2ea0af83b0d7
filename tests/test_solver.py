from __future__ import annotations

import itertools
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import rankclique.solver as solver_module

from rankclique import (
    EdgelessGraphError,
    Graph,
    NumericalDivergenceError,
    SolverConfig,
    d_max,
    default_d0,
    graph_from_edge_list,
    is_maximal_clique,
    random_graph,
    solve,
    stationarity_residual,
)
from rankclique.harness import _nonadjacent_weight_bound
from rankclique.solver import (
    GAMMA,
    ArmijoStep,
    SolverState,
    _band_screen,
    _chord_minimizer,
    _is_binary,
    armijo_outer_iteration,
    gradient,
    lift_ball_point,
    md_matvec,
    md_norm_sq,
    objective_shifted,
    round_phi,
)
from conftest import assert_bound_form, small_random_graphs, stored_form, stored_form_graphs
from oracles import (
    central_diff_gradient,
    chord_minimizer_by_pairs,
    chord_quartic_dense,
    dense_adjacency,
    dense_md,
    exhaustive_maximal_cliques,
    full_objective_dense,
    kkt_points,
    plain_chord_step,
    plain_guard_fails,
    quartic_min_reference,
    subset_is_clique,
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


class TestKKTCensus:
    """The paper's correspondence on every labelled graph with 2 to 5
    vertices and at least one edge, at d = n and at d = d_max: a KKT
    point is a strict local minimizer exactly when its support is a
    maximal clique."""

    def test_strict_minimizers_are_the_maximal_cliques(self):
        # every point also feeds verify's weight bound, whose pairs all
        # come from the non-clique points
        counts = dict(maximal=0, non_clique=0)
        weight_pairs = weight_violations = 0
        worst_ratio = 0.0
        for n in range(2, 6):
            pairs = list(itertools.combinations(range(n), 2))
            for mask in range(1, 1 << len(pairs)):
                g = graph_from_edge_list(n, [pair for bit, pair in enumerate(pairs) if mask >> bit & 1])
                a = dense_adjacency(g)
                nonadj = (a == 0.0) & ~np.eye(n, dtype=bool)
                maximal = set(exhaustive_maximal_cliques(a))
                for d in (float(n), d_max(g)):
                    points = kkt_points(a, d)
                    assert maximal <= {S for S, *_ in points}
                    for S, u, slack, curvature in points:
                        assert stationarity_residual(g, d, u) < 1e-9
                        checked, violations = _nonadjacent_weight_bound(g, nonadj, d, u)
                        weight_pairs += len(checked)
                        weight_violations += violations
                        if len(checked):
                            worst_ratio = max(worst_ratio, float(u[checked].max()) * (d + 1.0) / float(u.sum()))
                        strict = slack < 0.0 and curvature > 0.0
                        assert strict == (S in maximal), (n, mask, d, S)
                        if S in maximal:
                            counts["maximal"] += 1
                        else:
                            # no KKT point lies on a non-maximal clique
                            assert not subset_is_clique(a, S), (n, mask, d, S)
                            assert curvature < -1e-8, (n, mask, d, S)
                            counts["non_clique"] += 1
        assert counts == dict(maximal=7420, non_clique=6020)
        assert (weight_pairs, weight_violations) == (9050, 0), f"worst u_j / bound {worst_ratio:.4f}"

    def test_a_repeated_positive_eigenvalue_is_refused(self):
        # at d = 0 two non-adjacent vertices give M_d[S, S] = I, whose
        # every positive unit vector is a stationary point
        a = dense_adjacency(graph_from_edge_list(4, [(0, 1), (2, 3)]))
        with pytest.raises(ValueError, match="repeated eigenvalue"):
            kkt_points(a, 0.0)


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
        # at an exact fixed point the chord is p = 0: nothing moves, and
        # alpha keeps its value instead of shrinking
        u = np.ones(2)
        state = SolverState(u=u, au=k2.adj_matvec(u), d=0.0, alpha=0.5)
        out = armijo_outer_iteration(k2, state)
        step = out.last_step
        assert isinstance(step, ArmijoStep)
        assert step.trials == 1 and not step.accepted
        assert np.array_equal(out.u, u)
        assert np.array_equal(out.au, k2.adj_matvec(u))
        assert step.f_new == step.f_old == pytest.approx(-2.0)
        assert out.alpha == 0.5
        assert out.iteration == 1

    def test_penalty_advances_geometrically_to_cap(self, k2):
        assert d_max(k2) == 8.0  # 2 n sqrt(n + 2 |E|) = 2 * 2 * sqrt(4)
        u = np.ones(2)
        state = SolverState(u=u, au=k2.adj_matvec(u), d=5.0, alpha=0.5)
        state = armijo_outer_iteration(k2, state)
        assert state.d == pytest.approx(5.5)
        for _ in range(4):
            state = armijo_outer_iteration(k2, state)
        assert state.d == 8.0  # clamped at the cap

    def test_accepted_steps_satisfy_decrease_bound(self):
        # no recorded step raises the objective, measured by fresh passes
        # at the step's penalty
        for g in small_random_graphs(8, seed0=31, n_lo=6, n_hi=14):
            res = solve(g, SolverConfig(seed=1), record_iterates=True)
            assert res.iterates is not None
            prev_u = np.random.default_rng(1).random(g.n)
            for rec in res.iterates:
                f_old = objective_shifted(g, rec.d, prev_u)
                f_new = objective_shifted(g, rec.d, rec.u)
                assert f_new <= f_old + 1e-12 * abs(f_old)
                assert rec.f_new <= rec.f_old
                assert rec.trials == 1
                prev_u = rec.u

    def test_one_adjacency_pass_per_trial(self, monkeypatch):
        # each iteration makes one pass along its chord and carries
        # A u + t A p, so a solve makes one pass per iteration plus two:
        # the start and the maximality check
        passes = 0
        adj_matvec = Graph.adj_matvec

        def counted(self, u):
            nonlocal passes
            passes += 1
            return adj_matvec(self, u)

        monkeypatch.setattr(Graph, "adj_matvec", counted)
        graphs = small_random_graphs(6, seed0=31, n_lo=6, n_hi=14) + [random_graph(400, 0.5, 3)]
        for g in graphs:
            passes = 0
            res = solve(g, SolverConfig(seed=1), record_iterates=True)
            assert res.clique_maximal
            assert passes == res.iterations + 2
            # the carried product accumulates, so it agrees with a fresh
            # pass to rounding
            prev_u = np.random.default_rng(1).random(g.n)
            for rec in res.iterates:
                fresh_old = objective_shifted(g, rec.d, prev_u)
                fresh_new = objective_shifted(g, rec.d, rec.u)
                assert rec.f_old == pytest.approx(fresh_old, rel=1e-12)
                assert rec.f_new == pytest.approx(fresh_new, rel=1e-12)
                prev_u = rec.u

    def test_non_finite_iterate_raises(self, k2):
        # u.u overflows already when the state is made
        u = np.full(2, 1e200)
        with np.errstate(over="ignore"), pytest.raises(NumericalDivergenceError) as exc:
            armijo_outer_iteration(k2, SolverState(u=u, au=k2.adj_matvec(u), d=1.0, alpha=0.1))
        # the guard on f(u) raised, carrying u; the chord-coefficient
        # check would carry the candidate
        assert exc.value.iterate is u


class TestDivergenceGuard:
    """The step tests only that f(u) is finite, where it once also tested
    every entry of the gradient; on states that keep SolverState's
    contract (u >= 0, au = A u, d up to d_max) it must raise exactly
    when that guard would."""

    GRAPHS = stored_form_graphs()
    SPECIAL = (0.0, 1e-300, 1e150, 1e200, math.inf, math.nan)

    @staticmethod
    def _guard_raises(g, u, d) -> bool:
        with np.errstate(all="ignore"):
            state = SolverState(u=u, au=g.adj_matvec(u), d=d, alpha=1e-3)
            old = plain_guard_fails(state.u, state.au, d)
            try:
                armijo_outer_iteration(g, state)
                new = False
            except NumericalDivergenceError as e:
                # the chord's coefficients are checked after the guard
                new = str(e) == "non-finite objective or gradient"
        assert new == old, (u, d)
        return new

    # entries special with probability `special`, else uniform draws
    # times `scale`; scales near 1e76 put u.u next to the overflow of
    # 0.5 (u.u)^2
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        form=st.sampled_from(sorted(GRAPHS)),
        at_cap=st.booleans(),
        special=st.sampled_from([0.0, 0.01, 0.1, 0.5, 1.0]),
        scale=st.sampled_from([1.0, 1e75, 1e76, 1.3e76, 1e77]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_raises_exactly_when_the_old_guard_would(self, form, at_cap, special, scale, seed):
        g = self.GRAPHS[form]
        rng = np.random.default_rng(seed)
        specials = np.array(self.SPECIAL)[rng.integers(len(self.SPECIAL), size=g.n)]
        u = np.where(rng.random(g.n) < special, specials, scale * rng.random(g.n))
        self._guard_raises(g, u, d_max(g) if at_cap else default_d0(g))

    def test_both_outcomes_occur(self):
        g = self.GRAPHS["dense"]
        u = np.random.default_rng(0).random(g.n)
        for d in (default_d0(g), d_max(g)):
            assert not self._guard_raises(g, u, d)
            assert not self._guard_raises(g, 1e75 * u, d)
            for x in (1e150, math.inf, math.nan):
                assert self._guard_raises(g, np.where(np.arange(g.n) == 7, x, u), d)


def _bits(x) -> bytes:
    return np.asarray(x, dtype=np.float64).tobytes()


class TestLeanStep:
    """armijo_outer_iteration updates its vectors in place and carries
    sum(u), u.u and the penalty cap; every iterate must equal the plain
    formulas' bit for bit, on every stored form and through both of the
    step's branches (t = 1, where A p is added unscaled, and t < 1)."""

    def test_graphs_cover_every_stored_form(self):
        for form, g in stored_form_graphs().items():
            assert stored_form(g) == form
            assert_bound_form(g, form)

    # near_cap starts 20 growth steps below the cap, so the clamp is hit
    @pytest.mark.parametrize("near_cap", [False, True], ids=["default_cap", "near_cap"])
    @pytest.mark.parametrize("form", sorted(stored_form_graphs()))
    def test_fifty_iterations_equal_the_plain_step(self, form, near_cap):
        g = stored_form_graphs()[form]
        u = np.random.default_rng(5).random(g.n)
        d = d_max(g) / GAMMA**20 if near_cap else default_d0(g)
        alpha = 0.1 * float(np.linalg.norm(u)) / float(np.linalg.norm(gradient(g, d, u)))
        state = SolverState(u=u, au=g.adj_matvec(u), d=d, alpha=alpha)
        ref = (state.u, state.au, d, alpha)
        full_steps = 0  # of t = 1, the only steps that raise alpha
        for it in range(50):
            inputs = state.u, state.au
            before = _bits(state.u), _bits(state.au)
            u_ref, au_ref, d_ref, alpha_ref, f_ref = plain_chord_step(g, *ref)
            state = armijo_outer_iteration(g, state)
            assert (_bits(inputs[0]), _bits(inputs[1])) == before, "the step wrote over its input"
            assert _bits(state.u) == _bits(u_ref), it
            assert _bits(state.au) == _bits(au_ref), it
            assert _bits([state.d, state.alpha, state.last_step.f_new]) == _bits([d_ref, alpha_ref, f_ref]), it
            assert _bits([state.su, state.uu]) == _bits([u_ref.sum(), u_ref @ u_ref]), it
            assert state.d_cap == d_max(g)
            full_steps += alpha_ref > ref[3]
            ref = (u_ref, au_ref, d_ref, alpha_ref)
        assert 0 < full_steps < 50, "both branches of the step ran"
        if near_cap:
            assert state.d == d_max(g)  # the cap was reached

    def test_solve_matches_the_plain_step(self):
        # solve's loop, run by hand on the plain step, ends on the same
        # iterate, on a graph of each stored form
        for g in (random_graph(60, 0.3, 4), *stored_form_graphs().values()):
            cfg = SolverConfig(seed=2)
            res = solve(g, cfg, record_iterates=True)
            u = np.random.default_rng(2).random(g.n)
            d = default_d0(g)
            alpha = 0.1 * float(np.linalg.norm(u)) / float(np.linalg.norm(gradient(g, d, u)))
            state = (u, g.adj_matvec(u), d, alpha)
            for rec in res.iterates:
                *state, f_new = plain_chord_step(g, *state)
                assert _bits(rec.u) == _bits(state[0])
                assert _bits(rec.f_new) == _bits(f_new)
            assert _bits(res.u_final) == _bits(state[0])

    def test_iteration_cost_times_the_step_and_the_baselines(self):
        # tools/iteration_cost.py, whose table is the per-iteration
        # baseline of the step, wraps armijo_outer_iteration by name; one
        # small graph in a fresh process (the tool sets BLAS to one thread)
        tool = Path(__file__).resolve().parent.parent / "tools" / "iteration_cost.py"
        script = (
            "import json, runpy\n"
            f"tool = runpy.run_path({str(tool)!r})\n"
            "g = tool['random_graph'](60, 0.3, 1)\n"
            "print(json.dumps(tool['row']('g', g, tool['Reference']())))\n"
        )
        out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True).stdout
        row = json.loads(out)
        assert (row["graph"], row["n"]) == ("g", 60) and row["solver_iterations"] > 0
        assert len(row["reference_ms"]) == 2 and min(row["reference_ms"]) > 0
        for key in ("solver_us_per_iteration", "solver_us_per_solve_outside_steps", "baseline_us_per_iteration"):
            assert row[f"{key}_scaled"] > 0
        assert row["solver_us_per_iteration"] > 0 and row["baseline_us_per_iteration"] > 0
        assert row["solver_us_per_solve_outside_steps"] > 0
        assert 0 < row["solver_adj_matvec_share"] < 1 and 0 < row["baseline_adj_matvec_share"] < 1


class TestBandScreen:
    """solve runs the band test (_is_binary) only on iterates that pass
    _band_screen, which reads the sum(u) and u.u that SolverState
    carries; the screen must pass every iterate the band test accepts."""

    @staticmethod
    def _screened(u: np.ndarray, tol: float) -> bool:
        state = SolverState(u=u, au=np.zeros(len(u)), d=1.0, alpha=1.0)
        return _band_screen(state.su, state.uu, len(u), tol)

    TOLS = (1e-15, 1e-12, 1e-6, 1e-3, 0.1, 0.25, 0.4, 0.49)

    # every coordinate on one edge of a band, where |u_i - u_i^2| is largest
    @pytest.mark.parametrize("n", [1, 2, 3, 17, 1000, 10**5])
    def test_iterates_on_one_band_edge_pass(self, n):
        for tol in self.TOLS:
            for x in (0.0, tol, 1.0 - tol, 1.0, 1.0 + tol):
                u = np.full(n, x)
                assert _is_binary(u, SolverConfig(binary_tol=tol))
                assert self._screened(u, tol), (tol, x)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        n=st.one_of(st.integers(1, 40), st.integers(1, 10**5)),
        tol=st.one_of(st.sampled_from(TOLS), st.floats(1e-16, 0.49)),
        on_edges=st.floats(0.0, 1.0),
        ones=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_every_binary_iterate_passes(self, n, tol, on_edges, ones, seed):
        # coordinates on the bands' edges {0, tol, 1 - tol, 1 + tol}, each
        # with probability on_edges, else uniform inside a band, the upper
        # one with probability ones
        rng = np.random.default_rng(seed)
        edges = np.array([0.0, tol, 1.0 - tol, 1.0 + tol])
        inside = np.where(rng.random(n) < ones, rng.uniform(1.0 - tol, 1.0 + tol, n), rng.uniform(0.0, tol, n))
        u = np.where(rng.random(n) < on_edges, edges[rng.integers(4, size=n)], inside)
        assert _is_binary(u, SolverConfig(binary_tol=tol))
        assert self._screened(u, tol)

    def test_spread_iterates_are_turned_away(self):
        # a uniform random start has |sum(u) - u.u| near n/6
        for n in (10, 1000):
            assert not self._screened(np.random.default_rng(n).random(n), 1e-3)
        assert not self._screened(np.array([np.nan, 1.0]), 0.1)

    def test_solve_skips_band_tests_and_keeps_its_result(self, monkeypatch):
        # the screen spares most band tests, and opening it changes nothing
        g = stored_form_graphs()["csr_of_complement"]
        tests = []
        is_binary = solver_module._is_binary
        monkeypatch.setattr(solver_module, "_is_binary", lambda u, cfg: tests.append(1) or is_binary(u, cfg))
        res = solve(g, SolverConfig(seed=3))
        assert 0 < len(tests) < res.iterations
        tests.clear()
        monkeypatch.setattr(solver_module, "_band_screen", lambda *args: True)
        unscreened = solve(g, SolverConfig(seed=3))
        assert len(tests) == unscreened.iterations
        assert _bits(unscreened.u_final) == _bits(res.u_final)
        assert _bits(unscreened.objective_trace) == _bits(res.objective_trace)
        assert (unscreened.iterations, unscreened.clique, unscreened.converged) == (
            res.iterations, res.clique, res.converged)


def _quartic_at(q, t: float) -> float:
    q1, q2, q3, q4 = q
    return t * (q1 + t * (q2 + t * (q3 + t * q4)))


def _assert_near_reference_min(q, t: float):
    # the closed form must match a dense grid plus np.roots critical points
    assert 0.0 <= t <= 1.0
    value = _quartic_at(q, t)
    tol = 1e-13 * sum(abs(c) for c in q)
    assert value <= 0.0
    assert value <= quartic_min_reference(q) + tol


class TestChordMinimizer:
    def test_random_quartics(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            s = 10.0 ** rng.uniform(-3.0, 3.0, size=4)
            q = (*(rng.standard_normal(3) * s[:3]), abs(rng.standard_normal()) * s[3])
            _assert_near_reference_min(q, _chord_minimizer(*q))

    def test_non_convex_quartics(self):
        # derivative 4 q4 (t - r1)(t - r2)(t - r3): two interior local
        # minima around an interior local maximum
        rng = np.random.default_rng(12)
        for _ in range(200):
            r1, r2, r3 = np.sort(rng.uniform(0.0, 1.0, 3))
            q4 = 10.0 ** rng.uniform(-3.0, 3.0)
            q = (-4.0 * q4 * r1 * r2 * r3, 2.0 * q4 * (r1 * r2 + r1 * r3 + r2 * r3),
                 -4.0 / 3.0 * q4 * (r1 + r2 + r3), q4)
            _assert_near_reference_min(q, _chord_minimizer(*q))

    def test_ill_scaled_short_chords(self):
        # ||p|| near 1e-8: q4 = ||p||^4 / 2 is some 1e-33, and the cubic's
        # normalized coefficients lose their digits
        rng = np.random.default_rng(13)
        for _ in range(200):
            pp = (1e-8 * rng.uniform(0.5, 2.0)) ** 2
            uu = rng.uniform(1.0, 500.0)
            up = rng.uniform(-1.0, 1.0) * math.sqrt(uu * pp)
            q2 = pp * 10.0 ** rng.uniform(-1.0, 3.0)
            q = (-2.0 * q2 * rng.uniform(0.02, 0.98), q2, 2.0 * up * pp, 0.5 * pp * pp)
            _assert_near_reference_min(q, _chord_minimizer(*q))

    def test_ends_of_the_interval(self):
        assert _chord_minimizer(0.0, 0.0, 0.0, 0.0) == 0.0
        assert _chord_minimizer(1.0, 1.0, 0.0, 1.0) == 0.0
        assert _chord_minimizer(-1.0, 0.0, 0.0, 0.1) == 1.0

    def test_same_choice_as_the_min_over_pairs(self):
        # the families above, quartics with ties, and coefficients of
        # every sign and scale, including ones no step produces
        rng = np.random.default_rng(14)
        cases = [(0.0, 0.0, 0.0, 0.0), (1.0, 1.0, 0.0, 1.0), (-1.0, 0.0, 0.0, 0.1),
                 (-1.0, 1.0, 0.0, 0.0), (-2.0, 1.0, 0.0, 0.0), (0.0, -1.0, 1.0, 0.0), (-1.0, 0.5, 0.0, 0.0)]
        for _ in range(2000):
            s = 10.0 ** rng.uniform(-6.0, 6.0, size=4)
            cases.append((*(rng.standard_normal(3) * s[:3]), abs(rng.standard_normal()) * s[3]))
            r1, r2, r3 = np.sort(rng.uniform(-0.5, 1.5, 3))
            q4 = 10.0 ** rng.uniform(-3.0, 3.0)
            cases.append((-4.0 * q4 * r1 * r2 * r3, 2.0 * q4 * (r1 * r2 + r1 * r3 + r2 * r3),
                          -4.0 / 3.0 * q4 * (r1 + r2 + r3), q4))
            cases.append(tuple(rng.standard_normal(4) * (rng.random(4) < 0.6)))
        for q in cases:
            q = tuple(map(float, q))
            assert _bits(_chord_minimizer(*q)) == _bits(chord_minimizer_by_pairs(*q)), q

    def test_same_choice_on_the_steps_of_solves(self, monkeypatch):
        # every quartic that the step meets in solves on each stored form
        seen = []

        def recorded(*q):
            t = _chord_minimizer(*q)
            seen.append((q, t))
            return t

        monkeypatch.setattr(solver_module, "_chord_minimizer", recorded)
        for g in stored_form_graphs().values():
            for seed in range(3):
                solve(g, SolverConfig(seed=seed))
        assert len(seen) > 100
        assert all(t == chord_minimizer_by_pairs(*q) for q, t in seen)
        assert {t == 1.0 for _, t in seen} == {True, False}  # full steps and interior minima

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(
        n=st.integers(3, 12),
        density=st.floats(0.1, 0.9),
        graph_seed=st.integers(0, 10**6),
        seed=st.integers(0, 10**6),
        d=st.floats(0.0, 60.0),
        log_alpha=st.floats(-4.0, 1.0),
    )
    def test_step_minimizes_the_dense_chord_quartic(
        self, n, density, graph_seed, seed, d, log_alpha
    ):
        g = random_graph(n, density, graph_seed)
        rng = np.random.default_rng(seed)
        u = rng.random(n) * (rng.random(n) < 0.8)
        alpha = 10.0**log_alpha
        state = SolverState(u=u, au=g.adj_matvec(u), d=d, alpha=alpha)
        out = armijo_outer_iteration(g, state)
        p = np.maximum(u - alpha * gradient(g, d, u), 0.0) - u
        q = chord_quartic_dense(dense_md(dense_adjacency(g), d), u, p)
        pp = float(p @ p)
        t = float((out.u - u) @ p) / pp if pp > 0.0 else 0.0
        _assert_near_reference_min(q, min(max(t, 0.0), 1.0))
        assert out.last_step.f_new - out.last_step.f_old == pytest.approx(
            _quartic_at(q, t), rel=1e-9, abs=1e-12 * sum(abs(c) for c in q))


class TestSolverConfig:
    # d = 0 stays 0 under d <- GAMMA d, so the penalty would never grow
    @pytest.mark.parametrize("d0", [-5.0, 0.0, math.nan, math.inf])
    def test_penalty_start_must_be_finite_and_positive(self, d0):
        with pytest.raises(ValueError, match="d0_override"):
            SolverConfig(d0_override=d0)

    # a band reaching 0.5 would count as 0 what round_phi rounds to 1; an
    # empty band would never let a run converge
    @pytest.mark.parametrize("tol", [0.0, 0.5, -1.0, math.nan, math.inf])
    def test_binary_tol_must_lie_below_one_half(self, tol):
        with pytest.raises(ValueError, match="binary_tol"):
            SolverConfig(binary_tol=tol)

    # nan would run no iteration and report the random start's rounding,
    # 2.5 would run three, and inf would never stop at a saddle
    @pytest.mark.parametrize("cap", [math.nan, math.inf, 2.5, 0])
    def test_iteration_cap_must_be_a_positive_integer(self, cap):
        with pytest.raises(ValueError, match="max_outer_iterations"):
            SolverConfig(max_outer_iterations=cap)


class TestSolve:
    def test_triangle(self, k3):
        res = solve(k3)
        assert res.converged
        assert res.clique.vertices == (0, 1, 2)
        assert res.clique_valid and res.clique_maximal
        assert res.iterations >= 1
        assert len(res.objective_trace) == res.iterations
        assert stationarity_residual(k3, d_max(k3), res.u_final) < 1e-2

    def test_star_across_seeds(self, star5):
        for seed in range(5):
            res = solve(star5, SolverConfig(seed=seed))
            assert res.converged
            assert res.clique.size == 2
            assert 0 in res.clique.vertices
            assert is_maximal_clique(star5, res.clique.vertices)

    def test_default_config_converges_to_a_maximal_clique(self):
        res = solve(random_graph(400, 0.85, 2001), SolverConfig(seed=2004))
        assert res.converged and res.clique_maximal

    def test_tuned_d0_converges_to_a_maximal_clique(self):
        # graph 363 of acceptance criterion 1's corpus
        cfg = SolverConfig(seed=2, d0_override=0.5207556439232954)
        res = solve(random_graph(30, 0.2, 10363), cfg)
        assert res.converged and res.clique_maximal

    def test_wide_band_converges_to_a_maximal_clique(self):
        # the band holds first at the rounding (0, 1, 2), which vertex 5
        # extends; the certificate fails there and the run goes on
        res = solve(random_graph(10, 0.5, 3), SolverConfig(seed=1, binary_tol=0.3))
        assert res.converged and res.clique_valid and res.clique_maximal
        assert res.clique.vertices == (0, 1, 2, 5)
        assert res.iterations == 9

    def test_saddle_inside_the_band_ends_at_the_cap(self, monkeypatch):
        # the clique (5, 27) keeps a lockstep pair of non-adjacent
        # extenders inside the band from iteration 2518 on: a symmetric
        # saddle, whose rounding is a clique but not a maximal one
        passes = 0
        adj_matvec = Graph.adj_matvec

        def counted(self, u):
            nonlocal passes
            passes += 1
            return adj_matvec(self, u)

        monkeypatch.setattr(Graph, "adj_matvec", counted)
        cfg = SolverConfig(seed=0, d0_override=100.0, max_outer_iterations=3000)
        res = solve(random_graph(49, 0.2, 1), cfg)
        assert not res.converged
        assert res.iterations == 3000
        # the unchanged rounding is checked once, not at every band hit:
        # the start, one pass per iteration, the certificate and one pass
        # for the final flags
        assert passes == res.iterations + 3
        assert res.clique.vertices == (5, 27)
        assert res.clique_valid and not res.clique_maximal
        outside = np.delete(res.u_final, res.clique.vertices)
        assert np.count_nonzero(outside) == 2
        assert outside.max() <= cfg.binary_tol

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        n=st.integers(3, 14),
        density=st.floats(0.1, 0.9),
        graph_seed=st.integers(0, 10**6),
        seed=st.integers(0, 10**6),
        tol=st.floats(0.0, 0.5, exclude_min=True, exclude_max=True),
        d0_share=st.floats(0.0, 1.0, exclude_min=True),
    )
    def test_every_converged_run_is_a_maximal_clique(
        self, n, density, graph_seed, seed, tol, d0_share
    ):
        g = random_graph(n, density, graph_seed)
        assume(g.edge_count > 0)
        cfg = SolverConfig(
            seed=seed,
            binary_tol=tol,
            d0_override=d0_share * d_max(g),
            max_outer_iterations=2000,
        )
        res = solve(g, cfg)
        if res.converged:
            assert res.clique_valid and res.clique_maximal
            assert is_maximal_clique(g, res.clique.vertices)

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
        res = solve(star5, SolverConfig(d0_override=5.0), record_iterates=True)
        assert res.iterates is not None
        assert res.iterates[0].d == pytest.approx(5.0)
        assert all(rec.d <= d_max(star5) for rec in res.iterates)

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

    def test_null_steps_and_stop_report_the_run(self, monkeypatch):
        # null_steps counts the recorded steps with t* = 0, and stop says
        # "certified" exactly when the run converged
        g = random_graph(30, 0.5, 3)
        for cap in (10_000, 3):
            res = solve(g, SolverConfig(seed=1, max_outer_iterations=cap))
            assert res.null_steps == 0
            assert (res.converged, res.stop) == ((True, "certified") if cap > 3 else (False, "cap"))
        # every third chord search finds no decrease
        calls = itertools.count()
        chord = solver_module._chord_minimizer
        monkeypatch.setattr(solver_module, "_chord_minimizer", lambda *q: 0.0 if next(calls) % 3 == 0 else chord(*q))
        for cap in (10_000, 5):
            res = solve(g, SolverConfig(seed=1, max_outer_iterations=cap), record_iterates=True)
            assert res.null_steps == sum(not rec.accepted for rec in res.iterates) > 0
            assert res.stop == ("certified" if res.converged else "cap")
            assert res.converged == (cap > 5)

    def test_recorded_iterates_align_with_trace(self, star5):
        res = solve(star5, record_iterates=True)
        assert res.iterates is not None
        assert len(res.iterates) == res.iterations
        assert [rec.f_new for rec in res.iterates] == res.objective_trace
        # each record is the step with its iterate attached
        assert all(isinstance(rec, ArmijoStep) and rec.u.shape == (star5.n,) for rec in res.iterates)
