from __future__ import annotations

import math

import numpy as np
import pytest

from rankclique import (
    CliqueSet,
    EdgelessGraphError,
    IndependentSupportError,
    extend_to_maximal,
    graph_from_edge_list,
    is_clique,
    is_maximal_clique,
    postprocess_greedy,
    run_baseline,
)
from rankclique import baselines
from rankclique.baselines import _replicator_update
from conftest import small_random_graphs, stored_form_graphs
from oracles import hamming_graph, plain_baseline_loop, plain_replicator_step


@pytest.fixture
def k3_plus_isolated():
    """Triangle {0, 1, 2} plus the isolated vertex 3."""
    return graph_from_edge_list(4, [(0, 1), (0, 2), (1, 2)])


class TestConfig:
    @pytest.mark.parametrize("kind", ["pelillo", "ding"])
    @pytest.mark.parametrize("eta", [0.9, 2.1, 2.5])
    def test_eta_range(self, k3, kind, eta):
        with pytest.raises(ValueError, match="eta"):
            run_baseline(k3, kind, eta=eta)


class TestReplicatorStep:
    def test_frozen_path(self, path3):
        u = np.full(3, 1.0 / 3.0)
        got = _replicator_update(u, path3.adj_matvec(u), 1.0)
        assert np.allclose(got, [0.25, 0.5, 0.25], atol=1e-15)
        # and (0.25, 0.5, 0.25) is a fixed point
        again = _replicator_update(got, path3.adj_matvec(got), 1.0)
        assert np.allclose(again, got, atol=1e-15)

    def test_uniform_is_fixed_on_k3(self, k3):
        u = np.full(3, 1.0 / 3.0)
        assert np.allclose(_replicator_update(u, k3.adj_matvec(u), 1.0), u, atol=1e-15)

    def test_preserves_simplex(self):
        rng = np.random.default_rng(17)
        for g in small_random_graphs(20, seed0=17):
            u = rng.random(g.n)
            u /= u.sum()
            try:
                out = _replicator_update(u, g.adj_matvec(u), 1.0)
            except IndependentSupportError:
                continue
            assert abs(float(out.sum()) - 1.0) <= 1e-12
            assert (out >= 0).all()

    def test_independent_support_raises(self, path3):
        u = np.array([0.5, 0.0, 0.5])
        with pytest.raises(IndependentSupportError, match="independent set"):
            _replicator_update(u, path3.adj_matvec(u), 1.0)


class TestAnnealedStep:
    def test_frozen_path(self, path3):
        u0 = np.full(3, 3.0 ** (-1.0 / 2.0))  # uniform on the 2-simplex shell
        got = _replicator_update(u0, path3.adj_matvec(u0), 2.0)
        assert np.allclose(got, [0.5, math.sqrt(0.5), 0.5], atol=1e-15)

    def test_eta_one_is_bitwise_replicator(self):
        # n ** -1.0 and 1.0 / n, the two starts, agree for every n <= 12
        # (the first n at which they differ is 1923)
        for g in small_random_graphs(20, seed0=23):
            u, iterations, converged = run_baseline(g, "ding", eta=1.0)
            u_ref, iterations_ref, converged_ref = run_baseline(g, "pelillo")
            assert u.tobytes() == u_ref.tobytes()
            assert (iterations, converged) == (iterations_ref, converged_ref)

    def test_preserves_eta_mass(self):
        rng = np.random.default_rng(29)
        eta = 1.05
        for g in small_random_graphs(20, seed0=29):
            u = rng.random(g.n)
            u /= (u**eta).sum() ** (1.0 / eta)
            try:
                out = _replicator_update(u, g.adj_matvec(u), eta)
            except IndependentSupportError:
                continue
            assert abs(float((out**eta).sum()) - 1.0) <= 1e-12


class TestRunBaseline:
    def test_k3_never_leaves_its_start(self, k3):
        # K3 is regular, so the barycenter is a fixed point: the first
        # step meets the stop test, and the run has not converged
        u, iterations, converged = run_baseline(k3, "pelillo")
        assert not converged
        assert iterations == 1
        assert np.allclose(u, np.full(3, 1.0 / 3.0), atol=1e-15)

    @pytest.mark.parametrize("kind", ["pelillo", "ding"])
    def test_regular_graphs_stop_unconverged_at_the_barycenter(self, kind):
        # hamming10_2 is 1013-regular; a 6-cycle is 2-regular
        cycle6 = graph_from_edge_list(6, [(i, (i + 1) % 6) for i in range(6)])
        for g in (hamming_graph(10, 2), cycle6):
            u, iterations, converged = run_baseline(g, kind)
            assert (iterations, converged) == (1, False)
            u_ref, iterations_ref, converged_ref = plain_baseline_loop(
                g, kind, baselines.ETA, baselines.TOL, baselines.MAX_ITERATIONS
            )
            assert u.tobytes() == u_ref.tobytes()
            assert (iterations_ref, converged_ref) == (1, False)

    def test_path3_frozen_limit(self, path3):
        u, iterations, converged = run_baseline(path3, "pelillo")
        assert converged
        assert iterations == 2
        assert np.allclose(u, [0.25, 0.5, 0.25], atol=1e-15)

    def test_ding_start_is_on_eta_simplex(self, path3, monkeypatch):
        monkeypatch.setattr(baselines, "MAX_ITERATIONS", 1)
        u, _, _ = run_baseline(path3, "ding", eta=1.5)
        # after one step the eta-mass is still 1
        assert abs(float((u**1.5).sum()) - 1.0) <= 1e-12

    def test_unknown_kind(self, k3):
        with pytest.raises(ValueError, match="unknown baseline kind"):
            run_baseline(k3, "power")

    def test_edgeless_raises(self, empty4):
        with pytest.raises(EdgelessGraphError):
            run_baseline(empty4, "pelillo")

    def test_iteration_budget(self, monkeypatch):
        g = graph_from_edge_list(6, [(i, j) for i in range(6) for j in range(i + 1, 6)
                                     if (i, j) != (0, 5)])
        monkeypatch.setattr(baselines, "TOL", 1e-300)
        monkeypatch.setattr(baselines, "MAX_ITERATIONS", 3)
        _, iterations, converged = run_baseline(g, "pelillo")
        assert not converged
        assert iterations == 3

    def test_replicator_objective_never_decreases(self, monkeypatch):
        monkeypatch.setattr(baselines, "MAX_ITERATIONS", 200)
        for g in small_random_graphs(15, seed0=41, n_lo=5, n_hi=15):
            u, _, _ = run_baseline(g, "pelillo")
            # re-walk the trajectory and watch u^T A u
            v = np.full(g.n, 1.0 / g.n)
            prev = float(v @ g.adj_matvec(v))
            for _ in range(200):
                v = _replicator_update(v, g.adj_matvec(v), 1.0)
                q = float(v @ g.adj_matvec(v))
                assert q >= prev - 1e-12
                prev = q


class TestInPlaceUpdates:
    """The baselines update in place; each result must equal the plain
    formulas' bit for bit, on every stored form of the operator."""

    @pytest.mark.parametrize("form", sorted(stored_form_graphs()))
    def test_steps_equal_the_plain_updates(self, form):
        g = stored_form_graphs()[form]
        u = np.random.default_rng(3).random(g.n)
        u /= u.sum()
        before = u.tobytes()
        for eta in (1.0, 1.05, 1.5, 2.0):
            got = _replicator_update(u, g.adj_matvec(u), eta)
            assert got.tobytes() == plain_replicator_step(g, u, eta).tobytes()
        assert u.tobytes() == before

    @pytest.mark.parametrize("kind", ["pelillo", "ding"])
    @pytest.mark.parametrize("form", sorted(stored_form_graphs()))
    def test_run_baseline_equals_the_plain_loop(self, form, kind, monkeypatch):
        g = stored_form_graphs()[form]
        for eta, max_iterations in ((baselines.ETA, baselines.MAX_ITERATIONS), (2.0, 7)):
            monkeypatch.setattr(baselines, "MAX_ITERATIONS", max_iterations)
            u, iterations, converged = run_baseline(g, kind, eta)
            u_ref, iterations_ref, converged_ref = plain_baseline_loop(
                g, kind, eta, baselines.TOL, max_iterations
            )
            assert u.tobytes() == u_ref.tobytes()
            assert (iterations, converged) == (iterations_ref, converged_ref)


class TestGreedyPostprocess:
    def test_frozen_star_weights(self, star5):
        clique = postprocess_greedy(star5, np.array([0.5, 0.125, 0.125, 0.125, 0.125]))
        assert clique.vertices == (0, 1)

    def test_k3_uniform(self, k3):
        clique = postprocess_greedy(k3, np.full(3, 1.0 / 3.0))
        assert clique.vertices == (0, 1, 2)

    def test_ties_break_by_ascending_index(self, star5):
        clique = postprocess_greedy(star5, np.array([0.1, 0.4, 0.4, 0.2, 0.15]))
        # vertices 1 and 2 tie; 1 enters first, 2 is not adjacent, scan stops
        assert clique.vertices == (1,)

    def test_stops_at_first_failure(self, k3_plus_isolated):
        u = np.array([0.9, 0.2, 0.1, 0.5])
        clique = postprocess_greedy(k3_plus_isolated, u)
        # isolated vertex 3 is scanned second and kills the scan, even
        # though 1 and 2 would have extended {0}
        assert clique.vertices == (0,)
        assert not is_maximal_clique(k3_plus_isolated, clique.vertices)

    def test_result_is_always_a_clique(self):
        rng = np.random.default_rng(59)
        for g in small_random_graphs(20, seed0=59):
            clique = postprocess_greedy(g, rng.random(g.n))
            assert is_clique(g, clique.vertices)

    def test_wrong_shape(self, k3):
        with pytest.raises(ValueError, match="shape"):
            postprocess_greedy(k3, np.ones(2))


class TestExtendToMaximal:
    def test_extends_frozen_case(self, k3_plus_isolated):
        out = extend_to_maximal(k3_plus_isolated, CliqueSet((0,)))
        assert out.vertices == (0, 1, 2)

    def test_already_maximal_is_unchanged(self, k3):
        out = extend_to_maximal(k3, CliqueSet((0, 1, 2)))
        assert out.vertices == (0, 1, 2)

    def test_empty_clique_extends(self, k3):
        assert extend_to_maximal(k3, CliqueSet(())).vertices == (0, 1, 2)

    def test_rejects_non_clique(self, path3):
        with pytest.raises(ValueError, match="not a clique"):
            extend_to_maximal(path3, CliqueSet((0, 2)))

    def test_always_maximal(self):
        rng = np.random.default_rng(67)
        for g in small_random_graphs(20, seed0=67):
            seed_clique = postprocess_greedy(g, rng.random(g.n))
            out = extend_to_maximal(g, seed_clique)
            assert is_maximal_clique(g, out.vertices)
            assert set(seed_clique.vertices) <= set(out.vertices)
