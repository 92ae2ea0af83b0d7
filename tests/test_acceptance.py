"""Acceptance gate: one test per advertised guarantee, each printing a
PASS/FAIL line (run with -s to see them live).

The random corpora are fully seeded, so every figure printed here is
reproducible bit-for-bit.  Runtime ceilings are generous sanity bounds,
not performance claims.
"""

from __future__ import annotations

import math
import os
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from rankclique import (
    Graph,
    SolverConfig,
    cmd_bench_random,
    cmd_solve,
    d_max,
    enumerate_maximal_cliques,
    is_maximal_clique,
    maximum_clique_exact,
    random_graph,
    read_dimacs,
    solve,
    stationarity_residual,
)
from rankclique.baselines import _replicator_update
from rankclique.harness import _nonadjacent_weight_bound
from rankclique.solver import gradient, md_norm_sq, objective_shifted, round_phi
from oracles import central_diff_gradient, hamming_graph, johnson_graph


def _report(num: int, label: str, passed: bool, detail: str, t0: float) -> str:
    line = (
        f"ACCEPTANCE {num} {'PASS' if passed else 'FAIL'} {label}: "
        f"{detail} ({time.perf_counter() - t0:.1f}s)"
    )
    print(line)
    return line


def _graphs(count: int, seed0: int, n_of, density_of) -> list[Graph]:
    out: list[Graph] = []
    i = 0
    while len(out) < count:
        g = random_graph(n_of(i), density_of(i), seed=seed0 + i)
        i += 1
        if g.edge_count > 0:
            out.append(g)
    return out


def _nonadjacency(g: Graph) -> np.ndarray:
    nonadj = np.ones((g.n, g.n), dtype=bool)
    np.fill_diagonal(nonadj, False)
    for v in range(g.n):
        nonadj[v, g.neighbors(v)] = False
    return nonadj


@dataclass
class CorpusScan:
    """Joint sweep for the rounding-soundness and iterate-bound checks.

    The same 500-graph corpus is solved twice per seed: once with the
    stock configuration (rounding soundness of converged runs), and once
    with a polishing configuration (tiny binary bands, fixed iteration
    budget) whose iterates get within 1e-8 of stationarity, which the
    stock stopping rule never needs to reach.  The near-stationary
    bounds are checked on the polished trajectories.
    """

    runs: int = 0
    converged: int = 0
    errors: int = 0
    rounding_violations: int = 0
    near_stationary_iterates: int = 0
    weight_bound_violations: int = 0
    rounding_distance_checks: int = 0
    rounding_distance_violations: int = 0
    elapsed: float = 0.0


_POLISH = dict(binary_tol=1e-12, max_outer_iterations=150)


@pytest.fixture(scope="module")
def corpus_scan() -> CorpusScan:
    # 500 graphs, n cycling 5..30, density cycling {0.2, 0.5, 0.8}, 3 seeds
    graphs = _graphs(
        500,
        seed0=10_000,
        n_of=lambda i: 5 + i % 26,
        density_of=lambda i: (0.2, 0.5, 0.8)[i % 3],
    )
    scan = CorpusScan()
    t0 = time.perf_counter()
    for g in graphs:
        cap = d_max(g)
        norm_b = math.sqrt(g.n + 2 * g.edge_count)
        nonadj = _nonadjacency(g)
        for seed in (0, 1, 2):
            scan.runs += 1
            try:
                res = solve(g, SolverConfig(seed=seed))
            except Exception:
                scan.errors += 1
                continue
            if res.converged:
                scan.converged += 1
                if not (res.clique_valid and res.clique_maximal):
                    scan.rounding_violations += 1

            polished = solve(g, SolverConfig(seed=seed, **_POLISH), record_iterates=True)
            assert polished.iterates is not None
            for rec in polished.iterates:
                u = rec.u
                if float(u @ u) == 0.0:
                    continue
                if stationarity_residual(g, rec.d, u) >= 1e-8:
                    continue
                scan.near_stationary_iterates += 1
                # active non-adjacent pairs must carry small weight
                scan.weight_bound_violations += _nonadjacent_weight_bound(g, nonadj, rec.d, u)[1]
                # once the penalty has reached its cap, the iterate must
                # sit close to its own rounding
                if rec.d >= cap - 1e-9 and cap > 0:
                    scan.rounding_distance_checks += 1
                    dist = float(np.linalg.norm(u - round_phi(u)))
                    if dist > g.n * norm_b / (rec.d + 1.0) + 1e-12:
                        scan.rounding_distance_violations += 1
    scan.elapsed = time.perf_counter() - t0
    return scan


class TestAcceptance:
    def test_01_rounding_soundness(self, corpus_scan):
        t0 = time.perf_counter() - corpus_scan.elapsed
        ok = (
            corpus_scan.errors == 0
            and corpus_scan.rounding_violations == 0
            and corpus_scan.elapsed < 60.0
        )
        line = _report(
            1,
            "rounding soundness",
            ok,
            f"{corpus_scan.runs} solves, {corpus_scan.converged} converged, "
            f"{corpus_scan.rounding_violations} rounding violations, "
            f"{corpus_scan.errors} errors",
            t0,
        )
        assert ok, line

    def test_02_oracle_optimality_rate(self):
        t0 = time.perf_counter()
        graphs = _graphs(
            100,
            seed0=20_000,
            n_of=lambda i: 4 + i % 9,  # 4..12
            density_of=lambda i: (0.3, 0.5, 0.7)[i % 3],
        )
        hits = 0
        for g in graphs:
            omega = maximum_clique_exact(g).size
            best, _, _ = cmd_solve(g, "c2", algo="r1nm", restarts=20, seed=0)
            if best.valid and best.clique_size == omega:
                hits += 1
        rate = hits / len(graphs)
        elapsed = time.perf_counter() - t0
        ok = rate >= 0.90 and elapsed < 120.0
        line = _report(
            2,
            "oracle optimality rate",
            ok,
            f"best-of-20 matched the exact clique number on {hits}/100 graphs "
            f"(rate {rate:.2f}, need >= 0.90)",
            t0,
        )
        assert ok, line

    def test_03_gradient_finite_differences(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(42)
        worst = 0.0
        checked = 0
        while checked < 100:
            n = int(rng.integers(2, 31))
            g = random_graph(n, float(rng.uniform(0.1, 0.9)), seed=int(rng.integers(1 << 30)))
            if g.edge_count == 0:
                continue
            checked += 1
            d = float(rng.uniform(0.0, 1.5 * n))
            u = rng.random(n)
            grad = gradient(g, d, u)
            fd = central_diff_gradient(lambda v: objective_shifted(g, d, v), u)
            denom = max(float(np.linalg.norm(grad)), 1e-12)
            worst = max(worst, float(np.linalg.norm(fd - grad)) / denom)
        elapsed = time.perf_counter() - t0
        ok = worst < 1e-6 and elapsed < 10.0
        line = _report(
            3,
            "gradient matches finite differences",
            ok,
            f"100 triples, worst relative error {worst:.3e} (tol 1e-6)",
            t0,
        )
        assert ok, line

    def test_04_05_stationarity_and_value_identity(self):
        # criteria 4 and 5 share one oracle-enumerated corpus
        t0 = time.perf_counter()
        graphs = _graphs(
            50,
            seed0=30_000,
            n_of=lambda i: 4 + i % 9,
            density_of=lambda i: (0.3, 0.5, 0.7)[i % 3],
        )
        worst_residual = 0.0
        cliques_checked = 0
        worst_identity = 0.0
        for g in graphs:
            cap = d_max(g)
            for c in enumerate_maximal_cliques(g):
                u = c.indicator(g.n)
                for d in (float(g.n), cap):
                    worst_residual = max(worst_residual, stationarity_residual(g, d, u))
                cliques_checked += 1
            omega_clique = maximum_clique_exact(g)
            u_star = omega_clique.indicator(g.n)
            omega = omega_clique.size
            for d in (float(g.n), cap):
                lhs = 2.0 * objective_shifted(g, d, u_star) + md_norm_sq(g, d)
                rhs = md_norm_sq(g, d) - omega * omega
                worst_identity = max(worst_identity, abs(lhs - rhs) / max(1.0, abs(rhs)))
        elapsed = time.perf_counter() - t0
        ok4 = worst_residual < 1e-12 and elapsed < 30.0
        line4 = _report(
            4,
            "maximal-clique indicators are stationary",
            ok4,
            f"{cliques_checked} cliques x 2 penalties, worst residual "
            f"{worst_residual:.3e} (tol 1e-12)",
            t0,
        )
        ok5 = worst_identity < 1e-6
        line5 = _report(
            5,
            "optimal value identity",
            ok5,
            f"worst relative error {worst_identity:.3e} (tol 1e-6)",
            t0,
        )
        assert ok4, line4
        assert ok5, line5

    def test_06_random_benchmark_medians(self):
        t0 = time.perf_counter()
        densities = [0.15, 0.50, 0.85]
        targets = {0.15: 5, 0.50: 10, 0.85: 15}
        records = cmd_bench_random(
            400, densities, trials=10, seed=0, algos=("r1nm", "pelillo")
        )
        assert all(r.valid for r in records)
        medians: dict[tuple[str, float], float] = {}
        for algo in ("r1nm", "pelillo"):
            for rho in densities:
                sizes = [
                    r.clique_size
                    for r in records
                    if r.algorithm == algo and f"_p{rho:g}_" in r.instance_name
                ]
                assert len(sizes) == 10
                medians[(algo, rho)] = statistics.median(sizes)
        elapsed = time.perf_counter() - t0
        ok = elapsed < 600.0
        details = []
        for rho in densities:
            med = medians[("r1nm", rho)]
            ok = ok and med >= targets[rho] - 2
            details.append(f"density {rho:g}: median {med:g} (target {targets[rho]}-2)")
        for rho in (0.50, 0.85):
            ok = ok and medians[("r1nm", rho)] >= medians[("pelillo", rho)]
            details.append(
                f"vs replicator at {rho:g}: {medians[('r1nm', rho)]:g} >= "
                f"{medians[('pelillo', rho)]:g}"
            )
        line = _report(6, "random benchmark medians", ok, "; ".join(details), t0)
        assert ok, line

    def test_07a_brock200_1(self):
        self._dimacs_spot_check(7, "brock200_1", restarts=5, want_at_least=17)

    def test_07b_p_hat1000_1(self):
        self._dimacs_spot_check(7, "p_hat1000-1", restarts=5, want_exact=10)

    def test_07c_hamming10_2(self):
        t0 = time.perf_counter()
        g = hamming_graph(10, 2)
        assert g.n == 1024 and g.edge_count == 518656
        run_t0 = time.perf_counter()
        res = solve(g, SolverConfig(seed=0))
        run_s = time.perf_counter() - run_t0
        size = res.clique.size if res.clique_valid else 0
        ok = size == 512 and run_s < 30.0
        line = _report(
            7,
            "hamming10_2 single run",
            ok,
            f"clique size {size} (want 512), valid={res.clique_valid}, "
            f"converged={res.converged}, run {run_s:.1f}s (ceiling 30s)",
            t0,
        )
        assert ok, line

    @pytest.mark.parametrize(
        "family, args, omega",
        [
            pytest.param(hamming_graph, (6, 2), 32, id="hamming6-2"),
            pytest.param(hamming_graph, (6, 4), 4, id="hamming6-4"),
            pytest.param(hamming_graph, (8, 2), 128, id="hamming8-2"),
            pytest.param(hamming_graph, (8, 4), 16, id="hamming8-4"),
            # ω is unknown; the best clique known has 40 vertices
            pytest.param(hamming_graph, (10, 4), None, id="hamming10-4"),
            pytest.param(johnson_graph, (8, 2, 4), 4, id="johnson8-2-4"),
            pytest.param(johnson_graph, (8, 4, 4), 14, id="johnson8-4-4"),
            pytest.param(johnson_graph, (16, 2, 4), 8, id="johnson16-2-4"),
            pytest.param(johnson_graph, (32, 2, 4), 16, id="johnson32-2-4"),
        ],
    )
    def test_07d_generated_dimacs_best_of_10(self, request, family, args, omega):
        # the hamming and johnson DIMACS instances, generated from their
        # definitions; ω as published (Johnson & Trick, eds., DIMACS
        # Series 26, 1996)
        t0 = time.perf_counter()
        g = family(*args)
        name = request.node.callspec.id
        runs = [solve(g, SolverConfig(seed=seed)) for seed in range(10)]
        maximal = sum(res.converged and is_maximal_clique(g, res.clique.vertices) for res in runs)
        best = max(res.clique.size for res in runs)
        ok = maximal == len(runs) and (omega is None or best == omega)
        line = _report(
            7,
            f"{name} best-of-10",
            ok,
            f"{maximal}/10 converged to maximal cliques, best clique size {best} "
            f"({'ω unknown' if omega is None else f'want = {omega}'})",
            t0,
        )
        assert ok, line

    def _dimacs_spot_check(
        self,
        num: int,
        name: str,
        *,
        restarts: int,
        want_at_least: int | None = None,
        want_exact: int | None = None,
    ):
        path = _dimacs_fixture(name)
        if path is None:
            pytest.skip(f"{name}.clq not present (tests/data/dimacs or $RANKCLIQUE_DIMACS_DIR)")
        t0 = time.perf_counter()
        g = read_dimacs(path)
        sizes = []
        slowest = 0.0
        for seed in range(restarts):
            r0 = time.perf_counter()
            res = solve(g, SolverConfig(seed=seed))
            slowest = max(slowest, time.perf_counter() - r0)
            sizes.append(res.clique.size if res.clique_valid else 0)
        best = max(sizes)
        if want_exact is not None:
            ok = best == want_exact
            goal = f"= {want_exact}"
        else:
            ok = best >= (want_at_least or 0)
            goal = f">= {want_at_least}"
        ok = ok and slowest < 30.0
        line = _report(
            num,
            f"{name} best-of-{restarts}",
            ok,
            f"best clique size {best} (want {goal}), slowest run {slowest:.1f}s",
            t0,
        )
        assert ok, line

    def test_08_baseline_invariants(self):
        t0 = time.perf_counter()
        graphs = _graphs(
            100,
            seed0=40_000,
            n_of=lambda i: 5 + i % 26,
            density_of=lambda i: (0.2, 0.5, 0.8)[i % 3],
        )
        eta = 1.05
        bad = 0
        for g in graphs:
            u = np.full(g.n, 1.0 / g.n)
            prev = float(u @ g.adj_matvec(u))
            for _ in range(100):
                u = _replicator_update(u, g.adj_matvec(u), 1.0)
                if abs(float(u.sum()) - 1.0) > 1e-12 or (u < 0).any():
                    bad += 1
                    break
                q = float(u @ g.adj_matvec(u))
                if q < prev - 1e-12:
                    bad += 1
                    break
                prev = q
            v = np.full(g.n, g.n ** (-1.0 / eta))
            for _ in range(30):
                v = _replicator_update(v, g.adj_matvec(v), eta)
                if abs(float((v**eta).sum()) - 1.0) > 1e-12:
                    bad += 1
                    break

        small = _graphs(
            30,
            seed0=50_000,
            n_of=lambda i: 4 + i % 9,
            density_of=lambda i: (0.3, 0.5, 0.7)[i % 3],
        )
        worst_gap = -math.inf
        for g in small:
            ms = 1.0 - 1.0 / maximum_clique_exact(g).size
            u = np.full(g.n, 1.0 / g.n)
            for _ in range(1000):
                q = float(u @ g.adj_matvec(u))
                worst_gap = max(worst_gap, q - ms)
                u_next = _replicator_update(u, g.adj_matvec(u), 1.0)
                delta = u_next - u
                u = u_next
                if float(delta @ delta) < 1e-10:
                    break
        elapsed = time.perf_counter() - t0
        ok = bad == 0 and worst_gap <= 1e-9 and elapsed < 120.0
        line = _report(
            8,
            "baseline invariants",
            ok,
            f"100 graphs, {bad} mass/monotonicity violations; "
            f"relaxation-bound gap max {worst_gap:.3e} (allow 1e-9)",
            t0,
        )
        assert ok, line

    def test_09_near_stationary_iterate_bounds(self, corpus_scan):
        t0 = time.perf_counter() - corpus_scan.elapsed
        ok = (
            corpus_scan.weight_bound_violations == 0
            and corpus_scan.rounding_distance_violations == 0
            # both bound families must have been exercised
            and corpus_scan.near_stationary_iterates > 0
            and corpus_scan.rounding_distance_checks > 0
        )
        line = _report(
            9,
            "near-stationary iterate bounds",
            ok,
            f"{corpus_scan.near_stationary_iterates} near-stationary iterates: "
            f"{corpus_scan.weight_bound_violations} non-adjacent weight-bound "
            f"violations; {corpus_scan.rounding_distance_checks} capped-penalty "
            f"iterates, {corpus_scan.rounding_distance_violations} rounding-"
            f"distance violations",
            t0,
        )
        assert ok, line

    def test_09_capped_start_rounding_distance(self):
        # acceptance 9's rounding-distance bound sees only the few polished
        # iterates whose penalty reached the cap; started at the cap, every
        # near-stationary iterate of the corpus's first 100 graphs is one
        t0 = time.perf_counter()
        checks = violations = 0
        for g in _graphs(100, seed0=10_000, n_of=lambda i: 5 + i % 26, density_of=lambda i: (0.2, 0.5, 0.8)[i % 3]):
            cap = d_max(g)
            norm_b = math.sqrt(g.n + 2 * g.edge_count)
            for seed in (0, 1, 2):
                res = solve(g, SolverConfig(seed=seed, d0_override=cap, **_POLISH), record_iterates=True)
                for rec in res.iterates:
                    u = rec.u
                    if rec.d < cap or float(u @ u) == 0.0 or stationarity_residual(g, rec.d, u) >= 1e-8:
                        continue
                    checks += 1
                    if float(np.linalg.norm(u - round_phi(u))) > g.n * norm_b / (rec.d + 1.0) + 1e-12:
                        violations += 1
        ok = checks >= 1000 and violations == 0
        line = _report(
            9, "capped-start rounding distance", ok, f"{checks} capped iterates, {violations} violations", t0
        )
        assert ok, line


def _dimacs_fixture(name: str) -> Path | None:
    bases = []
    env = os.environ.get("RANKCLIQUE_DIMACS_DIR")
    if env:
        bases.append(Path(env))
    bases.append(Path(__file__).parent / "data" / "dimacs")
    for base in bases:
        p = base / f"{name}.clq"
        if p.exists():
            return p
    return None

