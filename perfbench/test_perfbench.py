"""Tests of the benchmark itself.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402
from rankclique import Graph, graph_from_edge_list  # noqa: E402

DETERMINISTIC = (
    "solver.outer_iterations",
    "solver.armijo_trials",
    "graph.adj_matvec.calls",
    "graph.is_clique.calls",
    "solver.solve.calls",
    "graph.parse_coordinate_matrix.calls",
    "solver.left_out.raised",
    "solver.left_out.slow",
)


def run_tiny(name: str, seed: int, workdir: Path, rounds: int = 2, traced: bool = False):
    wl = workloads.make_workload(name, seed, tiny=True)
    wl.setup(workdir)
    wl.prepare(workdir)
    rec = workloads.Recorder(workloads.Reference())
    tracer = tracing.Tracer()
    for _ in range(rounds):
        if traced:
            with tracer.round():
                wl.run_round(rec)
        else:
            wl.run_round(rec)
        rec.end_round()
    return wl, rec, tracer


def traced_metrics(tracer: tracing.Tracer, left_out) -> dict:
    dur, self_t = tracer.self_times()
    summaries = [tracer.round_summary(r, dur, self_t) for r in range(len(tracer.round_bounds))]
    return tracing.layer_metrics(summaries, tracer.measure_alloc(), left_out)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_workload_runs_clean(name, tmp_path):
    wl, rec, _ = run_tiny(name, 5, tmp_path)
    assert rec.attempted > 0
    assert (rec.failed, rec.incorrect) == (0, 0)
    assert len(rec.solve_ms) == 2 * wl.restarts_per_round
    assert len(rec.round_times) == 2 and min(rec.round_times) > 0


def test_a_graph_whose_restarts_all_stall_fails_every_round(tmp_path):
    """On the tiny seed-3 corpus the p=2 graph (60 documents) stalls every
    default-config restart: one coordinate stays just above 1 and the
    solve runs to its 10,000-iteration cap without converging."""
    wl, rec, _ = run_tiny("text-cooc", 3, tmp_path)
    assert list(wl.short) == ["corpus0_p2"] and wl.kept["corpus0_p2"] == []
    assert (rec.failed, rec.incorrect) == (2, 0)
    joined = wl.expected[0][2][0]
    g = graph_from_edge_list(wl.docs, np.column_stack(np.nonzero(np.triu(joined, 1))))
    assert not workloads.solver.solve(g, workloads.solver.SolverConfig(seed=3000)).converged


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_deterministic_counts_repeat(name, tmp_path):
    runs = []
    for k in range(2):
        wl, rec, tracer = run_tiny(name, 5, tmp_path / str(k), traced=True)
        runs.append((traced_metrics(tracer, wl.left_out), rec.best_sizes))
    (m0, sizes0), (m1, sizes1) = runs
    assert {k: m0[k] for k in DETERMINISTIC} == {k: m1[k] for k in DETERMINISTIC}
    assert sizes0 == sizes1
    assert m0["graph.adj_matvec.calls"] > 0 and m0["solver.outer_iterations"] > 0


def test_traced_counts_agree_with_the_round(tmp_path):
    wl, _, tracer = run_tiny("dimacs-dense", 2, tmp_path, traced=True)
    m = traced_metrics(tracer, wl.left_out)
    solves = m["solver.solve.calls"]
    assert solves == wl.restarts_per_round == m["solver.converged"]
    assert m["graph.parse_dimacs.calls"] == 1
    assert m["graph.parse_dimacs.bytes"] == wl.path.stat().st_size
    assert m["graph.parse_dimacs.alloc_peak_mb"] > 0
    # passes made inside solve() are a share of all passes
    assert 0 < m["solver.sparse_passes_per_solve"] * solves <= m["graph.adj_matvec.calls"]
    # each outer iteration makes at least one trial and accepts at most one
    accepted = m["solver.armijo_trials"] - m["solver.armijo_rejections"]
    assert 0 < accepted <= m["solver.outer_iterations"] <= m["solver.armijo_trials"]


class FixedReference:
    """Reference work that always takes the same time."""

    def __init__(self, seconds: float):
        self._seconds = seconds

    def seconds(self) -> float:
        return self._seconds


def test_times_are_scaled_by_the_reference_work():
    rec = workloads.Recorder(FixedReference(2 * workloads.REFERENCE_S))
    rec.ingest(time.sleep, 0.02)
    rec.call(time.sleep, 0.01)
    rec.end_round()
    # the reference runs once before and once after each latency only
    assert len(rec.reference_ms) == 2
    assert rec.scaled["ingest_ms"][0] == pytest.approx(rec.ingest_ms[0] / 2)
    assert rec.scaled["round_s"][0] == pytest.approx(rec.round_times[0] / 2)
    assert rec.round_times[0] > 0.03


def screened_sweep(monkeypatch, tmp_path, bad: int, how: str):
    """A tiny sweep (one trial per density, all with graph seed 4000)
    whose screen sees candidate seeds 4001..4000+bad go wrong by `how`."""
    real_solve = workloads.solver.solve

    def solve(g, cfg):
        if 4000 < cfg.seed <= 4000 + bad:
            if how == "raise":
                raise workloads.solver.RoundingInvariantError("test")
            return real_solve(g, dataclasses.replace(cfg, max_outer_iterations=1))
        return real_solve(g, cfg)

    monkeypatch.setattr(workloads.solver, "solve", solve)
    wl = workloads.make_workload("sweep400", 4, tiny=True)
    wl.prepare(tmp_path)
    rec = workloads.Recorder(workloads.Reference())
    wl.run_round(rec)
    return wl, rec, len(wl.densities)


def test_spare_restarts_stand_in_for_left_out_ones(monkeypatch, tmp_path):
    wl, rec, trials = screened_sweep(monkeypatch, tmp_path, workloads.SPARE_RESTARTS, "raise")
    assert wl.left_out["raised"] == trials * workloads.SPARE_RESTARTS
    assert wl.restarts_per_round == trials * wl.restarts_per_trial
    assert (rec.failed, rec.incorrect) == (0, 0)


@pytest.mark.parametrize("how,wrong", [("raise", True), ("slow", False)])
def test_too_few_good_restarts_fail_the_operation(monkeypatch, tmp_path, how, wrong):
    wl, rec, trials = screened_sweep(monkeypatch, tmp_path, workloads.SPARE_RESTARTS + 1, how)
    assert wl.left_out["raised" if wrong else "slow"] == trials * (workloads.SPARE_RESTARTS + 1)
    assert wl.restarts_per_round == trials * (wl.restarts_per_trial - 1)
    # one operation per trial fails, the CSV operation does not
    assert (rec.attempted, rec.failed, rec.incorrect) == (trials + 1, trials, trials if wrong else 0)


def hamming(tmp_path) -> workloads.DimacsDense:
    wl = workloads.make_workload("dimacs-dense", 1, tiny=True)
    wl.prepare(tmp_path)
    return wl


def test_checks_reject_a_dropped_hamming_edge(tmp_path):
    wl = hamming(tmp_path)
    edges = np.column_stack(np.nonzero(np.triu(wl.joined, 1)))
    n = wl.joined.shape[0]
    assert workloads.graph_problems(graph_from_edge_list(n, edges), wl.indptr, wl.indices) == []
    dropped = graph_from_edge_list(n, np.delete(edges, 7, axis=0))
    assert workloads.graph_problems(dropped, wl.indptr, wl.indices)


def test_checks_reject_a_dropped_cooccurrence_edge(tmp_path):
    wl = workloads.make_workload("text-cooc", 1, tiny=True)
    wl.prepare(tmp_path)
    joined, indptr, indices = wl.expected[0][wl.thresholds[0]]
    edges = np.column_stack(np.nonzero(np.triu(joined, 1)))
    assert workloads.graph_problems(graph_from_edge_list(wl.docs, edges), indptr, indices) == []
    dropped = graph_from_edge_list(wl.docs, edges[1:])
    assert workloads.graph_problems(dropped, indptr, indices)


def test_checks_reject_a_broken_random_graph():
    g = graph_from_edge_list(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    adj, problems = workloads.dense_adjacency(g)
    assert problems == [] and adj.sum() == 8
    # drop the entry 0 -> 1 but keep 1 -> 0
    one_way = Graph(n=4, indptr=np.array([0, 1, 3, 5, 7]), indices=np.array([3, 0, 2, 1, 3, 0, 2]),
                    edge_count=4)
    assert workloads.dense_adjacency(one_way)[1]
    assert workloads.random_graph_problems(adj, 0.001)


def test_checks_reject_a_corrupted_clique(tmp_path):
    wl = hamming(tmp_path)
    words = np.random.default_rng(wl.seed).permutation(2**wl.bits)
    even = tuple(np.nonzero(workloads.popcount(words, wl.bits) % 2 == 0)[0].tolist())
    odd = np.nonzero(workloads.popcount(words, wl.bits) % 2 == 1)[0]
    assert workloads.clique_problems(wl.joined, even, converged=True, size_cap=wl.size_cap) == []
    # a word at distance 1 from a member
    with_odd = tuple(sorted(even + (int(odd[0]),)))
    assert workloads.clique_problems(wl.joined, with_odd, converged=False)
    # one member short: still a clique, no longer maximal
    assert workloads.clique_problems(wl.joined, even[1:], converged=False) == []
    assert workloads.clique_problems(wl.joined, even[1:], converged=True)
    assert workloads.clique_problems(wl.joined, even, converged=False, size_cap=len(even) - 1)


def test_checks_reject_a_record_that_misreports(tmp_path):
    from rankclique.harness import run_algorithm

    wl = hamming(tmp_path)
    edges = np.column_stack(np.nonzero(np.triu(wl.joined, 1)))
    g = graph_from_edge_list(wl.joined.shape[0], edges)
    record, clique = run_algorithm(g, "h", "r1nm", 0)
    assert workloads.record_problems(wl.joined, record, clique) == []
    wrong = dataclasses.replace(record, clique_size=record.clique_size + 1)
    assert workloads.record_problems(wl.joined, wrong, clique)
    assert workloads.csv_problems("instance_name\n", [record])


def benchmark_names(kind: str) -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec[kind]]


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_run_prints_every_benchmark_metric(trace, kind):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "sweep400", "--seed", "1",
         "--seconds", "0.1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == benchmark_names(kind)
    spec = {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[kind]}
    assert all(v["unit"] == spec[k] for k, v in result["metrics"].items())


def test_bare_directory_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns(".work", "out", "__pycache__"))
    out = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "sweep400", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
