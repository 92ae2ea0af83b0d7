from __future__ import annotations

import sys
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from rankclique import (
    BenchRecord,
    CliqueSet,
    CoordinateFormatError,
    EdgelessGraphError,
    NumericalDivergenceError,
    cmd_bench_dimacs,
    cmd_bench_random,
    cmd_ingest_text,
    cmd_solve,
    cmd_verify,
    Graph,
    cooccurrence_graph,
    graph_from_edge_list,
    random_graph,
    read_dimacs,
    records_to_csv,
    run_baseline,
    serialize_dimacs,
    solve,
)
from rankclique import harness, oracle
from rankclique.baselines import _replicator_update
from rankclique.harness import run_algorithm
from rankclique.cli import main
from test_graph import COORD_TOY, K3_DIMACS, count_file, doc_term_entries


def no_call(*args, **kwargs):
    raise AssertionError("called before the arguments were checked")


class TestRecords:
    def test_csv_shape_and_formatting(self, k3):
        rec, _ = run_algorithm(k3, "toy", "r1nm", seed=0)
        text = records_to_csv([rec])
        header, row = text.strip().split("\n")
        assert header == (
            "instance_name,n,edge_count,algorithm,seed,clique_size,"
            "valid,maximal,iterations,wall_time_ms,converged"
        )
        cells = row.split(",")
        assert cells[0] == "toy"
        assert cells[1:4] == ["3", "3", "r1nm"]
        assert cells[5] == "3"
        assert cells[6] == "true"
        assert cells[7] == "true"
        assert cells[10] == "true"
        float(cells[9])  # wall time renders as a number

    def test_bool_rendering(self):
        rec = BenchRecord(
            instance_name="x", n=1, edge_count=0, algorithm="r1nm", seed=0,
            clique_size=0, valid=False, maximal=False, iterations=0,
            wall_time_ms=1.2345, converged=False,
        )
        assert rec.csv_row()[6] == "false"
        assert rec.csv_row()[9] == "1.234"  # fixed 3-decimal rendering


class TestRunAlgorithm:
    def test_solver_on_triangle(self, k3):
        rec, clique = run_algorithm(k3, "k3", "r1nm", seed=0)
        assert clique.vertices == (0, 1, 2)
        assert rec.valid and rec.maximal and rec.converged
        assert rec.clique_size == 3
        assert rec.algorithm == "r1nm"
        assert rec.wall_time_ms >= 0.0

    def test_baselines_on_star(self, star5):
        for algo in ("pelillo", "ding"):
            rec, clique = run_algorithm(star5, "star", algo, seed=0)
            assert rec.valid
            assert clique.size == 2
            assert 0 in clique.vertices

    def test_unknown_algorithm(self, k3):
        with pytest.raises(ValueError, match="unknown algorithm"):
            run_algorithm(k3, "k3", "dsdp", seed=0)

    def test_maximalize_tags_baselines(self, k3):
        rec, _ = run_algorithm(k3, "k3", "pelillo", seed=0, maximalize=True)
        assert rec.algorithm == "pelillo+max"
        assert rec.maximal

    def test_maximalize_leaves_converged_solver_untagged(self, k3):
        # converged solver output is already maximal, so no extension runs
        rec, _ = run_algorithm(k3, "k3", "r1nm", seed=0, maximalize=True)
        assert rec.algorithm == "r1nm"
        assert rec.maximal

    def test_maximalize_extends_a_capped_solver_clique(self):
        # at d0 = 100 this run is held at a saddle until the iteration cap,
        # and rounds to (5, 27): a clique, but one that 15 extends
        g = random_graph(49, 0.2, 1)
        rec, clique = run_algorithm(g, "g", "r1nm", 0, d0=100.0, maximalize=True)
        assert (rec.converged, rec.iterations) == (False, 10_000)
        assert rec.algorithm == "r1nm+max"
        assert clique.vertices == (5, 15, 27)
        assert (rec.valid, rec.maximal, rec.clique_size) == (True, True, 3)

    def test_reported_cliques_are_revalidated(self, star5):
        rec, clique = run_algorithm(star5, "star", "r1nm", seed=1)
        assert rec.valid
        assert rec.clique_size == clique.size

    def test_a_baseline_clique_is_validated_in_one_pass(self, monkeypatch):
        # ding's greedy clique on this graph is a clique but not maximal;
        # its valid and maximal flags both come from one adjacency pass
        g = random_graph(20, 0.3, 0)
        passes = Counter()
        adj_matvec = Graph.adj_matvec

        def counted(self, u):
            passes["all"] += 1
            return adj_matvec(self, u)

        monkeypatch.setattr(Graph, "adj_matvec", counted)
        u, _, _ = run_baseline(g, "ding")
        harness.postprocess_greedy(g, u)
        built = passes["all"]  # the passes that build the clique
        passes.clear()
        record, _ = run_algorithm(g, "g", "ding", 0)
        assert (record.valid, record.maximal) == (True, False)
        assert passes["all"] - built == 1


class TestCmdSolve:
    def test_restart_seeds_are_consecutive(self, star5):
        best, clique, records = cmd_solve(star5, "star", restarts=5, seed=3)
        assert [r.seed for r in records] == [3, 4, 5, 6, 7]
        assert best.valid
        assert clique.size == 2

    def test_best_prefers_larger_valid(self):
        g = graph_from_edge_list(5, [(0, 1), (0, 2), (1, 2), (3, 4)])
        best, clique, records = cmd_solve(g, "two_cliques", restarts=6, seed=0)
        assert best.valid
        assert best.clique_size == max(r.clique_size for r in records if r.valid)
        assert clique.size == best.clique_size

    def test_best_is_the_first_largest_valid(self, k3, monkeypatch):
        # seed 0 is larger but invalid; seeds 1 and 2 tie among the valid
        crafted = {0: (False, 5), 1: (True, 3), 2: (True, 3), 3: (False, 2)}

        def fake_run(g, name, algo, seed, **kw):
            valid, size = crafted[seed]
            rec = BenchRecord(name, g.n, g.edge_count, algo, seed, size, valid, valid, 1, 0.0, True)
            return rec, CliqueSet(tuple(range(size)))

        monkeypatch.setattr(harness, "run_algorithm", fake_run)
        best, clique, records = cmd_solve(k3, "k3", restarts=4, seed=0)
        assert [r.seed for r in records] == [0, 1, 2, 3]
        assert best is records[1]
        assert clique.size == 3

    def test_restart_count_validated(self, k3):
        with pytest.raises(ValueError, match="restarts"):
            cmd_solve(k3, "k3", restarts=0)
        with pytest.raises(ValueError, match="restarts"):
            cmd_bench_dimacs([("k3", k3)], restarts=0)

    @pytest.mark.parametrize("count", [2.5, 0])
    def test_counts_must_be_integers_of_at_least_one(self, k3, monkeypatch, count):
        # refused before any run, by SolverConfig's rule for its iteration
        # cap; 2.5 used to reach range() and raise TypeError there
        monkeypatch.setattr(harness, "run_algorithm", no_call)
        monkeypatch.setattr(harness, "random_graph", no_call)
        calls = {
            "restarts": [
                lambda: cmd_solve(k3, "x", restarts=count),
                lambda: cmd_bench_dimacs([("k3", k3)], restarts=count),
            ],
            "trials": [lambda: cmd_bench_random(10, [0.5], count, 0)],
        }
        for name, fns in calls.items():
            for fn in fns:
                with pytest.raises(ValueError, match=rf"{name} must be at least 1 and an integer, got {count!r}"):
                    fn()


class TestCmdBenchRandom:
    def test_row_count_and_order(self):
        records = cmd_bench_random(12, [0.3, 0.6], trials=2, seed=0, algos=("r1nm", "pelillo"))
        assert len(records) == 2 * 2 * 2
        names = [r.instance_name for r in records]
        assert names == [
            "random_n12_p0.3_t0", "random_n12_p0.3_t0",
            "random_n12_p0.3_t1", "random_n12_p0.3_t1",
            "random_n12_p0.6_t0", "random_n12_p0.6_t0",
            "random_n12_p0.6_t1", "random_n12_p0.6_t1",
        ]
        assert [r.algorithm for r in records[:2]] == ["r1nm", "pelillo"]
        # graph seed and solver seed both equal seed + trial
        assert [r.seed for r in records] == [0, 0, 1, 1, 0, 0, 1, 1]

    def test_deterministic_rerun(self):
        a = cmd_bench_random(10, [0.5], trials=2, seed=4, algos=("r1nm",))
        b = cmd_bench_random(10, [0.5], trials=2, seed=4, algos=("r1nm",))
        strip = lambda rs: [
            (r.instance_name, r.algorithm, r.seed, r.clique_size, r.valid, r.iterations)
            for r in rs
        ]
        assert strip(a) == strip(b)

    def test_all_rows_valid(self):
        records = cmd_bench_random(15, [0.4], trials=3, seed=0)
        assert all(r.valid for r in records)

    def test_no_densities_rejected(self):
        with pytest.raises(ValueError, match="at least one density"):
            cmd_bench_random(10, [], trials=1, seed=0)

    @pytest.mark.parametrize("trials", [0, -1])
    def test_trials_below_one_rejected(self, trials):
        with pytest.raises(ValueError, match="trials must be at least 1"):
            cmd_bench_random(10, [0.5], trials=trials, seed=0)

    def test_no_algorithms_rejected_before_any_graph(self, monkeypatch):
        monkeypatch.setattr(harness, "random_graph", no_call)
        with pytest.raises(ValueError, match="at least one algorithm"):
            cmd_bench_random(10, [0.5], 1, 0, algos=())

    def test_unknown_algorithm_rejected_before_any_graph(self, monkeypatch):
        monkeypatch.setattr(harness, "random_graph", no_call)
        with pytest.raises(ValueError, match="unknown algorithm 'magic'"):
            cmd_bench_random(10, [0.5], 1, 0, algos=("r1nm", "ding", "magic"))


class TestCmdBenchDimacs:
    def test_rows_per_instance_algo_restart(self, k3, star5):
        records = cmd_bench_dimacs(
            [("k3", k3), ("star", star5)], algos=("r1nm",), restarts=2, seed=10
        )
        assert [(r.instance_name, r.seed) for r in records] == [
            ("k3", 10), ("k3", 11), ("star", 10), ("star", 11),
        ]

    def test_no_algorithms_rejected_before_any_run(self, k3, monkeypatch):
        monkeypatch.setattr(harness, "run_algorithm", no_call)
        with pytest.raises(ValueError, match="one algorithm"):
            cmd_bench_dimacs([("k3", k3)], algos=())

    def test_unknown_algorithm_rejected_before_any_run(self, k3, monkeypatch):
        monkeypatch.setattr(harness, "run_algorithm", no_call)
        with pytest.raises(ValueError, match="unknown algorithm 'magic'"):
            cmd_bench_dimacs([("k3", k3)], algos=("r1nm", "magic"))

    def test_no_graphs_rejected(self):
        with pytest.raises(ValueError, match="at least one graph"):
            cmd_bench_dimacs([])


# each takes the function verify reads one quantity from and returns a
# broken one; the check that reads it must then fail
def _biased_gradient(gradient):
    return lambda g, d, u: gradient(g, d, u) * (1.0 + 1e-4)


def _one_clique_short(enumerate_maximal_cliques):
    def broken(g):
        first, *rest = enumerate_maximal_cliques(g)
        return [CliqueSet(first.vertices[:-1]), *rest]

    return broken


def _scaled_lift(lift_ball_point):
    return lambda g, d, v: lift_ball_point(g, d, v) * (1.0 + 1e-6)


def _doubled_pass(replicator_steps):
    def broken(g, kind, eta):
        for u, au in replicator_steps(g, kind, eta):
            yield u, 2.0 * au

    return broken


class TestCmdVerify:
    def test_triangle_passes_all_checks(self, k3):
        report = cmd_verify(k3, "k3", seeds=(0, 1))
        assert report.all_passed
        names = [c.name for c in report.checks]
        assert names == [
            "maximal_clique_stationarity",
            "rounding_soundness",
            "gradient_finite_difference",
            "nonadjacent_weight_bound",
            "motzkin_straus_bound",
            "ball_lift_identity",
        ]

    def test_random_instance_passes(self):
        report = cmd_verify(random_graph(12, 0.5, seed=2), "rand12", seeds=(0,))
        assert report.all_passed

    def test_one_recorded_solve_per_seed(self, monkeypatch):
        calls = []

        def counting_solve(g, cfg, **kw):
            calls.append((cfg.seed, kw))
            return solve(g, cfg, **kw)

        monkeypatch.setattr(harness, "solve", counting_solve)
        report = cmd_verify(random_graph(12, 0.5, 0), "r", seeds=range(3))
        assert report.all_passed
        assert calls == [(s, {"record_iterates": True}) for s in range(3)]

    def test_maximal_cliques_enumerated_once(self, monkeypatch):
        # omega is the largest of the enumerated cliques, not a second run
        calls = Counter()

        def counting(fn):
            def wrapped(g):
                calls[fn.__name__] += 1
                return fn(g)
            return wrapped

        monkeypatch.setattr(harness, "enumerate_maximal_cliques", counting(harness.enumerate_maximal_cliques))
        monkeypatch.setattr(oracle, "enumerate_maximal_cliques", counting(oracle.enumerate_maximal_cliques))
        monkeypatch.setattr(oracle, "maximum_clique_exact", counting(oracle.maximum_clique_exact))
        report = cmd_verify(random_graph(12, 0.5, 0), "r", seeds=(0,))
        assert report.all_passed
        assert calls == Counter(enumerate_maximal_cliques=1)

    def test_one_adjacency_pass_per_replicator_step(self, monkeypatch):
        # the Motzkin-Straus check reads u^T A u and the replicator step
        # off one pass; its line stays the one the plain replicator loop gives
        g = random_graph(12, 0.5, 0)
        _, steps, converged = run_baseline(g, "pelillo")
        assert converged
        u, worst_q = np.full(g.n, 1.0 / g.n), 0.0
        for _ in range(steps):
            worst_q = max(worst_q, float(u @ g.adj_matvec(u)))
            u = _replicator_update(u, g.adj_matvec(u), 1.0)
        callers = Counter()
        adj_matvec = Graph.adj_matvec

        def counted(self, u):
            caller = sys._getframe(1)
            callers[caller.f_code.co_name, caller.f_back.f_code.co_name] += 1
            return adj_matvec(self, u)

        monkeypatch.setattr(Graph, "adj_matvec", counted)
        report = cmd_verify(g, "r", seeds=(0,))
        checks = {c.name: c for c in report.checks}
        assert checks["motzkin_straus_bound"].passed
        assert checks["motzkin_straus_bound"].detail == f"max u^T A u {worst_q:.12f} vs 1 - 1/4 + 1e-9"
        # passes made by the baselines' loop as the check runs it; the
        # loop's replicator update takes the A u the check read
        assert callers["_replicator_steps", "cmd_verify"] == steps

    def test_a_raising_seed_is_reported_once(self, monkeypatch):
        def failing_solve(g, cfg, **kw):
            if cfg.seed == 1:
                raise NumericalDivergenceError("boom", np.zeros(g.n))
            return solve(g, cfg, **kw)

        monkeypatch.setattr(harness, "solve", failing_solve)
        report = cmd_verify(random_graph(12, 0.5, 0), "r", seeds=range(3))
        checks = {c.name: c for c in report.checks}
        assert not report.all_passed
        assert not checks["rounding_soundness"].passed
        assert checks["rounding_soundness"].detail == "2 solves across seeds [0, 1, 2], 1 violations"
        assert checks["nonadjacent_weight_bound"].passed

    def test_rounding_check_consults_the_enumerated_cliques(self, monkeypatch):
        # each clique loses its last vertex and keeps solve's flags; a
        # clique one vertex short of a maximal one is not maximal
        def truncating_solve(g, cfg, **kw):
            res = solve(g, cfg, **kw)
            assert res.converged and res.clique_valid and res.clique_maximal
            return replace(res, clique=CliqueSet(res.clique.vertices[:-1]))

        monkeypatch.setattr(harness, "solve", truncating_solve)
        report = cmd_verify(random_graph(12, 0.5, 2), "r", seeds=range(3))
        checks = {c.name: c for c in report.checks}
        assert not checks["rounding_soundness"].passed
        assert checks["rounding_soundness"].detail == "3 solves across seeds [0, 1, 2], 3 violations"

    @pytest.mark.parametrize(
        "check, target, breaks",
        [
            ("gradient_finite_difference", "gradient", _biased_gradient),
            ("maximal_clique_stationarity", "enumerate_maximal_cliques", _one_clique_short),
            ("ball_lift_identity", "lift_ball_point", _scaled_lift),
            ("motzkin_straus_bound", "_replicator_steps", _doubled_pass),
        ],
        ids=["gradient", "stationarity", "ball-lift", "motzkin-straus"],
    )
    def test_a_broken_quantity_fails_its_check(self, monkeypatch, check, target, breaks):
        # the same instance passes every check unbroken (test_random_instance_passes)
        monkeypatch.setattr(harness, target, breaks(getattr(harness, target)))
        report = cmd_verify(random_graph(12, 0.5, seed=2), "rand12", seeds=(0,))
        checks = {c.name: c for c in report.checks}
        assert not checks[check].passed, checks[check].detail

    def test_edgeless_rejected(self, empty4):
        with pytest.raises(EdgelessGraphError, match="at least one edge"):
            cmd_verify(empty4, "empty")

    def test_no_seeds_rejected(self, k3):
        with pytest.raises(ValueError, match="at least one seed"):
            cmd_verify(k3, "k3", seeds=())


class TestCmdIngestText:
    def test_writes_one_graph_per_threshold(self, tmp_path):
        coord = tmp_path / "toy.txt"
        coord.write_text(COORD_TOY)
        results = cmd_ingest_text(coord, [1, 2, 3], tmp_path / "out")
        assert [(r.p, r.n, r.edge_count) for r in results] == [
            (1, 3, 1), (2, 3, 1), (3, 3, 0),
        ]
        g = read_dimacs(tmp_path / "out" / "toy_p1.clq")
        assert g.edges().tolist() == [[0, 1]]
        for r in results:
            assert r.path.read_text() == serialize_dimacs(cooccurrence_graph(COORD_TOY, r.p))

    def test_any_threshold_order_gives_the_same_graphs(self, tmp_path, monkeypatch):
        shape, entries = doc_term_entries(40, 30, 300, seed=5)
        text = count_file(shape, entries)
        coord = tmp_path / "docs.txt"
        coord.write_text(text)
        least = []
        shared_term_counts = harness._shared_term_counts

        def counted(data, p_min):
            least.append(p_min)
            return shared_term_counts(data, p_min)

        monkeypatch.setattr(harness, "_shared_term_counts", counted)
        for order in ([1, 2, 3, 5], [5, 3, 2, 1], [3, 5, 1, 2], [5, 3], [3]):
            results = cmd_ingest_text(coord, order, tmp_path / "-".join(map(str, order)))
            assert [r.p for r in results] == order
            for r in results:
                g = cooccurrence_graph(text, r.p)
                assert (r.n, r.edge_count) == (g.n, g.edge_count)
                assert r.path.read_text() == serialize_dimacs(g)
        assert least == [1, 1, 1, 3, 3]

    @pytest.mark.parametrize("p_values", [[], [0], [2, 0], [-1, 3]])
    def test_bad_thresholds_rejected_before_any_io(self, tmp_path, p_values):
        out = tmp_path / "out"
        with pytest.raises(ValueError, match="threshold"):
            cmd_ingest_text(tmp_path / "missing.txt", p_values, out)
        assert not out.exists()

    @pytest.mark.parametrize("text", [None, "2 2 1\n3 1 1.0\n"], ids=["missing", "malformed"])
    def test_a_file_that_does_not_parse_leaves_no_out_dir(self, tmp_path, text):
        coord = tmp_path / "docs.txt"
        if text is not None:
            coord.write_text(text)
        out = tmp_path / "out"
        with pytest.raises(OSError if text is None else CoordinateFormatError):
            cmd_ingest_text(coord, [1, 2], out)
        assert not out.exists()
        assert main(["ingest-text", str(coord), "--p", "1,2", "--out-dir", str(out)]) == 1
        assert not out.exists()

    def test_non_ascii_byte_names_its_line(self, tmp_path, capsys):
        coord = tmp_path / "bad.txt"
        coord.write_bytes(b"% caf\xe9\n2 2 1\n1 \xff 1\n")
        with pytest.raises(CoordinateFormatError, match="non-ASCII") as exc:
            cmd_ingest_text(coord, [1], tmp_path / "out")
        assert exc.value.line_no == 3
        assert main(["ingest-text", str(coord), "--p", "1", "--out-dir", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith("error: line 3: non-ASCII")


class TestCli:
    def test_solve_dimacs(self, tmp_path, capsys):
        path = tmp_path / "k3.clq"
        path.write_text(K3_DIMACS)
        assert main(["solve", "--dimacs", str(path)]) == 0
        out = capsys.readouterr().out
        assert "clique (1-based): 1 2 3" in out
        assert "clique_size=3" in out

    def test_solve_random_with_restarts(self, capsys):
        code = main(["solve", "--random", "n=20,density=0.5,seed=1", "--restarts", "3"])
        assert code == 0
        assert "random_n20_p0.5_s1" in capsys.readouterr().out

    def test_solve_baseline_algo(self, capsys):
        assert main(["solve", "--random", "n=15,density=0.6", "--algo", "pelillo"]) == 0
        assert "algorithm=pelillo" in capsys.readouterr().out

    def test_solve_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "records.csv"
        code = main([
            "solve", "--random", "n=10,density=0.5", "--restarts", "2",
            "--csv", str(out),
        ])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 3  # header + one row per restart
        assert lines[0].startswith("instance_name,")

    def test_missing_file_exits_nonzero(self, tmp_path, capsys):
        assert main(["solve", "--dimacs", str(tmp_path / "nope.clq")]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("n=10,rho=0.5", "unknown --random fields"),
            ("n=10,density", "bad --random field 'density', expected key=value"),
            ("density=0.5,seed=1", "--random spec missing field 'n'"),
        ],
        ids=["unknown", "no-equals", "missing-n"],
    )
    def test_bad_random_spec_exits_nonzero(self, spec, message, capsys):
        assert main(["solve", "--random", spec]) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [["solve", "--random", "n=1000000,density=0.5"], ["bench-random", "--n", "1000000", "--trials", "1"]],
        ids=["solve", "bench-random"],
    )
    def test_oversized_random_graph_exits_nonzero(self, argv, capsys):
        assert main(argv) == 1
        assert "bytes for its draws and bitmap" in capsys.readouterr().err

    def test_bench_random(self, tmp_path):
        out = tmp_path / "bench.csv"
        code = main([
            "bench-random", "--n", "12", "--densities", "0.4,0.6",
            "--trials", "2", "--algos", "r1nm,pelillo", "--csv", str(out),
        ])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 1 + 2 * 2 * 2

    def test_bench_random_without_csv_writes_stdout(self, capsys):
        argv = ["bench-random", "--n", "12", "--densities", "0.5", "--trials", "2", "--algos", "r1nm"]
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == ",".join(harness.CSV_FIELDS)
        assert [line.split(",")[0] for line in lines[1:]] == ["random_n12_p0.5_t0", "random_n12_p0.5_t1"]

    def test_bench_dimacs(self, tmp_path, star5):
        (tmp_path / "star.clq").write_text(serialize_dimacs(star5))
        (tmp_path / "k3.clq").write_text(K3_DIMACS)
        out = tmp_path / "bench.csv"
        code = main(["bench-dimacs", str(tmp_path), "--algos", "r1nm", "--csv", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        # sorted by filename: k3 before star
        assert lines[1].startswith("k3,")
        assert lines[2].startswith("star,")

    def test_bench_dimacs_empty_dir(self, tmp_path, capsys):
        assert main(["bench-dimacs", str(tmp_path)]) == 1
        assert "no .clq files" in capsys.readouterr().err

    def test_verify(self, capsys):
        assert main(["verify", "--random", "n=10,density=0.5,seed=3", "--seeds", "2"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 6
        assert "FAIL" not in out

    def test_ingest_text(self, tmp_path, capsys):
        coord = tmp_path / "toy.txt"
        coord.write_text(COORD_TOY)
        code = main([
            "ingest-text", str(coord), "--p", "1,3", "--out-dir", str(tmp_path / "graphs"),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "p=1: n=3 edges=1" in out
        assert "p=3: n=3 edges=0" in out
        assert (tmp_path / "graphs" / "toy_p1.clq").exists()

    def test_unknown_algo_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit):
            main(["bench-random", "--algos", "magic"])

    # each of these used to run nothing and exit 0
    @pytest.mark.parametrize(
        "argv",
        [
            ["bench-random", "--algos", ""],
            ["bench-random", "--densities", ""],
            ["bench-random", "--trials", "0"],
            ["bench-dimacs", ".", "--restarts", "0"],
            ["solve", "--random", "n=10,density=0.5", "--restarts", "0"],
            ["verify", "--random", "n=10,density=0.5", "--seeds", "0"],
            ["ingest-text", "toy.txt", "--p", ""],
        ],
        ids=["algos", "densities", "trials", "bench-restarts", "restarts", "seeds", "p"],
    )
    def test_empty_list_or_zero_count_rejected_by_parser(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "non-empty" in err or "at least 1" in err
