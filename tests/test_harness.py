from __future__ import annotations

import pytest

from rankclique import (
    BenchRecord,
    cmd_bench_dimacs,
    cmd_bench_random,
    cmd_ingest_text,
    cmd_solve,
    cmd_verify,
    cooccurrence_graph,
    graph_from_edge_list,
    random_graph,
    read_dimacs,
    records_to_csv,
    run_algorithm,
    serialize_dimacs,
    solve,
)
from rankclique import harness
from rankclique.cli import main
from test_graph import COORD_TOY, K3_DIMACS


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

    def test_reported_cliques_are_revalidated(self, star5):
        rec, clique = run_algorithm(star5, "star", "r1nm", seed=1)
        assert rec.valid
        assert rec.clique_size == clique.size


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

    def test_restart_count_validated(self, k3):
        with pytest.raises(ValueError, match="restarts"):
            cmd_solve(k3, "k3", restarts=0)
        with pytest.raises(ValueError, match="restarts"):
            cmd_bench_dimacs([("k3", k3)], restarts=0)


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


class TestCmdBenchDimacs:
    def test_rows_per_instance_algo_restart(self, k3, star5):
        records = cmd_bench_dimacs(
            [("k3", k3), ("star", star5)], algos=("r1nm",), restarts=2, seed=10
        )
        assert [(r.instance_name, r.seed) for r in records] == [
            ("k3", 10), ("k3", 11), ("star", 10), ("star", 11),
        ]


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

    def test_a_raising_seed_is_reported_once(self, monkeypatch):
        def failing_solve(g, cfg, **kw):
            if cfg.seed == 1:
                raise RuntimeError("boom")
            return solve(g, cfg, **kw)

        monkeypatch.setattr(harness, "solve", failing_solve)
        report = cmd_verify(random_graph(12, 0.5, 0), "r", seeds=range(3))
        checks = {c.name: c for c in report.checks}
        assert not report.all_passed
        assert not checks["rounding_soundness"].passed
        assert checks["rounding_soundness"].detail == "2 solves across seeds [0, 1, 2], 1 violations"
        assert checks["nonadjacent_weight_bound"].passed

    def test_edgeless_rejected(self, empty4):
        with pytest.raises(ValueError, match="at least one edge"):
            cmd_verify(empty4, "empty")


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

    def test_bad_random_spec_exits_nonzero(self, capsys):
        assert main(["solve", "--random", "n=10,rho=0.5"]) == 1
        assert "unknown --random fields" in capsys.readouterr().err

    def test_bench_random(self, tmp_path):
        out = tmp_path / "bench.csv"
        code = main([
            "bench-random", "--n", "12", "--densities", "0.4,0.6",
            "--trials", "2", "--algos", "r1nm,pelillo", "--csv", str(out),
        ])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 1 + 2 * 2 * 2

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
