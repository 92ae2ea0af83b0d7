"""Every tools/ script's top level runs in a fresh interpreter.

The tools import private helpers of the package (and perfbench's
workloads), and nothing else runs them, so a renamed helper would break
them unnoticed.  Each script's module body runs under a name other than
__main__, which imports everything and defines every function without
starting the measurement.  A subprocess keeps the BLAS thread settings
that iteration_cost.py makes at import out of this interpreter.
"""

from __future__ import annotations

import json
import os
import runpy
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOLS = sorted((ROOT / "tools").glob("*.py"))


@pytest.mark.parametrize("script", TOOLS, ids=lambda p: p.name)
def test_tool_imports_cleanly(script):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import runpy, sys; runpy.run_path(sys.argv[1], run_name='tool')", str(script)],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_operator_crossover_runs_both_sparse_sides():
    # one_graph cross-checks the sparse pass against the dense one
    # (np.allclose); at share 0.35 the sparser side is A, and at 0.50
    # this seed's graph has slightly more edges than non-edges, so Ā
    script = (
        "import json, runpy, sys\n"
        "tool = runpy.run_path(sys.argv[1], run_name='tool')\n"
        "print(json.dumps([tool['one_graph'](100, share, 7, batches=1) for share in (0.35, 0.50)]))\n"
    )
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, str(ROOT / "tools" / "operator_crossover.py")],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    rows = json.loads(proc.stdout)
    assert [row["sparse_side"] for row in rows] == ["A", "complement"]
    assert all(row["dense_us"] > 0 and row["sparse_us"] > 0 for row in rows)


def test_operator_crossover_times_the_pass_adj_matvec_makes():
    # the tool's bound pass of each stored form, on the graph of
    # stored_form_graphs that stores it, gives adj_matvec's bytes
    script = (
        "import json, runpy, sys\n"
        "import numpy as np\n"
        "tool = runpy.run_path(sys.argv[1], run_name='tool')\n"
        "sys.path.insert(0, sys.argv[2])\n"
        "from conftest import stored_form_graphs\n"
        "equal = {}\n"
        "for form, g in stored_form_graphs().items():\n"
        "    rng = np.random.default_rng(g.n)\n"
        "    product = tool['built_passes'](g)[form][0]\n"
        "    equal[form] = all(product(u).tobytes() == g.adj_matvec(u).tobytes()\n"
        "                      for u in (rng.random(g.n), (rng.random(g.n) < 0.5).astype(np.float64)))\n"
        "print(json.dumps(equal))\n"
    )
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, str(ROOT / "tools" / "operator_crossover.py"), str(ROOT / "tests")],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"csr_of_a": True, "csr_of_complement": True, "dense": True}


def test_bench_pairs_summarises_paired_runs():
    tool = runpy.run_path(str(ROOT / "tools" / "bench_pairs.py"), run_name="tool")

    def run(ms, rss, wall, size, solve, failed=0, correct=True):
        return {"correct": correct, "attempted": 10, "failed": failed,
                "metrics": {"ingest_ms_p50": {"value": ms, "unit": "ms"}, "peak_rss_mb": {"value": rss, "unit": "MB"},
                            "wall_s": {"value": wall, "unit": "s"}, "clique_size_mean": {"value": size, "unit": "vertices"},
                            "solve_ms_p50": {"value": solve, "unit": "ms"}, "trace.wall_s": {"value": wall, "unit": "s"}}}

    parent = [run(10.0, 80.0, 1.0, 10.0, 5.0), run(12.0, 80.0, 2.0, 10.0, 6.0),
              run(11.0, 80.0, 1.0, 10.0, 5.5, failed=1), run(13.0, 80.0, 2.0, 10.0, 6.5)]
    change = [run(9.0, 80.0, 0.9, 8.0, 4.0), run(12.0, 81.0, 2.1, 8.0, 5.0), run(10.0, 79.0, 0.9, 8.0, 4.5),
              run(9.5, 80.0, 1.9, 8.0, 5.5, correct=False)]
    entry = tool["summarise"](parent, change, ["parent", "change", "parent", "change"])
    assert entry["pairs"] == 4
    assert entry["first_in_pair"] == ["parent", "change", "parent", "change"]
    assert entry["attempted"] == {"parent": 40, "change": 40}
    assert entry["failed"] == {"parent": 1, "change": 0}
    assert entry["correct"] == {"parent": True, "change": False}
    ingest = entry["metrics"]["ingest_ms_p50"]
    assert ingest["unit"] == "ms"
    assert ingest["parent"] == [10.0, 12.0, 11.0, 13.0]
    assert ingest["change"] == [9.0, 12.0, 10.0, 9.5]
    # linear-interpolated quartiles: 10, 11, 12, 13 and 9, 9.5, 10, 12
    assert ingest["parent_quartiles"] == [10.75, 11.5, 12.25]
    assert ingest["change_quartiles"] == [9.375, 9.75, 10.5]
    assert ingest["median_change_pct"] == round((9.75 - 11.5) / 11.5 * 100, 2)
    # the tie in the second pair counts for neither side
    assert (ingest["pairs_change_lower"], ingest["pairs_change_higher"]) == (3, 0)
    rss = entry["metrics"]["peak_rss_mb"]
    assert (rss["pairs_change_lower"], rss["pairs_change_higher"], rss["median_change_pct"]) == (1, 1, 0.0)
    # verdicts by BENCHMARK.json's better side and bound
    verdicts = ("pairs_change_better", "resolved", "within_bound", "unresolved", "claim_met")
    # 11.5 -> 9.75 moves more than the parent's spread 1.5, in its bound,
    # but a claim needs the change better in 4 of 4 pairs (9 in 10,
    # rounded up), and the tie in the second pair is no win
    assert [ingest[k] for k in verdicts] == [3, True, True, False, False]
    assert [rss[k] for k in verdicts] == [1, False, True, False, False]
    # better in every pair, and 5.75 -> 4.75 moves more than the parent's
    # spread 0.75: the claim rule is met
    solve = entry["metrics"]["solve_ms_p50"]
    assert [solve[k] for k in verdicts] == [4, True, True, False, True]
    # the parent's spread, 1.0 around 1.5, exceeds the 0.25 bound and
    # one change run reads worse
    wall = entry["metrics"]["wall_s"]
    assert [wall[k] for k in verdicts] == [3, False, True, True, False]
    # higher is better: 10 -> 8 is worse by more than the 0.15 bound
    size = entry["metrics"]["clique_size_mean"]
    assert [size[k] for k in verdicts] == [0, True, False, False, False]
    # a metric BENCHMARK.json does not list as end-to-end gets no verdict
    assert not set(verdicts) & set(entry["metrics"]["trace.wall_s"])


REFACTOR_SAMPLE = '''"""A module docstring
over two lines."""

# a comment alone
import os  # a code line with a comment


def f(x):
    """A function docstring."""
    s = """a string
that is no docstring"""
    return x


class C:
    """A class
    docstring."""

    y = 1
'''


def test_refactor_check_counts_code_lines():
    tool = runpy.run_path(str(ROOT / "tools" / "refactor_check.py"), run_name="tool")
    # import, def, the string's two lines, return, class and y
    assert tool["code_lines"](REFACTOR_SAMPLE) == 7


def test_refactor_check_digests_agree_and_see_one_change():
    tool = runpy.run_path(str(ROOT / "tools" / "refactor_check.py"), run_name="tool")
    import rankclique
    from rankclique import graph

    def reader_digests(corpus):
        outcomes = [tool["reader_outcome"](graph, reader, text) for reader, text in corpus]
        return tool["digest"](o for o, _ in outcomes), tool["digest"](m for _, m in outcomes)

    corpus = tool["reader_corpus"](graph, seed=1, files=2)
    assert reader_digests(corpus) == reader_digests(tool["reader_corpus"](graph, seed=1, files=2))
    # one more edge declared: the same graph with one more warning, and
    # no error message changed
    reader, data = corpus[0]
    assert reader == "parse_dimacs" and data.startswith(b"p edge ")
    head, body = data.split(b"\n", 1)
    declared = head.rsplit(b" ", 1)
    bumped = declared[0] + b" " + str(int(declared[1]) + 1).encode("ascii") + b"\n" + body
    changed = reader_digests([(reader, bumped), *corpus[1:]])
    assert changed[0] != reader_digests(corpus)[0]
    assert changed[1] == reader_digests(corpus)[1]

    def solve_digest(solve):
        lib = SimpleNamespace(random_graph=rankclique.random_graph, SolverConfig=rankclique.SolverConfig, solve=solve)
        return tool["digest"](tool["solve_outcomes"](lib, graphs=2))

    calls = []

    def nudged(*args, **kwargs):
        # the third solve's last recorded iterate moves by one ulp
        result = rankclique.solve(*args, **kwargs)
        calls.append(None)
        if len(calls) == 3:
            u = result.iterates[-1].u
            u[0] = np.nextafter(u[0], 2.0)
        return result

    assert solve_digest(rankclique.solve) == solve_digest(rankclique.solve)
    assert solve_digest(nudged) != solve_digest(rankclique.solve)
