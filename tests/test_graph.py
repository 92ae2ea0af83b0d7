from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from itertools import combinations
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings, strategies as st

import rankclique.graph as graph_module
from rankclique import (
    CliqueSet,
    CoordinateFormatError,
    DimacsFormatError,
    DimacsWarning,
    EdgeRangeError,
    SolverConfig,
    cooccurrence_graph,
    extend_to_maximal,
    graph_from_edge_list,
    is_clique,
    is_maximal_clique,
    parse_dimacs,
    random_graph,
    read_dimacs,
    serialize_dimacs,
    solve,
)
from conftest import assert_bound_form, reference_pass, small_random_graphs, stored_form, stored_form_graphs
from oracles import (
    cooccurrence_reference,
    dense_adjacency,
    dimacs_text_reference,
    exhaustive_maximal_cliques,
    graph_arrays_reference,
    hamming_graph,
    random_graph_reference,
    subset_is_clique,
)
from rankclique.graph import MAX_VERTICES, parse_coordinate_matrix

K3_DIMACS = """c toy triangle
p edge 3 3
e 1 2
e 1 3
e 2 3
"""

# 3 docs x 3 terms; docs 0 and 1 share exactly terms 0 and 1, doc 2 is
# disjoint from both.  The value 7 must binarize to presence.
COORD_TOY = """% doc-term counts
3 3 5
1 1 1
1 2 3
2 1 2
2 2 1
3 3 7
"""


def doc_term_entries(docs: int, vocab: int, count: int, seed: int):
    """(shape, 1-based (doc, term, count) entries) of a random doc-term
    matrix with repeated cells and counts 0-3."""
    rng = np.random.default_rng(seed)
    entries = zip(rng.integers(1, docs + 1, count).tolist(), rng.integers(1, vocab + 1, count).tolist(),
                  rng.integers(0, 4, count).tolist())
    return (docs, vocab), list(entries)


def count_file(shape: tuple[int, int], entries) -> str:
    """A coordinate file as a count writer lays it out."""
    return "".join([f"{shape[0]} {shape[1]} {len(entries)}\n"] + [f"{r} {c} {v}\n" for r, c, v in entries])


def csr_bits(x):
    return x.shape, x.dtype, *(a.dtype.str + a.tobytes().hex() for a in (x.indptr, x.indices, x.data))


def line_reader_only(text):
    with mock.patch.object(graph_module, "_standard_coordinates", lambda data: None):
        return parse_coordinate_matrix(text)


def outcome(parse, text):
    """The CSR's bits, or the error's type and line number."""
    try:
        return csr_bits(parse(text))
    except ValueError as exc:
        return type(exc), getattr(exc, "line_no", None)


def _with_line(lines, k, line):
    return "".join(lines[:k] + [line] + lines[k + 1:])


def _with_field(lines, k, f, field):
    fields = lines[k].split()
    fields[f] = field(fields[f])
    return _with_line(lines, k, " ".join(fields) + "\n")


# Layouts a count writer does not produce, as (lines of a standard file,
# an entry line k, a field f, shape) -> text.  Each must read as the line
# reader alone reads it.
OFF_LAYOUT_FORMS = {
    "comment between entries": lambda lines, k, f, shape: _with_line(lines, k, "% between\n" + lines[k]),
    "tab": lambda lines, k, f, shape: _with_line(lines, k, lines[k].replace(" ", "\t", 1)),
    "double space": lambda lines, k, f, shape: _with_line(lines, k, lines[k].replace(" ", "  ")),
    "leading blank": lambda lines, k, f, shape: _with_line(lines, k, " " + lines[k]),
    "no final newline": lambda lines, k, f, shape: "".join(lines)[:-1],
    "lone CR": lambda lines, k, f, shape: _with_line(lines, k, lines[k][:-1] + "\r"),
    "decimal value": lambda lines, k, f, shape: _with_field(lines, k, 2, lambda x: x + ".5"),
    "leading zeros": lambda lines, k, f, shape: _with_field(lines, k, f, lambda x: "00" + x),
    "19-digit field": lambda lines, k, f, shape: _with_field(lines, k, f, lambda x: x.zfill(19)),
    "19-digit overflow": lambda lines, k, f, shape: _with_field(lines, k, f, lambda x: "9" * 19),
    "empty field": lambda lines, k, f, shape: _with_field(lines, k, f, lambda x: ""),
    "index 0": lambda lines, k, f, shape: _with_field(lines, k, f % 2, lambda x: "0"),
    "index above the size": lambda lines, k, f, shape: _with_field(lines, k, f % 2, lambda x: str(shape[f % 2] + 1)),
    "plus sign": lambda lines, k, f, shape: _with_field(lines, k, f, lambda x: "+" + x),
    "minus sign": lambda lines, k, f, shape: _with_field(lines, k, f, lambda x: "-" + x),
    "underscore": lambda lines, k, f, shape: _with_field(lines, k, f, lambda x: x + "_0"),
    "byte above 0x7F": lambda lines, k, f, shape: _with_field(lines, k, f, lambda x: x + "\xff"),
}


class TestConstruction:
    def test_star_adjacency(self, star5):
        assert star5.n == 5
        assert star5.edge_count == 4
        neighbors = [star5.neighbors(v).tolist() for v in range(star5.n)]
        assert neighbors == [[1, 2, 3, 4], [0], [0], [0], [0]]

    def test_dirty_input_is_sanitized(self):
        # duplicates, swapped orientation, self-loop
        g = graph_from_edge_list(3, [(1, 0), (0, 1), (2, 2), (0, 1), (1, 2)])
        assert g.edge_count == 2
        assert [g.neighbors(v).tolist() for v in range(g.n)] == [[1], [0, 2], [1]]

    def test_dirty_pairs_match_the_unique_lexsort_reference(self):
        rng = np.random.default_rng(8)
        cases = []
        for n in (1, 2, 5, 17, 60):
            for m in (0, 1, 3, 40, 400):
                pairs = rng.integers(0, n, size=(m, 2))
                # repeat some pairs swapped, and add self-loops
                cases.append((n, np.concatenate([pairs, pairs[: m // 3, ::-1], np.repeat(pairs[: m // 5, :1], 2, axis=1)])))
        # pair counts around the bitmap build's threshold
        # n² <= _BITMAP_PAIRS * pairs (least is the first count it takes),
        # all self-loops, and no vertices
        for n in (5, 17, 60, 200):
            least = -(-n * n // graph_module._BITMAP_PAIRS)
            for m in (least - 1, least, least + 1):
                cases.append((n, rng.integers(0, n, size=(m, 2))))
                cases.append((n, np.repeat(rng.integers(0, n, size=(m, 1)), 2, axis=1)))
        cases += [(0, np.zeros((0, 2), dtype=np.int64)), (1, np.zeros((0, 2), dtype=np.int64)), (1, [(0, 0)])]
        builds = set()
        for n, pairs in cases:
            with mock.patch.object(graph_module, "_sorted_keys", wraps=graph_module._sorted_keys) as sort:
                g = graph_from_edge_list(n, pairs)
            bitmap = n * n <= graph_module._BITMAP_PAIRS * len(pairs)
            assert sort.called != bitmap
            builds.add(bitmap)
            indptr, indices, edge_count = graph_arrays_reference(n, pairs)
            assert g.edge_count == edge_count
            assert g.indptr.dtype == g.indices.dtype == np.int64
            assert not (g.indptr.flags.writeable or g.indices.flags.writeable)
            assert np.array_equal(g.indptr, indptr)
            assert np.array_equal(g.indices, indices)
        assert builds == {False, True}

    def test_edge_out_of_range(self):
        with pytest.raises(EdgeRangeError) as exc:
            graph_from_edge_list(3, [(0, 3)])
        assert exc.value.pair == (0, 3)
        assert exc.value.n == 3

    def test_negative_endpoint(self):
        with pytest.raises(EdgeRangeError):
            graph_from_edge_list(3, [(-1, 2)])

    def test_empty_graph(self):
        g = graph_from_edge_list(0, [])
        assert g.n == 0
        assert g.edge_count == 0
        assert [g.neighbors(v).tolist() for v in range(g.n)] == []

    def test_negative_vertex_count_is_refused(self):
        with pytest.raises(ValueError, match="vertex count must be nonnegative, got -1"):
            graph_from_edge_list(-1, [])

    def test_edges_are_lexicographic(self):
        g = graph_from_edge_list(4, [(3, 2), (1, 0), (2, 0)])
        assert g.edges().tolist() == [[0, 1], [0, 2], [2, 3]]

    @pytest.mark.parametrize("bad", [1.7, float("nan"), float("inf")])
    def test_non_integer_endpoint(self, bad):
        # a cast to int64 used to truncate 1.7 to the edge (0, 1)
        with pytest.raises(ValueError, match=r"edge \(0\.0, .*\) has a non-integer endpoint"):
            graph_from_edge_list(3, [(0, bad), (1, 2)])
        with pytest.raises(ValueError, match="non-integer"):
            graph_from_edge_list(3, np.array([[1.0, 2.0], [0.0, bad]]))

    def test_integral_floats_are_vertices(self):
        g = graph_from_edge_list(3, [(0.0, 1.0), (1, 2)])
        assert g.edges().tolist() == [[0, 1], [1, 2]]

    def test_adj_matvec_matches_dense(self):
        for g in small_random_graphs(20, seed0=100):
            a = dense_adjacency(g)
            rng = np.random.default_rng(g.n)
            u = rng.standard_normal(g.n)
            assert np.allclose(g.adj_matvec(u), a @ u, atol=1e-12)

    def test_adj_matvec_rejects_wrong_shape(self, k3):
        with pytest.raises(ValueError, match="shape"):
            k3.adj_matvec(np.ones(4))


class TestAdjacencyOperator:
    """adj_matvec runs on the dense matrix of A when the sparser of A and
    the non-edge adjacency Ā holds at least 9/20 of the n² entries, else
    on whichever of A and Ā stores fewer entries; all must give A u."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(0, 25), density=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
    @example(n=0, density=0.5, seed=0)  # no vertices
    @example(n=9, density=0.0, seed=0)  # no edges
    @example(n=9, density=1.0, seed=0)  # complete: Ā is empty
    @example(n=9, density=0.5, seed=0)  # 18 edges, 4m = n(n-1) below the dense band: the tie keeps A
    @example(n=12, density=0.5, seed=0)  # 33 edges, 4m = n(n-1), inside the dense band
    @example(n=13, density=0.5, seed=1)  # 39 edges, 4m = n(n-1), inside the dense band
    @example(n=20, density=89 / 190, seed=0)  # 2m = 178 < 9n²/20 = 180: A, just below the band
    @example(n=20, density=90 / 190, seed=0)  # 2m = 180: dense, the band's lower edge
    @example(n=20, density=100 / 190, seed=0)  # n(n-1) - 2m = 180: dense, the band's upper edge
    @example(n=20, density=101 / 190, seed=0)  # n(n-1) - 2m = 178: Ā, just above the band
    def test_matches_the_dense_product(self, n, density, seed):
        rng = np.random.default_rng(seed)
        pairs = np.array(list(combinations(range(n), 2)), dtype=np.int64).reshape(-1, 2)
        m = round(density * len(pairs))
        g = graph_from_edge_list(n, pairs[rng.permutation(len(pairs))[:m]])
        assert g.edge_count == m
        a = dense_adjacency(g)
        u = rng.standard_normal(n)
        assert np.allclose(g.adj_matvec(u), a @ u, rtol=0.0, atol=1e-12 * (1.0 + np.abs(u).sum()))
        s = (rng.random(n) < 0.5).astype(np.float64)
        assert np.array_equal(g.adj_matvec(s), a @ s)
        non_edges = n * (n - 1) - 2 * m
        if 20 * min(2 * m, non_edges) >= 9 * n * n:
            form = "dense"
        else:
            form = "csr_of_complement" if non_edges < 2 * m else "csr_of_a"
        assert_bound_form(g, form, [u, s])
        assert np.count_nonzero(a) == 2 * m

    @staticmethod
    def _pass_vectors(n: int, seed: int) -> list[np.ndarray]:
        # dense vectors, 0/1 indicators, and chords: a few signed entries
        # on a small support, as the solver's p = [u - alpha g]_+ - u
        rng = np.random.default_rng(seed)
        out = [rng.random(n), rng.standard_normal(n) * 1e3, (rng.random(n) < 0.3).astype(np.float64)]
        for share in (0.01, 0.05, 0.2):
            p = np.zeros(n)
            support = rng.choice(n, size=max(1, round(share * n)), replace=False)
            p[support] = rng.standard_normal(len(support)) * 10.0 ** rng.uniform(-8, 0, len(support))
            out.append(p)
        return out

    @pytest.mark.parametrize("form", ["csr_of_a", "csr_of_complement", "dense"])
    def test_bound_kernel_gives_the_bytes_of_the_dispatched_pass(self, form):
        g = stored_form_graphs()[form]
        assert stored_form(g) == form
        # the reference: scipy's @ over a matrix built from the oracle's,
        # or the row blocks of _dense_pass over it (one block at n = 120,
        # so a plain @ too)
        a = assert_bound_form(g, form, self._pass_vectors(g.n, 3))
        for u in self._pass_vectors(g.n, 3):
            if form == "dense":
                assert g.adj_matvec(u).tobytes() == (a @ u).tobytes()
            assert g._pass(u).tobytes() == reference_pass(a, form, u).tobytes()
        # a strided view is read as its values
        u = np.random.default_rng(4).random(2 * g.n)[::2]
        assert g.adj_matvec(u).tobytes() == reference_pass(a, form, u).tobytes()

    def test_unknown_form_is_refused(self, k3):
        with pytest.raises(ValueError, match="unknown stored form 'csc'"):
            graph_module._form_pass(k3, "csc")

    def test_bound_kernel_over_several_dgemv_blocks(self):
        # at n = 700 the dense form splits into two row blocks of 374 and
        # 326 rows, each one dgemv
        g = random_graph(700, 0.5, 2)
        assert stored_form(g) == "dense"
        a = assert_bound_form(g, "dense")
        rows = graph_module._GEMV_ENTRIES // g.n
        assert rows < g.n
        for u in self._pass_vectors(g.n, 5):
            blocks = np.concatenate([a[lo:lo + rows] @ u for lo in range(0, g.n, rows)])
            assert g.adj_matvec(u).tobytes() == blocks.tobytes()

    def test_dense_pass_does_not_depend_on_the_blas_thread_count(self):
        # the dense form of a 700-vertex graph has 490,000 entries, enough
        # for one dgemv over it to split across two OpenBLAS threads and
        # group its sums differently
        script = (
            "import hashlib, numpy as np\n"
            "from rankclique import SolverConfig, random_graph, solve\n"
            "from rankclique.graph import _dense_pass\n"
            "from oracles import dense_adjacency\n"
            "g = random_graph(700, 0.5, 1)\n"
            "h = hashlib.sha256()\n"
            "for seed in range(5):\n"
            "    h.update(g.adj_matvec(np.random.default_rng(seed).random(g.n)).tobytes())\n"
            "assert 20 * 2 * g.edge_count >= 9 * g.n * g.n and g._pass.func is _dense_pass\n"
            "a = dense_adjacency(g)\n"
            "assert np.array_equal(np.array([g.adj_matvec(e) for e in np.eye(g.n)]), a)\n"
            "for seed in range(5):\n"
            "    u = np.random.default_rng(seed).random(g.n)\n"
            "    assert g.adj_matvec(u).tobytes() == _dense_pass(a, u).tobytes()\n"
            "r = solve(g, SolverConfig(seed=0))\n"
            "h.update(r.u_final.tobytes())\n"
            "print(h.hexdigest(), r.iterations, r.clique.vertices)\n"
        )
        src = str(Path(graph_module.__file__).resolve().parent.parent)
        path = os.pathsep.join([src, str(Path(__file__).resolve().parent)])
        runs = [
            subprocess.run(
                [sys.executable, "-c", script],
                env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads},
                capture_output=True, text=True, check=True,
            ).stdout
            for threads in ("1", "2")
        ]
        assert runs[0] == runs[1]

    def test_operator_crossover_times_both_forms(self):
        # tools/operator_crossover.py, which pins the dense band's 9/20
        # and the bitmap build's threshold, builds the forms with
        # graph.py's private helpers; one small graph and one small pair
        # set in a fresh process (the tool sets BLAS to one thread)
        tool = Path(__file__).resolve().parent.parent / "tools" / "operator_crossover.py"
        script = (
            "import json, runpy\n"
            f"tool = runpy.run_path({str(tool)!r})\n"
            "print(json.dumps([tool['one_graph'](100, 0.45, 0, batches=1), tool['one_build'](60, 4, 0, batches=1)]))\n"
        )
        out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True).stdout
        row, build = json.loads(out)
        assert 0.44 < row["sparser_side_share"] < 0.47 and row["sparse_side"] == "A"
        assert row["dense_us"] > 0 and row["sparse_us"] > 0
        assert row["dense_build_bytes_over_form"] > 0 and row["sparse_build_bytes_over_form"] >= 0
        assert (build["n"], build["n2_over_pairs"], build["pairs"]) == (60, 4, 900)
        assert build["sort_ms"] > 0 and build["bitmap_ms"] > 0


class TestOperatorBuild:
    """The stored forms are built by scattering a graph's entries one
    block of keys at a time, so the first pass holds the form and one
    block, and no key array over the whole graph."""

    @staticmethod
    def _graphs() -> list:
        return [
            *stored_form_graphs().values(),
            *small_random_graphs(8, seed0=500, n_lo=1, n_hi=40),
            random_graph(0, 0.5, 0),
            random_graph(60, 0.05, 3),  # isolated vertices: empty rows
        ]

    @pytest.mark.parametrize("budget", [5, 97, None])
    def test_builds_match_the_dense_reference(self, budget):
        # a block of 5 entries splits most rows, and holds several of
        # the shortest
        with mock.patch.object(graph_module, "_SCATTER_ENTRIES", budget or graph_module._SCATTER_ENTRIES):
            for g in self._graphs():
                self._assert_builds_match(g)

    def test_builds_of_hamming10_2_match_the_dense_reference(self):
        g = hamming_graph(10, 2)
        assert len(g.indices) > 10 * graph_module._SCATTER_ENTRIES
        self._assert_builds_match(g)

    @staticmethod
    def _assert_builds_match(g):
        a = dense_adjacency(g)
        assert graph_module._dense_adjacency(g).tobytes() == a.tobytes()
        complement = (1.0 - np.eye(g.n) - a).astype(bool)
        indptr, indices = graph_module._complement_structure(g)
        assert indptr.dtype == indices.dtype == np.int64
        assert np.array_equal(indptr, np.concatenate([[0], np.cumsum(complement.sum(axis=1))]))
        assert np.array_equal(indices, np.nonzero(complement)[1])

    @staticmethod
    def _first_pass_peak(g) -> int:
        u = np.ones(g.n)
        tracemalloc.start()
        try:
            g.adj_matvec(u)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_first_pass_on_hamming10_2_holds_one_block(self):
        # the Ā form: an n² byte bitmap (1 MiB), one block of keys (0.5
        # MiB) and Ā's 10,240 entries, where one key per stored entry of
        # A would add 8.3 MB
        g = hamming_graph(10, 2)
        peak = self._first_pass_peak(g)
        assert len(g.indices) == 1_037_312 and g.n * (g.n - 1) - len(g.indices) == 10_240
        assert stored_form(g) == "csr_of_complement"
        assert_bound_form(g, "csr_of_complement")
        assert peak <= 3 * 2**20

    def test_first_pass_on_a_dense_graph_holds_one_block(self):
        # the dense form's 8n² bytes and one block of keys, where one key
        # per stored entry would add 4 MB
        g = random_graph(1000, 0.5, 1)
        peak = self._first_pass_peak(g)
        assert stored_form(g) == "dense"
        assert_bound_form(g, "dense")
        assert peak <= 8 * g.n * g.n + 2 * 2**20


class TestDimacs:
    def test_parse_toy(self):
        g = parse_dimacs(K3_DIMACS)
        assert g.n == 3
        assert g.edge_count == 3
        assert [g.neighbors(v).tolist() for v in range(g.n)] == [[1, 2], [0, 2], [0, 1]]

    def test_parse_bytes(self):
        assert parse_dimacs(K3_DIMACS.encode()).edge_count == 3

    def test_missing_problem_line(self):
        with pytest.raises(DimacsFormatError, match="missing problem line"):
            parse_dimacs("c nothing here\n")

    def test_edge_before_problem_line(self):
        with pytest.raises(DimacsFormatError) as exc:
            parse_dimacs("e 1 2\np edge 2 1\n")
        assert exc.value.line_no == 1

    @pytest.mark.parametrize("line", ["p edge 3", "p col 3 1", "p edge 3 1 1"])
    def test_malformed_problem_line_names_its_line(self, line):
        with pytest.raises(DimacsFormatError, match="malformed problem line") as exc:
            parse_dimacs(f"c x\n{line}\ne 1 2\n")
        assert exc.value.line_no == 2

    def test_duplicate_problem_line(self):
        with pytest.raises(DimacsFormatError, match="duplicate"):
            parse_dimacs("p edge 2 1\np edge 2 1\ne 1 2\n")

    def test_endpoint_out_of_range_names_line(self):
        with pytest.raises(DimacsFormatError) as exc:
            parse_dimacs("p edge 3 1\ne 1 4\n")
        assert exc.value.line_no == 2

    def test_unrecognized_line(self):
        with pytest.raises(DimacsFormatError, match="unrecognized"):
            parse_dimacs("p edge 2 1\nq 1 2\n")

    def test_non_integer_edge(self):
        with pytest.raises(DimacsFormatError, match="non-integer"):
            parse_dimacs("p edge 2 1\ne 1 x\n")

    @pytest.mark.parametrize(
        "text, line_no, message",
        [
            ("p edge 10 1\ne 1_0 +2\n", 2, "non-integer edge line"),
            ("p edge 10 1\ne 1 +2\n", 2, "non-integer edge line"),
            ("c x\np edge 1_0 1\ne 1 2\n", 2, "non-integer problem line"),
            ("p edge +10 1\ne 1 2\n", 1, "non-integer problem line"),
            ("p edge 10 -1\n", 1, "negative counts"),
            ("p edge 10 1\ne -1 2\n", 2, "out of range"),
            # more digits than Python's int reads
            pytest.param("p edge " + "1" * 5000 + " 3\n", 1, "too large", id="5000-digit count"),
            pytest.param("p edge 3 1\ne 1 " + "1" * 5000 + "\n", 2, "out of range", id="5000-digit label"),
        ],
    )
    def test_integer_fields_are_ascii_digits(self, text, line_no, message):
        with pytest.raises(DimacsFormatError, match=message) as exc:
            parse_dimacs(text)
        assert exc.value.line_no == line_no

    def test_signed_label_in_a_standard_file_names_its_line(self):
        lines = serialize_dimacs(random_graph(30, 0.5, seed=2)).splitlines(keepends=True)
        k = len(lines) // 2
        lines[k - 1] = "e 1_0 +2\n"
        with pytest.raises(DimacsFormatError, match="non-integer edge line") as exc:
            parse_dimacs("".join(lines))
        assert exc.value.line_no == k

    @pytest.mark.parametrize(
        "text, line_no",
        [
            (b"p edge 2 1\ne 1 \xff\n", 2),  # a byte outside ASCII
            ("p edge 2 1\ne 1 \uff12\n", 2),  # a fullwidth digit two
            (b"c ok\np edge 2 1\ne 1 2 \xc3\xa9\n", 3),  # UTF-8 after the last field
            ("p edge 2 1\ne 1 2\u00a0\n", 2),  # a no-break space, which str.strip drops
            ("p edge 2 1\n\u3000\ne 1 2\n", 2),  # a line of ideographic space
            ("p edge 2 1\u2028e 1 2\n", 1),  # a line separator, which str.splitlines breaks on
        ],
    )
    def test_non_ascii_outside_comments_names_line(self, text, line_no):
        with pytest.raises(DimacsFormatError, match="non-ASCII") as exc:
            parse_dimacs(text)
        assert exc.value.line_no == line_no

    def test_comments_take_any_bytes(self):
        text = "c caf\u00e9 \u2460\u2028 x\np edge 2 1\ne 1 2\n"
        for form in (text, text.encode("utf-8"), b"c \xff\x85\xfe\np edge 2 1\ne 1 2\n"):
            assert parse_dimacs(form).edge_count == 1

    def test_declared_count_mismatch_warns(self):
        with pytest.warns(DimacsWarning, match="declares 5 edges, parsed 1"):
            g = parse_dimacs("p edge 3 5\ne 1 2\n")
        assert g.edge_count == 1

    def test_duplicate_edges_collapse_with_warning(self):
        with pytest.warns(DimacsWarning):
            g = parse_dimacs("p edge 2 2\ne 1 2\ne 2 1\n")
        assert g.edge_count == 1

    def test_round_trip(self):
        for g in small_random_graphs(30, seed0=7):
            h = parse_dimacs(serialize_dimacs(g))
            assert h.n == g.n
            assert h.edge_count == g.edge_count
            assert np.array_equal(h.indptr, g.indptr)
            assert np.array_equal(h.indices, g.indices)

    def test_serialize_is_sorted_one_based(self, path3):
        assert serialize_dimacs(path3) == "p edge 3 2\ne 1 2\ne 2 3\n"

    def test_serialize_matches_per_edge_rendering(self):
        graphs = small_random_graphs(30, seed0=11) + [random_graph(150, 0.5, seed=4)]
        for g in graphs:
            assert serialize_dimacs(g) == dimacs_text_reference(g)
        assert serialize_dimacs(graph_from_edge_list(5, [])) == "p edge 5 0\n"
        assert serialize_dimacs(graph_from_edge_list(0, [])) == "p edge 0 0\n"

    @pytest.mark.parametrize("n", [1, 2, 9, 10, 11, 99, 100, 101, 999, 1000, 1001])
    def test_serialize_at_every_label_width(self, n):
        # labels of each width up to n's, with vertices 0 and n - 1
        rng = np.random.default_rng(n)
        g = graph_from_edge_list(n, np.concatenate([rng.integers(0, n, (3 * n, 2)), [[0, n - 1]]]))
        text = serialize_dimacs(g)
        assert text == dimacs_text_reference(g)
        # written in the standard layout, which the chunked scan reads
        h, declared_m = graph_module._standard_dimacs(text.encode("ascii"))
        assert (h.n, declared_m) == (n, g.edge_count)
        assert np.array_equal(h.edges(), g.edges())

    def test_serialize_at_hamming10_2_density(self):
        g = random_graph(1024, 0.99, seed=3)
        assert serialize_dimacs(g) == dimacs_text_reference(g)

    def test_odd_layouts_read_like_the_standard_one(self):
        for g in small_random_graphs(20, seed0=400):
            std = serialize_dimacs(g)
            lines = std.splitlines(keepends=True)
            variants = {
                "comment between edges": "".join(lines[:2] + ["c between edges\n"] + lines[2:]),
                "tabs": std.replace(" ", "\t"),
                "double spaces": std.replace(" ", "  "),
                "crlf": std.replace("\n", "\r\n"),
                "leading blanks": "".join(" " + line for line in lines),
                "no final newline": std[:-1],
                "leading zeros": re.sub(r"e (\d+) (\d+)", r"e 0\1 00\2", std),
                "bytes": std.encode("ascii"),
            }
            for name, text in variants.items():
                h = parse_dimacs(text)
                assert h.edge_count == g.edge_count, name
                assert np.array_equal(h.indptr, g.indptr), name
                assert np.array_equal(h.indices, g.indices), name

    def test_standard_layout_skips_the_line_reader(self, monkeypatch):
        def line_reader(text):
            raise AssertionError("standard text reached the line reader")

        g = random_graph(200, 0.5, seed=6)
        text = "c written by serialize_dimacs\n" + serialize_dimacs(g)
        monkeypatch.setattr(graph_module, "_dimacs_lines", line_reader)
        h = parse_dimacs(text)
        assert np.array_equal(h.indices, g.indices)
        # the declared-count check runs on the chunked scan too
        wrong = text.replace(f"p edge 200 {g.edge_count}", f"p edge 200 {g.edge_count + 1}")
        with pytest.warns(DimacsWarning, match=f"declares {g.edge_count + 1} edges, parsed {g.edge_count}"):
            parse_dimacs(wrong)

    def test_bad_endpoint_in_a_standard_file_names_its_line(self):
        g = graph_from_edge_list(60, [(u, v) for u in range(60) for v in range(u + 1, 60)][:1000])
        lines = serialize_dimacs(g).splitlines(keepends=True)
        assert len(lines) == 1001
        for k in (2, 437, 1001):
            bad = lines.copy()
            bad[k - 1] = "e 3 61\n"
            with pytest.raises(DimacsFormatError, match="out of range") as exc:
                parse_dimacs("".join(bad))
            assert exc.value.line_no == k

    def test_trailing_digits_after_the_last_newline_are_a_line(self):
        std = serialize_dimacs(random_graph(30, 0.5, seed=2))
        with pytest.raises(DimacsFormatError, match="unrecognized line '7'") as exc:
            parse_dimacs(std + "7")
        assert exc.value.line_no == len(std.splitlines()) + 1

    def test_problem_line_after_the_edges(self):
        body = "".join(serialize_dimacs(random_graph(30, 0.5, seed=2)).splitlines(keepends=True)[1:])
        with pytest.raises(DimacsFormatError, match="edge line before problem line") as exc:
            parse_dimacs(body + "p edge 30 5\n")
        assert exc.value.line_no == 1
        std = serialize_dimacs(random_graph(30, 0.5, seed=2))
        with pytest.raises(DimacsFormatError, match="duplicate problem line") as exc:
            parse_dimacs(std + "p edge 30 5\n")
        assert exc.value.line_no == len(std.splitlines()) + 1

    def test_vertex_ceiling_on_the_problem_line(self):
        with pytest.raises(DimacsFormatError, match="limit") as exc:
            parse_dimacs(f"c too big\np edge {MAX_VERTICES + 1} 0\n")
        assert exc.value.line_no == 2
        with pytest.raises(DimacsFormatError, match="limit"):
            parse_dimacs("p edge 1000000000 0\n")

    def test_files_are_read_as_bytes(self, tmp_path):
        path = tmp_path / "g.clq"
        path.write_bytes(b"c \xff\np edge 2 1\ne 1 2\n")
        assert read_dimacs(path).edge_count == 1
        path.write_bytes(b"p edge 2 1\ne 1 \xff\n")
        with pytest.raises(DimacsFormatError, match="non-ASCII") as exc:
            read_dimacs(path)
        assert exc.value.line_no == 2

    @pytest.mark.parametrize("newline", [b"\n", b"\r\n"])
    def test_standard_file_skips_the_line_reader(self, tmp_path, monkeypatch, newline):
        def line_reader(text):
            raise AssertionError("standard file reached the line reader")

        g = random_graph(200, 0.5, seed=8)
        expected = parse_dimacs(serialize_dimacs(g))
        data = b"c written on \xe9lsewhere\n" + serialize_dimacs(g).encode("ascii")
        path = tmp_path / "g.clq"
        path.write_bytes(data.replace(b"\n", newline))
        monkeypatch.setattr(graph_module, "_dimacs_lines", line_reader)
        # a deprecation in the chunked scan fails here, not only warns
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # the file, and its text as a str with a non-ASCII comment
            parsed = [read_dimacs(path), parse_dimacs(path.read_bytes().decode("latin-1"))]
        for h in parsed:
            assert h.edge_count == expected.edge_count
            assert np.array_equal(h.indptr, expected.indptr)
            assert np.array_equal(h.indices, expected.indices)

    def test_labels_of_19_digits_in_a_standard_file(self):
        g = random_graph(30, 0.5, seed=2)
        lines = serialize_dimacs(g).splitlines(keepends=True)
        k = len(lines) // 2
        _, u, v = lines[k - 1].split()
        long_zeros = lines.copy()
        long_zeros[k - 1] = f"e {u} {v.zfill(19)}\n"
        h = parse_dimacs("".join(long_zeros))
        assert np.array_equal(h.indptr, g.indptr)
        assert np.array_equal(h.indices, g.indices)
        overflow = lines.copy()
        overflow[k - 1] = "e 1 9999999999999999999\n"
        with pytest.raises(DimacsFormatError, match="out of range") as exc:
            parse_dimacs("".join(overflow))
        assert exc.value.line_no == k

    @pytest.mark.parametrize("bad", ["e 1 \n", "e  2\n"])
    def test_empty_field_in_a_standard_file_names_its_line(self, bad):
        lines = serialize_dimacs(random_graph(30, 0.5, seed=2)).splitlines(keepends=True)
        k = len(lines) // 2
        lines[k - 1] = bad
        with pytest.raises(DimacsFormatError, match="malformed edge line") as exc:
            parse_dimacs("".join(lines))
        assert exc.value.line_no == k


def dimacs_line_reader_only(text):
    with mock.patch.object(graph_module, "_standard_dimacs", lambda data: None):
        return parse_dimacs(text)


def graph_outcome(parse, text):
    """The graph's arrays, or the error's type and line number."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DimacsWarning)
            g = parse(text)
    except ValueError as exc:
        return type(exc), getattr(exc, "line_no", None)
    return g.n, g.edge_count, g.indptr.tobytes(), g.indices.tobytes()


def space_keeping_mutation(text, rng):
    """text with one change to its edge lines that keeps their number of
    spaces: an LF swapped with a space, a space moved, a line's lead `e`
    made a digit, or an LF moved into a field, each move or swap within
    about 30 bytes where it can be."""
    start = text.index("\n", text.index("p edge")) + 1
    body = bytearray(text[start:], "ascii")
    at = {ch: np.flatnonzero(np.frombuffer(bytes(body), dtype=np.uint8) == ord(ch)) for ch in " \n"}

    def near(i, where):
        # a position of `where` within 30 bytes of i, else any
        close = where[np.abs(where - i) <= 30]
        return int(rng.choice(close if close.size else where))

    kind = rng.integers(4)
    if kind == 0:
        i = int(rng.choice(at["\n"]))
        j = near(i, at[" "])
        body[i], body[j] = body[j], body[i]
    elif kind == 1:
        i = int(rng.choice(at[" "]))
        del body[i]
        body.insert(near(i, np.arange(len(body))), ord(" "))
    elif kind == 2:
        leads = np.concatenate([[0], at["\n"][:-1] + 1])
        body[int(rng.choice(leads))] = ord("0") + int(rng.integers(10))
    else:
        i = int(rng.choice(at["\n"]))
        del body[i]
        digits = np.flatnonzero(np.frombuffer(bytes(body), dtype=np.uint8) - ord("0") < 10)
        body.insert(near(i, digits), ord("\n"))
    return text[:start] + body.decode("ascii")


# chunk sizes below the longest standard line (58 bytes), at a power of
# two, and at one that splits lines anywhere
SMALL_CHUNKS = [48, 64, 97]


class TestChunkedScan:
    """The standard readers scan their body in chunks of _CHUNK_BYTES."""

    @pytest.mark.parametrize("chunk", SMALL_CHUNKS)
    def test_dimacs_chunks_read_like_the_line_reader(self, chunk, monkeypatch):
        monkeypatch.setattr(graph_module, "_CHUNK_BYTES", chunk)
        # sparse graphs take the sort build, dense ones the bitmap
        cases = [random_graph(n, p, seed) for seed, (n, p) in enumerate(
            (n, p) for n in (1, 7, 40, 150) for p in (0.02, 0.3, 0.95))]
        for i, g in enumerate(cases):
            text = "c chunked\n" + serialize_dimacs(g)
            if i % 3 == 2:
                text = text.replace("\n", "\r\n")
            assert graph_module._standard_dimacs(text.encode("ascii")) is not None
            expected = graph_outcome(dimacs_line_reader_only, text)
            assert expected[:2] == (g.n, g.edge_count)
            assert graph_outcome(parse_dimacs, text) == expected

    @pytest.mark.parametrize("chunk", [*SMALL_CHUNKS, 1 << 16])
    def test_mutated_bodies_read_like_the_line_reader(self, chunk, monkeypatch):
        # a DIMACS chunk's line ends are derived from its spaces, so every
        # change here keeps the body's space count; most make the layout
        # off, and each must get the line reader's graph or error
        monkeypatch.setattr(graph_module, "_CHUNK_BYTES", chunk)
        rng = np.random.default_rng(chunk)
        # the sort build, with labels of up to 3 digits, and the bitmap
        texts = [serialize_dimacs(random_graph(120, 0.02, 1)), serialize_dimacs(random_graph(40, 0.9, 2))]
        for i in range(240):
            text = space_keeping_mutation(texts[i % 2], rng)
            if i % 4 >= 2:
                text = text.replace("\n", "\r\n")
            assert graph_outcome(parse_dimacs, text) == graph_outcome(dimacs_line_reader_only, text)

    @pytest.mark.parametrize("chunk", [*SMALL_CHUNKS, 1 << 16])
    @pytest.mark.parametrize(
        "body, standard",
        [
            pytest.param("e 1 2\n", True, id="one line"),
            pytest.param("e 3 4\ne 000000000000000005 000000000000000006\n", True, id="18-digit last line"),
            # 2 spaces per line on average, but 3 and 1
            pytest.param("e 1 2 3\ne 4 5\n", False, id="spaces in the wrong lines"),
            pytest.param("e 1 2 3\ne 45\n", False, id="spaces in the wrong lines, 2 fields"),
            # a digit before a lead: in a later line the derived end
            # before it is no LF; in a chunk's first line only the check
            # that the line starts at byte 0 sees it
            pytest.param("e 1 2\n7e 3 4\n", False, id="digit before a later lead"),
            pytest.param("7e 1 2\ne 3 4\n", False, id="digit before the first lead"),
            # a derived end on a non-digit that is no LF
            pytest.param("e 1 2\te 3 4\n", False, id="tab for an LF"),
            pytest.param("e 1 2\re 3 4\n", False, id="lone CR for an LF"),
        ],
    )
    def test_hand_written_bodies_read_like_the_line_reader(self, body, standard, chunk, monkeypatch):
        monkeypatch.setattr(graph_module, "_CHUNK_BYTES", chunk)
        text = "p edge 6 2\n" + body
        assert (graph_module._standard_dimacs(text.encode("ascii")) is not None) == standard
        expected = graph_outcome(dimacs_line_reader_only, text)
        assert graph_outcome(parse_dimacs, text) == expected

    @pytest.mark.parametrize("chunk", SMALL_CHUNKS)
    def test_coordinate_chunks_read_like_the_line_reader(self, chunk, monkeypatch):
        monkeypatch.setattr(graph_module, "_CHUNK_BYTES", chunk)
        for seed in range(8):
            text = count_file(*doc_term_entries(20 + 10 * seed, 50, 40 * seed + 1, seed))
            if seed % 3 == 2:
                text = text.replace("\n", "\r\n")
            assert graph_module._standard_coordinates(text.encode("ascii")) is not None
            assert outcome(parse_coordinate_matrix, text) == outcome(line_reader_only, text)

    @pytest.mark.parametrize("chunk", [64, None])
    def test_errors_in_a_late_chunk_name_their_line(self, chunk, monkeypatch):
        if chunk is not None:
            monkeypatch.setattr(graph_module, "_CHUNK_BYTES", chunk)
        lines = serialize_dimacs(random_graph(200, 0.5, seed=5)).splitlines(keepends=True)
        # past the first 64 KiB, so in a later chunk at either size
        k = len(lines) - 3
        assert len("".join(lines[:k])) > 1 << 16
        for bad, message in (("e 3 201\n", "out of range"), ("e 1 \n", "malformed edge line"),
                             ("e  2\n", "malformed edge line"), ("e 1 2 3\n", "malformed edge line"),
                             ("x 1 2\n", "unrecognized line")):
            text = "".join(lines[:k - 1] + [bad] + lines[k:])
            with pytest.raises(DimacsFormatError, match=message) as exc:
                parse_dimacs(text)
            assert exc.value.line_no == k
        entries = count_file(*doc_term_entries(80, 300, 9000, seed=6)).splitlines(keepends=True)
        k = len(entries) - 3
        assert len("".join(entries[:k])) > 1 << 16
        for bad, message in (("81 1 1\n", "out of range"), ("1 1\n", "malformed entry")):
            with pytest.raises(CoordinateFormatError, match=message) as exc:
                parse_coordinate_matrix("".join(entries[:k - 1] + [bad] + entries[k:]))
            assert exc.value.line_no == k

    def test_a_line_longer_than_a_chunk_goes_to_the_line_reader(self, monkeypatch):
        monkeypatch.setattr(graph_module, "_CHUNK_BYTES", 32)
        # 40 bytes, standard but longer than a chunk
        text = "p edge 3 2\ne 1 2\ne 000000000000000002 000000000000000003\ne 1 3\n"
        spy = mock.Mock(wraps=graph_module._dimacs_lines)
        monkeypatch.setattr(graph_module, "_dimacs_lines", spy)
        with pytest.warns(DimacsWarning):
            g = parse_dimacs(text)
        assert spy.call_count == 1
        assert g.edges().tolist() == [[0, 1], [0, 2], [1, 2]]

    def test_one_and_eighteen_digit_fields_read_exactly(self):
        big = 10**18 - 1
        text = f"1 1 {big}\n3 2 1\n000000000000000003 02 100000000000000000\n0001 1 0\n".encode("ascii")
        chunks = list(graph_module._standard_chunks(text, 0, b"", 3, (3, 2)))
        values = np.concatenate(chunks, axis=1)
        assert values.T.tolist() == [[0, 0, big], [2, 1, 1], [2, 1, 10**17], [0, 0, 0]]
        # leading zeros in a DIMACS label take the chunked scan as well
        data = b"p edge 12 2\ne 000000000000000012 1\ne 01 0002\n"
        g, declared_m = graph_module._standard_dimacs(data)
        assert declared_m == 2
        assert g.edges().tolist() == [[0, 1], [0, 11]]

    @pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
    @pytest.mark.parametrize(
        "lines, labels, zeros, build",
        [
            # n = 40: a line without leading zeros has at most 8 bytes, so
            # the byte test takes the bitmap from 1600 body bytes on, and
            # the line test from 200 lines
            pytest.param(200, (10, 40), 0, "bytes", id="bitmap by bytes"),
            pytest.param(199, (10, 40), 0, "sort", id="counted, one line short"),
            pytest.param(200, (1, 40), 0, "lines", id="counted, bitmap by lines"),
            pytest.param(120, (10, 40), 3, "bytes", id="leading zeros, bitmap with fewer lines"),
        ],
    )
    def test_the_byte_test_picks_the_build(self, lines, labels, zeros, build, newline):
        n = 40
        rng = np.random.default_rng(lines + zeros)
        pairs = rng.integers(labels[0], labels[1] + 1, size=(lines, 2)) - 1
        # both orientations, repeated lines and self-loops
        pairs[10:20] = pairs[:10, ::-1]
        pairs[20:25] = pairs[:5]
        pairs[25:30, 1] = pairs[25:30, 0]
        pad = "0" * zeros
        body = "".join(f"e {pad}{a + 1} {pad}{b + 1}\n" for a, b in pairs.tolist())
        by_bytes = n * n <= graph_module._BITMAP_PAIRS * (len(body) // (4 + 2 * len(str(n))))
        by_lines = n * n <= graph_module._BITMAP_PAIRS * lines
        assert (by_bytes, by_lines) == {"bytes": (True, zeros == 0), "lines": (False, True), "sort": (False, False)}[build]
        text = f"c dirty pairs\np edge {n} {lines}\n{body}".replace("\n", newline)
        with mock.patch.object(graph_module, "_sorted_keys", wraps=graph_module._sorted_keys) as sort, \
                mock.patch.object(graph_module, "_graph_from_pairs", wraps=graph_module._graph_from_pairs) as counted, \
                warnings.catch_warnings():
            warnings.simplefilter("ignore", DimacsWarning)
            g = parse_dimacs(text.encode("ascii"))
        assert sort.called == (build == "sort")
        # only a failed byte test counts the lines, and hands over that count
        assert counted.called == (build != "bytes")
        if counted.called:
            assert counted.call_args.args[:2] == (n, lines)
        indptr, indices, edge_count = graph_arrays_reference(n, pairs)
        assert (g.n, g.edge_count) == (n, edge_count)
        assert np.array_equal(g.indptr, indptr)
        assert np.array_equal(g.indices, indices)
        assert graph_outcome(parse_dimacs, text) == graph_outcome(dimacs_line_reader_only, text)

    def test_peak_memory_of_a_dense_read(self):
        # the bitmap and the graph's arrays, plus the per-line arrays of
        # one chunk: about 75 bytes per line of at least 6 bytes, so at
        # most 13 per byte of the chunk.  No array over the whole body.
        data = serialize_dimacs(random_graph(600, 0.95, 0)).encode("ascii")
        tracemalloc.start()
        try:
            g = parse_dimacs(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.n * g.n <= graph_module._BITMAP_PAIRS * g.edge_count
        assert peak <= g.n * g.n + g.indices.nbytes + g.indptr.nbytes + 32 * graph_module._CHUNK_BYTES


# (DIMACS text, coordinate text) that each standard reader refuses, by
# cause; the line readers read the first, third and fourth, and refuse
# the second naming line 1
OFF_LAYOUT_CAUSES = {
    "no standard header": ("p edge  3 2\ne 1 2\ne 2 3\n", "3  2 2\n1 1 1\n2 2 1\n"),
    "header over the limit": (f"p edge {MAX_VERTICES + 1} 0\n", f"3 {MAX_VERTICES + 1} 0\n"),
    "off-layout chunk": ("p edge 3 2\ne 1 2\ne 2  3\n", "3 2 2\n1 1 1\n2 2  1\n"),
    # 40 bytes, longer than the 32-byte chunks the test sets
    "line longer than a chunk": ("p edge 3 2\ne 1 2\ne 000000000000000002 000000000000000003\n",
                                 "3 2 2\n1 1 1\n000000000000000002 000000000000000002 1\n"),
}


class TestOffLayoutSignal:
    """Every check of the standard readers raises _OffLayout, which each
    of them catches once and answers with None."""

    @pytest.mark.parametrize("cause", sorted(OFF_LAYOUT_CAUSES))
    def test_each_cause_returns_none_and_reads_by_line(self, cause, monkeypatch):
        monkeypatch.setattr(graph_module, "_CHUNK_BYTES", 32)
        dimacs, coordinates = OFF_LAYOUT_CAUSES[cause]
        # None, not a raise: _OffLayout does not escape
        assert graph_module._standard_dimacs(dimacs.encode("ascii")) is None
        assert graph_module._standard_coordinates(coordinates.encode("ascii")) is None
        for form in (dimacs, dimacs.encode("ascii")):
            expected = graph_outcome(dimacs_line_reader_only, form)
            assert graph_outcome(parse_dimacs, form) == expected
        for form in (coordinates, coordinates.encode("ascii")):
            expected = outcome(line_reader_only, form)
            assert outcome(parse_coordinate_matrix, form) == expected
        if cause == "header over the limit":
            assert expected == (CoordinateFormatError, 1)
            assert graph_outcome(parse_dimacs, dimacs) == (DimacsFormatError, 1)

    def test_the_header_check_raises_off_layout(self):
        crlf = b"c x\r\np edge 3 2\r\ne 1 2\r\n"
        assert graph_module._standard_body(crlf, graph_module._DIMACS_HEADER, 1) == (crlf.replace(b"\r", b""), 15, [3, 2])
        # n_rows and n_cols are sizes, the entry count is not
        data = f"3 3 {MAX_VERTICES + 1}\n".encode("ascii")
        assert graph_module._standard_body(data, graph_module._COORDINATE_HEADER, 2)[2] == [3, 3, MAX_VERTICES + 1]
        for data, header, sizes in ((b"p edge 3\n", graph_module._DIMACS_HEADER, 1),
                                    (f"p edge {MAX_VERTICES + 1} 0\n".encode("ascii"), graph_module._DIMACS_HEADER, 1),
                                    (f"1 {MAX_VERTICES + 1} 0\n".encode("ascii"), graph_module._COORDINATE_HEADER, 2)):
            with pytest.raises(graph_module._OffLayout):
                graph_module._standard_body(data, header, sizes)

    @pytest.mark.parametrize(
        "parse, data, line_no, shown",
        [
            (parse_dimacs, b"p edge 2 1\ne 1 \xc3\xa9\n", 2, "'e 1 é'"),
            (parse_dimacs, b"\xef\xbb\xbfp edge 2 1\ne 1 2\n", 1, "'\\ufeffp edge 2 1'"),
            (parse_coordinate_matrix, b"2 2 1\n1 \xc3\xa9 1\n", 2, "'1 é 1'"),
            # a byte outside any UTF-8 sequence stays a lone surrogate
            (parse_coordinate_matrix, b"2 2 1\n1 \xff 1\n", 2, "'1 \\udcff 1'"),
        ],
    )
    def test_non_ascii_bytes_are_shown_decoded(self, parse, data, line_no, shown):
        with pytest.raises((DimacsFormatError, CoordinateFormatError)) as exc:
            parse(data)
        assert exc.value.line_no == line_no
        assert str(exc.value) == f"line {line_no}: non-ASCII character in {shown}"


class TestRandomGraph:
    def test_deterministic(self):
        g1 = random_graph(30, 0.4, seed=11)
        g2 = random_graph(30, 0.4, seed=11)
        assert np.array_equal(g1.indices, g2.indices)
        assert g1.edge_count == g2.edge_count

    def test_seed_changes_graph(self):
        g1 = random_graph(30, 0.4, seed=11)
        g2 = random_graph(30, 0.4, seed=12)
        assert not np.array_equal(g1.indices, g2.indices)

    def test_extreme_densities(self):
        assert random_graph(10, 0.0, seed=0).edge_count == 0
        assert random_graph(10, 1.0, seed=0).edge_count == 45

    def test_realized_density(self):
        total_pairs = 100 * 99 / 2
        rates = [random_graph(100, 0.5, seed=s).edge_count / total_pairs for s in range(10)]
        assert abs(float(np.mean(rates)) - 0.5) < 0.02

    def test_invalid_density(self):
        with pytest.raises(ValueError, match="density"):
            random_graph(5, 1.5, seed=0)

    def test_negative_vertex_count_is_refused(self):
        with pytest.raises(ValueError, match="vertex count must be nonnegative, got -1"):
            random_graph(-1, 0.5, seed=0)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 17, 64, 400])
    def test_matches_the_triu_indices_reference(self, n):
        for density in (0.0, 0.15, 0.5, 0.85, 1.0):
            for seed in range(3):
                g = random_graph(n, density, seed)
                indptr, indices, edge_count = random_graph_reference(n, density, seed)
                assert g.edge_count == edge_count
                assert g.indptr.dtype == g.indices.dtype == np.int64
                assert not (g.indptr.flags.writeable or g.indices.flags.writeable)
                assert np.array_equal(g.indptr, indptr)
                assert np.array_equal(g.indices, indices)

    @pytest.mark.parametrize("density, seed", [(0.15, 0), (0.5, 1), (0.85, 2)])
    def test_peak_memory(self, density, seed):
        # the float64 draws (4n² bytes) and one n² byte bitmap, then the
        # graph's own arrays: no index array over all n(n-1)/2 pairs
        n = 1500
        tracemalloc.start()
        try:
            g = random_graph(n, density, seed)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * n * n + g.indices.nbytes

    def test_oversized_graph_is_refused_before_drawing(self):
        # a million vertices would take 4 TB of draws: nothing is allocated
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="bytes for its draws and bitmap"):
                random_graph(10**6, 0.5, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    def test_memory_bound_admits_what_the_repository_draws(self):
        # the largest n whose draws and bitmap fit, and the first refused;
        # the tools draw up to n = 4000
        def need(n):
            return 8 * (n * (n - 1) // 2) + n * n

        assert need(4000) <= graph_module.MAX_RANDOM_GRAPH_BYTES
        n = 14_654
        assert need(n) <= graph_module.MAX_RANDOM_GRAPH_BYTES < need(n + 1)
        with pytest.raises(ValueError, match=f"random graph on {n + 1} vertices"):
            random_graph(n + 1, 0.5, 0)
        with pytest.raises(ValueError, match="on 10000000000 vertices"):
            random_graph(np.int64(10**10), 0.5, 0)


class TestCoordinateMatrix:
    def test_parse_toy(self):
        x = parse_coordinate_matrix(COORD_TOY)
        assert x.shape == (3, 3)
        assert x.nnz == 5
        assert x[0, 1] == 3.0
        assert x[2, 2] == 7.0

    def test_missing_header(self):
        with pytest.raises(CoordinateFormatError, match="missing header"):
            parse_coordinate_matrix("% only comments\n")

    def test_two_field_header_names_its_line(self):
        with pytest.raises(CoordinateFormatError, match="malformed header") as exc:
            parse_coordinate_matrix("% c\n2 2\n1 1 1\n")
        assert exc.value.line_no == 2

    def test_malformed_entry_names_line(self):
        with pytest.raises(CoordinateFormatError) as exc:
            parse_coordinate_matrix("2 2 1\n1 1\n")
        assert exc.value.line_no == 2

    def test_index_out_of_range(self):
        with pytest.raises(CoordinateFormatError, match="out of range"):
            parse_coordinate_matrix("2 2 1\n3 1 1.0\n")

    def test_vertex_ceiling_on_the_header(self):
        for header in (f"{MAX_VERTICES + 1} 3 0", f"3 {MAX_VERTICES + 1} 0", "1000000000 1000000000 0"):
            with pytest.raises(CoordinateFormatError, match="limit") as exc:
                parse_coordinate_matrix(f"% too big\n{header}\n")
            assert exc.value.line_no == 2

    def test_negative_value(self):
        with pytest.raises(CoordinateFormatError, match="negative value"):
            parse_coordinate_matrix("2 2 1\n1 1 -2.0\n")

    @pytest.mark.parametrize(
        "value, message",
        [("nan", "non-finite value"), ("inf", "non-finite value"), ("-nan", "non-finite value"),
         ("-inf", "negative value"), ("1e999", "non-finite value")],
    )
    def test_non_finite_value_names_its_line(self, value, message):
        with pytest.raises(CoordinateFormatError, match=message) as exc:
            parse_coordinate_matrix(f"2 2 2\n2 2 1\n1 1 {value}\n")
        assert exc.value.line_no == 3

    def test_values_stay_floats(self):
        x = parse_coordinate_matrix("2 2 2\n1 1 1e+05\n2 1 0.5\n")
        assert x.toarray().tolist() == [[1e5, 0.0], [0.5, 0.0]]

    @pytest.mark.parametrize(
        "text, line_no, message",
        [
            ("2 2 1\n1_0 1 1\n", 2, "non-numeric entry"),
            ("2 2 1\n1 +1 1\n", 2, "non-numeric entry"),
            ("2 2 1\n-1 1 1\n", 2, "out of range"),
            ("% c\n+2 2 1\n1 1 1\n", 2, "non-integer header"),
            ("2 2 1_0\n1 1 1\n", 1, "non-integer header"),
            ("2 -2 1\n1 1 1\n", 1, "negative header counts"),
            # more digits than Python's int reads
            pytest.param("1" * 5000 + " 2 3\n", 1, "too large", id="5000-digit count"),
            pytest.param("2 2 1\n" + "1" * 5000 + " 1 1\n", 2, "out of range", id="5000-digit index"),
        ],
    )
    def test_counts_and_indices_are_ascii_digits(self, text, line_no, message):
        with pytest.raises(CoordinateFormatError, match=message) as exc:
            parse_coordinate_matrix(text)
        assert exc.value.line_no == line_no

    @pytest.mark.parametrize(
        "text",
        [
            b"2 2 1\n1 \xff 1\n",  # a byte outside ASCII
            "2 2 1\n1 2 \uff11\n",  # a fullwidth digit one as the value
            "2 2 1\n\uff11 2 1\n",  # and as a row index
            "2 2 1\n1 2 1\u00a0\n",  # a no-break space, which str.strip drops
            "2 2 1\n1 2 1\u20281 1 1\n",  # a line separator, which str.splitlines breaks on
        ],
    )
    def test_non_ascii_outside_comments_names_line(self, text):
        with pytest.raises(CoordinateFormatError, match="non-ASCII") as exc:
            parse_coordinate_matrix(text)
        assert exc.value.line_no == 2

    def test_comments_take_any_bytes(self):
        for form in (b"% \xff\x85\n# caf\xc3\xa9\n2 2 1\n1 2 1\n", "% caf\u00e9\n2 2 1\n1 2 1\n"):
            assert parse_coordinate_matrix(form).nnz == 1

    def test_underscore_in_a_value_names_its_line(self):
        # float reads `1_0` as 10; no writer produces it
        with pytest.raises(CoordinateFormatError, match="non-numeric entry") as exc:
            parse_coordinate_matrix("2 2 1\n1 1 1_0\n")
        assert exc.value.line_no == 2
        lines = count_file(*doc_term_entries(30, 40, 200, seed=3)).splitlines(keepends=True)
        k = len(lines) // 2
        lines[k - 1] = "3 4 1_0\n"
        with pytest.raises(CoordinateFormatError, match="non-numeric entry") as exc:
            parse_coordinate_matrix("".join(lines))
        assert exc.value.line_no == k

    @pytest.mark.parametrize("newline", [b"\n", b"\r\n"])
    def test_standard_file_skips_the_line_reader(self, tmp_path, monkeypatch, newline):
        def line_reader(*args):
            raise AssertionError("standard file reached the line reader")

        shape, entries = doc_term_entries(80, 300, 2000, seed=5)
        rows, cols, counts = np.asarray(entries).T
        expected = sp.coo_matrix((counts.astype(np.float64), (rows - 1, cols - 1)), shape=shape).tocsr()
        data = b"% counted on \xe9lsewhere\n" + count_file(shape, entries).encode("ascii")
        path = tmp_path / "docs.txt"
        path.write_bytes(data.replace(b"\n", newline))
        monkeypatch.setattr(graph_module, "_records", line_reader)
        # a deprecation in the chunked scan fails here, not only warns
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # the file, and its text as a str with a non-ASCII comment
            parsed = [parse_coordinate_matrix(path.read_bytes()),
                      parse_coordinate_matrix(path.read_bytes().decode("latin-1"))]
        for x in parsed:
            assert csr_bits(x) == csr_bits(expected)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        shape=st.tuples(st.integers(1, 6), st.integers(1, 6)),
        cells=st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 5),
                      st.one_of(st.integers(0, 3), st.integers(0, 10**18 - 1))),
            min_size=1, max_size=12,
        ),
        form=st.sampled_from(sorted(OFF_LAYOUT_FORMS)),
        pick=st.integers(0, 2**16),
    )
    # a repeated entry and an explicit zero
    @example(shape=(2, 2), cells=[(0, 1, 2), (0, 1, 3), (1, 0, 0)], form="tab", pick=0)
    def test_fast_pass_and_line_reader_agree(self, shape, cells, form, pick):
        entries = [(r % shape[0] + 1, c % shape[1] + 1, v) for r, c, v in cells]
        text = count_file(shape, entries)
        assert graph_module._standard_coordinates(text.encode("ascii")) is not None
        assert outcome(parse_coordinate_matrix, text) == outcome(line_reader_only, text)
        lines = text.splitlines(keepends=True)
        # damage one entry line, or one of its fields
        k = 1 + pick % len(entries)
        odd = OFF_LAYOUT_FORMS[form](lines, k, pick // len(entries) % 3, shape).encode("latin-1")
        assert outcome(parse_coordinate_matrix, odd) == outcome(line_reader_only, odd), form


class TestCooccurrence:
    def test_toy_thresholds(self):
        g1 = cooccurrence_graph(COORD_TOY, p=1)
        assert g1.n == 3
        assert g1.edges().tolist() == [[0, 1]]
        g2 = cooccurrence_graph(COORD_TOY, p=2)
        assert g2.edges().tolist() == [[0, 1]]
        g3 = cooccurrence_graph(COORD_TOY, p=3)
        assert g3.edge_count == 0

    def test_counts_binarize(self):
        # doc 0 mentions term 0 five times, doc 1 once: still one shared term
        text = "2 1 2\n1 1 5\n2 1 1\n"
        assert cooccurrence_graph(text, p=1).edge_count == 1
        assert cooccurrence_graph(text, p=2).edge_count == 0

    def test_explicit_zeros_are_no_word(self):
        assert cooccurrence_graph("2 2 2\n1 1 0\n2 1 1\n", p=1).edge_count == 0
        # a repeated (row, col) counts once its values sum above zero
        assert cooccurrence_graph("2 1 3\n1 1 0\n1 1 2\n2 1 1\n", p=1).edge_count == 1

    def test_threshold_validation(self):
        with pytest.raises(ValueError, match=">= 1"):
            cooccurrence_graph(COORD_TOY, p=0)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_the_dense_reference(self, seed):
        shape, entries = doc_term_entries(40, 30, 300, seed)
        # documents 37-40 hold no terms
        entries = [e for e in entries if e[0] <= 36]
        assert any(count == 0 for _, _, count in entries)
        assert len({(doc, term) for doc, term, _ in entries}) < len(entries)
        text = count_file(shape, entries)
        # no two documents share more than the 30 terms
        for p in (1, 2, 3, 4, 31):
            g = cooccurrence_graph(text, p)
            indptr, indices, edge_count = cooccurrence_reference(shape, entries, p)
            assert g.edge_count == edge_count
            assert np.array_equal(g.indptr, indptr)
            assert np.array_equal(g.indices, indices)
            for a in (g.indptr, g.indices):
                assert a.dtype == np.int64
                assert not a.flags.writeable
        assert g.edge_count == 0


def complete_minus_matching(k: int):
    """K_2k without the edges {2i, 2i + 1}: its maximal cliques take one
    vertex of each pair."""
    return graph_from_edge_list(2 * k, [(i, j) for i, j in combinations(range(2 * k), 2) if j != i + 1 or i % 2])


class TestCliquePredicates:
    def test_frozen_cases(self, star5, k3):
        assert is_clique(star5, [0, 1])
        assert is_maximal_clique(star5, [0, 1])
        assert not is_clique(star5, [1, 2])
        assert is_clique(star5, [0])
        assert not is_maximal_clique(star5, [0])
        assert is_clique(star5, [])
        assert not is_maximal_clique(star5, [])
        assert not is_maximal_clique(k3, [0, 1])
        assert is_maximal_clique(k3, [0, 1, 2])

    def test_empty_set_on_empty_graph(self):
        g = graph_from_edge_list(0, [])
        assert is_maximal_clique(g, [])

    def test_singleton_maximal_only_when_isolated(self):
        g = graph_from_edge_list(3, [(0, 1)])
        assert is_maximal_clique(g, [2])
        assert not is_maximal_clique(g, [0])

    def test_out_of_range_vertex(self, k3):
        with pytest.raises(ValueError, match="out of range"):
            is_clique(k3, [0, 5])

    def test_against_subset_oracle(self):
        # random subsets, which are rarely cliques, plus every maximal
        # clique and each of them with one member dropped, so that both
        # answers of both predicates meet the dense reference
        rng = np.random.default_rng(3)
        for g in small_random_graphs(25, seed0=200):
            a = dense_adjacency(g)
            subsets = []
            for _ in range(10):
                k = int(rng.integers(0, g.n + 1))
                subsets.append(tuple(sorted(rng.choice(g.n, size=k, replace=False).tolist())))
            for c in exhaustive_maximal_cliques(a):
                subsets.append(c)
                subsets.extend(c[:i] + c[i + 1:] for i in range(len(c)))
            for vs in subsets:
                clique = subset_is_clique(a, vs)
                outside = [v for v in range(g.n) if v not in vs]
                maximal = clique and not any(a[v, list(vs)].all() for v in outside)
                assert is_clique(g, vs) == clique
                assert is_maximal_clique(g, vs) == maximal

    @pytest.mark.parametrize(
        "g",
        [graph_from_edge_list(n, list(combinations(range(n), 2))) for n in range(7)]
        + [complete_minus_matching(k) for k in range(1, 5)]
        + [graph_from_edge_list(1, []), graph_from_edge_list(2, [])],
        ids=[f"K{n}" for n in range(7)] + [f"K{2 * k}-matching" for k in range(1, 5)] + ["n1-empty", "n2-empty"],
    )
    def test_dense_graphs_against_subset_oracle(self, g):
        # every subset of K_n, of K_2k minus a perfect matching and of the
        # graphs on at most two vertices; the dense ones run on Ā
        a = dense_adjacency(g)
        maximal_cliques = set(exhaustive_maximal_cliques(a)) if g.n else {()}
        for k in range(g.n + 1):
            for vs in combinations(range(g.n), k):
                clique = subset_is_clique(a, vs)
                assert is_clique(g, vs) == clique
                assert is_maximal_clique(g, vs) == (vs in maximal_cliques)
                if not clique:
                    with pytest.raises(ValueError, match="not a clique"):
                        extend_to_maximal(g, CliqueSet(vs))
                    continue
                members = list(vs)
                for v in range(g.n):
                    if v not in members and a[v, members].all():
                        members.append(v)
                assert extend_to_maximal(g, CliqueSet(vs)).vertices == tuple(sorted(members))

    def test_matching_complement_cliques_take_one_vertex_per_pair(self):
        k = 4
        g = complete_minus_matching(k)
        assert stored_form(g) == "csr_of_complement" and g.n * (g.n - 1) - len(g.indices) == 2 * k
        assert_bound_form(g, "csr_of_complement")
        transversals = {tuple(2 * i + b for i, b in enumerate(bits)) for bits in np.ndindex(*(2,) * k)}
        assert {vs for vs in combinations(range(2 * k), k) if is_maximal_clique(g, vs)} == transversals
        assert extend_to_maximal(g, CliqueSet(())).vertices == (0, 2, 4, 6)

    def test_duplicates_in_input_are_collapsed(self, k3):
        assert is_clique(k3, [0, 0, 1])
        assert is_maximal_clique(k3, [0, 1, 1, 2])

    def test_index_arrays_answer_as_tuples(self):
        # solve passes np.flatnonzero's int64 array; it must be read as
        # the tuple of the same vertices, unsorted and repeated ones too
        rng = np.random.default_rng(8)
        for g in [*small_random_graphs(12, seed0=500), random_graph(120, 0.85, 7), random_graph(120, 0.5, 7)]:
            cliques = [res.clique.vertices for res in (solve(g, SolverConfig(seed=s)) for s in range(2))]
            subsets = cliques + [c[:-1] for c in cliques] + [()]
            subsets += [tuple(rng.choice(g.n, size=k).tolist()) for k in (1, 3, g.n // 2)]
            for vs in subsets:
                arr = np.array(vs, dtype=np.int64)
                kept = arr.copy()
                want = graph_module._clique_check(g, vs)
                got = graph_module._clique_check(g, arr)
                assert got[0] == want[0] and np.array_equal(got[1], want[1])
                assert is_maximal_clique(g, arr) == is_maximal_clique(g, vs)
                assert is_clique(g, arr[::-1]) == is_clique(g, vs)
                assert np.array_equal(arr, kept)  # the caller's array is left as it was

    @pytest.mark.parametrize(
        "vs, bad",
        [((0, 5), 5), ((-1, 0), -1), ((2, 1, 3), 3), ((5, 5), 5), ((4, -2, 1), -2)],
        ids=["above", "below", "unsorted", "repeated", "both"],
    )
    def test_out_of_range_index_arrays_are_refused_as_tuples(self, k3, vs, bad):
        for s in (vs, np.array(vs, dtype=np.int64)):
            with pytest.raises(ValueError, match=f"vertex {bad} out of range for graph with 3 vertices"):
                is_maximal_clique(k3, s)

    def test_unsorted_and_repeated_index_arrays_are_collapsed(self, k3):
        assert is_clique(k3, np.array([1, 0, 0], dtype=np.int64))
        assert is_maximal_clique(k3, np.array([2, 1, 1, 0], dtype=np.int64))
        assert not is_maximal_clique(k3, np.array([1, 1, 0], dtype=np.int64))


class TestCliqueSet:
    def test_of_sorted_equals_the_checked_constructor(self):
        vertices = np.flatnonzero(np.random.default_rng(1).random(300) > 0.4)
        c = CliqueSet._of_sorted(vertices)
        assert c == CliqueSet(tuple(vertices.tolist()))
        assert all(type(v) is int for v in c.vertices)

    def test_sorts_and_dedups(self):
        c = CliqueSet((3, 1, 3, 2))
        assert c.vertices == (1, 2, 3)
        assert c.size == 3

    def test_indicator_round_trip(self):
        c = CliqueSet((0, 2))
        u = c.indicator(4)
        assert u.tolist() == [1.0, 0.0, 1.0, 0.0]
        assert tuple(np.flatnonzero(u).tolist()) == c.vertices
