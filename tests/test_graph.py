from __future__ import annotations

import re
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import rankclique.graph as graph_module
from rankclique import (
    CliqueSet,
    CoordinateFormatError,
    DimacsFormatError,
    DimacsWarning,
    EdgeRangeError,
    cooccurrence_graph,
    extend_to_maximal,
    graph_from_edge_list,
    is_clique,
    is_maximal_clique,
    parse_coordinate_matrix,
    parse_dimacs,
    random_graph,
    serialize_dimacs,
)
from conftest import small_random_graphs
from oracles import (
    dense_adjacency,
    dimacs_text_reference,
    exhaustive_maximal_cliques,
    graph_arrays_reference,
    subset_is_clique,
)
from rankclique.graph import MAX_VERTICES

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
        for n in (1, 2, 5, 17, 60):
            for m in (0, 1, 3, 40, 400):
                pairs = rng.integers(0, n, size=(m, 2))
                # repeat some pairs swapped, and add self-loops
                pairs = np.concatenate([pairs, pairs[: m // 3, ::-1], np.repeat(pairs[: m // 5, :1], 2, axis=1)])
                g = graph_from_edge_list(n, pairs)
                indptr, indices, edge_count = graph_arrays_reference(n, pairs)
                assert g.edge_count == edge_count
                assert g.indptr.dtype == g.indices.dtype == np.int64
                assert np.array_equal(g.indptr, indptr)
                assert np.array_equal(g.indices, indices)

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

    def test_edges_are_lexicographic(self):
        g = graph_from_edge_list(4, [(3, 2), (1, 0), (2, 0)])
        assert g.edges().tolist() == [[0, 1], [0, 2], [2, 3]]

    def test_degree_and_has_edge(self, path3):
        assert [path3.degree(v) for v in range(3)] == [1, 2, 1]
        assert path3.has_edge(0, 1)
        assert path3.has_edge(1, 0)
        assert not path3.has_edge(0, 2)
        assert not path3.has_edge(1, 1)

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
    """adj_matvec runs on A or on the non-edge adjacency Ā, whichever
    stores fewer entries; both must give A u."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(0, 25), density=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
    @example(n=0, density=0.5, seed=0)  # no vertices
    @example(n=9, density=0.0, seed=0)  # no edges
    @example(n=9, density=1.0, seed=0)  # complete: Ā is empty
    @example(n=12, density=0.5, seed=0)  # 33 edges, 4m = n(n-1): the tie keeps A
    @example(n=13, density=0.5, seed=1)  # 39 edges, 4m = n(n-1)
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
        assert g._complement_side() == (4 * m > n * (n - 1))
        assert g._operator.nnz == min(2 * m, n * (n - 1) - 2 * m)


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
        # the declared-count check runs on the vectorised pass too
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

    def test_threshold_validation(self):
        with pytest.raises(ValueError, match=">= 1"):
            cooccurrence_graph(COORD_TOY, p=0)


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
        assert g._complement_side() and g._operator.nnz == 2 * k
        transversals = {tuple(2 * i + b for i, b in enumerate(bits)) for bits in np.ndindex(*(2,) * k)}
        assert {vs for vs in combinations(range(2 * k), k) if is_maximal_clique(g, vs)} == transversals
        assert extend_to_maximal(g, CliqueSet(())).vertices == (0, 2, 4, 6)

    def test_duplicates_in_input_are_collapsed(self, k3):
        assert is_clique(k3, [0, 0, 1])
        assert is_maximal_clique(k3, [0, 1, 1, 2])


class TestCliqueSet:
    def test_sorts_and_dedups(self):
        c = CliqueSet((3, 1, 3, 2))
        assert c.vertices == (1, 2, 3)
        assert c.size == 3

    def test_indicator_round_trip(self):
        c = CliqueSet((0, 2))
        u = c.indicator(4)
        assert u.tolist() == [1.0, 0.0, 1.0, 0.0]
        assert CliqueSet.from_indicator(u) == c

    def test_from_indicator_thresholds_at_zero(self):
        assert CliqueSet.from_indicator(np.array([0.0, 0.3, 1.0])).vertices == (1, 2)
