from __future__ import annotations

import numpy as np
import pytest

from rankclique import (
    CliqueSet,
    CoordinateFormatError,
    DimacsFormatError,
    DimacsWarning,
    EdgeRangeError,
    cooccurrence_graph,
    graph_from_edge_list,
    is_clique,
    is_maximal_clique,
    parse_coordinate_matrix,
    parse_dimacs,
    random_graph,
    serialize_dimacs,
)
from conftest import small_random_graphs
from oracles import dense_adjacency, exhaustive_maximal_cliques, subset_is_clique

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
        assert star5.adjacency() == [[1, 2, 3, 4], [0], [0], [0], [0]]

    def test_dirty_input_is_sanitized(self):
        # duplicates, swapped orientation, self-loop
        g = graph_from_edge_list(3, [(1, 0), (0, 1), (2, 2), (0, 1), (1, 2)])
        assert g.edge_count == 2
        assert g.adjacency() == [[1], [0, 2], [1]]

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
        assert g.adjacency() == []

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


class TestDimacs:
    def test_parse_toy(self):
        g = parse_dimacs(K3_DIMACS)
        assert g.n == 3
        assert g.edge_count == 3
        assert g.adjacency() == [[1, 2], [0, 2], [0, 1]]

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
