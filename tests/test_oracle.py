from __future__ import annotations

import pytest

from rankclique import (
    CliqueSet,
    OracleLimitError,
    enumerate_maximal_cliques,
    graph_from_edge_list,
    maximum_clique_exact,
)
from rankclique import oracle
from conftest import small_random_graphs
from oracles import dense_adjacency, exhaustive_maximal_cliques, hamming_graph, johnson_graph

# Petersen graph: triangle-free and 3-regular, so its maximal cliques
# are exactly its 15 edges.
PETERSEN_EDGES = [
    (0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
    (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
    (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
]


class TestEnumeration:
    def test_star_frozen(self, star5):
        cliques = enumerate_maximal_cliques(star5)
        assert [c.vertices for c in cliques] == [(0, 1), (0, 2), (0, 3), (0, 4)]

    def test_triangle_frozen(self, k3):
        assert [c.vertices for c in enumerate_maximal_cliques(k3)] == [(0, 1, 2)]

    def test_edgeless_gives_singletons(self, empty4):
        cliques = enumerate_maximal_cliques(empty4)
        assert [c.vertices for c in cliques] == [(0,), (1,), (2,), (3,)]

    def test_empty_graph(self):
        assert enumerate_maximal_cliques(graph_from_edge_list(0, [])) == []

    def test_petersen(self):
        g = graph_from_edge_list(10, PETERSEN_EDGES)
        cliques = enumerate_maximal_cliques(g)
        assert len(cliques) == 15
        assert all(c.size == 2 for c in cliques)
        expected = sorted(tuple(sorted(e)) for e in PETERSEN_EDGES)
        assert sorted(c.vertices for c in cliques) == expected

    def test_output_is_lexicographic(self):
        for g in small_random_graphs(10, seed0=40):
            out = [c.vertices for c in enumerate_maximal_cliques(g)]
            assert out == sorted(out)

    def test_against_subset_enumeration(self):
        # independent route: check every vertex subset directly
        for g in small_random_graphs(60, seed0=500, n_lo=4, n_hi=10):
            got = [c.vertices for c in enumerate_maximal_cliques(g)]
            assert got == exhaustive_maximal_cliques(dense_adjacency(g))


class TestMaximumClique:
    def test_k3(self, k3):
        assert maximum_clique_exact(k3).vertices == (0, 1, 2)

    def test_tie_breaks_lexicographically(self):
        # two disjoint triangles; {0, 1, 2} wins the tie
        g = graph_from_edge_list(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
        assert maximum_clique_exact(g).vertices == (0, 1, 2)

    def test_empty_graph(self):
        assert maximum_clique_exact(graph_from_edge_list(0, [])) == CliqueSet(())

    def test_matches_subset_oracle_size(self):
        for g in small_random_graphs(30, seed0=900, n_lo=4, n_hi=10):
            best = max(len(c) for c in exhaustive_maximal_cliques(dense_adjacency(g)))
            assert maximum_clique_exact(g).size == best


class TestLimits:
    def test_vertex_limit(self, monkeypatch):
        g = graph_from_edge_list(5, [(0, 1)])
        monkeypatch.setattr(oracle, "MAX_ORACLE_VERTICES", 4)
        with pytest.raises(OracleLimitError, match="smaller instance"):
            enumerate_maximal_cliques(g)

    def test_clique_count_limit(self, monkeypatch):
        # complete 3-partite graph with parts {0,1,2} etc has 27 maximal cliques
        edges = [
            (i, j)
            for i in range(9)
            for j in range(i + 1, 9)
            if i // 3 != j // 3
        ]
        g = graph_from_edge_list(9, edges)
        assert len(enumerate_maximal_cliques(g)) == 27
        monkeypatch.setattr(oracle, "MAX_REPORTED_CLIQUES", 10)
        with pytest.raises(OracleLimitError, match="smaller instance"):
            enumerate_maximal_cliques(g)



class TestGeneratedFamilies:
    """The hamming and johnson DIMACS instances, generated from their
    definitions, have the vertex and edge counts of the published files'
    headers."""

    @pytest.mark.parametrize(
        "family, args, n, m",
        [
            pytest.param(hamming_graph, (6, 2), 64, 1824, id="hamming6-2"),
            pytest.param(hamming_graph, (6, 4), 64, 704, id="hamming6-4"),
            pytest.param(hamming_graph, (8, 2), 256, 31616, id="hamming8-2"),
            pytest.param(hamming_graph, (8, 4), 256, 20864, id="hamming8-4"),
            pytest.param(hamming_graph, (10, 2), 1024, 518656, id="hamming10-2"),
            pytest.param(hamming_graph, (10, 4), 1024, 434176, id="hamming10-4"),
            pytest.param(johnson_graph, (8, 2, 4), 28, 210, id="johnson8-2-4"),
            pytest.param(johnson_graph, (8, 4, 4), 70, 1855, id="johnson8-4-4"),
            pytest.param(johnson_graph, (16, 2, 4), 120, 5460, id="johnson16-2-4"),
            pytest.param(johnson_graph, (32, 2, 4), 496, 107880, id="johnson32-2-4"),
        ],
    )
    def test_counts_match_the_dimacs_headers(self, family, args, n, m):
        g = family(*args)
        assert (g.n, g.edge_count) == (n, m)
