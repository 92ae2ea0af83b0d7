from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from rankclique import Graph, graph_from_edge_list, random_graph


@pytest.fixture
def k2() -> Graph:
    return graph_from_edge_list(2, [(0, 1)])


@pytest.fixture
def k3() -> Graph:
    return graph_from_edge_list(3, [(0, 1), (0, 2), (1, 2)])


@pytest.fixture
def path3() -> Graph:
    return graph_from_edge_list(3, [(0, 1), (1, 2)])


@pytest.fixture
def star5() -> Graph:
    """Hub vertex 0 joined to four leaves."""
    return graph_from_edge_list(5, [(0, 1), (0, 2), (0, 3), (0, 4)])


@pytest.fixture
def empty4() -> Graph:
    return graph_from_edge_list(4, [])


def small_random_graphs(count: int, *, seed0: int = 0, n_lo: int = 4, n_hi: int = 12):
    """Deterministic stream of small test graphs cycling over densities."""
    densities = (0.2, 0.4, 0.6, 0.8)
    out = []
    i = 0
    while len(out) < count:
        n = n_lo + i % (n_hi - n_lo + 1)
        g = random_graph(n, densities[i % len(densities)], seed=seed0 + i)
        i += 1
        if g.edge_count > 0:
            out.append(g)
    return out


def stored_form_graphs() -> dict[str, Graph]:
    """One 120-vertex graph per stored form of Graph.adj_matvec's
    operator: the CSR of A, the CSR of the non-edges, and the dense
    matrix."""
    return {
        "csr_of_a": random_graph(120, 0.15, 7),
        "csr_of_complement": random_graph(120, 0.85, 7),
        "dense": random_graph(120, 0.5, 7),
    }
