from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

sys.path.insert(0, str(Path(__file__).parent))

import rankclique.graph as graph_module
from rankclique import Graph, graph_from_edge_list, random_graph
from oracles import dense_adjacency


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


def stored_form(g: Graph) -> str:
    """The stored form, named as in stored_form_graphs, that adj_matvec's
    entry-count rule picks for g: the dense matrix once the sparser of A
    and Ā holds at least 9/20 of the n² entries, else the CSR of
    whichever of them has fewer entries (a tie keeps A)."""
    n, stored = g.n, 2 * g.edge_count
    non_edges = n * (n - 1) - stored
    if 20 * min(stored, non_edges) >= 9 * n * n:
        return "dense"
    return "csr_of_complement" if non_edges < stored else "csr_of_a"


# the kernel at the head of each stored form's bound pass
FORM_KERNELS = {
    "csr_of_a": graph_module._csr_pass,
    "csr_of_complement": graph_module._complement_pass,
    "dense": graph_module._dense_pass,
}


def reference_pass(a: np.ndarray, form: str, u: np.ndarray) -> np.ndarray:
    """A u as the pass over `form` sums it, built from the dense 0/1
    matrix a alone: the row blocks of _dense_pass over a, or scipy's CSR
    product over A, or over Ā = 1 - I - A and then (sum(u) - u) - Ā u."""
    if form == "dense":
        return graph_module._dense_pass(a, u)
    if form == "csr_of_a":
        return sp.csr_matrix(a) @ u
    au = sp.csr_matrix(1.0 - np.eye(len(a)) - a) @ u
    return np.subtract(float(u.sum()) - u, au, out=au)


def assert_bound_form(g: Graph, form: str, vectors=()) -> np.ndarray:
    """g's bound pass runs over `form`: its kernel, read off g._pass, is
    that form's; its passes over the unit vectors give the oracle's dense
    matrix, which is returned; and each of vectors, a random vector and a
    0/1 one, gives the bytes of reference_pass (on n = 0, where
    adj_matvec makes no pass, the form is all there is to check)."""
    assert g._pass.func is FORM_KERNELS[form]
    a = dense_adjacency(g)
    columns = np.array([g.adj_matvec(e) for e in np.eye(g.n)]).reshape(g.n, g.n)
    assert np.array_equal(columns, a)
    if g.n:
        rng = np.random.default_rng(g.n)
        for u in [*vectors, rng.random(g.n), (rng.random(g.n) < 0.5).astype(np.float64)]:
            assert g.adj_matvec(u).tobytes() == reference_pass(a, form, u).tobytes()
    return a
