"""Independent reference computations for the test suite.

Everything here goes through dense numpy matrices or exhaustive
enumeration, on purpose: these are the second route that the library's
sparse/implicit implementations are checked against.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np


def dense_adjacency(g) -> np.ndarray:
    a = np.zeros((g.n, g.n))
    for v in range(g.n):
        a[v, g.neighbors(v)] = 1.0
    return a


def dense_md(a: np.ndarray, d: float) -> np.ndarray:
    b = a + np.eye(len(a))
    return np.where(b > 0, 1.0, -d)


def full_objective_dense(a: np.ndarray, d: float, u: np.ndarray) -> float:
    md = dense_md(a, d)
    return float(np.linalg.norm(md - np.outer(u, u), "fro") ** 2)


def central_diff_gradient(f, u: np.ndarray, h: float = 1e-6) -> np.ndarray:
    fd = np.zeros(len(u))
    for i in range(len(u)):
        up, um = u.copy(), u.copy()
        up[i] += h
        um[i] -= h
        fd[i] = (f(up) - f(um)) / (2.0 * h)
    return fd


def subset_is_clique(a: np.ndarray, vs: tuple[int, ...]) -> bool:
    return all(a[i, j] == 1.0 for i, j in combinations(vs, 2))


def exhaustive_maximal_cliques(a: np.ndarray) -> list[tuple[int, ...]]:
    """All maximal cliques by checking every vertex subset; fine for n <= 16."""
    n = len(a)
    cliques = [
        vs
        for k in range(1, n + 1)
        for vs in combinations(range(n), k)
        if subset_is_clique(a, vs)
    ]
    as_sets = [set(c) for c in cliques]
    maximal = [
        c
        for c, cs in zip(cliques, as_sets)
        if not any(cs < other for other in as_sets)
    ]
    return sorted(maximal)


def exhaustive_max_clique(a: np.ndarray) -> tuple[int, ...]:
    best: tuple[int, ...] = ()
    for c in exhaustive_maximal_cliques(a):
        if len(c) > len(best):
            best = c
    return best


def graph_arrays_reference(n: int, pairs) -> tuple[np.ndarray, np.ndarray, int]:
    """(indptr, indices, edge_count) of the simple graph on dirty 0-based
    pairs: np.unique over canonical (lo, hi) keys, then a two-key lexsort
    of both orientations."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    lo, hi = pairs.min(axis=1), pairs.max(axis=1)
    key = np.unique(lo[lo != hi] * n + hi[lo != hi])
    lo, hi = key // n, key % n
    src, dst = np.concatenate([lo, hi]), np.concatenate([hi, lo])
    order = np.lexsort((dst, src))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return indptr, dst[order], len(key)


def dimacs_text_reference(g) -> str:
    """DIMACS rendering with one formatted line per edge."""
    lines = [f"p edge {g.n} {g.edge_count}"]
    for u, v in g.edges():
        lines.append(f"e {u + 1} {v + 1}")
    return "\n".join(lines) + "\n"
