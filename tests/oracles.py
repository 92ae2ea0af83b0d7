"""Independent reference computations for the test suite.

Everything here goes through dense numpy matrices or exhaustive
enumeration, on purpose: these are the second route that the library's
sparse/implicit implementations are checked against.  The exceptions
are the plain-formula solver step and baseline updates at the end,
which pin the library's in-place versions bit for bit and so share its
adjacency pass and line search.
"""

from __future__ import annotations

import math
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


def kkt_points(a: np.ndarray, d: float) -> list[tuple[tuple[int, ...], np.ndarray, float, float]]:
    """The nonzero KKT points of min ||M_d - u u^T||_F^2 over u >= 0,
    taken support by support, as (S, u, slack, curvature).

    u is stationary on the face of support S exactly when u_S = sqrt(lam)
    v / ||v|| for an eigenpair (lam, v) of M_d[S, S] with lam > 0 and
    v > 0; it is a KKT point when also (M_d u)_j <= 0 for every j off S.
    slack is the largest (M_d u)_j off S (-inf when S is every vertex),
    and curvature the least eigenvalue of the face Hessian
    2 (||u||^2 I + 2 u u^T - M_d)[S, S].  A repeated positive eigenvalue
    whose eigenspace is not orthogonal to the ones vector raises
    ValueError: its eigenspace may hold a continuum of positive
    eigenvectors, of which eigh returns an arbitrary basis.
    """
    n = len(a)
    md = dense_md(a, d)
    points = []
    for k in range(1, n + 1):
        supports = np.array(list(combinations(range(n), k)), dtype=np.int64)
        lams, vecs = np.linalg.eigh(md[supports[:, :, None], supports[:, None, :]])
        for S, lam, vec in zip(supports, lams, vecs):
            tol = 1e-9 * max(1.0, float(np.abs(lam).max()))
            for i in np.flatnonzero(lam > tol):
                same = np.abs(lam - lam[i]) <= tol
                if np.count_nonzero(same) > 1 and np.abs(vec[:, same].sum(axis=0)).max() > 1e-9:
                    raise ValueError(f"repeated eigenvalue {lam[i]} on support {tuple(S.tolist())}")
                v = vec[:, i] * np.sign(vec[:, i].sum())
                if v.min() <= 1e-9:
                    continue
                u = np.zeros(n)
                u[S] = math.sqrt(lam[i]) * v
                mdu = md @ u
                off = np.ones(n, dtype=bool)
                off[S] = False
                slack = float(mdu[off].max()) if off.any() else -math.inf
                if slack > 1e-9:
                    continue
                us = u[S]
                hess = 2.0 * ((us @ us) * np.eye(k) + 2.0 * np.outer(us, us) - md[np.ix_(S, S)])
                points.append((tuple(S.tolist()), u, slack, float(np.linalg.eigvalsh(hess)[0])))
    return points


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


def hamming_graph(bits: int, d: int):
    """The DIMACS instance hamming{bits}-{d}: the bits-bit words, vertex v
    being word v, adjacent at Hamming distance >= d."""
    return _distance_graph(np.arange(2**bits, dtype=np.int64), d)


def johnson_graph(n: int, w: int, d: int):
    """The DIMACS instance johnson{n}-{w}-{d}: the n-bit words of weight
    w in ascending order, adjacent at Hamming distance >= d."""
    words = sorted(sum(1 << i for i in c) for c in combinations(range(n), w))
    return _distance_graph(np.array(words, dtype=np.int64), d)


def _distance_graph(words: np.ndarray, d: int):
    from rankclique import graph_from_edge_list

    far = np.bitwise_count(words[:, None] ^ words[None, :]) >= d
    return graph_from_edge_list(len(words), np.column_stack(np.nonzero(np.triu(far, 1))))


def random_graph_reference(n: int, density: float, seed: int) -> tuple[np.ndarray, np.ndarray, int]:
    """(indptr, indices, edge_count) of random_graph(n, density, seed),
    drawing one uniform per pair of np.triu_indices(n, 1), in that order,
    and building through graph_arrays_reference."""
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(n, k=1)
    keep = rng.random(len(iu)) < density
    return graph_arrays_reference(n, np.column_stack([iu[keep], ju[keep]]))


def cooccurrence_reference(shape: tuple[int, int], entries, p: int) -> tuple[np.ndarray, np.ndarray, int]:
    """(indptr, indices, edge_count) of the co-occurrence graph of the
    1-based (doc, term, count) entries at threshold p: a dense count
    matrix with repeated cells summed, binarized, multiplied by its
    transpose, and compared with p off the diagonal."""
    x = np.zeros(shape)
    for doc, term, count in entries:
        x[doc - 1, term - 1] += count
    present = (x != 0).astype(np.int64)
    joined = present @ present.T >= p
    np.fill_diagonal(joined, False)
    return graph_arrays_reference(shape[0], np.column_stack(np.nonzero(np.triu(joined))))


def dimacs_text_reference(g) -> str:
    """DIMACS rendering with one formatted line per edge."""
    lines = [f"p edge {g.n} {g.edge_count}"]
    for u, v in g.edges():
        lines.append(f"e {u + 1} {v + 1}")
    return "\n".join(lines) + "\n"


def quartic_min_reference(q, grid: int = 20001) -> float:
    """Minimum over t in [0, 1] of q1 t + q2 t^2 + q3 t^3 + q4 t^4, from a
    dense t-grid plus the real critical points that np.roots finds."""
    q1, q2, q3, q4 = q
    roots = np.roots([4.0 * q4, 3.0 * q3, 2.0 * q2, q1])
    crit = roots[np.abs(roots.imag) <= 1e-9 * np.maximum(1.0, np.abs(roots))].real
    ts = np.concatenate([np.linspace(0.0, 1.0, grid), crit[(crit >= 0.0) & (crit <= 1.0)]])
    return float(np.min(ts * (q1 + ts * (q2 + ts * (q3 + ts * q4)))))


def chord_quartic_dense(md: np.ndarray, u: np.ndarray, p: np.ndarray) -> tuple[float, ...]:
    """Coefficients of f(u + t p) - f(u) for f(v) = -v^T M v + 0.5 ||v||^4,
    with M p formed densely."""
    uu, up, pp = float(u @ u), float(u @ p), float(p @ p)
    mp = md @ p
    return (
        2.0 * (uu * up - float(u @ mp)),
        2.0 * up * up + pp * uu - float(p @ mp),
        2.0 * up * pp,
        0.5 * pp * pp,
    )


def chord_minimizer_by_pairs(q1: float, q2: float, q3: float, q4: float) -> float:
    """solver._chord_minimizer written as the min of (value, t) pairs over
    a list of candidates, with (0, 0) first: the same candidates from the
    same root finder, so ties go to the smaller t and t = 0 wins unless
    some t lowers the quartic."""
    from rankclique.solver import _cubic_roots, _quartic

    ts = [1.0]
    if q2 > 0.0:
        ts.append(-q1 / (2.0 * q2))
    if q4 > 0.0:
        ts += _cubic_roots(0.75 * q3 / q4, 0.5 * q2 / q4, 0.25 * q1 / q4)
    return min([(0.0, 0.0)] + [(_quartic(t, q1, q2, q3, q4), t) for t in ts if 0.0 < t <= 1.0])[1]


def plain_chord_step(g, u, au, d, alpha):
    """One solver iteration as plain array formulas, each building a new
    array: (u, A u, d, alpha, f_new) after the step.  It makes the same
    pass (g.adj_matvec) and line search (solver._chord_minimizer) as the
    library's step, so the two must agree bit for bit."""
    from rankclique.solver import BETA, GAMMA, _chord_minimizer, _quartic, d_max

    mdu = (1.0 + d) * (au + u) - d * float(u.sum())
    nrm2 = float(u @ u)
    f_old = 0.5 * nrm2 * nrm2 - float(u @ mdu)
    grad = 2.0 * (nrm2 * u - mdu)
    cand = np.maximum(u - alpha * grad, 0.0)
    p = cand - u
    ap = g.adj_matvec(p)
    uu, up, pp, sp = float(u @ u), float(u @ p), float(p @ p), float(p.sum())
    u_md_p = (1.0 + d) * (float(u @ ap) + up) - d * float(u.sum()) * sp
    p_md_p = (1.0 + d) * (float(p @ ap) + pp) - d * sp * sp
    q = (2.0 * (uu * up - u_md_p), 2.0 * up * up + pp * uu - p_md_p, 2.0 * up * pp, 0.5 * pp * pp)
    t = _chord_minimizer(*q)
    if t == 1.0:
        u_new, alpha_new = cand, alpha / math.sqrt(BETA)
    else:
        u_new = np.maximum(u + t * p, 0.0)
        alpha_new = alpha * (max(t, BETA) if pp > 0.0 else 1.0)
    return u_new, au + t * ap, min(GAMMA * d, d_max(g)), alpha_new, f_old + _quartic(t, *q)


def plain_guard_fails(u, au, d) -> bool:
    """The step's divergence guard as it was written before the step
    stopped forming the gradient: true when f(u) or any entry of the
    gradient 2 ((u.u) u - M_d u) is not finite, by the formulas of
    plain_chord_step."""
    mdu = (1.0 + d) * (au + u) - d * float(u.sum())
    nrm2 = float(u @ u)
    f_old = 0.5 * nrm2 * nrm2 - float(u @ mdu)
    grad = 2.0 * (nrm2 * u - mdu)
    return not (math.isfinite(f_old) and bool(np.isfinite(grad).all()))


def plain_replicator_step(g, u, eta: float = 1.0):
    """The replicator update u_i (A u)_i / (u^T A u), renormalized, then
    raised to 1/eta unless eta = 1, as plain array formulas."""
    au = g.adj_matvec(u)
    m = u * au / float(u @ au)
    m = m / m.sum()
    return m if eta == 1.0 else m ** (1.0 / eta)


def plain_baseline_loop(g, kind: str, eta: float, tol: float, max_iterations: int):
    """run_baseline's loop over plain_replicator_step:
    (weights, iterations, converged), where a run whose first step meets
    the stop test has not converged."""
    if kind == "pelillo":
        u, eta = np.full(g.n, 1.0 / g.n), 1.0
    else:
        u = np.full(g.n, g.n ** (-1.0 / eta))
    for it in range(1, max_iterations + 1):
        u_next = plain_replicator_step(g, u, eta)
        delta = u_next - u
        u = u_next
        if float(delta @ delta) < tol:
            return u, it, it > 1
    return u, max_iterations, False
