"""Multiplicative-update baselines on the quadratic clique relaxation.

Two classical iterations for max u^T A u over a simplex:

  * replicator dynamics on the probability simplex,
    u_i <- u_i (A u)_i / (u^T A u); and
  * the annealed power variant on the eta-simplex (sum of u_i^eta = 1),
    u_i <- (u_i (A u)_i / (u^T A u))^(1/eta), eta in [1, 2].

Both only reach (at best) the support of a clique, so reported cliques
come from a greedy postprocess over the final weights.  The greedy scan
deliberately stops at the first non-extending vertex and does not try
to repair or extend further; callers wanting guaranteed maximality must
extend the result themselves.

ETA is the annealed variant's default exponent; TOL and MAX_ITERATIONS
are run_baseline's stop rule.
"""

from __future__ import annotations

import numpy as np

from .graph import CliqueSet, EdgelessGraphError, Graph, _clique_check

ETA = 1.05
TOL = 1e-10
MAX_ITERATIONS = 100_000


class IndependentSupportError(ValueError):
    """u^T A u vanished: the iterate's support is an independent set."""


def _replicator_update(u: np.ndarray, au: np.ndarray, eta: float) -> np.ndarray:
    """The update of u from au = A u, written over au and returned.

    The replicator masses u_i (A u)_i / (u^T A u) sum to 1 identically
    and are renormalized to absorb floating-point drift; with eta != 1
    each is then raised to 1/eta (the annealed update).
    """
    q = float(u.dot(au))
    if q <= 0.0:
        raise IndependentSupportError(
            "u^T A u is not positive: support is an independent set"
        )
    m = np.multiply(u, au, out=au)
    m /= q
    m /= m.sum()
    if eta != 1.0:
        m **= 1.0 / eta
    return m


def _replicator_steps(g: Graph, kind: str, eta: float):
    """The baselines' one loop, as run_baseline states it: from the
    uniform feasible start of kind, yield (u, A u) at every point a step
    leaves, from that step's own pass, then take the step, which writes
    over A u.  Returns run_baseline's (final weights, iterations,
    converged) when the stop rule ends the loop."""
    if kind == "pelillo":
        u, eta = np.full(g.n, 1.0 / g.n), 1.0
    else:
        u = np.full(g.n, g.n ** (-1.0 / eta))  # uniform point of the eta-simplex
    delta = np.empty(g.n)
    for it in range(1, MAX_ITERATIONS + 1):
        au = g.adj_matvec(u)
        yield u, au
        u_next = _replicator_update(u, au, eta)
        np.subtract(u_next, u, out=delta)
        u = u_next
        if float(delta.dot(delta)) < TOL:
            return u, it, it > 1
    return u, MAX_ITERATIONS, False


def run_baseline(g: Graph, kind: str, eta: float = ETA) -> tuple[np.ndarray, int, bool]:
    """Iterate a baseline from the uniform feasible start to its stop rule.

    kind is "pelillo" or "ding"; eta, in [1, 2], is ding's exponent and
    is checked for either kind.  Returns (final weights, iterations,
    converged).  The run stops once the squared step length
    ||u_next - u||_2^2 drops below TOL, or after MAX_ITERATIONS steps;
    converged means the former, on a step after the first.  A run whose
    first step already meets the stop test never left its start, the
    barycenter, which is a fixed point of both updates on every regular
    graph; it stops there unconverged.  _replicator_steps is the loop.
    """
    if not 1.0 <= eta <= 2.0:
        raise ValueError(f"eta must lie in [1, 2], got {eta}")
    if kind not in ("pelillo", "ding"):
        raise ValueError(f"unknown baseline kind {kind!r}")
    if g.edge_count == 0:
        raise EdgelessGraphError("no edges: baseline iteration is undefined")
    steps = _replicator_steps(g, kind, eta)
    try:
        while True:
            next(steps)
    except StopIteration as end:
        return end.value


def postprocess_greedy(g: Graph, u: np.ndarray) -> CliqueSet:
    """Greedy clique from baseline weights.

    Vertices are scanned by nonincreasing weight (ties by ascending
    index) and added while the set stays a clique; the scan stops at the
    first vertex that fails, even if later vertices would fit.
    """
    u = np.asarray(u, dtype=np.float64)
    if u.shape != (g.n,):
        raise ValueError(f"vector has shape {u.shape}, expected ({g.n},)")
    order = np.argsort(-u, kind="stable")
    members: list[int] = []
    in_common = np.ones(g.n, dtype=bool)  # adjacent to every member so far
    for v in order:
        v = int(v)
        if members and not in_common[v]:
            break
        members.append(v)
        mask = np.zeros(g.n, dtype=bool)
        mask[g.neighbors(v)] = True
        in_common &= mask
    return CliqueSet(tuple(members))


def extend_to_maximal(g: Graph, clique: CliqueSet) -> CliqueSet:
    """Greedily extend a clique to a maximal one (lowest index first).

    This goes beyond the plain greedy postprocess; benchmark code labels
    results that used it.
    """
    members = list(clique.vertices)
    valid, common = _clique_check(g, members)
    if not valid:
        raise ValueError(f"{clique.vertices} is not a clique")
    while common.any():
        v = int(np.nonzero(common)[0][0])
        members.append(v)
        mask = np.zeros(g.n, dtype=bool)
        mask[g.neighbors(v)] = True
        common &= mask
        common[v] = False
    return CliqueSet(tuple(sorted(members)))
