"""Compare the solver against the two multiplicative-update baselines.

The replicator and annealed iterations optimize the quadratic clique
relaxation on a simplex; their weights need a greedy postprocess to
become a clique, and that postprocess can stop short of maximality.
"""

import numpy as np

from rankclique import (
    extend_to_maximal,
    is_maximal_clique,
    maximum_clique_exact,
    postprocess_greedy,
    random_graph,
    run_baseline,
    solve,
    SolverConfig,
)

g = random_graph(40, 0.6, seed=9)
omega = maximum_clique_exact(g).size
print(f"n={g.n} edges={g.edge_count} clique number={omega}\n")

for kind in ("pelillo", "ding"):
    u, iterations, converged = run_baseline(g, kind)
    clique = postprocess_greedy(g, u)
    maximal = is_maximal_clique(g, clique.vertices)
    print(f"{kind:8}: {iterations:5} iterations, converged={converged}, "
          f"greedy clique {clique.vertices} (size {clique.size}, maximal={maximal})")
    if not maximal:
        extended = extend_to_maximal(g, clique)
        print(f"{'':8}  extended to {extended.vertices} (size {extended.size})")
    # top weights carry the clique
    top = np.argsort(-u)[: clique.size + 2]
    print(f"{'':8}  top weights: "
          + ", ".join(f"{v}:{u[v]:.4f}" for v in top))

res = solve(g, SolverConfig(seed=0))
print(f"\nr1nm    : {res.iterations:5} iterations, converged={res.converged}, "
      f"clique {res.clique.vertices} (size {res.clique.size}, "
      f"maximal={res.clique_maximal})")
