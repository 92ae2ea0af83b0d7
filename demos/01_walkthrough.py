"""End-to-end tour on a graph small enough to follow by hand.

Builds a 7-vertex graph whose unique maximum clique is {0, 1, 2, 3},
runs the penalized rank-one solver, and unpacks everything the result
object carries.
"""

import numpy as np

from rankclique import (
    SolverConfig,
    d_max,
    default_d0,
    enumerate_maximal_cliques,
    graph_from_edge_list,
    solve,
    stationarity_residual,
)

edges = [
    (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),  # K4 on {0..3}
    (3, 4), (4, 5), (5, 6), (4, 6),                  # a triangle hanging off
]
g = graph_from_edge_list(7, edges)

print(f"graph: n={g.n}, edges={g.edge_count}")
print("maximal cliques:", [c.vertices for c in enumerate_maximal_cliques(g)])
print(f"penalty schedule: d0={default_d0(g):.4f} -> cap {d_max(g):.2f}")

result = solve(g, SolverConfig(seed=0))

print(f"\nconverged={result.converged} after {result.iterations} iterations")
print("final weights:", np.round(result.u_final, 4))
print("rounded clique:", result.clique.vertices,
      f"(valid={result.clique_valid}, maximal={result.clique_maximal})")
residual = stationarity_residual(g, d_max(g), result.u_final)
print(f"stationarity residual at the cap: {residual:.2e}")

print("\nfirst few objective values:", [f"{v:.2f}" for v in result.objective_trace[:6]])
print("last objective:", f"{result.objective_trace[-1]:.4f}",
      "(a k-clique indicator gives -k^2/2 =",
      f"{-0.5 * result.clique.size**2})")
