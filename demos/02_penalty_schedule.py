"""Watch the penalty continuation drive an iterate to a clique indicator.

The solver grows the non-edge penalty d geometrically each outer
iteration.  Recording the iterates shows the three phases: weights
spread out at small d, support collapse as d grows, and a binary
endgame once d reaches its cap.
"""

import numpy as np

from rankclique import SolverConfig, random_graph, solve, stationarity_residual

g = random_graph(24, 0.5, seed=5)
result = solve(g, SolverConfig(seed=1), record_iterates=True)

print(f"n={g.n} edges={g.edge_count}; converged={result.converged} "
      f"in {result.iterations} iterations\n")
print(f"{'iter':>4} {'d':>9} {'support':>7} {'objective':>10} "
      f"{'residual':>9} {'alpha':>9}")
for k, rec in enumerate(result.iterates, start=1):
    if k % 4 and k != result.iterations:
        continue
    support = int((rec.u > 0).sum())
    resid = (stationarity_residual(g, rec.d, rec.u)
             if float(rec.u @ rec.u) > 0 else float("inf"))
    print(f"{k:>4} {rec.d:>9.2f} {support:>7} {rec.f_new:>10.3f} "
          f"{resid:>9.2e} {rec.alpha_used:>9.2e}")

print("\nclique:", result.clique.vertices)
print("weights of clique vertices:",
      np.round(result.u_final[list(result.clique.vertices)], 6))
