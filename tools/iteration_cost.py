"""Cost of one solver iteration and one baseline iteration, by graph.

    python3 tools/iteration_cost.py > iteration_cost.json

For each graph (random_graph at n = 400 and p = 0.15, 0.5 and 0.85, the
first 800-document text-cooc graph at threshold 2 as perfbench builds it
for seed 1, and hamming10_2) this runs default-config solves from
several seeds and both baselines from their fixed starts, and prints
the median microseconds per iteration of each with the share of that
time spent inside Graph.adj_matvec, and a solve's fixed cost: the median
microseconds per solve spent outside its steps.  BLAS runs on one
thread, as in perfbench.

A solver iteration is one call of solver.armijo_outer_iteration, which
solve looks up on the module, so each call is timed on its own and the
table gives the median over all iterations of all solves.  The time a
solve spends outside them is its own time less that of its steps: the
start (the random vector, its pass and the penalty cap; alpha0 is set
by the first step, so it is part of that step's time), the
band screen after each step (a scalar test on the sum(u) and u.u that
each step's SolverState carries; those two reductions are made inside
the step), the band test's four vector passes on the iterates that pass
the screen, and the certification of roundings, with their passes.
run_baseline's loop runs inside the call, so a baseline iteration is a run's
time over its iteration count, and the table gives the median over
repeated runs of pelillo and ding.  Graph.adj_matvec is wrapped with a
timer for the shares; the wrapper adds two clock reads per pass to both
sides of the share.

A shared host's speed drifts between rows and between runs, so each
row is bracketed by perfbench's reference work (workloads.Reference),
timed REFERENCE_RUNS times just before the row and just after it.  The
row gives the two medians as reference_ms and each time both raw and
scaled, as perfbench's Recorder scales: multiplied by REFERENCE_S over
the mean of the two reference medians.  Rows from runs on different
commits or at different moments compare by their scaled figures.
Prints one JSON object.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json
import platform
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import scipy

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from rankclique import Graph, baselines, solver  # noqa: E402
from rankclique.graph import graph_from_edge_list, random_graph  # noqa: E402
from workloads import REFERENCE_S, Reference, TextCooc, popcount  # noqa: E402

SOLVER_SEEDS = range(8)
BASELINE_REPEATS = 5
REPEATS = 3  # passes over all solver seeds per graph
REFERENCE_RUNS = 5  # reference timings on each side of a row
TIMES = ("solver_us_per_iteration", "solver_us_per_solve_outside_steps", "baseline_us_per_iteration")


def graphs() -> dict[str, Graph]:
    out = {f"random_n400_p{p:g}": random_graph(400, p, 1) for p in (0.15, 0.5, 0.85)}
    corpus = TextCooc(seed=1)
    docs = corpus.term_sets(0)
    x = scipy.sparse.csr_matrix(
        (np.ones(sum(map(len, docs))), (np.repeat(np.arange(corpus.docs), list(map(len, docs))), np.concatenate(docs))),
        shape=(corpus.docs, corpus.vocab),
    )
    joined = (x @ x.T).toarray() >= 2
    out["text_cooc_docs800_p2"] = graph_from_edge_list(corpus.docs, np.column_stack(np.nonzero(np.triu(joined, 1))))
    words = np.arange(1024)
    joined = popcount(words[:, None] ^ words[None, :], 10) >= 2
    out["hamming10_2"] = graph_from_edge_list(1024, np.column_stack(np.nonzero(np.triu(joined, 1))))
    return out


class Timers:
    """Wraps solver.armijo_outer_iteration and Graph.adj_matvec with
    clocks while active.  step_s holds each step's time; pass_s sums the
    time of all passes, step_pass_s only that of passes inside steps."""

    def __init__(self):
        self.step_s: list[float] = []
        self.pass_s = self.step_pass_s = 0.0
        self._in_step = False

    def __enter__(self):
        step, matvec = solver.armijo_outer_iteration, Graph.adj_matvec

        def timed_step(*args):
            self._in_step = True
            t0 = time.perf_counter()
            out = step(*args)
            self.step_s.append(time.perf_counter() - t0)
            self._in_step = False
            return out

        def timed_matvec(g, u):
            t0 = time.perf_counter()
            out = matvec(g, u)
            dt = time.perf_counter() - t0
            self.pass_s += dt
            if self._in_step:
                self.step_pass_s += dt
            return out

        self._originals = step, matvec
        solver.armijo_outer_iteration, Graph.adj_matvec = timed_step, timed_matvec
        return self

    def __exit__(self, *exc):
        solver.armijo_outer_iteration, Graph.adj_matvec = self._originals


def solver_cost(g: Graph) -> dict:
    # the last repeat is kept; the earlier ones warm caches up
    for _ in range(REPEATS):
        with Timers() as timers:
            iterations, outside_s = 0, []
            for s in SOLVER_SEEDS:
                steps = len(timers.step_s)
                t0 = time.perf_counter()
                iterations += solver.solve(g, solver.SolverConfig(seed=s)).iterations
                outside_s.append(time.perf_counter() - t0 - sum(timers.step_s[steps:]))
    return {
        "solver_iterations": iterations,
        "solver_us_per_iteration": round(statistics.median(timers.step_s) * 1e6, 1),
        "solver_adj_matvec_share": round(timers.step_pass_s / sum(timers.step_s), 3),
        "solver_us_per_solve_outside_steps": round(statistics.median(outside_s) * 1e6, 1),
    }


def baseline_cost(g: Graph) -> dict:
    per_iteration, shares = [], []
    for rep in range(BASELINE_REPEATS):
        for kind in ("pelillo", "ding"):
            with Timers() as timers:
                t0 = time.perf_counter()
                _, iterations, _ = baselines.run_baseline(g, kind)
                total = time.perf_counter() - t0
            per_iteration.append(total / iterations)
            shares.append(timers.pass_s / total)
    return {
        "baseline_us_per_iteration": round(statistics.median(per_iteration) * 1e6, 1),
        "baseline_adj_matvec_share": round(statistics.median(shares), 3),
    }


def reference_ms(reference: Reference) -> float:
    return statistics.median(reference.seconds() for _ in range(REFERENCE_RUNS)) * 1e3


def row(name: str, g: Graph, reference: Reference) -> dict:
    """One graph's row, with its times raw and scaled by the reference
    work timed around it."""
    before = reference_ms(reference)
    out = {"graph": name, "n": g.n, "edges": g.edge_count, **solver_cost(g), **baseline_cost(g)}
    after = reference_ms(reference)
    scale = REFERENCE_S * 1e3 / ((before + after) / 2)
    out["reference_ms"] = [round(before, 3), round(after, 3)]
    out.update({f"{key}_scaled": round(out[key] * scale, 1) for key in TIMES})
    return out


def main() -> None:
    rows = []
    reference = Reference()
    for name, g in graphs().items():
        rows.append(row(name, g, reference))
        print(json.dumps(rows[-1]), file=sys.stderr)
    print(json.dumps({
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs, Python {platform.python_version()}, "
                   f"numpy {np.__version__}, scipy {scipy.__version__}, BLAS on 1 thread",
        "command": "python3 tools/iteration_cost.py",
        "reference_s": REFERENCE_S,
        "rows": rows,
    }, indent=1))


if __name__ == "__main__":
    main()
