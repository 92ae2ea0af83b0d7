"""Span tracer for the traced benchmark run.

`Tracer` replaces the public functions of rankclique with timing
wrappers, on every module attribute (and on `Graph.adj_matvec`) where a
caller looks them up, and restores the originals after each traced
round.  Each call
records a span (name, parent, start, end) in memory; counts that the
program does not report are read off the arguments and return values
at the same boundary.  Nothing in the program is modified.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import tracemalloc
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import numpy as np

# (module, function) pairs wrapped in place; the span is named
# "<module>.<function>", the module doubling as the layer name
TRACED_FUNCTIONS = (
    ("graph", "random_graph"),
    ("graph", "read_dimacs"),
    ("graph", "parse_dimacs"),
    ("graph", "serialize_dimacs"),
    ("graph", "parse_coordinate_matrix"),
    ("graph", "cooccurrence_graph"),
    ("graph", "is_clique"),
    ("graph", "is_maximal_clique"),
    ("solver", "solve"),
    ("solver", "armijo_outer_iteration"),
    ("solver", "md_matvec"),
    ("baselines", "run_baseline"),
    ("baselines", "postprocess_greedy"),
    ("harness", "run_algorithm"),
    ("harness", "records_to_csv"),
    ("harness", "cmd_ingest_text"),
)
ADJ_MATVEC = "graph.adj_matvec"

# functions that turn an input into a Graph, or a Graph into text
INGEST_SPANS = (
    "graph.random_graph",
    "graph.read_dimacs",
    "graph.parse_dimacs",
    "graph.serialize_dimacs",
    "graph.parse_coordinate_matrix",
    "graph.cooccurrence_graph",
)
SOLVER_SPANS = ("solver.solve", "solver.armijo_outer_iteration", "solver.md_matvec")
# allocation peaks are taken in a separate, untimed call of these
ALLOC_SPANS = ("graph.random_graph", "graph.parse_dimacs")

# computed, not measured: scipy CSR stores a float64 value and an int32
# column index per entry; the pass reads x and writes y once each
CSR_ENTRY_BYTES = 12
CSR_INDPTR_BYTES = 4
VECTOR_BYTES = 8

# per-layer metrics: name -> unit
PER_LAYER_UNITS = {
    "graph.ingest.self_s": "s",
    "graph.random_graph.calls": "count",
    "graph.random_graph.alloc_peak_mb": "MB",
    "graph.parse_dimacs.calls": "count",
    "graph.parse_dimacs.bytes": "bytes",
    "graph.parse_dimacs.alloc_peak_mb": "MB",
    "graph.serialize_dimacs.bytes": "bytes",
    "graph.parse_coordinate_matrix.calls": "count",
    "graph.adj_matvec.calls": "count",
    "graph.adj_matvec.s": "s",
    "graph.adj_matvec.bytes_computed": "bytes",
    "graph.is_clique.calls": "count",
    "graph.is_clique.s": "s",
    "graph.is_maximal_clique.self_s": "s",
    "solver.solve.calls": "count",
    "solver.solve.self_s": "s",
    "solver.outer_iterations": "count",
    "solver.armijo_trials": "count",
    "solver.armijo_rejections": "count",
    "solver.armijo_accept_ratio": "ratio",
    "solver.md_matvec.calls": "count",
    "solver.sparse_passes_per_solve": "passes/solve",
    "solver.converged": "count",
    "solver.left_out.raised": "count",
    "solver.left_out.slow": "count",
    "baselines.run_baseline.calls": "count",
    "baselines.iterations": "count",
    "harness.run_algorithm.self_s": "s",
    "harness.records_to_csv.s": "s",
    "harness.cmd_ingest_text.calls": "count",
    "trace.wall_s": "s",
    "trace.overhead_pct": "%",
}


def _count_at_boundary(counts: Counter, name: str, args: tuple, out) -> None:
    if name == ADJ_MATVEC:
        g = args[0]
        counts["adj_matvec_bytes"] += (
            len(g.indices) * CSR_ENTRY_BYTES + (g.n + 1) * CSR_INDPTR_BYTES + 2 * g.n * VECTOR_BYTES
        )
    elif name == "solver.armijo_outer_iteration":
        step = out.last_step
        counts["armijo_trials"] += step.trials
        counts["armijo_rejections"] += step.trials - (1 if step.accepted else 0)
    elif name == "solver.solve":
        counts["outer_iterations"] += out.iterations
        counts["converged"] += int(out.converged)
    elif name == "baselines.run_baseline":
        counts["baseline_iterations"] += out[1]
    elif name == "graph.parse_dimacs":
        counts["parse_dimacs_bytes"] += len(args[0])
    elif name == "graph.serialize_dimacs":
        counts["serialize_dimacs_bytes"] += len(out)


class Tracer:
    """Records spans of rankclique calls, one round at a time.

    The wrappers are installed only inside `with tracer.round():`, so
    work outside a round runs the program untouched.  Each round keeps
    its span range and its counts.  The arguments of the first round's
    random_graph and parse_dimacs calls are kept so that `measure_alloc`
    can repeat those calls under tracemalloc after the timed part,
    which keeps tracemalloc's cost out of every span.
    """

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.round_bounds: list[tuple[int, int]] = []
        self.round_counts: list[Counter] = []
        self._stack = [-1]
        self._alloc_calls: list[tuple[str, object, tuple, dict]] = []
        self._originals: list[tuple[object, str, object]] = []
        self._counts = Counter()

    @contextmanager
    def round(self):
        start = len(self.names)
        self._counts = Counter()
        self._install()
        try:
            yield
        finally:
            self._uninstall()
            self.round_bounds.append((start, len(self.names)))
            self.round_counts.append(self._counts)

    def _install(self) -> None:
        from rankclique.graph import Graph

        for mod_name, fn_name in TRACED_FUNCTIONS:
            orig = getattr(importlib.import_module(f"rankclique.{mod_name}"), fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", orig)
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").split(".")[0] != "rankclique":
                    continue
                if mod.__dict__.get(fn_name) is orig:
                    self._originals.append((mod, fn_name, orig))
                    setattr(mod, fn_name, wrapper)
        orig = Graph.__dict__["adj_matvec"]
        self._originals.append((Graph, "adj_matvec", orig))
        Graph.adj_matvec = self._wrap(ADJ_MATVEC, orig)

    def _uninstall(self) -> None:
        for owner, name, orig in reversed(self._originals):
            setattr(owner, name, orig)
        self._originals.clear()

    def _wrap(self, name: str, fn):
        names, parents, starts, ends, stack = (
            self.names, self.parents, self.starts, self.ends, self._stack
        )
        counts = self._counts
        keep_args = name in ALLOC_SPANS and not self.round_bounds
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            _count_at_boundary(counts, name, args, out)
            if keep_args:
                self._alloc_calls.append((name, fn, args, kwargs))
            return out

        return traced

    def measure_alloc(self) -> dict[str, float]:
        """Peak traced allocation (MB) of each recorded call, max per name."""
        peaks = {name: 0.0 for name in ALLOC_SPANS}
        for name, fn, args, kwargs in self._alloc_calls:
            tracemalloc.start()
            try:
                fn(*args, **kwargs)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            peaks[name] = max(peaks[name], peak / 2**20)
        self._alloc_calls.clear()
        return peaks

    # -- derived figures ------------------------------------------------
    def self_times(self) -> tuple[np.ndarray, np.ndarray]:
        """(duration, self time) of every span; self time excludes the
        part of the span covered by its direct children."""
        dur = np.asarray(self.ends) - np.asarray(self.starts)
        parents = np.asarray(self.parents, dtype=np.int64)
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=len(dur))
        return dur, dur - child

    def round_summary(self, r: int, dur: np.ndarray, self_t: np.ndarray) -> dict:
        """Per-name calls, total and self seconds, plus counts, of round r."""
        lo, hi = self.round_bounds[r]
        per_name: dict[str, list[float]] = {}
        for i in range(lo, hi):
            entry = per_name.setdefault(self.names[i], [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += dur[i]
            entry[2] += self_t[i]
        # sparse passes made on behalf of solve(), at any depth below it
        in_solve = {}
        passes = 0
        for i in range(lo, hi):
            p = self.parents[i]
            inside = p >= 0 and (in_solve.get(p, False) or self.names[p] == "solver.solve")
            in_solve[i] = inside
            if inside and self.names[i] == ADJ_MATVEC:
                passes += 1
        return {"spans": per_name, "counts": self.round_counts[r], "solve_passes": passes}

    def write(self, path: Path) -> None:
        """Write every span as a tab-separated line: round, name, parent,
        start and end (seconds, from the first span)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.starts[0] if self.starts else 0.0
        with path.open("w") as f:
            f.write("round\tspan\tname\tparent\tstart_s\tend_s\n")
            for r, (lo, hi) in enumerate(self.round_bounds):
                for i in range(lo, hi):
                    f.write(
                        f"{r}\t{i}\t{self.names[i]}\t{self.parents[i]}\t"
                        f"{self.starts[i] - t0:.9f}\t{self.ends[i] - t0:.9f}\n"
                    )


def layer_metrics(summaries: list[dict], alloc_mb: dict[str, float], left_out: Counter) -> dict[str, float]:
    """Per-layer metrics per round: counts from the first traced round
    (rounds repeat the same work), times as the median over rounds.
    `left_out` counts the restarts screened out before timing."""
    first = summaries[0]
    spans, counts = first["spans"], first["counts"]

    def calls(name: str) -> int:
        return spans.get(name, (0, 0.0, 0.0))[0]

    def median_time(names: tuple[str, ...], col: int) -> float:
        per_round = [
            sum(s["spans"].get(n, (0, 0.0, 0.0))[col] for n in names) for s in summaries
        ]
        return float(np.median(per_round))

    solves = calls("solver.solve")
    trials = counts["armijo_trials"]
    return {
        "graph.ingest.self_s": median_time(INGEST_SPANS, 2),
        "graph.random_graph.calls": calls("graph.random_graph"),
        "graph.random_graph.alloc_peak_mb": alloc_mb["graph.random_graph"],
        "graph.parse_dimacs.calls": calls("graph.parse_dimacs"),
        "graph.parse_dimacs.bytes": counts["parse_dimacs_bytes"],
        "graph.parse_dimacs.alloc_peak_mb": alloc_mb["graph.parse_dimacs"],
        "graph.serialize_dimacs.bytes": counts["serialize_dimacs_bytes"],
        "graph.parse_coordinate_matrix.calls": calls("graph.parse_coordinate_matrix"),
        "graph.adj_matvec.calls": calls(ADJ_MATVEC),
        "graph.adj_matvec.s": median_time((ADJ_MATVEC,), 1),
        "graph.adj_matvec.bytes_computed": counts["adj_matvec_bytes"],
        "graph.is_clique.calls": calls("graph.is_clique"),
        "graph.is_clique.s": median_time(("graph.is_clique",), 1),
        "graph.is_maximal_clique.self_s": median_time(("graph.is_maximal_clique",), 2),
        "solver.solve.calls": solves,
        "solver.solve.self_s": median_time(SOLVER_SPANS, 2),
        "solver.outer_iterations": counts["outer_iterations"],
        "solver.armijo_trials": trials,
        "solver.armijo_rejections": counts["armijo_rejections"],
        "solver.armijo_accept_ratio": (trials - counts["armijo_rejections"]) / trials if trials else 0.0,
        "solver.md_matvec.calls": calls("solver.md_matvec"),
        "solver.sparse_passes_per_solve": first["solve_passes"] / solves if solves else 0.0,
        "solver.converged": counts["converged"],
        "solver.left_out.raised": left_out["raised"],
        "solver.left_out.slow": left_out["slow"],
        "baselines.run_baseline.calls": calls("baselines.run_baseline"),
        "baselines.iterations": counts["baseline_iterations"],
        "harness.run_algorithm.self_s": median_time(("harness.run_algorithm",), 2),
        "harness.records_to_csv.s": median_time(("harness.records_to_csv",), 1),
        "harness.cmd_ingest_text.calls": calls("harness.cmd_ingest_text"),
    }


def format_table(summaries: list[dict]) -> str:
    """Human-readable per-function table: calls and seconds per round."""
    names = sorted({n for s in summaries for n in s["spans"]})
    lines = [f"{'span':34} {'calls/round':>11} {'total_s/round':>13} {'self_s/round':>12}"]
    for n in names:
        calls = summaries[0]["spans"].get(n, (0, 0.0, 0.0))[0]
        total = float(np.median([s["spans"].get(n, (0, 0.0, 0.0))[1] for s in summaries]))
        self_s = float(np.median([s["spans"].get(n, (0, 0.0, 0.0))[2] for s in summaries]))
        lines.append(f"{n:34} {calls:11d} {total:13.6f} {self_s:12.6f}")
    return "\n".join(lines)
