"""Benchmark commands: run algorithms on instances, verify theory
properties, ingest text corpora.

Every reported clique is validated against the graph once (see
run_algorithm); CSV output has a fixed column order and fully
deterministic row order (instance, then algorithm, then seed).
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass
from io import StringIO
from pathlib import Path

import numpy as np

from .baselines import (
    BaselineConfig,
    extend_to_maximal,
    pelillo_step,
    postprocess_greedy,
    run_baseline,
)
from .graph import (
    CliqueSet,
    Graph,
    _cooccurrence_from_counts,
    _shared_term_counts,
    is_clique,
    is_maximal_clique,
    random_graph,
    serialize_dimacs,
)
from .oracle import OracleLimits, enumerate_maximal_cliques, maximum_clique_exact
from .solver import (
    SolverConfig,
    SolverResult,
    d_max,
    gradient,
    lift_ball_point,
    md_norm_sq,
    objective_shifted,
    solve,
    stationarity_residual,
)

ALGORITHMS = ("r1nm", "pelillo", "ding")

CSV_FIELDS = (
    "instance_name",
    "n",
    "edge_count",
    "algorithm",
    "seed",
    "clique_size",
    "valid",
    "maximal",
    "iterations",
    "wall_time_ms",
    "converged",
)


@dataclass(frozen=True)
class BenchRecord:
    instance_name: str
    n: int
    edge_count: int
    algorithm: str
    seed: int
    clique_size: int
    valid: bool
    maximal: bool
    iterations: int
    wall_time_ms: float
    converged: bool

    def csv_row(self) -> list[str]:
        vals = []
        for name in CSV_FIELDS:
            v = getattr(self, name)
            if isinstance(v, bool):
                vals.append("true" if v else "false")
            elif isinstance(v, float):
                vals.append(f"{v:.3f}")
            else:
                vals.append(str(v))
        return vals


def records_to_csv(records: list[BenchRecord]) -> str:
    buf = StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(CSV_FIELDS)
    for r in records:
        w.writerow(r.csv_row())
    return buf.getvalue()


def run_algorithm(
    g: Graph,
    instance_name: str,
    algo: str,
    seed: int,
    *,
    d0: float | None = None,
    dmax: float | None = None,
    eta: float | None = None,
    maximalize: bool = False,
) -> tuple[BenchRecord, CliqueSet]:
    """One timed run of one algorithm.

    Every algorithm is timed over the same region, from its call to the
    final clique: the greedy postprocess, any `+max` extension and
    solve's own rounding check fall inside it; instance loading and the
    validation done here do not.  A clique the harness built
    (postprocessed or extended) is validated here; an r1nm clique as
    solve returned it keeps solve's flags.
    """
    if algo not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algo!r}, expected one of {ALGORITHMS}")
    tag = algo
    t0 = time.perf_counter()
    if algo == "r1nm":
        cfg = SolverConfig(seed=seed, d0_override=d0, d_max_override=dmax)
        result = solve(g, cfg)
        clique = result.clique
        iterations = result.iterations
        converged = result.converged
        if maximalize and result.clique_valid and not result.clique_maximal:
            clique = extend_to_maximal(g, clique)
            tag = algo + "+max"
    else:
        cfg = BaselineConfig() if eta is None else BaselineConfig(eta=eta)
        u, iterations, converged = run_baseline(g, algo, cfg)
        clique = postprocess_greedy(g, u)
        if maximalize:
            clique = extend_to_maximal(g, clique)
            tag = algo + "+max"
    wall_ms = (time.perf_counter() - t0) * 1e3
    if tag == "r1nm":
        valid, maximal = result.clique_valid, result.clique_maximal
    else:
        maximal = is_maximal_clique(g, clique.vertices)
        valid = maximal or is_clique(g, clique.vertices)
    record = BenchRecord(
        instance_name=instance_name,
        n=g.n,
        edge_count=g.edge_count,
        algorithm=tag,
        seed=seed,
        clique_size=clique.size,
        valid=valid,
        maximal=maximal,
        iterations=iterations,
        wall_time_ms=wall_ms,
        converged=converged,
    )
    return record, clique


def cmd_solve(
    g: Graph,
    instance_name: str,
    algo: str = "r1nm",
    restarts: int = 1,
    seed: int = 0,
    *,
    d0: float | None = None,
    dmax: float | None = None,
    eta: float | None = None,
    maximalize: bool = False,
) -> tuple[BenchRecord, CliqueSet, list[BenchRecord]]:
    """Best-of-restarts run; restart i uses seed + i.

    Returns (best record, best clique, all records).  Best means the
    largest valid clique, ties to the earliest seed.
    """
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    records: list[BenchRecord] = []
    cliques: list[CliqueSet] = []
    for i in range(restarts):
        rec, cl = run_algorithm(
            g, instance_name, algo, seed + i, d0=d0, dmax=dmax, eta=eta, maximalize=maximalize
        )
        records.append(rec)
        cliques.append(cl)
    best_i = 0
    for i, rec in enumerate(records[1:], start=1):
        best = records[best_i]
        better = rec.valid if rec.valid != best.valid else rec.clique_size > best.clique_size
        if better:
            best_i = i
    return records[best_i], cliques[best_i], records


def cmd_bench_random(
    n: int,
    densities: list[float],
    trials: int,
    seed: int,
    *,
    algos: tuple[str, ...] = ALGORITHMS,
    eta: float | None = None,
    d0: float | None = None,
    dmax: float | None = None,
    maximalize: bool = False,
) -> list[BenchRecord]:
    """Random-graph sweep: one row per (density, trial, algorithm).

    Trial t of any density uses graph seed seed + t and the same value
    as the solver seed, so reruns are bit-identical.
    """
    records: list[BenchRecord] = []
    for density in densities:
        for t in range(trials):
            g = random_graph(n, density, seed + t)
            name = f"random_n{n}_p{density:g}_t{t}"
            for algo in algos:
                rec, _ = run_algorithm(
                    g, name, algo, seed + t, d0=d0, dmax=dmax, eta=eta, maximalize=maximalize
                )
                records.append(rec)
    return records


def cmd_bench_dimacs(
    graphs: list[tuple[str, Graph]],
    *,
    algos: tuple[str, ...] = ALGORITHMS,
    restarts: int = 1,
    seed: int = 0,
    eta: float | None = None,
    d0: float | None = None,
    dmax: float | None = None,
    maximalize: bool = False,
) -> list[BenchRecord]:
    """Benchmark loaded instances: one row per (instance, algorithm, restart)."""
    records: list[BenchRecord] = []
    for name, g in graphs:
        for algo in algos:
            records += cmd_solve(
                g, name, algo, restarts, seed, d0=d0, dmax=dmax, eta=eta, maximalize=maximalize
            )[2]
    return records


@dataclass(frozen=True)
class VerifyCheck:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class VerifyReport:
    instance_name: str
    checks: list[VerifyCheck]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _dense_md(g: Graph, d: float) -> np.ndarray:
    # deliberately a second, dense route to M_d for cross-checking
    b = np.eye(g.n)
    for v in range(g.n):
        b[v, g.neighbors(v)] = 1.0
    return np.where(b > 0, 1.0, -d)


def cmd_verify(g: Graph, instance_name: str, *, seeds: tuple[int, ...] = (0, 1, 2)) -> VerifyReport:
    """Check the theory-backed properties on one small instance.

    Needs the exact oracle, so the instance must respect OracleLimits
    and must have at least one edge.
    """
    if g.edge_count == 0:
        raise ValueError("verify needs a graph with at least one edge")
    checks: list[VerifyCheck] = []
    limits = OracleLimits()
    maximal_cliques = enumerate_maximal_cliques(g, limits)
    omega = maximum_clique_exact(g, limits).size
    cap = d_max(g)

    # stationarity of maximal-clique indicators at both test penalties
    worst = 0.0
    for c in maximal_cliques:
        u = c.indicator(g.n)
        for d in (float(g.n), cap):
            worst = max(worst, stationarity_residual(g, d, u))
    checks.append(
        VerifyCheck(
            "maximal_clique_stationarity",
            worst < 1e-12,
            f"max residual {worst:.3e} over {len(maximal_cliques)} cliques (tol 1e-12)",
        )
    )

    # converged solves must round to maximal cliques; one recorded solve
    # per seed also feeds the weight bound below, and a seed that raises
    # counts once, as a violation here
    bad = 0
    runs: list[SolverResult] = []
    for s in seeds:
        try:
            res = solve(g, SolverConfig(seed=s), record_iterates=True)
        except Exception:
            bad += 1
            continue
        runs.append(res)
        if res.converged and not (res.clique_valid and res.clique_maximal):
            bad += 1
    checks.append(
        VerifyCheck(
            "rounding_soundness",
            bad == 0,
            f"{len(runs)} solves across seeds {list(seeds)}, {bad} violations",
        )
    )

    # gradient against central finite differences
    rng = np.random.default_rng(0)
    worst_rel = 0.0
    for _ in range(5):
        u = rng.random(g.n)
        d = float(rng.uniform(0.0, 2.0 * g.n))
        grad = gradient(g, d, u)
        fd = np.zeros(g.n)
        h = 1e-6
        for i in range(g.n):
            up, um = u.copy(), u.copy()
            up[i] += h
            um[i] -= h
            fd[i] = (objective_shifted(g, d, up) - objective_shifted(g, d, um)) / (2 * h)
        denom = max(float(np.linalg.norm(grad)), 1e-12)
        worst_rel = max(worst_rel, float(np.linalg.norm(fd - grad)) / denom)
    checks.append(
        VerifyCheck(
            "gradient_finite_difference",
            worst_rel < 1e-6,
            f"max relative error {worst_rel:.3e} (tol 1e-6)",
        )
    )

    # non-adjacent active pairs of near-stationary iterates must carry
    # small weight: u_j < ||u||_1 / (d + 1)
    nonadj = np.ones((g.n, g.n), dtype=bool)
    np.fill_diagonal(nonadj, False)
    for v in range(g.n):
        nonadj[v, g.neighbors(v)] = False
    weight_bound_bad = 0
    weight_bound_hits = 0
    for res in runs:
        assert res.iterates is not None
        for rec in res.iterates:
            if float(rec.u @ rec.u) == 0.0:
                continue
            if stationarity_residual(g, rec.d, rec.u) >= 1e-8:
                continue
            active = rec.u > 0
            pairs = np.triu(nonadj & active[:, None] & active[None, :], 1)
            ii, jj = np.nonzero(pairs)
            if len(ii) == 0:
                continue
            weight_bound_hits += len(ii)
            bound = float(np.abs(rec.u).sum()) / (rec.d + 1.0)
            if not (np.all(rec.u[ii] < bound) and np.all(rec.u[jj] < bound)):
                weight_bound_bad += 1
    checks.append(
        VerifyCheck(
            "nonadjacent_weight_bound",
            weight_bound_bad == 0,
            f"{weight_bound_hits} active non-adjacent pairs checked, {weight_bound_bad} violations",
        )
    )

    # replicator iterates never beat the simplex relaxation optimum
    ms_bound = 1.0 - 1.0 / omega + 1e-9
    u = np.full(g.n, 1.0 / g.n)
    ms_ok = True
    worst_q = 0.0
    base_cfg = BaselineConfig()
    for _ in range(base_cfg.max_iterations):
        q = float(u @ g.adj_matvec(u))
        worst_q = max(worst_q, q)
        if q > ms_bound:
            ms_ok = False
            break
        u_next = pelillo_step(g, u)
        delta = u_next - u
        u = u_next
        if float(delta @ delta) < base_cfg.tol:
            break
    checks.append(
        VerifyCheck(
            "motzkin_straus_bound",
            ms_ok,
            f"max u^T A u {worst_q:.12f} vs 1 - 1/{omega} + 1e-9",
        )
    )

    # lifting a normalized clique indicator reproduces it, and the
    # rank-one error identity holds against the dense matrix
    ident_worst = 0.0
    for c in maximal_cliques:
        u = c.indicator(g.n)
        v = u / np.linalg.norm(u)
        for d in (float(g.n), cap):
            lifted = lift_ball_point(g, d, v)
            ident_worst = max(ident_worst, float(np.abs(lifted - u).max()))
            md = _dense_md(g, d)
            q = float(v @ md @ v)
            lhs = float(np.linalg.norm(md - np.outer(lifted, lifted), "fro") ** 2)
            rhs = md_norm_sq(g, d) - q * q
            ident_worst = max(ident_worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    checks.append(
        VerifyCheck(
            "ball_lift_identity",
            ident_worst < 1e-8,
            f"max deviation {ident_worst:.3e} (tol 1e-8)",
        )
    )

    return VerifyReport(instance_name=instance_name, checks=checks)


@dataclass(frozen=True)
class IngestResult:
    p: int
    n: int
    edge_count: int
    path: Path


def cmd_ingest_text(
    coord_path: str | Path, p_values: list[int], out_dir: str | Path
) -> list[IngestResult]:
    """Convert a doc-term coordinate file into co-occurrence DIMACS graphs.

    Writes one <stem>_p<p>.clq per threshold into out_dir and reports
    sizes; two documents are adjacent when they share at least p words.
    The file is parsed and the shared-word counts formed once; each
    threshold then only filters them.
    """
    coord_path = Path(coord_path)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    shared = _shared_term_counts(coord_path.read_text())
    results: list[IngestResult] = []
    for p in p_values:
        g = _cooccurrence_from_counts(shared, p)
        out_path = out_dir / f"{coord_path.stem}_p{p}.clq"
        out_path.write_text(serialize_dimacs(g))
        results.append(IngestResult(p=p, n=g.n, edge_count=g.edge_count, path=out_path))
    return results
