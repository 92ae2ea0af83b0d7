"""Benchmark commands: run algorithms on instances, verify theory
properties, ingest text corpora.

Every reported clique is validated against the graph once (see
run_algorithm); CSV output has a fixed column order and fully
deterministic row order (instance, then algorithm, then seed).
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, fields
from io import StringIO
from pathlib import Path

import numpy as np

from .baselines import (
    ETA,
    _replicator_steps,
    extend_to_maximal,
    postprocess_greedy,
    run_baseline,
)
from .graph import (
    CliqueSet,
    EdgelessGraphError,
    Graph,
    _clique_status,
    _cooccurrence_from_counts,
    _least_threshold,
    _shared_term_counts,
    random_graph,
    serialize_dimacs,
)
from .oracle import enumerate_maximal_cliques
from .solver import (
    NumericalDivergenceError,
    SolverConfig,
    SolverResult,
    _check_count,
    d_max,
    gradient,
    lift_ball_point,
    md_norm_sq,
    objective_shifted,
    solve,
    stationarity_residual,
)

ALGORITHMS = ("r1nm", "pelillo", "ding")


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


# the CSV columns, in BenchRecord's field order
CSV_FIELDS = tuple(f.name for f in fields(BenchRecord))


def records_to_csv(records: list[BenchRecord]) -> str:
    buf = StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(CSV_FIELDS)
    for r in records:
        w.writerow(r.csv_row())
    return buf.getvalue()


def _check_algorithms(algos: tuple[str, ...]) -> None:
    for algo in algos:
        if algo not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {algo!r}, expected one of {ALGORITHMS}")


def run_algorithm(
    g: Graph,
    instance_name: str,
    algo: str,
    seed: int,
    *,
    d0: float | None = None,
    eta: float | None = None,
    maximalize: bool = False,
) -> tuple[BenchRecord, CliqueSet]:
    """One timed run of one algorithm.

    Every algorithm is timed over the same region, from its call to the
    final clique: the greedy postprocess, any `+max` extension and
    solve's own rounding check fall inside it; instance loading and the
    validation done here do not.  With maximalize, a baseline's clique
    is extended, and so is an r1nm clique that is valid but not maximal;
    the tag gains `+max` exactly when the extension ran.  An r1nm clique
    as solve returned it keeps solve's flags; any other clique is
    validated here, in one adjacency pass.
    """
    _check_algorithms((algo,))
    t0 = time.perf_counter()
    if algo == "r1nm":
        result = solve(g, SolverConfig(seed=seed, d0_override=d0))
        clique, iterations, converged = result.clique, result.iterations, result.converged
        status = result.clique_valid, result.clique_maximal
        extend = maximalize and result.clique_valid and not result.clique_maximal
    else:
        u, iterations, converged = run_baseline(g, algo, ETA if eta is None else eta)
        clique = postprocess_greedy(g, u)
        status, extend = None, maximalize
    if extend:
        clique = extend_to_maximal(g, clique)
        status = None
    wall_ms = (time.perf_counter() - t0) * 1e3
    valid, maximal = _clique_status(g, clique.vertices) if status is None else status
    record = BenchRecord(
        instance_name=instance_name,
        n=g.n,
        edge_count=g.edge_count,
        algorithm=algo + "+max" if extend else algo,
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
    eta: float | None = None,
    maximalize: bool = False,
) -> tuple[BenchRecord, CliqueSet, list[BenchRecord]]:
    """Best-of-restarts run; restart i uses seed + i.

    Returns (best record, best clique, all records).  Best means the
    largest valid clique, ties to the earliest seed.  restarts that are
    not an integer of at least 1 raise ValueError before any run.
    """
    _check_count("restarts", restarts)
    runs = [
        run_algorithm(g, instance_name, algo, seed + i, d0=d0, eta=eta, maximalize=maximalize)
        for i in range(restarts)
    ]
    # max keeps the first of equal keys, so ties go to the earliest seed
    best, clique = max(runs, key=lambda run: (run[0].valid, run[0].clique_size))
    return best, clique, [record for record, _ in runs]


def cmd_bench_random(
    n: int,
    densities: list[float],
    trials: int,
    seed: int,
    *,
    algos: tuple[str, ...] = ALGORITHMS,
    eta: float | None = None,
    d0: float | None = None,
    maximalize: bool = False,
) -> list[BenchRecord]:
    """Random-graph sweep: one row per (density, trial, algorithm).

    Trial t of any density uses graph seed seed + t and the same value
    as the solver seed, so reruns are bit-identical.  No densities, no
    algorithms, an unknown algorithm, or trials that are not an integer of
    at least 1, raise ValueError before any graph is generated.
    """
    if not algos:
        raise ValueError("at least one algorithm is needed")
    _check_algorithms(algos)
    if not densities:
        raise ValueError("at least one density is needed")
    _check_count("trials", trials)
    records: list[BenchRecord] = []
    for density in densities:
        for t in range(trials):
            g = random_graph(n, density, seed + t)
            name = f"random_n{n}_p{density:g}_t{t}"
            for algo in algos:
                rec, _ = run_algorithm(g, name, algo, seed + t, d0=d0, eta=eta, maximalize=maximalize)
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
    maximalize: bool = False,
) -> list[BenchRecord]:
    """Benchmark loaded instances: one row per (instance, algorithm,
    restart).  No graphs, no algorithms, an unknown algorithm, or
    restarts that are not an integer of at least 1, raise ValueError
    before any run."""
    if not graphs or not algos:
        raise ValueError("at least one graph and one algorithm are needed")
    _check_algorithms(algos)
    _check_count("restarts", restarts)
    records: list[BenchRecord] = []
    for name, g in graphs:
        for algo in algos:
            records += cmd_solve(g, name, algo, restarts, seed, d0=d0, eta=eta, maximalize=maximalize)[2]
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


def _nonadjacent_weight_bound(g: Graph, nonadj: np.ndarray, d: float, u: np.ndarray) -> tuple[np.ndarray, int]:
    """The weight bound at a near-stationary u >= 0 of penalty d: both
    ends of an active non-adjacent pair carry u_j < ||u||_1 / (d + 1).

    nonadj is the dense mask of the distinct non-adjacent vertex pairs.
    Returns (the pairs checked, as rows (i, j) with i < j, the number of
    them with an end at or above the bound).  A zero u, or one whose
    stationarity residual is 1e-8 or more, is not near-stationary and
    checks no pair.
    """
    if float(u @ u) == 0.0 or stationarity_residual(g, d, u) >= 1e-8:
        return np.empty((0, 2), dtype=np.int64), 0
    active = u > 0
    pairs = np.argwhere(np.triu(nonadj & active[:, None] & active[None, :], 1))
    bound = float(np.abs(u).sum()) / (d + 1.0)
    return pairs, int(np.count_nonzero(~np.all(u[pairs] < bound, axis=1)))


def cmd_verify(g: Graph, instance_name: str, *, seeds: tuple[int, ...] = (0, 1, 2)) -> VerifyReport:
    """Check the theory-backed properties on one small instance.

    Needs the exact oracle, so the instance must respect its limits
    and must have at least one edge; seeds must not be empty.
    """
    if not seeds:
        raise ValueError("verify needs at least one seed")
    if g.edge_count == 0:
        raise EdgelessGraphError("verify needs a graph with at least one edge")
    checks: list[VerifyCheck] = []
    maximal_cliques = enumerate_maximal_cliques(g)
    omega = max(c.size for c in maximal_cliques)
    # B = A + I, dense and built from the neighbour lists: deliberately a
    # second route to M_d for cross-checking, independent of adj_matvec
    b = np.eye(g.n, dtype=bool)
    for v in range(g.n):
        b[v, g.neighbors(v)] = True
    penalties = [(d, np.where(b, 1.0, -d)) for d in (float(g.n), d_max(g))]

    # one walk over the maximal cliques at both test penalties feeds two
    # checks: the indicator is stationary, and lifting the normalized
    # indicator reproduces it with the rank-one error identity holding
    # against the dense M_d
    worst = ident_worst = 0.0
    for c in maximal_cliques:
        u = c.indicator(g.n)
        v = u / np.linalg.norm(u)
        for d, md in penalties:
            worst = max(worst, stationarity_residual(g, d, u))
            lifted = lift_ball_point(g, d, v)
            ident_worst = max(ident_worst, float(np.abs(lifted - u).max()))
            q = float(v @ md @ v)
            lhs = float(np.linalg.norm(md - np.outer(lifted, lifted), "fro") ** 2)
            rhs = md_norm_sq(g, d) - q * q
            ident_worst = max(ident_worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    checks.append(
        VerifyCheck(
            "maximal_clique_stationarity",
            worst < 1e-12,
            f"max residual {worst:.3e} over {len(maximal_cliques)} cliques (tol 1e-12)",
        )
    )

    # converged solves must round to maximal cliques, as enumerated
    # above, whatever flags solve set; one recorded solve per seed also
    # feeds the weight bound below, and a seed whose solve diverges
    # counts once, as a violation here
    maximal_vertex_sets = {c.vertices for c in maximal_cliques}
    bad = 0
    runs: list[SolverResult] = []
    for s in seeds:
        try:
            res = solve(g, SolverConfig(seed=s), record_iterates=True)
        except NumericalDivergenceError:
            bad += 1
            continue
        runs.append(res)
        if res.converged and res.clique.vertices not in maximal_vertex_sets:
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

    nonadj = ~b
    weight_bound_bad = 0
    weight_bound_hits = 0
    for res in runs:
        assert res.iterates is not None
        for rec in res.iterates:
            pairs, violations = _nonadjacent_weight_bound(g, nonadj, rec.d, rec.u)
            weight_bound_hits += len(pairs)
            weight_bound_bad += violations
    checks.append(
        VerifyCheck(
            "nonadjacent_weight_bound",
            weight_bound_bad == 0,
            f"{weight_bound_hits} active non-adjacent pairs checked, {weight_bound_bad} violations",
        )
    )

    # the Pelillo baseline's iterates never beat the simplex relaxation
    # optimum; its own loop hands over each step's A u before the step
    ms_bound = 1.0 - 1.0 / omega + 1e-9
    worst_q = 0.0
    for u, au in _replicator_steps(g, "pelillo", 1.0):
        worst_q = max(worst_q, float(u @ au))
        if worst_q > ms_bound:
            break
    checks.append(
        VerifyCheck(
            "motzkin_straus_bound",
            worst_q <= ms_bound,
            f"max u^T A u {worst_q:.12f} vs 1 - 1/{omega} + 1e-9",
        )
    )

    # the ball-lift identity, taken in the clique walk above
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
    The file is parsed and the shared-word counts formed once, at the
    smallest threshold; each threshold then only filters them.  An empty
    p_values or a threshold below 1 raises ValueError before the file is
    read; out_dir is made only once the file has parsed, so a missing
    or malformed file leaves no directory behind.
    """
    p_min = _least_threshold(p_values)
    coord_path = Path(coord_path)
    shared = _shared_term_counts(coord_path.read_bytes(), p_min)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    results: list[IngestResult] = []
    for p in p_values:
        g = _cooccurrence_from_counts(shared, p)
        out_path = out_dir / f"{coord_path.stem}_p{p}.clq"
        out_path.write_text(serialize_dimacs(g))
        results.append(IngestResult(p=p, n=g.n, edge_count=g.edge_count, path=out_path))
    return results
