"""Clique search by penalized rank-one nonnegative approximation.

The adjacency matrix A is augmented to B = A + I and every non-edge is
penalized with a negative weight -d, giving the implicit matrix

    M_d[i, j] = 1    if i == j or {i, j} is an edge
    M_d[i, j] = -d   otherwise.

Minimizing ||M_d - u u^T||_F^2 over u >= 0 with a large enough penalty
drives u toward the 0/1 indicator vector of a maximal clique, and the
squared norm of the minimizer equals the clique size.  The solver runs
projected gradient descent while growing d geometrically up to a
graph-dependent cap; iterates are declared converged once every
coordinate is numerically binary.  In place of the paper's Armijo
backtracking, each step is an exact line search along the projected
chord, where the objective's change is a quartic in the step length.

M_d is never materialized: M_d u = (1 + d) (A u + u) - d * sum(u) needs
one product A u from Graph.adj_matvec, which is one sparse pass over A
or, on graphs with more than half of all pairs as edges, over the
sparser non-edge adjacency.  Each iteration makes one pass, A p along
its chord, and SolverState carries A u + t A p to the next iterate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .graph import CliqueSet, EdgelessGraphError, Graph, is_clique, is_maximal_clique


class NumericalDivergenceError(RuntimeError):
    """Objective or gradient became non-finite; carries the offending iterate."""

    def __init__(self, message: str, iterate: np.ndarray):
        self.iterate = iterate
        super().__init__(message)


class RoundingInvariantError(RuntimeError):
    """A converged iterate rounded to something other than a maximal clique."""


@dataclass(frozen=True)
class SolverConfig:
    """Tuning knobs for the projected gradient solver.

    gamma                : geometric growth factor of the penalty d
    beta                 : alpha becomes alpha max(t*, beta) after a step
                           t* < 1 along the chord, alpha / sqrt(beta) after t* = 1
    d0_override          : starting penalty (default: Frobenius-balance value)
    d_max_override       : penalty cap (default: 2 n ||B||_F)
    binary_tol_low       : coordinates at most this count as 0
    binary_tol_high      : closed interval of coordinates counting as 1
    max_outer_iterations : hard stop when the binary criterion never triggers
    seed                 : RNG seed for the uniform random start
    """

    gamma: float = 1.1
    beta: float = 0.5
    d0_override: float | None = None
    d_max_override: float | None = None
    binary_tol_low: float = 0.001
    binary_tol_high: tuple[float, float] = (0.999, 1.001)
    max_outer_iterations: int = 10_000
    seed: int = 0

    def __post_init__(self):
        if self.gamma <= 1.0:
            raise ValueError(f"gamma must exceed 1, got {self.gamma}")
        if not 0.0 < self.beta < 1.0:
            raise ValueError(f"beta must lie in (0, 1), got {self.beta}")
        if self.max_outer_iterations < 1:
            raise ValueError("max_outer_iterations must be at least 1")


@dataclass(frozen=True)
class ArmijoStep:
    """Diagnostics of one outer iteration's line search.  There is one
    chord evaluation per iteration, so trials is always 1."""

    d: float
    alpha_used: float
    f_old: float
    f_new: float
    accepted: bool
    trials: ClassVar[int] = 1


@dataclass
class SolverState:
    """Loop state threaded through armijo_outer_iteration.

    au is A u, carried from the pass that computed it; last_step carries
    the latest line-search diagnostics.
    """

    u: np.ndarray
    au: np.ndarray
    d: float
    alpha: float
    iteration: int = 0
    last_step: ArmijoStep | None = None


@dataclass(frozen=True)
class IterateRecord:
    """One accepted iterate, for optional debug traces."""

    d: float
    u: np.ndarray
    step: ArmijoStep


@dataclass(frozen=True)
class SolverResult:
    u_final: np.ndarray
    clique: CliqueSet
    converged: bool
    iterations: int
    objective_trace: list[float]
    stationarity_residual_final: float
    clique_valid: bool
    clique_maximal: bool
    iterates: list[IterateRecord] | None = None


def _nnz_b(g: Graph) -> int:
    # nonzeros of B = A + I
    return g.n + 2 * g.edge_count


def default_d0(g: Graph) -> float:
    """Starting penalty balancing positive and negative mass of M_d in
    Frobenius norm: nnz(B) / (n^2 - nnz(B)).  Complete graphs (where
    M_d has no negative entries) get 0."""
    n2 = g.n * g.n
    nnz = _nnz_b(g)
    if nnz == n2:
        return 0.0
    return nnz / (n2 - nnz)


def d_max(g: Graph) -> float:
    """Penalty cap 2 n ||B||_F = 2 n sqrt(n + 2 |E|); at this value every
    local minimizer rounds to a maximal clique indicator."""
    return 2.0 * g.n * math.sqrt(_nnz_b(g))


def _effective_d_max(g: Graph, cfg: SolverConfig) -> float:
    return cfg.d_max_override if cfg.d_max_override is not None else d_max(g)


def md_norm_sq(g: Graph, d: float) -> float:
    """Frobenius norm squared of the implicit penalized matrix:
    nnz(B) ones plus d^2 on the remaining entries."""
    nnz = _nnz_b(g)
    return nnz + d * d * (g.n * g.n - nnz)


def _md_product(d: float, u: np.ndarray, au: np.ndarray) -> np.ndarray:
    # M_d u from the adjacency product au = A u
    return (1.0 + d) * (au + u) - d * float(u.sum())


def _objective_and_gradient(d: float, u: np.ndarray, au: np.ndarray) -> tuple[float, np.ndarray]:
    mdu = _md_product(d, u, au)
    nrm2 = float(u @ u)
    return 0.5 * nrm2 * nrm2 - float(u @ mdu), 2.0 * (nrm2 * u - mdu)


def md_matvec(g: Graph, d: float, u: np.ndarray) -> np.ndarray:
    """Product M_d @ u without forming M_d.

    M_d = (1 + d) (A + I) - d * ones, so the product is one adjacency
    pass plus two rank-one corrections:
    (1 + d) (A u + u) - d * sum(u) * ones.
    """
    u = np.asarray(u, dtype=np.float64)
    return _md_product(d, u, g.adj_matvec(u))


def objective_shifted(g: Graph, d: float, u: np.ndarray) -> float:
    """The approximation objective with its constant term dropped:
    -u^T M_d u + 0.5 ||u||_2^4.  The full squared error is
    2 * objective_shifted + md_norm_sq."""
    u = np.asarray(u, dtype=np.float64)
    return _objective_and_gradient(d, u, g.adj_matvec(u))[0]


def gradient(g: Graph, d: float, u: np.ndarray) -> np.ndarray:
    """Exact gradient of objective_shifted: 2 (||u||_2^2 u - M_d u)."""
    u = np.asarray(u, dtype=np.float64)
    return _objective_and_gradient(d, u, g.adj_matvec(u))[1]


def round_phi(u: np.ndarray) -> np.ndarray:
    """Coordinatewise rounding to {0, 1}: entries above 0.5 map to 1,
    everything else (the boundary included) to 0."""
    return (np.asarray(u, dtype=np.float64) > 0.5).astype(np.float64)


def stationarity_residual(g: Graph, d: float, u: np.ndarray) -> float:
    """Max-norm violation of the fixed-point condition
    u = [M_d u]_+ / ||u||_2^2 satisfied by nonzero stationary points."""
    u = np.asarray(u, dtype=np.float64)
    nrm2 = float(u @ u)
    if nrm2 == 0.0:
        raise ValueError("residual undefined at the zero vector")
    r = u - np.maximum(md_matvec(g, d, u), 0.0) / nrm2
    return float(np.abs(r).max())


def lift_ball_point(g: Graph, d: float, v: np.ndarray) -> np.ndarray:
    """Map a unit-ball point v to the approximation variable
    u = sqrt(v^T M_d v) v.  Requires v^T M_d v > 0."""
    v = np.asarray(v, dtype=np.float64)
    q = float(v @ md_matvec(g, d, v))
    if q <= 0.0:
        raise ValueError(f"quadratic form is {q}, must be positive to lift")
    return math.sqrt(q) * v


def _quartic(t: float, q1: float, q2: float, q3: float, q4: float) -> float:
    return t * (q1 + t * (q2 + t * (q3 + t * q4)))


def _cubic_roots(a: float, b: float, c: float) -> list[float]:
    """Real roots of t^3 + a t^2 + b t + c: the largest in magnitude by
    Cardano's formula, the other two from Vieta's relations with it,
    which avoids the cancellation in undoing the shift t = x - a/3."""
    shift = a / 3.0
    P = b - a * shift
    Q = c - shift * (b - 2.0 * shift * shift)
    disc = 0.25 * Q * Q + P * P * P / 27.0  # < 0: three distinct real roots
    if not math.isfinite(disc):
        return []
    if disc >= 0.0:
        v = -0.5 * Q - math.copysign(math.sqrt(disc), Q)
        w = math.copysign(abs(v) ** (1.0 / 3.0), v)
        r = (w - P / (3.0 * w) if w != 0.0 else 0.0) - shift
    else:
        m = 2.0 * math.sqrt(-P / 3.0)
        phi = math.acos(min(1.0, max(-1.0, 3.0 * Q / (P * m)))) / 3.0
        r = max((m * math.cos(phi - 2.0 * math.pi * k / 3.0) - shift for k in range(3)), key=abs)
    if r == 0.0:
        return [r]
    prod = -c / r  # of the other two roots
    half_sum = 0.5 * (b - prod) / r
    h2 = half_sum * half_sum - prod
    if h2 < 0.0:
        return [r]
    r1 = half_sum + math.copysign(math.sqrt(h2), half_sum)
    return [r, r1, prod / r1 if r1 != 0.0 else 0.0]


def _chord_minimizer(q1: float, q2: float, q3: float, q4: float) -> float:
    """The t in [0, 1] minimizing q1 t + q2 t^2 + q3 t^3 + q4 t^4, or 0
    when no t in (0, 1] lowers it.  The candidates are 1, the critical
    points, and -q1 / (2 q2), which stays accurate on short chords."""
    ts = [1.0]
    if q2 > 0.0:
        ts.append(-q1 / (2.0 * q2))
    if q4 > 0.0:
        ts += _cubic_roots(0.75 * q3 / q4, 0.5 * q2 / q4, 0.25 * q1 / q4)
    # ties go to the smaller t, so t = 0 wins unless some t lowers the quartic
    return min([(0.0, 0.0)] + [(_quartic(t, q1, q2, q3, q4), t) for t in ts if 0.0 < t <= 1.0])[1]


def armijo_outer_iteration(g: Graph, cfg: SolverConfig, state: SolverState) -> SolverState:
    """One outer iteration: an exact line search along the projected
    chord p = [u - alpha g]_+ - u at the current penalty, then
    d <- min(gamma d, d_max).

    f(u + t p) - f(u) = q1 t + q2 t^2 + q3 t^3 + q4 t^4 comes from one
    pass A p and a few scalars, so it sees decreases far below one ulp of
    f.  The step goes to its minimizer t* over [0, 1], and A u + t* A p is
    carried.  alpha then follows SolverConfig.beta; it stays put if p = 0.
    The name and ArmijoStep's trials (always 1) and accepted (t* > 0)
    stay because perfbench/tracing.py reads them.
    """
    u = np.asarray(state.u, dtype=np.float64)
    d = float(state.d)
    alpha = float(state.alpha)
    cap = _effective_d_max(g, cfg)

    f_old, grad = _objective_and_gradient(d, u, state.au)
    if not (math.isfinite(f_old) and np.isfinite(grad).all()):
        raise NumericalDivergenceError("non-finite objective or gradient", u)

    cand = np.maximum(u - alpha * grad, 0.0)
    p = cand - u
    ap = g.adj_matvec(p)
    uu, up, pp, sp = float(u @ u), float(u @ p), float(p @ p), float(p.sum())
    u_md_p = (1.0 + d) * (float(u @ ap) + up) - d * float(u.sum()) * sp
    p_md_p = (1.0 + d) * (float(p @ ap) + pp) - d * sp * sp
    q = (2.0 * (uu * up - u_md_p), 2.0 * up * up + pp * uu - p_md_p, 2.0 * up * pp, 0.5 * pp * pp)
    if not all(map(math.isfinite, q)):
        raise NumericalDivergenceError("non-finite chord coefficients", cand)

    t = _chord_minimizer(*q)
    if t == 1.0:
        u_new, alpha = cand, alpha / math.sqrt(cfg.beta)
    else:
        u_new = np.maximum(u + t * p, 0.0)
        alpha *= max(t, cfg.beta) if pp > 0.0 else 1.0
    step = ArmijoStep(
        d=d,
        alpha_used=float(state.alpha),
        f_old=f_old,
        f_new=f_old + _quartic(t, *q),
        accepted=t > 0.0,
    )
    return SolverState(
        u=u_new,
        au=state.au + t * ap,
        d=min(cfg.gamma * d, cap),
        alpha=alpha,
        iteration=state.iteration + 1,
        last_step=step,
    )


def _is_binary(u: np.ndarray, cfg: SolverConfig) -> bool:
    lo = cfg.binary_tol_low
    hi_lo, hi_hi = cfg.binary_tol_high
    high = (u >= hi_lo) & (u <= hi_hi)
    # the all-zero iterate also has every coordinate in a band, but its
    # rounding is the empty set; insist on at least one coordinate near 1
    return bool(np.all((u <= lo) | high) and high.any())


def solve(
    g: Graph,
    cfg: SolverConfig | None = None,
    *,
    record_iterates: bool = False,
) -> SolverResult:
    """Run the penalized rank-one solver from a seeded random start.

    Starts from u ~ Uniform(0, 1)^n with the balance penalty d0 and step
    alpha0 = 0.1 ||u0|| / ||grad(u0)||, then repeats
    armijo_outer_iteration until every coordinate is numerically binary
    (converged) or max_outer_iterations is hit.

    The final iterate is rounded coordinatewise; a converged run must
    round to a maximal clique, and RoundingInvariantError is raised
    otherwise.  The binary-band stopping rule does not rule that out: an
    iterate at a symmetric saddle next to a non-maximal clique can sit
    inside the band (see README, Design notes).
    Non-converged runs report the rounding as-is together with its
    validity flags.  The final stationarity residual is evaluated at the
    penalty cap, or reported as inf for an identically zero final iterate.

    Raises EdgelessGraphError when the graph has no edges: every
    maximal clique is a singleton and the penalized problem is trivial.
    """
    cfg = cfg if cfg is not None else SolverConfig()
    if g.edge_count == 0:
        raise EdgelessGraphError("no edges: every maximal clique is a singleton")

    rng = np.random.default_rng(cfg.seed)
    u0 = rng.random(g.n)
    cap = _effective_d_max(g, cfg)
    d0 = cfg.d0_override if cfg.d0_override is not None else default_d0(g)
    d0 = min(float(d0), cap)

    au0 = g.adj_matvec(u0)
    _, grad0 = _objective_and_gradient(d0, u0, au0)
    grad_norm = float(np.linalg.norm(grad0))
    alpha0 = 0.1 * float(np.linalg.norm(u0)) / grad_norm if grad_norm > 0 else 1.0

    state = SolverState(u=u0, au=au0, d=d0, alpha=alpha0)
    trace: list[float] = []
    iterates: list[IterateRecord] | None = [] if record_iterates else None
    converged = False
    while state.iteration < cfg.max_outer_iterations:
        state = armijo_outer_iteration(g, cfg, state)
        assert state.last_step is not None
        trace.append(state.last_step.f_new)
        if iterates is not None:
            iterates.append(IterateRecord(d=state.last_step.d, u=state.u.copy(), step=state.last_step))
        if _is_binary(state.u, cfg):
            converged = True
            break

    u_final = state.u
    clique = CliqueSet.from_indicator(round_phi(u_final))
    maximal = is_maximal_clique(g, clique.vertices)
    valid = maximal or is_clique(g, clique.vertices)
    if converged and not maximal:
        raise RoundingInvariantError(
            f"converged iterate rounds to {clique.vertices}, which is not a maximal clique"
        )
    residual = (
        stationarity_residual(g, cap, u_final) if float(u_final @ u_final) > 0 else math.inf
    )
    return SolverResult(
        u_final=u_final,
        clique=clique,
        converged=converged,
        iterations=state.iteration,
        objective_trace=trace,
        stationarity_residual_final=residual,
        clique_valid=valid,
        clique_maximal=maximal,
        iterates=iterates,
    )
