"""Clique search by penalized rank-one nonnegative approximation.

The adjacency matrix A is augmented to B = A + I and every non-edge is
penalized with a negative weight -d, giving the implicit matrix

    M_d[i, j] = 1    if i == j or {i, j} is an edge
    M_d[i, j] = -d   otherwise.

Minimizing ||M_d - u u^T||_F^2 over u >= 0 with a large enough penalty
drives u toward the 0/1 indicator vector of a maximal clique, and the
squared norm of the minimizer equals the clique size.  The solver runs
projected gradient descent with an Armijo step-size rule while growing
d geometrically up to a graph-dependent cap; iterates are declared
converged once every coordinate is numerically binary.

M_d is never materialized: all products go through md_matvec, one
sparse adjacency pass plus rank-one corrections.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    sigma                : Armijo sufficient-decrease coefficient
    beta                 : Armijo backtracking factor (shrink on failure,
                           grow by 1/sqrt(beta) on success)
    max_armijo_trials    : candidate evaluations per outer iteration
    d0_override          : starting penalty (default: Frobenius-balance value)
    d_max_override       : penalty cap (default: 2 n ||B||_F)
    binary_tol_low       : coordinates at most this count as 0
    binary_tol_high      : closed interval of coordinates counting as 1
    max_outer_iterations : hard stop when the binary criterion never triggers
    alpha_cap_factor     : step size never exceeds this multiple of the
                           initial step (and never drops below 1e-12 of it)
    seed                 : RNG seed for the uniform random start
    """

    gamma: float = 1.1
    sigma: float = 0.01
    beta: float = 0.5
    max_armijo_trials: int = 5
    d0_override: float | None = None
    d_max_override: float | None = None
    binary_tol_low: float = 0.001
    binary_tol_high: tuple[float, float] = (0.999, 1.001)
    max_outer_iterations: int = 10_000
    alpha_cap_factor: float = 1e6
    seed: int = 0

    def __post_init__(self):
        if self.gamma <= 1.0:
            raise ValueError(f"gamma must exceed 1, got {self.gamma}")
        if not 0.0 < self.sigma < 1.0:
            raise ValueError(f"sigma must lie in (0, 1), got {self.sigma}")
        if not 0.0 < self.beta < 1.0:
            raise ValueError(f"beta must lie in (0, 1), got {self.beta}")
        if self.max_armijo_trials < 1:
            raise ValueError("max_armijo_trials must be at least 1")
        if self.max_outer_iterations < 1:
            raise ValueError("max_outer_iterations must be at least 1")


@dataclass(frozen=True)
class ArmijoStep:
    """Diagnostics of one outer iteration's line search."""

    d: float
    alpha_used: float
    f_old: float
    f_new: float
    decrease_bound: float  # sigma * grad . (u_new - u_old)
    trials: int
    accepted: bool


@dataclass
class SolverState:
    """Loop state threaded through armijo_outer_iteration.

    alpha0 anchors the relative step-size clamp; last_step carries the
    most recent line-search diagnostics for traces and tests.
    """

    u: np.ndarray
    d: float
    alpha: float
    iteration: int = 0
    alpha0: float | None = None
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


def _check_vector(g: Graph, u) -> np.ndarray:
    u = np.asarray(u, dtype=np.float64)
    if u.shape != (g.n,):
        raise ValueError(f"vector has shape {u.shape}, expected ({g.n},)")
    return u


def md_matvec(g: Graph, d: float, u: np.ndarray) -> np.ndarray:
    """Product M_d @ u without forming M_d.

    M_d = (1 + d) (A + I) - d * ones, so the product is one adjacency
    pass plus two rank-one corrections:
    (1 + d) (A u + u) - d * sum(u) * ones.
    """
    u = _check_vector(g, u)
    if g.n == 0:
        return np.zeros(0)
    return (1.0 + d) * (g.adj_matvec(u) + u) - d * float(u.sum())


def objective_shifted(g: Graph, d: float, u: np.ndarray) -> float:
    """The approximation objective with its constant term dropped:
    -u^T M_d u + 0.5 ||u||_2^4.  The full squared error is
    2 * objective_shifted + md_norm_sq."""
    u = _check_vector(g, u)
    nrm2 = float(u @ u)
    return -float(u @ md_matvec(g, d, u)) + 0.5 * nrm2 * nrm2


def gradient(g: Graph, d: float, u: np.ndarray) -> np.ndarray:
    """Exact gradient of objective_shifted: 2 (||u||_2^2 u - M_d u)."""
    u = _check_vector(g, u)
    return 2.0 * (float(u @ u) * u - md_matvec(g, d, u))


def round_phi(u: np.ndarray) -> np.ndarray:
    """Coordinatewise rounding to {0, 1}: entries above 0.5 map to 1,
    everything else (the boundary included) to 0."""
    return (np.asarray(u, dtype=np.float64) > 0.5).astype(np.float64)


def stationarity_residual(g: Graph, d: float, u: np.ndarray) -> float:
    """Max-norm violation of the fixed-point condition
    u = [M_d u]_+ / ||u||_2^2 satisfied by nonzero stationary points."""
    u = _check_vector(g, u)
    nrm2 = float(u @ u)
    if nrm2 == 0.0:
        raise ValueError("residual undefined at the zero vector")
    r = u - np.maximum(md_matvec(g, d, u), 0.0) / nrm2
    return float(np.abs(r).max())


def lift_ball_point(g: Graph, d: float, v: np.ndarray) -> np.ndarray:
    """Map a unit-ball point v to the approximation variable
    u = sqrt(v^T M_d v) v.  Requires v^T M_d v > 0."""
    v = _check_vector(g, v)
    q = float(v @ md_matvec(g, d, v))
    if q <= 0.0:
        raise ValueError(f"quadratic form is {q}, must be positive to lift")
    return math.sqrt(q) * v


def _objective_and_gradient(g: Graph, d: float, u: np.ndarray) -> tuple[float, np.ndarray]:
    # shares the single matvec between objective and gradient
    mdu = md_matvec(g, d, u)
    nrm2 = float(u @ u)
    f = -float(u @ mdu) + 0.5 * nrm2 * nrm2
    return f, 2.0 * (nrm2 * u - mdu)


_ALPHA_FLOOR_FACTOR = 1e-12


def armijo_outer_iteration(g: Graph, cfg: SolverConfig, state: SolverState) -> SolverState:
    """One outer iteration: backtracking line search at the current
    penalty, then advance the penalty.

    At most cfg.max_armijo_trials candidates u_new = [u - alpha g]_+
    are evaluated.  A candidate passes when
    f(u_new) - f(u) <= sigma * g . (u_new - u); failure shrinks alpha by
    beta and retries, success grows alpha by 1/sqrt(beta) for the next
    iteration.  If every trial fails the last candidate is accepted
    anyway.  Afterwards alpha is clamped relative to the initial step
    and d <- min(gamma d, d_max).
    """
    u = np.asarray(state.u, dtype=np.float64)
    d = float(state.d)
    alpha = float(state.alpha)
    alpha0 = float(state.alpha0) if state.alpha0 is not None else alpha
    cap = _effective_d_max(g, cfg)

    f_old, grad = _objective_and_gradient(g, d, u)
    if not (math.isfinite(f_old) and np.isfinite(grad).all()):
        raise NumericalDivergenceError("non-finite objective or gradient", u)

    accepted = False
    trials = 0
    u_new = u
    f_new = f_old
    bound = 0.0
    alpha_used = alpha
    for _ in range(cfg.max_armijo_trials):
        trials += 1
        alpha_used = alpha
        u_new = np.maximum(u - alpha * grad, 0.0)
        f_new = objective_shifted(g, d, u_new)
        if not math.isfinite(f_new):
            raise NumericalDivergenceError("non-finite candidate objective", u_new)
        bound = cfg.sigma * float(grad @ (u_new - u))
        if f_new - f_old > bound:
            alpha = cfg.beta * alpha
        else:
            alpha = alpha / math.sqrt(cfg.beta)
            accepted = True
            break

    alpha = min(max(alpha, _ALPHA_FLOOR_FACTOR * alpha0), cfg.alpha_cap_factor * alpha0)
    step = ArmijoStep(
        d=d,
        alpha_used=alpha_used,
        f_old=f_old,
        f_new=f_new,
        decrease_bound=bound,
        trials=trials,
        accepted=accepted,
    )
    return SolverState(
        u=u_new,
        d=min(cfg.gamma * d, cap),
        alpha=alpha,
        iteration=state.iteration + 1,
        alpha0=alpha0,
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
    otherwise.  The binary-band stopping rule does not rule that out:
    about 1% of default-config restarts on dense random graphs hit it.
    Non-converged runs report the rounding as-is together with its
    validity flags.  The final
    stationarity residual is evaluated at the penalty cap, or reported
    as inf for an identically zero final iterate.

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

    _, grad0 = _objective_and_gradient(g, d0, u0)
    grad_norm = float(np.linalg.norm(grad0))
    alpha0 = 0.1 * float(np.linalg.norm(u0)) / grad_norm if grad_norm > 0 else 1.0

    state = SolverState(u=u0, d=d0, alpha=alpha0, iteration=0, alpha0=alpha0)
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
