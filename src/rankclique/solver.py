"""Clique search by penalized rank-one nonnegative approximation.

The adjacency matrix A is augmented to B = A + I and every non-edge is
penalized with a negative weight -d, giving the implicit matrix

    M_d[i, j] = 1    if i == j or {i, j} is an edge
    M_d[i, j] = -d   otherwise.

Minimizing ||M_d - u u^T||_F^2 over u >= 0 with a large enough penalty
drives u toward the 0/1 indicator vector of a maximal clique, and the
squared norm of the minimizer equals the clique size.  solve runs
projected gradient descent while the penalty grows, each step an exact
line search in place of the paper's Armijo backtracking.

M_d is never materialized: M_d u = (1 + d) (A u + u) - d sum(u) needs
one product A u from Graph.adj_matvec (see Graph._pass).  The step
updates its vectors in place, in the operand order of the plain
formulas, so its iterates are bit for bit those of the formulas.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace
from typing import ClassVar, Literal

import numpy as np

from .graph import CliqueSet, EdgelessGraphError, Graph, _clique_status, is_maximal_clique


class NumericalDivergenceError(RuntimeError):
    """Objective or gradient became non-finite; carries the offending iterate."""

    def __init__(self, message: str, iterate: np.ndarray):
        self.iterate = iterate
        super().__init__(message)


# The penalty schedule: d <- min(GAMMA d, d_max) every iteration.  After
# a step to the chord's minimizer t* < 1, alpha becomes alpha max(t*, BETA);
# after t* = 1 it becomes alpha / sqrt(BETA).
GAMMA = 1.1
BETA = 0.5


def _check_count(name: str, k) -> None:
    """ValueError unless k is an integer of at least 1, the rule for
    every count of iterations, restarts or trials."""
    if not (isinstance(k, numbers.Integral) and k >= 1):
        raise ValueError(f"{name} must be at least 1 and an integer, got {k!r}")


@dataclass(frozen=True)
class SolverConfig:
    """Tuning knobs for the projected gradient solver.  The penalty's
    growth (GAMMA), its cap d_max(g) and the step rule (BETA) are fixed.

    d0_override          : starting penalty, finite and positive
                           (default: Frobenius-balance value), clamped to d_max
    binary_tol           : width of the binary bands, in (0, 0.5): a coordinate
                           counts as 0 in [0, tol] and as 1 in [1 - tol, 1 + tol]
    max_outer_iterations : hard stop when the binary criterion never triggers,
                           an integer of at least 1
    seed                 : RNG seed for the uniform random start
    """

    d0_override: float | None = None
    binary_tol: float = 1e-3
    max_outer_iterations: int = 10_000
    seed: int = 0

    def __post_init__(self):
        # a zero start would stay zero under d <- GAMMA d; nan fails the test
        d0 = self.d0_override
        if d0 is not None and not 0.0 < d0 < math.inf:
            raise ValueError(f"d0_override must be finite and positive, got {d0}")
        # a band reaching 0.5 would count as 0 a coordinate that round_phi
        # rounds to 1; nan fails the test
        if not 0.0 < self.binary_tol < 0.5:
            raise ValueError(f"binary_tol must lie in (0, 0.5), got {self.binary_tol}")
        # nan would run no iteration, 2.5 three and inf without end
        _check_count("max_outer_iterations", self.max_outer_iterations)


@dataclass(slots=True)
class ArmijoStep:
    """Diagnostics of one outer iteration's line search; trials is always
    1.  u, the new iterate, is kept only on the steps that
    solve(record_iterates=True) records."""

    d: float
    alpha_used: float
    f_old: float
    f_new: float
    accepted: bool
    u: np.ndarray | None = None
    trials: ClassVar[int] = 1


@dataclass(slots=True)
class SolverState:
    """Loop state threaded through armijo_outer_iteration.

    u >= 0, au is A u, carried from the pass that computed it, and
    0 <= d <= d_cap; on such a state a finite objective implies a finite
    gradient (_objective_and_residual).  last_step carries the latest
    line-search diagnostics.  d_cap is the penalty cap d_max(g) and
    alpha the step size; left at None, the first step computes each,
    alpha as alpha0 = 0.1 ||u|| / ||grad(u)||, or 1 when the gradient
    is 0, with ||x|| = sqrt(x.x) as np.linalg.norm takes it.  su and uu
    are sum(u) and u.u, taken from u's own float64 array when the state
    is made.
    """

    u: np.ndarray
    au: np.ndarray
    d: float
    alpha: float | None
    iteration: int = 0
    last_step: ArmijoStep | None = None
    d_cap: float | None = None
    su: float = field(init=False)
    uu: float = field(init=False)

    def __post_init__(self):
        self.u = np.asarray(self.u, dtype=np.float64)
        self.su, self.uu = _sum_and_square(self.u)


@dataclass(frozen=True)
class SolverResult:
    """What solve returns.  null_steps counts the steps whose chord
    minimizer was t* = 0 (ArmijoStep.accepted false); stop says why the
    run ended: "certified" when its rounding was certified a maximal
    clique (converged), "cap" when it reached max_outer_iterations."""

    u_final: np.ndarray
    clique: CliqueSet
    converged: bool
    iterations: int
    objective_trace: list[float]
    clique_valid: bool
    clique_maximal: bool
    null_steps: int
    stop: Literal["certified", "cap"]
    iterates: list[ArmijoStep] | None = None


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


def md_norm_sq(g: Graph, d: float) -> float:
    """Frobenius norm squared of the implicit penalized matrix:
    nnz(B) ones plus d^2 on the remaining entries."""
    nnz = _nnz_b(g)
    return nnz + d * d * (g.n * g.n - nnz)


def _sum_and_square(u: np.ndarray) -> tuple[float, float]:
    """(sum(u), u.u), as SolverState carries them."""
    return float(np.add.reduce(u)), float(u.dot(u))


def _md_product(d: float, u: np.ndarray, au: np.ndarray, su: float) -> np.ndarray:
    """M_d u from the adjacency product au = A u and su = sum(u):
    (1 + d) (au + u) - d su, in one new array."""
    mdu = np.add(au, u)
    mdu *= 1.0 + d
    mdu -= d * su
    return mdu


def _objective_and_residual(
    d: float, u: np.ndarray, au: np.ndarray, su: float, uu: float
) -> tuple[float, np.ndarray, np.ndarray]:
    """(objective_shifted, r = u.u u - M_d u, M_d u) from au = A u,
    su = sum(u) and uu = u.u, r and M_d u in new arrays; the gradient is 2 r.

    On a state that keeps SolverState's contract, a finite objective
    implies that r and 2 r are finite, so the step tests only f.  The
    contract: u >= 0 of length n < 2^50 (a float64 vector of 2^50
    entries takes 8 PiB); au is A u as a pass computes it, or as fewer
    than 2^50 steps carry it; and 0 <= d <= d_max(g) = 2 n ||B||_F <=
    2 n^2 < 2^101, since ||B||_F^2 = n + 2|E| <= n^2.
    (a) No IEEE sum, difference or product, fused or not, of an inf or
        a nan is finite.  So a finite f = 0.5 uu uu - u.(M_d u) needs a
        finite uu, which needs every u_i finite.
    (b) Rounding is monotone, so a computed sum of nonnegative terms,
        in any order, is at least each of its terms: uu >= fl(u_i^2).
        A finite 0.5 uu uu needs uu < 2^513, so u_i^2 < 2^513 (else
        fl(u_i^2) >= 2^513) and every u_i < 2^257.
    (c) A computed sum of at most n terms of magnitude at most x has
        magnitude below n x (1 + gamma_(n-1)) < 2 n x (Higham, Accuracy
        and Stability of Numerical Algorithms, 3.1), so |su| < 2^308.
        A pass sums at most n terms per entry, and the complement form
        subtracts that sum and u_i from su, so |(A v)_i| < 5 n max|v_j|
        and a pass of u gives |au_i| < 2^310.  A step carries
        au + t A p, t in [0, 1], only once its chord's coefficients are
        finite: then 0.5 pp pp is finite, every |p_j| < 2^257 as in
        (b), and |t (A p)_i| < 2^310.  Fewer than 2^50 carried sums,
        each rounded by at most eps / 2, keep
        |au_i| < 2^50 2^310 e^(1/4) < 2^361.
    (d) So |(1 + d)(au_i + u_i)| < 2^464 and |d su| < 2^409, so
        |(M_d u)_i| < 2^465; uu u_i < 2^770, so |r_i| < 2^771 and
        |2 r_i| < 2^772, below float64's overflow at 2^1024.
    """
    mdu = _md_product(d, u, au, su)
    r = np.multiply(u, uu)
    r -= mdu
    return 0.5 * uu * uu - float(u.dot(mdu)), r, mdu


def md_matvec(g: Graph, d: float, u: np.ndarray) -> np.ndarray:
    """Product M_d @ u without forming M_d, from one adjacency pass."""
    u = np.asarray(u, dtype=np.float64)
    return _md_product(d, u, g.adj_matvec(u), float(np.add.reduce(u)))


def objective_shifted(g: Graph, d: float, u: np.ndarray) -> float:
    """-u^T M_d u + 0.5 ||u||_2^4, the objective less its constant term:
    ||M_d - u u^T||_F^2 = 2 * objective_shifted + md_norm_sq."""
    u = np.asarray(u, dtype=np.float64)
    return _objective_and_residual(d, u, g.adj_matvec(u), *_sum_and_square(u))[0]


def gradient(g: Graph, d: float, u: np.ndarray) -> np.ndarray:
    """Exact gradient of objective_shifted: 2 (||u||_2^2 u - M_d u)."""
    u = np.asarray(u, dtype=np.float64)
    grad = _objective_and_residual(d, u, g.adj_matvec(u), *_sum_and_square(u))[1]
    grad *= 2.0
    return grad


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


# the clamp's bound: np.maximum takes a 0-d array without converting a
# Python float on every call
_ZERO = np.zeros(())
_ZERO.flags.writeable = False


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
    roots = _cubic_roots(0.75 * q3 / q4, 0.5 * q2 / q4, 0.25 * q1 / q4) if q4 > 0.0 else ()
    # ties go to the smaller t, so t = 0 wins unless some t lowers the quartic
    best_f = best_t = 0.0
    for t in (1.0, -q1 / (2.0 * q2) if q2 > 0.0 else 0.0, *roots):
        if 0.0 < t <= 1.0:
            f = t * (q1 + t * (q2 + t * (q3 + t * q4)))
            if f < best_f or (f == best_f and t < best_t):
                best_f, best_t = f, t
    return best_t


def armijo_outer_iteration(g: Graph, state: SolverState) -> SolverState:
    """One outer iteration: an exact line search along the projected
    chord p = [u - alpha g]_+ - u at the current penalty, then
    d <- min(GAMMA d, d_max(g)).

    f(u + t p) - f(u) = q1 t + q2 t^2 + q3 t^3 + q4 t^4 comes from one
    pass A p and a few scalars, so it sees decreases far below one ulp of
    f.  The step goes to its minimizer t* over [0, 1], carries
    A u + t* A p and moves alpha by BETA (not at all if p = 0).  The name
    and ArmijoStep's trials and accepted stay for perfbench/tracing.py.

    Raises NumericalDivergenceError when f(u) is not finite, which on a
    state that keeps SolverState's contract is also when the gradient is
    not (_objective_and_residual), or when the chord's coefficients are
    not.
    """
    u, au, su, uu = state.u, state.au, state.su, state.uu
    d = float(state.d)
    d_cap = state.d_cap if state.d_cap is not None else d_max(g)

    f_old, r, mdu = _objective_and_residual(d, u, au, su, uu)
    # a finite f_old implies a finite gradient (_objective_and_residual)
    if not math.isfinite(f_old):
        raise NumericalDivergenceError("non-finite objective or gradient", u)
    alpha = state.alpha
    if alpha is None:
        grad = r * 2.0
        grad_norm = math.sqrt(grad.dot(grad))
        alpha = 0.1 * math.sqrt(uu) / grad_norm if grad_norm > 0 else 1.0
    alpha = alpha_used = float(alpha)

    # [u - alpha g]_+ in r's array, as r (-2 alpha) + u: both doublings
    # are exact (for 2 alpha finite), so it equals g (-alpha) + u
    cand = r
    cand *= -2.0 * alpha
    cand += u
    np.maximum(cand, _ZERO, out=cand)
    p = np.subtract(cand, u, out=mdu)
    ap = g.adj_matvec(p)
    up, pp, sp = float(u.dot(p)), float(p.dot(p)), float(np.add.reduce(p))
    u_md_p = (1.0 + d) * (float(u.dot(ap)) + up) - d * su * sp
    p_md_p = (1.0 + d) * (float(p.dot(ap)) + pp) - d * sp * sp
    q = (2.0 * (uu * up - u_md_p), 2.0 * up * up + pp * uu - p_md_p, 2.0 * up * pp, 0.5 * pp * pp)
    if not all(map(math.isfinite, q)):
        raise NumericalDivergenceError("non-finite chord coefficients", cand)

    t = _chord_minimizer(*q)
    if t == 1.0:
        u_new, alpha = cand, alpha / math.sqrt(BETA)
    else:
        # u + t p in p's array, and t A p in A p's.  It needs no clamp:
        # with u >= 0, cand >= 0 and 0 <= t <= 1, p = fl(cand - u) >= -u
        # and fl(t p) >= -u, as rounding keeps the representable bound -u,
        # so u + fl(t p) rounds to +0 or above
        p *= t
        u_new = np.add(u, p, out=p)
        alpha *= max(t, BETA) if pp > 0.0 else 1.0
        ap *= t
    # A u + t A p in A p's array
    au_new = np.add(au, ap, out=ap)
    step = ArmijoStep(
        d=d,
        alpha_used=alpha_used,
        f_old=f_old,
        f_new=f_old + _quartic(t, *q),
        accepted=t > 0.0,
    )
    return SolverState(
        u=u_new,
        au=au_new,
        d=min(GAMMA * d, d_cap),
        alpha=alpha,
        iteration=state.iteration + 1,
        last_step=step,
        d_cap=d_cap,
    )


def _is_binary(u: np.ndarray, cfg: SolverConfig) -> bool:
    # u >= 0, so every coordinate is in a band when none lies strictly
    # between them and none lies above the upper one
    tol = cfg.binary_tol
    return not np.count_nonzero((u > tol) & (u < 1.0 - tol)) and float(np.maximum.reduce(u)) <= 1.0 + tol


_EPS = float(np.finfo(np.float64).eps)


def _band_screen(su: float, uu: float, n: int, tol: float) -> bool:
    """False only for an iterate u >= 0 of length n that _is_binary
    rejects, read off su = sum(u) and uu = u.u alone.

    A coordinate in a band, u_i in [0, tol] or in [1 - tol, 1 + tol], has
    |u_i - u_i^2| = u_i |1 - u_i| <= tol (1 + tol), so a binary iterate
    has |sum(u) - u.u| <= n tol (1 + tol).  Summed in any order, n
    nonnegative terms err by at most gamma_(n-1) of their sum, and a dot
    product of n terms by gamma_n of its terms' sum, where
    gamma_k = k eps/2 / (1 - k eps/2) (Higham, Accuracy and Stability of
    Numerical Algorithms, 3.1), so 2 n eps (su + uu) covers the error of
    both reductions with room for the rounding of this test's own
    arithmetic.  An iterate that passes still goes through _is_binary;
    a nan in su or uu fails the screen.
    """
    return abs(su - uu) <= n * tol * (1.0 + tol) + 2.0 * n * _EPS * (su + uu)


def solve(
    g: Graph,
    cfg: SolverConfig | None = None,
    *,
    record_iterates: bool = False,
) -> SolverResult:
    """Run the penalized rank-one solver from a seeded random start.

    Starts from u ~ Uniform(0, 1)^n with the balance penalty d0 (or
    d0_override) clamped to d_max(g) and the step size left to the first
    step (SolverState), then repeats armijo_outer_iteration until the
    run converges or max_outer_iterations is hit.

    Converged means certified: at each iteration whose coordinates are
    all numerically binary (tested only on iterates that pass
    _band_screen), the coordinatewise rounding is checked unless it
    equals the last rounding checked, and the run stops when it is a
    maximal clique.  A rounding that is not maximal, such as that of an
    iterate at a symmetric saddle next to a non-maximal clique (see
    README, Design notes), does not stop it; a run held there ends at
    max_outer_iterations.  Non-converged runs report the final
    iterate's rounding as-is, with its validity flags.  The final
    iterate's stationarity residual is not taken here, which saves a
    pass: for a nonzero final iterate, stationarity_residual(g,
    d_max(g), result.u_final) gives it at the penalty cap.

    Raises EdgelessGraphError when the graph has no edges: every
    maximal clique is a singleton and the penalized problem is trivial.
    """
    cfg = cfg if cfg is not None else SolverConfig()
    if g.edge_count == 0:
        raise EdgelessGraphError("no edges: every maximal clique is a singleton")

    rng = np.random.default_rng(cfg.seed)
    u0 = rng.random(g.n)
    d0 = cfg.d0_override if cfg.d0_override is not None else default_d0(g)
    d_cap = d_max(g)
    d0 = min(float(d0), d_cap)

    state = SolverState(u=u0, au=g.adj_matvec(u0), d=d0, alpha=None, d_cap=d_cap)

    n, tol = g.n, cfg.binary_tol
    trace: list[float] = []
    iterates: list[ArmijoStep] | None = [] if record_iterates else None
    converged = False
    null_steps = 0
    # the last rounding checked, as the sorted indices of round_phi's
    # ones; it was not maximal
    checked = None
    while not converged and state.iteration < cfg.max_outer_iterations:
        state = armijo_outer_iteration(g, state)
        trace.append(state.last_step.f_new)
        null_steps += not state.last_step.accepted
        if iterates is not None:
            iterates.append(replace(state.last_step, u=state.u.copy()))
        if _band_screen(state.su, state.uu, n, tol) and _is_binary(state.u, cfg):
            rounded = np.flatnonzero(state.u > 0.5)
            if checked is None or not np.array_equal(rounded, checked):
                checked = rounded
                converged = is_maximal_clique(g, rounded)

    if converged:
        valid = maximal = True
    else:
        rounded = np.flatnonzero(state.u > 0.5)
        valid, maximal = _clique_status(g, rounded)
    return SolverResult(
        u_final=state.u,
        clique=CliqueSet._of_sorted(rounded),
        converged=converged,
        iterations=state.iteration,
        objective_trace=trace,
        clique_valid=valid,
        clique_maximal=maximal,
        null_steps=null_steps,
        stop="certified" if converged else "cap",
        iterates=iterates,
    )
