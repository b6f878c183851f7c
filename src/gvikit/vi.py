"""Projection-type solvers for Stampacchia variational inequalities.

Both solvers run the natural map ``x -> P_C(x - step * F(x))`` and stop on
its fixed-point residual.  The plain projection method needs strong
monotonicity to converge; the extragradient method adds a predictor
evaluation and converges for merely monotone Lipschitz operators, which is
what the reduced problems produced elsewhere in this package look like.

For an affine ``F = M x + q`` on a Box or a Simplex the inequality is a
mixed linear complementarity problem, which pivoting solves exactly in
finitely many steps.  The pivot point must pass the same residual test;
data on which no pivot ends at such a point falls back to the iterations.

Failure to converge is an ordinary outcome here, reported through the
``converged`` flag and ``stop_reason`` rather than an exception.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .errors import NonConvergence, UnsupportedVariant
from .geometry import as_vector
from .operators import OperatorExpr

RESIDUAL_TOL = 1e-8
MAX_ITER = 200_000

# extragradient accepts a step once step * |F(x) - F(y)| <= _NU * |x - y|
_NU = 0.9
_LIPSCHITZ_PROBE_SEED = 20240915
_LIPSCHITZ_PROBE_PAIRS = 64
# blocks flip for _PATIENCE solves without progress, Lemke's method takes over
# after _BLOCK_SOLVES; below _PIVOT_TOL (relative) an entry is zero, within _TIE_TOL ratios tie
_PATIENCE, _BLOCK_SOLVES, _LEMKE_PIVOTS, _PIVOT_TOL, _TIE_TOL = 3, 20, 10, 1e-12, 1e-9


@dataclass
class SolverParams:
    """Step size and termination policy.

    ``step=None`` selects the step automatically: ``0.9 / L`` when an
    exact Lipschitz bound is derivable from the operator expression,
    otherwise backtracking from a sampled estimate.  ``max_iter`` caps the
    projection iterations, not the pivots, which are finite on their own.
    """

    step: Optional[float] = None
    max_iter: int = MAX_ITER
    residual_tol: float = RESIDUAL_TOL
    step_rule: str = "fixed"  # "fixed" | "backtracking"
    beta: float = 0.5
    trial_cap: int = 30

    def __post_init__(self):
        if self.step is not None and not self.step > 0:
            raise ValueError("step must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be positive")
        if not self.residual_tol > 0:
            raise ValueError("residual_tol must be positive")
        if self.step_rule not in ("fixed", "backtracking"):
            raise ValueError("step_rule must be 'fixed' or 'backtracking'")
        if not 0 < self.beta < 1:
            raise ValueError("beta must lie in (0, 1)")
        if self.trial_cap < 1:
            raise ValueError("trial_cap must be positive")


@dataclass
class SolveReport:
    solution: np.ndarray
    residual: float
    iterations: int
    converged: bool
    step_used: float
    stop_reason: str  # "residual", "max_iter" or "pivot" (iterations then counts pivots)
    gap_certificate: Optional[float] = None
    history: Optional[List[float]] = None
    iterates: Optional[List[np.ndarray]] = None


def natural_residual(F, C, x, step):
    """``|x - P_C(x - step * F(x))|``, zero exactly at VI solutions."""
    v = as_vector(x, C.dim, "x")
    return float(np.linalg.norm(v - C.project(v - step * np.asarray(F(v), dtype=float))))


def _sampled_lipschitz(F, C):
    """Crude max difference quotient over seeded sample pairs, or None."""
    try:
        rng = np.random.default_rng(_LIPSCHITZ_PROBE_SEED)
        xs = C.sample(rng, _LIPSCHITZ_PROBE_PAIRS)
        ys = C.sample(rng, _LIPSCHITZ_PROBE_PAIRS)
    except (UnsupportedVariant, NonConvergence):
        return None
    best = 0.0
    for x, y in zip(xs, ys):
        dx = float(np.linalg.norm(x - y))
        if dx < 1e-12:
            continue
        q = float(np.linalg.norm(np.asarray(F(x), float) - F(y))) / dx
        best = max(best, q)
    return best if best > 0 else None


def _resolve_step(F, C, params):
    """Initial step and whether backtracking protects it."""
    if params.step is not None:
        return params.step, params.step_rule == "backtracking"
    bound = F.lipschitz_bound() if isinstance(F, OperatorExpr) else None
    if bound is not None:
        # a bound of 0 is a constant F, which no step can make unstable
        return (0.9 / bound if bound > 0 else 1.0), params.step_rule == "backtracking"
    est = _sampled_lipschitz(F, C)
    if est is None:
        return 1.0, True
    # sampled estimates can undershoot, so keep the safety of backtracking
    return 0.9 / (1.2 * est), True


def _backtrack(F, C, x, fx, y, fy, step, params):
    """Shrink the step until ``step * |F(x) - F(y)| <= 0.9 |x - y|``.

    ``y`` is the projected step from ``x`` and ``fy = F(y)``; at most
    ``params.trial_cap`` shrinks are tried.  Returns the accepted
    ``(y, fy, residual, step)``.
    """
    residual = float(np.linalg.norm(x - y))
    trials = 0
    while (
        step * float(np.linalg.norm(fx - fy)) > _NU * residual
        and residual > 0
        and trials < params.trial_cap
    ):
        step *= params.beta
        y = C.project(x - step * fx)
        residual = float(np.linalg.norm(x - y))
        fy = np.asarray(F(y), dtype=float)
        trials += 1
    return y, fy, residual, step


def _pivot(m, q, lower, upper, total, start):
    """``(x, pivots)`` for the affine VI ``F = M x + q`` on the set with these
    ``coordinate_bounds``, x None when no pivot ends at a solution.

    Block principal pivoting (Judice & Pires, Comput. Oper. Res. 21, 1994)
    from the face of ``start`` (side -1 lower, 1 upper, 0 free) solves the
    free block, bordered by ``sum(x) = total`` with multiplier mu, and flips
    free coordinates outside their bounds and bounded ones with a wrong-signed
    ``w = M x + q + mu``; without progress, only the last (Murty's rule)."""
    eps = _PIVOT_TOL * (1.0 + max(np.abs(q).max(), np.abs(m).max(), np.abs(lower).max()))
    side = np.where(start <= lower, -1, np.where(start >= upper, 1, 0))
    best, patience = q.size + 1, _PATIENCE
    for solves in range(1, _BLOCK_SOLVES + 1):
        free = np.flatnonzero(side == 0)
        x = np.where(side > 0, upper, lower) * (side != 0)
        lhs, rhs = m[free][:, free], -(m[free] @ x + q[free])
        if total is not None:
            lhs, rhs = np.pad(lhs, (0, 1), constant_values=1.0), np.append(rhs, total - x.sum())
            lhs[-1, -1] = 0.0
        try:
            z = np.linalg.solve(lhs, rhs)
        except np.linalg.LinAlgError:
            break
        x[free] = z[: free.size]
        low, high, w = x < lower - eps, x > upper + eps, m @ x + q + z[free.size :].sum()
        wrong = np.where(side == 0, low | high, (side * w > eps) & (lower < upper))
        count = np.count_nonzero(wrong)
        if count == 0:
            return x, solves
        best, patience = (count, _PATIENCE) if count < best else (best, patience - 1)
        if patience < 0:
            wrong[: np.flatnonzero(wrong)[-1]] = False
        side = np.where(wrong, np.where(side == 0, np.where(low, -1, 1), 0), side)
    x, pivots = _lemke(m, q, lower, upper, total)
    return x, solves + pivots


def _lemke(m, q, lower, upper, total):
    """Lemke's method (Management Sci. 11, 1965): ``(x, pivots)``, x None on a ray
    or after ``_LEMKE_PIVOTS`` per row.  With ``s = x - lower`` and ``N x <= b``
    for finite upper bounds and ``+-sum(x) <= +-total``, the KKT system is
    ``LCP([[M, N^T], [-N, 0]], [q + M lower, b - N lower])``, positive semidefinite
    for monotone M: covering vector 1 and a lexicographic ratio test solve it."""
    n, bounded = q.size, upper < np.inf
    rows, b = np.eye(n)[bounded], upper[bounded]
    if total is not None:
        rows, b = np.vstack([rows, np.ones((1, n)), -np.ones((1, n))]), np.append(b, [total, -total])
    k = n + b.size
    r = np.concatenate([q + m @ lower, b - rows @ lower])
    if r.min() >= 0.0:
        return lower.copy(), 0
    # columns w (0..k-1), z (k..2k-1), z0 (2k) and r of w - Q z - z0 = r
    big = np.block([[m, rows.T], [-rows, np.zeros((b.size, b.size))]])
    t = np.hstack([np.eye(k), -big, -np.ones((k, 1)), r[:, None]])
    basis, enter, row = np.arange(k), 2 * k, int(np.argmin(r))
    for pivots in range(1, _LEMKE_PIVOTS * k + 1):
        t[row] /= t[row, enter]
        t -= np.outer(np.where(np.arange(k) == row, 0.0, t[:, enter]), t[row])
        basis[row], leaving = enter, basis[row]
        if leaving == 2 * k:
            return lower + np.bincount(basis, t[:, -1], 2 * k + 1)[k : k + n], pivots
        enter = leaving + k if leaving < k else leaving - k
        col = t[:, enter]
        ties = np.flatnonzero(col > _PIVOT_TOL * max(1.0, np.abs(col).max()))
        if ties.size == 0:
            return None, pivots
        ratio = t[ties, -1] / col[ties]
        ties = ties[ratio <= ratio.min() + _TIE_TOL * (1.0 + abs(ratio.min()))]
        ties = ties[basis[ties] == 2 * k] if np.any(basis[ties] == 2 * k) else ties
        for j in range(k):  # columns 0..k-1 hold the basis inverse
            if ties.size == 1:
                break
            v = t[ties, j] / col[ties]
            ties = ties[v == v.min()]
        row = int(ties[0])
    return None, _LEMKE_PIVOTS * k


def _iterate(F, C, params, x0, record_history, record_iterates, extragradient):
    """The loop both solvers share.

    Each iteration projects a step along ``F(x)`` to get ``y`` and stops
    on ``|x - y|`` or at the iteration cap.  The projection method moves
    to ``y``, backtracking before the stop test; extragradient backtracks
    after it and moves to the corrected point ``P_C(x - step * F(y))``.
    For an affine F on a set with ``coordinate_bounds``, the first ``y``
    starts ``_pivot``; a point that passes the residual test stops on "pivot".
    """
    params = params if params is not None else SolverParams()
    x = C.project(np.zeros(C.dim) if x0 is None else as_vector(x0, C.dim, "x0"))
    step, backtrack = _resolve_step(F, C, params)
    bounds = C.coordinate_bounds()
    form = F.affine_form() if bounds is not None and isinstance(F, OperatorExpr) else None
    history = [] if record_history else None
    iterates = [x.copy()] if record_iterates else None
    iterations = 0
    while True:
        fx = np.asarray(F(x), dtype=float)
        y = C.project(x - step * fx)
        residual = float(np.linalg.norm(x - y))
        if record_history:
            history.append(residual)
        if backtrack and not extragradient:
            y, _, residual, step = _backtrack(
                F, C, x, fx, y, np.asarray(F(y), dtype=float), step, params
            )
        if residual <= params.residual_tol or iterations >= params.max_iter:
            return SolveReport(
                solution=x,
                residual=natural_residual(F, C, x, step),
                iterations=iterations,
                converged=residual <= params.residual_tol,
                step_used=step,
                stop_reason="residual" if residual <= params.residual_tol else "max_iter",
                history=history,
                iterates=iterates,
            )
        if form is not None:
            z, pivots = _pivot(*form, *bounds, y)
            z, form = (None if z is None else C.project(z)), None
            z_residual = np.inf if z is None else natural_residual(F, C, z, step)
            if z_residual <= params.residual_tol:
                if record_history:
                    history.append(z_residual)
                return SolveReport(z, z_residual, pivots, True, step, "pivot", None, history, iterates)
        if extragradient:
            fy = np.asarray(F(y), dtype=float)
            if backtrack:
                y, fy, residual, step = _backtrack(F, C, x, fx, y, fy, step, params)
            y = C.project(x - step * fy)
        x = y
        iterations += 1
        if record_iterates:
            iterates.append(x.copy())


def solve_projection(F, C, params=None, x0=None, record_history=False, record_iterates=False):
    """Fixed-point iteration of the natural map.

    Reliable for strongly monotone Lipschitz operators with a small enough
    step; merely monotone problems (for example rotation fields) make the
    iteration circle without converging, which the report states honestly.
    """
    return _iterate(F, C, params, x0, record_history, record_iterates, extragradient=False)


def solve_extragradient(F, C, params=None, x0=None, record_history=False, record_iterates=False):
    """Extragradient iteration: predictor step, then corrected update.

    Converges for monotone Lipschitz F once ``step * L < 1``.  With
    ``step_rule='backtracking'`` the step shrinks until the sampled
    Lipschitz condition ``step * |F(x) - F(y)| <= 0.9 |x - y|`` holds, so
    no a priori constant is needed.
    """
    return _iterate(F, C, params, x0, record_history, record_iterates, extragradient=True)
