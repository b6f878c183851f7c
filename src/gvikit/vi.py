"""Projection-type solvers for Stampacchia variational inequalities.

Both solvers run the natural map ``x -> P_C(x - step * F(x))`` and stop on
its fixed-point residual.  The plain projection method needs strong
monotonicity to converge; the extragradient method adds a predictor
evaluation and converges for merely monotone Lipschitz operators, which is
what the reduced problems produced elsewhere in this package look like.

For an affine F on a Box or a Simplex, projected iterations find the
solution's face in finitely many steps (Calamai & More, Math. Program. 39,
1987), and on that face the solution is one linear solve: the free block
of F on a Box, and its KKT system with the multiplier of ``sum(x) = 1`` on
a Simplex.  The loop tries it once per face that two successive iterates
share, and at once on any smaller face where a rejected face point lands.

Failure to converge is an ordinary outcome here, reported through the
``converged`` flag and ``stop_reason`` rather than an exception.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from .errors import NonConvergence, UnsupportedVariant
from .geometry import Box, Simplex, as_vector
from .operators import OperatorExpr

RESIDUAL_TOL = 1e-8
MAX_ITER = 200_000

# extragradient accepts a step once step * |F(x) - F(y)| <= _NU * |x - y|
_NU = 0.9
_LIPSCHITZ_PROBE_SEED = 20240915
_LIPSCHITZ_PROBE_PAIRS = 64


@dataclass
class SolverParams:
    """Step size and termination policy.

    ``step=None`` selects the step automatically: ``0.9 / L`` when an
    exact Lipschitz bound is derivable from the operator expression,
    otherwise backtracking from a sampled estimate.
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
    stop_reason: str  # "residual", "max_iter" or "face_solve" (affine F on a Box or Simplex)
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


def _face(C, x):
    """The face of C that x lies on: the coordinates the projection put
    exactly on a bound of a Box (1 lower, 2 upper) or at 0 on a Simplex."""
    if isinstance(C, Box):
        return (x == C.lower) + 2 * (x == C.upper)
    return x == 0.0


def _smaller_face(C, z, face):
    """The face of z when it is a proper face of ``face``, else None: z holds
    every bound of ``face`` and at least one more."""
    new = _face(C, z)
    return new if np.all((face == 0) | (new == face)) and np.any(new != face) else None


def _face_point(form, C, x):
    """The solution of an affine ``F = M x + q`` on the face of C that x lies on.

    Coordinates on a bound stay there; the free ones solve
    ``M_FF z_F = -(q_F + M_FW z_W)``, on a Simplex bordered by its equality
    ``[M_FF 1; 1^T 0] [z_F; lam] = [-q_F; 1]``.  Least squares makes a
    singular block give a point that the caller's residual test rejects.
    """
    m, q = form
    free = (x > C.lower) & (x < C.upper) if isinstance(C, Box) else x > 0.0
    z = x.copy()
    if free.any():
        k = int(free.sum())
        lhs = m[np.ix_(free, free)]
        rhs = -(q[free] + m[np.ix_(free, ~free)] @ x[~free])
        if isinstance(C, Simplex):
            lhs = np.block([[lhs, np.ones((k, 1))], [np.ones((1, k)), np.zeros((1, 1))]])
            rhs = np.append(rhs, 1.0)
        z[free] = np.linalg.lstsq(lhs, rhs, rcond=None)[0][:k]
    return C.project(z)


def _iterate(F, C, params, x0, record_history, record_iterates, extragradient):
    """The loop both solvers share.

    Each iteration projects a step along ``F(x)`` to get ``y`` and stops
    on ``|x - y|`` or at the iteration cap.  The projection method moves
    to ``y``, backtracking before the stop test; extragradient backtracks
    after it and moves to the corrected point ``P_C(x - step * F(y))``.
    For an affine F on a Box or a Simplex, an iterate on the same face as
    the previous one (``_face``: the coordinates the projection put exactly
    on a bound) takes that face's ``_face_point``, once per face, and stops
    there with ``stop_reason = "face_solve"`` when it passes the residual
    test.  A rejected face point that lies on a smaller face has found more
    active bounds, so that face is solved at once, from the point.
    """
    params = params if params is not None else SolverParams()
    x = C.project(np.zeros(C.dim) if x0 is None else as_vector(x0, C.dim, "x0"))
    step, backtrack = _resolve_step(F, C, params)
    faceted = isinstance(F, OperatorExpr) and isinstance(C, (Box, Simplex))
    form = F.affine_form() if faceted else None
    tried, last_face = set(), None
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
            face, z = _face(C, x), x
            trial = face if np.array_equal(face, last_face) else None
            while trial is not None and trial.tobytes() not in tried:
                tried.add(trial.tobytes())
                z = _face_point(form, C, z)
                z_residual = natural_residual(F, C, z, step)
                if z_residual <= params.residual_tol:
                    if record_history:
                        history.append(z_residual)
                    return SolveReport(
                        z, z_residual, iterations, True, step, "face_solve",
                        history=history, iterates=iterates,
                    )
                trial = _smaller_face(C, z, trial)
            last_face = face
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
