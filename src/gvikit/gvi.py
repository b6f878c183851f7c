"""General variational inequalities: one x-space path and one image path.

The problem: find x in K with ``<A(x), a(y) - a(x)> >= 0`` for all y in K.
When ``a`` is affine, ``a(x) = M x + c`` (any expression whose
``affine_form()`` exists: the identity, an ``Affine``, a ``Rotation``, or
a ``Scale``, ``Sum`` or ``Compose`` of affine maps, with M of any rank or
shape), the pairing is ``<M^T A(x), y - x>``, so the problem is the plain
inequality ``VI(M^T A, K)`` on K itself, solved with no inversion and no
image set.  For any other map, writing u = a(x) turns the problem into a
Stampacchia inequality for the reduced operator ``A o b`` on the declared
image of ``a``, where b picks one preimage per image point; this module
supplies that selection (projected Gauss-Newton with deterministic
multistart) behind a per-solve fiber cache.  It also holds ``certify``:
the gap, pullback, coincidence and complementarity residuals of a solve
and the one rule that certifies it for every problem kind.  K is compact
for every kind (a cone belongs to the complementarity problem, which
``complementarity_check`` certifies), so the gap is always a linear
minimization: exact through ``ConvexSet.linear_min`` for an affine map,
and a lower bound over the interval enclosure of ``a`` on K's bounding
box for any other (exact where that box is ``a(K)``).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import (
    DimensionMismatch,
    DimensionTooLarge,
    InversionFailed,
    NonConvergence,
    UnsupportedVariant,
)
from .geometry import Box, ConvexSet, PolyhedralCone, _exact_distances, as_vector
from .operators import (
    Affine,
    Compose,
    OperatorExpr,
    _verdict,
    fiber_factors,
    jacobian_fd,
    proven_report,
)
from .vi import SolveReport, SolverParams, solve_extragradient

GAP_TOL = 1e-6
IMAGE_TOL = 1e-7
COINCIDENCE_TOL = 1e-6
COMPLEMENTARITY_TOL = 1e-8

_MULTISTART_SEED = 715225741
_IMAGE_CHECK_SEED = 398764591
_IMAGE_CHECK_SAMPLES = 64


class ImageConsistencyWarning(UserWarning):
    """The declared image set missed a sampled value of the inner map."""


@dataclass
class InversionParams:
    """Controls for the projected Gauss-Newton preimage search."""

    tol: float = 1e-9
    max_iter: int = 60
    multistart: int = 8
    step_control: float = 1.0

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be positive")
        if self.multistart < 1:
            raise ValueError("multistart must be positive")
        if not 0 < self.step_control <= 1:
            raise ValueError("step_control must lie in (0, 1]")


def _projected_residual(a, K, u, x0):
    """``(x, a(x) - u, |a(x) - u|)`` at the projection x of ``x0`` onto K."""
    x = K.project(as_vector(x0, K.dim, "start"))
    r = np.asarray(a(x), dtype=float) - u
    return x, r, float(np.linalg.norm(r))


def _gauss_newton(a, K, u, x0, inv):
    """Minimize ``|a(x) - u|`` over K from one start; returns (x, residual)."""
    x, r, best = _projected_residual(a, K, u, x0)
    for _ in range(inv.max_iter):
        if best <= inv.tol:
            return x, best
        jac = jacobian_fd(a, x)
        d, *_ = np.linalg.lstsq(jac, -r, rcond=None)
        if not np.all(np.isfinite(d)) or float(np.linalg.norm(d)) <= 1e-16 * (1 + best):
            break
        alpha = inv.step_control
        improved = False
        for _ in range(25):
            cand = K.project(x + alpha * d)
            rc = np.asarray(a(cand), dtype=float) - u
            nc = float(np.linalg.norm(rc))
            if nc < best:
                x, r, best = cand, rc, nc
                improved = True
                break
            alpha *= 0.5
        if not improved:
            break
    return x, best


def _fixed_starts(K, n):
    """``n`` points of K drawn from the fixed multistart seed."""
    if n < 1:
        return []
    return list(np.atleast_2d(K.sample(np.random.default_rng(_MULTISTART_SEED), n)))


def _default_starts(K, u, inv, sample=None):
    """``inv.multistart`` starts: ``P_K(u)`` when ``u`` has K's dimension, then
    ``sample``, the ``_fixed_starts`` of K for the rest, drawn here when None."""
    head = [K.project(u)] if u.shape[0] == K.dim else []
    return head + (_fixed_starts(K, inv.multistart - len(head)) if sample is None else sample)


def _searches(a, K, u, inv, starts=None):
    """``(x, residual)`` per attempt: the projected closed-form preimage alone
    when it hits or ``a`` is an isometry (``|a(x) - u| = |x - a^{-1}(u)|``, so
    ``P_K(a^{-1}(u))`` is the point of K that ``a`` maps nearest to u), else
    one projected Gauss-Newton run per start (``_default_starts`` by default).
    """
    inverse = a.inverse()
    if inverse is not None:
        x, _, res = _projected_residual(a, K, u, inverse(u))
        if res <= inv.tol or a.is_isometry():
            yield x, res
            return
    for x0 in _default_starts(K, u, inv) if starts is None else starts:
        yield _gauss_newton(a, K, u, x0, inv)


def select_preimage(a, K, u, inv=None, starts=None):
    """One point x in K with ``|a(x) - u|`` within tolerance.

    The closed-form preimage of a nonsingular affine map, projected onto
    K, is tried first; an isometry that misses fails there.  Otherwise
    projected Gauss-Newton runs from each start in order and the first
    success wins, which makes the selection deterministic; the default
    start list is the projection of ``u`` onto K followed by a fixed-seed
    sample of K.  Raises ``InversionFailed`` with the best residual seen
    when no attempt reaches the tolerance.
    """
    inv = inv if inv is not None else InversionParams()
    u = as_vector(u, getattr(a, "out_dim", None), "u")
    best_x, best_res = None, np.inf
    for x, res in _searches(a, K, u, inv, starts):
        if res <= inv.tol:
            return x
        if res < best_res:
            best_x, best_res = x, res
    raise InversionFailed(
        f"no preimage of {u.tolist()} within {inv.tol} (best residual {best_res:.3e})",
        best_residual=best_res,
        best_point=best_x,
    )


def preimage_candidates(a, K, u, inv=None, dedup_tol=1e-6):
    """All distinct preimages the search can reach.

    Used by the fiber and selection-independence checks, which need to see
    every branch of ``a^{-1}``, not just the first.  A nonsingular affine
    map is injective, so its projected closed-form preimage is the only
    candidate when it hits, and an isometry that misses has none;
    otherwise the projected Gauss-Newton multistart runs.
    """
    inv = inv if inv is not None else InversionParams()
    u = as_vector(u, getattr(a, "out_dim", None), "u")
    found = []
    for x, res in _searches(a, K, u, inv):
        if res <= inv.tol and all(np.linalg.norm(x - y) > dedup_tol for y in found):
            found.append(x)
    return found


class ReducedOperator:
    """``u -> A(b(u))`` for an inner map ``a`` with no affine form.

    b(u) is selected numerically: representatives are cached per exact
    image point, and a search warm-starts from the most recent
    representative so the selection does not hop between fibers while a
    solver walks the image set.  Instances are meant to live for a
    single solve.
    """

    def __init__(self, A, a, K, inversion=None):
        if A.in_dim != K.dim or a.in_dim != K.dim:
            raise DimensionMismatch("operator input dimensions must match the set")
        self.A = A
        self.a = a
        self.K = K
        self.inversion = inversion if inversion is not None else InversionParams()
        self.in_dim = a.out_dim
        self.out_dim = A.out_dim
        self._cache = {}
        self._last = None

    def lipschitz_bound(self):
        return None

    @cached_property
    def _sample(self):
        """The fixed-seed part of ``_default_starts``, drawn once per solve."""
        return _fixed_starts(self.K, self.inversion.multistart - (self.in_dim == self.K.dim))

    def representative(self, u):
        """The cached or freshly inverted preimage of ``u``."""
        u = np.asarray(u, dtype=float)
        key = u.tobytes()
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        starts = [] if self._last is None else [self._last]
        starts += _default_starts(self.K, u, self.inversion, self._sample)
        x = select_preimage(self.a, self.K, u, self.inversion, starts=starts)
        self._cache[key] = x
        self._last = x
        return x

    def __call__(self, u):
        u = np.asarray(u, dtype=float)
        if u.ndim == 2:  # a batch, one image point per row
            return np.array([self(row) for row in u]).reshape(-1, self.out_dim)
        return np.asarray(self.A(self.representative(u)), dtype=float)


@dataclass
class GviProblem:
    """Problem data for ``VI(A, a, K)`` on a compact K, plus the image of ``a``.

    K must have a ``bounding_box()``; a cone is rejected.  ``image_aK``
    is read only by the solve of an inner map with no affine form, which
    runs on it, so only such a map needs it.  There it must describe
    ``a(K)``: construction maps a fixed sample of K plus K's vertices and
    warns when a mapped point falls outside it, since a wrong image
    silently changes the problem being solved.  An affine map solves on K
    and leaves a declared image unread apart from its dimension.
    """

    A: OperatorExpr
    a: OperatorExpr
    K: ConvexSet
    image_aK: Optional[ConvexSet] = None
    params: SolverParams = field(default_factory=SolverParams)
    inversion: InversionParams = field(default_factory=InversionParams)

    def __post_init__(self):
        if self.A.in_dim != self.K.dim or self.a.in_dim != self.K.dim:
            raise DimensionMismatch("operator input dimensions must match K")
        try:
            self.K.bounding_box()
        except UnsupportedVariant as err:
            raise UnsupportedVariant(f"K must be compact: {err}") from err
        if self.image_aK is not None and self.image_aK.dim != self.a.out_dim:
            raise DimensionMismatch("image set dimension must match the range of a")
        if self.a.affine_form() is not None:
            return  # the solve runs on K and reads no image
        if self.image_aK is None:
            raise UnsupportedVariant("an inner map with no affine form needs its image_aK")
        worst, witness = _image_miss(
            self.a, self.K, self.image_aK, _IMAGE_CHECK_SEED, vertices=True
        )
        if worst > IMAGE_TOL:
            warnings.warn(
                f"declared image misses a(x) by {worst:.3e} at x={witness.tolist()}",
                ImageConsistencyWarning,
                stacklevel=2,
            )


def _image_miss(a, K, image, seed, samples=_IMAGE_CHECK_SAMPLES, vertices=False):
    """``(worst, witness)``: the largest sampled distance of ``a(x)`` from ``image``.

    Samples K with a fixed seed and, with ``vertices``, also maps K's
    vertices when it enumerates them; ``(0.0, None)`` when there is no point.
    A NaN row never decides; raises ``UnsupportedVariant`` when ``a``
    overflows to infinity on a point, since no distance is then finite.
    """
    rows = []
    try:
        rows.append(np.atleast_2d(K.sample(np.random.default_rng(seed), samples)))
    except (UnsupportedVariant, NonConvergence):
        pass
    if vertices:
        try:
            rows.append(np.asarray(K.vertices(), dtype=float).reshape(-1, K.dim))
        except (UnsupportedVariant, DimensionTooLarge):
            pass
    if not rows:
        return 0.0, None
    pts = np.concatenate(rows)
    with np.errstate(over="ignore", invalid="ignore"):
        mapped = np.asarray(a(pts), dtype=float)
    if np.isinf(mapped).any():
        raise UnsupportedVariant("the inner map overflows on K")
    dist = _exact_distances(image, mapped)
    i = int(np.argmax(np.nan_to_num(dist)))  # a NaN distance never decides
    return (float(dist[i]), pts[i]) if dist[i] > 0.0 else (0.0, None)


@dataclass
class GviSolveReport(SolveReport):
    reduced_solution: Optional[np.ndarray] = None
    pullback_residual: float = 0.0
    gap_kind: str = "exact"
    reduction: str = "image"


def _linear_minimizer(problem):
    """``(gx -> argmin <gx, u>, gap_kind)`` over a set holding ``a(K)``.

    For an affine ``a = M y + c`` the pairing is ``<M^T gx, y>`` plus a
    constant, so K's own minimizer maps to one of ``a(K)``: the gap is
    ``"exact"``.  Any other map minimizes over the box that
    ``a.enclosure`` gives on K's bounding box, which holds ``a(K)``: the
    gap is ``"exact"`` where that box is ``a(K)`` (K a Box and
    ``a.exact_enclosure()``) and a lower bound, ``"bound"``, otherwise.
    Raises ``UnsupportedVariant`` when the enclosure overflows, since no
    finite box then holds ``a(K)``.
    """
    a, K = problem.a, problem.K
    form = a.affine_form()
    if form is not None:
        return (lambda gx: a(K.linear_min(form[0].T @ gx))), "exact"
    with np.errstate(over="ignore", invalid="ignore"):
        lo, hi = a.enclosure(*K.bounding_box())
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
        raise UnsupportedVariant("the interval enclosure of a on K overflows")
    exact = isinstance(K, Box) and a.exact_enclosure()
    return Box(lo, hi).linear_min, "exact" if exact else "bound"


def gvi_gap(problem, x):
    """``min <A(x), a(y) - a(x)>`` over y in K; solutions score ~0.

    The minimum is exact through ``_linear_minimizer``, or a lower bound
    over an enclosure of ``a(K)``, so a value of at least ``-tol``
    certifies x.
    """
    x = as_vector(x, problem.K.dim, "x")
    ax = np.asarray(problem.a(x), dtype=float)
    gx = np.asarray(problem.A(x), dtype=float)
    minimizer = _linear_minimizer(problem)[0]
    # y = x scores 0, so the minimum is never positive
    return min(0.0, float((np.asarray(minimizer(gx), dtype=float) - ax) @ gx))


def _x_space_operator(A, m):
    """``x -> M^T A(x)``, affine in closed form when A is."""
    form = A.affine_form()
    if form is not None:
        return Affine(m.T @ form[0], m.T @ form[1])
    return Compose(Affine(m.T), A)


def solve_gvi(problem, x0=None, record_history=False):
    """Solve the inequality with the extragradient method and certify its gap.

    An inner map with an affine form ``(M, c)`` takes the x-space path,
    ``reduction = "x_space"``: the solve runs on K for ``VI(M^T A, K)``,
    ``x0`` is a point of K, and the reduced solution ``a(x*)`` has a
    pullback residual of 0.  Any other map takes the image path,
    ``reduction = "image"``: the solve runs on the declared image for
    ``ReducedOperator``, ``x0`` is a point of that image, and the solution
    is the preimage of the reduced solution that
    ``ReducedOperator.representative`` selects, so ``a(x) = u`` holds up
    to the inversion tolerance.  The gap certificate is evaluated on the
    original problem; ``gap_kind`` records whether it is exact or a lower
    bound.
    """
    form = problem.a.affine_form()
    if form is not None:
        rep = solve_extragradient(
            _x_space_operator(problem.A, form[0]), problem.K, problem.params,
            x0=x0, record_history=record_history,
        )
        x_star, reduction = rep.solution, "x_space"
        u_star = np.asarray(problem.a(x_star), dtype=float)
    else:
        reduced = ReducedOperator(problem.A, problem.a, problem.K, problem.inversion)
        rep = solve_extragradient(
            reduced, problem.image_aK, problem.params, x0=x0, record_history=record_history
        )
        # the solver evaluated the operator at its solution, so this is a cache hit
        u_star, x_star, reduction = rep.solution, reduced.representative(rep.solution), "image"
    pullback = float(np.linalg.norm(np.asarray(problem.a(x_star), dtype=float) - u_star))
    return GviSolveReport(
        solution=x_star,
        residual=rep.residual,
        iterations=rep.iterations,
        converged=rep.converged,
        step_used=rep.step_used,
        stop_reason=rep.stop_reason,
        gap_certificate=gvi_gap(problem, x_star),
        history=rep.history,
        reduced_solution=u_star,
        pullback_residual=pullback,
        gap_kind=_linear_minimizer(problem)[1],
        reduction=reduction,
    )


@dataclass
class ComplementarityReport:
    value_in_cone: bool
    operator_in_polar: bool
    orthogonal: bool
    slacks: dict

    @property
    def ok(self):
        return self.value_in_cone and self.operator_in_polar and self.orthogonal

    def to_dict(self):
        return {
            "value_in_cone": self.value_in_cone,
            "operator_in_polar": self.operator_in_polar,
            "orthogonal": self.orthogonal,
            "ok": self.ok,
            "slacks": dict(self.slacks),
        }


def complementarity_check(T, g, cone, u, tol=COMPLEMENTARITY_TOL):
    """Generalized complementarity predicate at the point ``u``.

    Checks ``g(u)`` in the cone, ``T(u)`` in the polar cone (nonnegative
    pairing with every generator), and ``<T(u), g(u)> = 0``, each up to
    ``tol``, reporting the three slacks so near-misses are visible.
    """
    if not isinstance(cone, PolyhedralCone):
        raise DimensionMismatch("complementarity requires a PolyhedralCone")
    u = as_vector(u, getattr(T, "in_dim", None), "u")
    gu = np.asarray(g(u), dtype=float)
    tu = np.asarray(T(u), dtype=float)
    membership = float(cone.distance(gu))
    pairings = tu @ cone.generators
    polar = float(max(0.0, -float(np.min(pairings))))
    orth = float(abs(float(tu @ gu)))
    return ComplementarityReport(
        value_in_cone=membership <= tol,
        operator_in_polar=polar <= tol,
        orthogonal=orth <= tol,
        slacks={"membership": membership, "polar": polar, "orthogonality": orth},
    )


@dataclass
class Certificate:
    """The residuals of one solve and the verdict of the certification rule.

    ``refutation`` is set when a converged coincidence solve misses its
    residual: at a solution of the inequality the residual vanishes
    whenever ``f(K)`` lies in ``g(K)``, so the miss refutes a hypothesis
    rather than the solver.
    """

    residuals: dict
    certified: bool
    complementarity: Optional[ComplementarityReport] = None
    refutation: Optional[str] = None


def certify(
    problem,
    rep,
    gap_tol=GAP_TOL,
    pullback_tol=None,
    pair=None,
    cone=None,
    coincidence_tol=COINCIDENCE_TOL,
    complementarity_tol=COMPLEMENTARITY_TOL,
):
    """Residuals of the ``solve_gvi`` report ``rep`` and one verdict for every kind.

    The run is certified when the solve converged, the gap is at least
    ``-gap_tol``, the pullback residual is at most ``pullback_tol``
    (default ``max(1e-7, 10 * inversion.tol)``), and the kind's extra
    certificate holds:

    - ``pair = (f, g)``, a coincidence problem with ``A = g - f`` and
      ``a = g``: ``|f(x) - g(x)| <= coincidence_tol``.
    - ``cone``, a complementarity problem with ``T = A`` and ``g = a``:
      every slack of ``complementarity_check`` is within
      ``complementarity_tol``.
    """
    x = rep.solution
    if pullback_tol is None:
        pullback_tol = max(1e-7, 10.0 * problem.inversion.tol)
    residuals = {
        "natural": rep.residual, "gap": rep.gap_certificate, "pullback": rep.pullback_residual
    }
    holds, comp, refutation = True, None, None
    if pair is not None:
        f, g = pair
        fx = np.asarray(f(x), dtype=float)
        residual = float(np.linalg.norm(fx - np.asarray(g(x), dtype=float)))
        residuals["coincidence"] = residual
        holds = residual <= coincidence_tol
        if rep.converged and not holds:
            refutation = (
                f"variational inequality solved but |f(x) - g(x)| = {residual:.3e} "
                f"exceeds {coincidence_tol}"
            )
    if cone is not None:
        comp = complementarity_check(problem.A, problem.a, cone, x, tol=complementarity_tol)
        holds = comp.ok
    certified = bool(
        rep.converged
        and residuals["gap"] >= -gap_tol
        and residuals["pullback"] <= pullback_tol
        and holds
    )
    return Certificate(residuals, certified, comp, refutation)


def check_selection_independence(problem, x, inversion=None, tol=1e-6):
    """Verify the solved point does not depend on the preimage branch.

    Every alternative preimage y of ``a(x)`` reachable by the multistart
    search must carry the same operator value and must itself pass the gap
    certificate, otherwise the report carries (x, y) as a witness.  Where
    ``fiber_factors`` holds, every preimage carries the same values of A
    and a, so the property is proven without a search.
    """
    if fiber_factors(problem.A, problem.a):
        return proven_report("selection_independence")
    inv = inversion if inversion is not None else problem.inversion
    x = as_vector(x, problem.K.dim, "x")
    u = np.asarray(problem.a(x), dtype=float)
    ax_val = np.asarray(problem.A(x), dtype=float)
    ys = np.array(preimage_candidates(problem.a, problem.K, u, inv)).reshape(-1, problem.K.dim)
    ys = ys[np.linalg.norm(ys - x, axis=1) > tol]
    viol = np.linalg.norm(np.asarray(problem.A(ys), dtype=float) - ax_val, axis=1)
    gaps = np.array([gvi_gap(problem, y) for y in ys])
    viol = np.where(gaps < -GAP_TOL, np.maximum(viol, -gaps), viol)
    return _verdict("selection_independence", viol, (np.broadcast_to(x, ys.shape), ys), tol)
