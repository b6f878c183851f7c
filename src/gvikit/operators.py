"""Operator expressions and sampled hypothesis checks.

The expression tree covers the affine and mildly nonlinear operators the
solvers are exercised with.  Every node evaluates on a single vector or on
a batch whose last axis is the input dimension, which keeps the grid
oracle vectorized.  Every node also answers one structure query,
``affine_form()``, defined once per node class; the closed-form inverse,
the isometry test and the closed-form verdicts derive from it, so any
affine expression (a ``Rotation``, a ``Scale``, ``Sum`` or ``Compose`` of
affine maps) takes the closed-form paths, not only ``Identity`` and
``Affine``.  ``enclosure(lo, hi)`` bounds a node's values on a box by
interval arithmetic, and ``exact_enclosure()`` says when that bound is
the image itself.

The ``check_*`` functions probe inequalities on randomized samples from a
compact set and return a ``PropertyReport``.  Each draws its samples from
its seed in a fixed order, evaluates every operator once on the stacked
samples (batch evaluation), and hands the violation of each sample to one
verdict rule.  A sampled check can refute a property (with a reproducible
witness) but can only report that it held on the samples; ``proven`` is
reserved for properties decided in closed form from the affine forms and
the set (``affine_relative_monotone``, ``affine_range_inclusion``,
``affine_nonexpansive`` and ``fiber_factors``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import DimensionMismatch, DimensionTooLarge, InversionFailed, UnsupportedVariant
from .geometry import (
    Ball,
    Box,
    _exact_distances,
    _null_space,
    as_vector,
    segment_distance,
    stable_inverse,
)

FD_STEP = 1e-6
FIBER_MATCH_TOL = 1e-7
PSD_TOL = 1e-9
# entrywise tolerance on M^T M - I for an affine map to count as an isometry
ISOMETRY_TOL = 1e-12

# caps on how many samples get the expensive numerical-inversion treatment
_INVERT_CHECK_CAP = 25
_FIBER_PROBE_CAP = 64


class OperatorExpr:
    """A map from R^in_dim to R^out_dim, callable on vectors or batches."""

    in_dim: int
    out_dim: int

    def __call__(self, x):
        raise NotImplementedError

    def lipschitz_bound(self):
        """Exact global Lipschitz constant when one is derivable, else None."""
        return None

    def affine_form(self):
        """``(M, c)`` with ``self(x) == M x + c`` when the map is affine, else None."""
        return None

    @cached_property
    def _inverse(self):
        form = self.affine_form()
        m = None if form is None else stable_inverse(form[0])
        return None if m is None else Affine(m, -m @ form[1])

    def inverse(self):
        """``u |-> M^-1 (u - c)`` when the affine form's M passes ``stable_inverse``, else None."""
        return self._inverse

    def is_isometry(self):
        """Whether the map is affine with an orthogonal matrix, so it keeps distances."""
        form = self.affine_form()
        gram = None if form is None else form[0].T @ form[0]
        return gram is not None and np.allclose(gram, np.eye(self.in_dim), 0.0, ISOMETRY_TOL)

    def enclosure(self, lo, hi):
        """``(l, u)`` with ``l <= self(x) <= u`` for every x in the box ``[lo, hi]``.

        Interval arithmetic: an affine form maps the box's center and
        radius as ``c + M mid +- |M| rad``; the nodes with no affine form
        override this and combine their children's intervals.
        """
        m, c = self.affine_form()
        mid, rad = 0.5 * (hi + lo), 0.5 * (hi - lo)
        center, spread = m @ mid + c, np.abs(m) @ rad
        return center - spread, center + spread

    def exact_enclosure(self):
        """Whether ``enclosure`` of a box is exactly the image of that box.

        True for an affine form with at most one nonzero per row and per
        column: every output is a multiple of its own input, so the
        image is a box.
        """
        form = self.affine_form()
        if form is None:
            return False
        nonzero = form[0] != 0.0
        return bool(np.all(nonzero.sum(axis=0) <= 1) and np.all(nonzero.sum(axis=1) <= 1))

    def to_dict(self):
        raise NotImplementedError


class Identity(OperatorExpr):
    def __init__(self, dim):
        if int(dim) < 1:
            raise ValueError("dimension must be positive")
        self.in_dim = self.out_dim = int(dim)

    def __call__(self, x):
        return np.asarray(x, dtype=float)

    def lipschitz_bound(self):
        return 1.0

    def affine_form(self):
        return np.eye(self.in_dim), np.zeros(self.in_dim)

    def inverse(self):
        return self

    def to_dict(self):
        return {"op": "identity", "dim": self.in_dim}


class Constant(OperatorExpr):
    def __init__(self, value, in_dim=None):
        self.value = as_vector(value, name="value")
        self.out_dim = self.value.shape[0]
        self.in_dim = self.out_dim if in_dim is None else int(in_dim)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return np.broadcast_to(self.value, x.shape[:-1] + (self.out_dim,)).copy()

    def lipschitz_bound(self):
        return 0.0

    def affine_form(self):
        return np.zeros((self.out_dim, self.in_dim)), self.value

    def to_dict(self):
        d = {"op": "constant", "value": self.value.tolist()}
        if self.in_dim != self.out_dim:
            d["in_dim"] = self.in_dim
        return d


class Affine(OperatorExpr):
    """x |-> matrix @ x + shift."""

    def __init__(self, matrix, shift=None):
        m = np.atleast_2d(np.asarray(matrix, dtype=float))
        if not np.all(np.isfinite(m)):
            raise ValueError("matrix has non-finite entries")
        self.matrix = m
        self.out_dim, self.in_dim = m.shape
        self.shift = (
            np.zeros(self.out_dim) if shift is None else as_vector(shift, self.out_dim, "shift")
        )

    def __call__(self, x):
        return np.asarray(x, dtype=float) @ self.matrix.T + self.shift

    def lipschitz_bound(self):
        return float(np.linalg.norm(self.matrix, 2))

    def affine_form(self):
        return self.matrix, self.shift

    def to_dict(self):
        return {"op": "affine", "matrix": self.matrix.tolist(), "shift": self.shift.tolist()}


class Rotation(Affine):
    """Planar rotation by ``angle`` in the coordinate plane ``plane``."""

    def __init__(self, angle, plane=(0, 1), dim=2):
        i, j = int(plane[0]), int(plane[1])
        if i == j or not (0 <= i < dim and 0 <= j < dim):
            raise ValueError("plane must name two distinct coordinates below dim")
        self.angle = float(angle)
        self.plane = (i, j)
        m = np.eye(int(dim))
        c, s = math.cos(self.angle), math.sin(self.angle)
        m[i, i], m[i, j], m[j, i], m[j, j] = c, -s, s, c
        super().__init__(m)

    def lipschitz_bound(self):
        return 1.0

    def to_dict(self):
        return {
            "op": "rotation",
            "angle": self.angle,
            "plane": list(self.plane),
            "dim": self.in_dim,
        }


def _stable_sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


_POINTWISE = {
    "cube": (lambda x: x**3, None),
    "tanh": (np.tanh, 1.0),
    "sigmoid": (_stable_sigmoid, 0.25),
    "square": (lambda x: x**2, None),
}


class PointwiseNonlinear(OperatorExpr):
    """A fixed scalar nonlinearity applied coordinatewise."""

    def __init__(self, kind, dim):
        if kind not in _POINTWISE:
            raise ValueError(f"unknown pointwise kind {kind!r}")
        self.kind = kind
        self.in_dim = self.out_dim = int(dim)

    def __call__(self, x):
        fn, _ = _POINTWISE[self.kind]
        return fn(np.asarray(x, dtype=float))

    def lipschitz_bound(self):
        return _POINTWISE[self.kind][1]

    def enclosure(self, lo, hi):
        lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
        fn = _POINTWISE[self.kind][0]
        flo, fhi = fn(lo), fn(hi)
        if self.kind != "square":
            # cube, tanh and sigmoid increase, so endpoints map to endpoints
            return flo, fhi
        straddles = (lo <= 0.0) & (hi >= 0.0)
        return np.where(straddles, 0.0, np.minimum(flo, fhi)), np.maximum(flo, fhi)

    def exact_enclosure(self):
        # each output is a continuous function of its own input alone
        return True

    def to_dict(self):
        return {"op": "pointwise", "kind": self.kind, "dim": self.in_dim}


class Scale(OperatorExpr):
    def __init__(self, factor, inner):
        self.factor = float(factor)
        self.inner = inner
        self.in_dim = inner.in_dim
        self.out_dim = inner.out_dim

    def __call__(self, x):
        return self.factor * self.inner(x)

    def lipschitz_bound(self):
        l = self.inner.lipschitz_bound()
        return None if l is None else abs(self.factor) * l

    def affine_form(self):
        form = self.inner.affine_form()
        return None if form is None else (self.factor * form[0], self.factor * form[1])

    def enclosure(self, lo, hi):
        l, u = self.inner.enclosure(lo, hi)
        fl, fu = self.factor * l, self.factor * u
        return np.minimum(fl, fu), np.maximum(fl, fu)

    def exact_enclosure(self):
        return self.inner.exact_enclosure()

    def to_dict(self):
        return {"op": "scale", "factor": self.factor, "inner": self.inner.to_dict()}


class _Binary(OperatorExpr):
    _tag = ""
    _sign = 1.0

    def __init__(self, left, right):
        if left.in_dim != right.in_dim or left.out_dim != right.out_dim:
            raise DimensionMismatch("operands must share input and output dimensions")
        self.left = left
        self.right = right
        self.in_dim = left.in_dim
        self.out_dim = left.out_dim

    def __call__(self, x):
        return self.left(x) + self._sign * self.right(x)

    def lipschitz_bound(self):
        a, b = self.left.lipschitz_bound(), self.right.lipschitz_bound()
        return None if a is None or b is None else a + b

    def affine_form(self):
        a, b = self.left.affine_form(), self.right.affine_form()
        return None if a is None or b is None else (a[0] + self._sign * b[0], a[1] + self._sign * b[1])

    def enclosure(self, lo, hi):
        if self.affine_form() is not None:
            # the combined form is tighter: x - x encloses to 0
            return super().enclosure(lo, hi)
        (l1, u1), (l2, u2) = self.left.enclosure(lo, hi), self.right.enclosure(lo, hi)
        return (l1 + l2, u1 + u2) if self._sign > 0 else (l1 - u2, u1 - l2)

    def to_dict(self):
        return {"op": self._tag, "left": self.left.to_dict(), "right": self.right.to_dict()}


class Sum(_Binary):
    _tag = "sum"
    _sign = 1.0


class Difference(_Binary):
    """left - right; ``Difference(g, f)`` is the coincidence operator."""

    _tag = "difference"
    _sign = -1.0


class Compose(OperatorExpr):
    """outer after inner."""

    def __init__(self, outer, inner):
        if outer.in_dim != inner.out_dim:
            raise DimensionMismatch("outer input dimension must match inner output")
        self.outer = outer
        self.inner = inner
        self.in_dim = inner.in_dim
        self.out_dim = outer.out_dim

    def __call__(self, x):
        return self.outer(self.inner(x))

    def lipschitz_bound(self):
        a, b = self.outer.lipschitz_bound(), self.inner.lipschitz_bound()
        return None if a is None or b is None else a * b

    def affine_form(self):
        a, b = self.outer.affine_form(), self.inner.affine_form()
        return None if a is None or b is None else (a[0] @ b[0], a[0] @ b[1] + a[1])

    def enclosure(self, lo, hi):
        if self.affine_form() is not None:
            return super().enclosure(lo, hi)
        return self.outer.enclosure(*self.inner.enclosure(lo, hi))

    def exact_enclosure(self):
        # the inner image is a box, and the outer map is exact on it
        return self.inner.exact_enclosure() and self.outer.exact_enclosure()

    def to_dict(self):
        return {"op": "compose", "outer": self.outer.to_dict(), "inner": self.inner.to_dict()}


def operator_from_dict(d):
    """Inverse of ``OperatorExpr.to_dict``."""
    tag = d.get("op")
    if tag == "identity":
        return Identity(d["dim"])
    if tag == "constant":
        return Constant(d["value"], d.get("in_dim"))
    if tag == "affine":
        return Affine(d["matrix"], d.get("shift"))
    if tag == "rotation":
        return Rotation(d["angle"], tuple(d.get("plane", (0, 1))), d.get("dim", 2))
    if tag == "pointwise":
        return PointwiseNonlinear(d["kind"], d["dim"])
    if tag == "scale":
        return Scale(d["factor"], operator_from_dict(d["inner"]))
    if tag == "sum":
        return Sum(operator_from_dict(d["left"]), operator_from_dict(d["right"]))
    if tag == "difference":
        return Difference(operator_from_dict(d["left"]), operator_from_dict(d["right"]))
    if tag == "compose":
        return Compose(operator_from_dict(d["outer"]), operator_from_dict(d["inner"]))
    raise UnsupportedVariant(f"unknown operator tag {tag!r}")


def jacobian_fd(op, x, h=FD_STEP):
    """Central finite-difference Jacobian of ``op`` at ``x``."""
    v = as_vector(x, getattr(op, "in_dim", None), "x")
    n = v.shape[0]
    cols = []
    for i in range(n):
        e = np.zeros(n)
        e[i] = h
        cols.append((np.asarray(op(v + e), float) - np.asarray(op(v - e), float)) / (2 * h))
    return np.array(cols).T


@dataclass(frozen=True)
class SampleConfig:
    """Randomized-check configuration; the seed is always explicit."""

    seed: int
    samples: int = 2000
    tol: float = 1e-9

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError("samples must be positive")
        if self.tol < 0:
            raise ValueError("tol must be nonnegative")


@dataclass
class PropertyReport:
    """Outcome of one property check.

    ``max_violation`` is the largest value of the check's violation
    functional over the samples; the property fails when it exceeds the
    tolerance, so a ``violated`` report always reproduces
    ``max_violation > tol`` at its witness.
    """

    property: str
    verdict: str  # "holds_on_samples" | "violated" | "proven"
    witness: Optional[tuple]
    samples_used: int
    max_violation: float

    def to_dict(self):
        w = None
        if self.witness is not None:
            w = [np.asarray(v, dtype=float).tolist() for v in self.witness]
        return {
            "property": self.property,
            "verdict": self.verdict,
            "witness": w,
            "samples_used": self.samples_used,
            "max_violation": self.max_violation,
        }


def proven_report(name):
    """The report of a property that holds by its closed form, with no samples."""
    return PropertyReport(name, "proven", None, 0, 0.0)


def _draw(K, seed, n, points=2, segment=False):
    """``points`` stacks of ``n`` samples of K, plus n segment fractions if ``segment``.

    Sample i draws its points with one ``K.sample(rng)`` call each, then
    its fraction, so row i is what a per-sample loop would have drawn.
    """
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(n):
        rows.append([K.sample(rng) for _ in range(points)] + ([rng.random()] if segment else []))
    return [np.array(col) for col in zip(*rows)]


def _increments(op, x, y):
    """Rows ``op(x_i) - op(y_i)``, with ``op`` evaluated once on the stacked rows."""
    v = np.asarray(op(np.concatenate([x, y])), dtype=float)
    return v[: len(x)] - v[len(x) :]


def _verdict(name, viol, witness, tol, samples=None, holds="holds_on_samples"):
    """The report of a check from its violation vector.

    ``viol[i]`` scores sample i, whose points are row i of each stack in
    ``witness``.  The first of the worst samples decides, and it is the
    witness when it exceeds ``tol``.  A sample whose violation is NaN
    cannot be scored, so it never decides.  ``samples`` defaults to the
    length of ``viol``; with no samples the property holds at violation 0.0.
    A passing check reads ``holds``, ``"proven"`` when its points decide it.
    """
    viol = np.asarray(viol, dtype=float)
    viol = np.where(np.isnan(viol), -np.inf, viol)
    samples = viol.size if samples is None else samples
    i = int(np.argmax(viol)) if viol.size else None
    worst = 0.0 if i is None else float(viol[i])
    if worst > tol:
        witness = tuple(np.array(w[i]) for w in witness)
        return PropertyReport(name, "violated", witness, samples, worst)
    return PropertyReport(name, holds, None, samples, worst)


def check_monotone_relative(T, t, K, cfg):
    """Sampled test of ``<T(x) - T(y), t(x) - t(y)> >= 0`` on K.

    With ``t`` the identity this is plain monotonicity.  The violation
    functional is the negated inner product.
    """
    x, y = _draw(K, cfg.seed, cfg.samples)
    viol = -np.einsum("ij,ij->i", _increments(T, x, y), _increments(t, x, y))
    return _verdict("monotone_relative", viol, (x, y), cfg.tol)


def _on_directions(q, basis):
    """Eigenvalues and eigenvectors of the symmetric q on the orthonormal
    columns of ``basis`` (all of R^n when None), the vectors in R^n."""
    b = np.eye(len(q)) if basis is None else basis
    w, v = np.linalg.eigh(b.T @ q @ b)
    return w, b @ v


def affine_relative_monotone(matrix, relative_matrix, psd_tol=PSD_TOL, basis=None):
    """Analytic relative-monotonicity test for the affine pair (M, G).

    ``x -> Mx + q`` is monotone relative to ``x -> Gx + h`` on K exactly
    when ``d^T M^T G d >= 0`` for every direction d of K (``K.span()``,
    passed as ``basis``; all of R^n when None), so an eigenvalue
    decomposition decides it outright.  A violation's witness is ``(d, 0)``.
    """
    m = np.atleast_2d(np.asarray(matrix, dtype=float))
    g = np.atleast_2d(np.asarray(relative_matrix, dtype=float))
    if m.shape != g.shape or m.shape[0] != m.shape[1]:
        raise DimensionMismatch("both matrices must be square with equal shapes")
    w, vecs = _on_directions(0.5 * (m.T @ g + g.T @ m), basis)
    lmin = float(w[0]) if w.size else 0.0
    if lmin >= -psd_tol:
        return PropertyReport("affine_relative_monotone", "proven", None, 0, -lmin)
    return PropertyReport(
        "affine_relative_monotone", "violated", (vecs[:, 0], np.zeros(m.shape[0])), 0, -lmin
    )


def check_ql(g, K, cfg):
    """Sampled quasilinearity diagnostic for ``g`` on convex K.

    Draws x, y and a point z on the segment between them and measures how
    far ``g(z)`` falls from the segment ``[g(x), g(y)]``.  Violations are
    expected for most nonlinear maps; this check is informational and the
    solvers do not require the property.
    """
    x, y, t = _draw(K, cfg.seed, cfg.samples, segment=True)
    z = x + t[:, None] * (y - x)
    gz, gx, gy = np.split(np.asarray(g(np.concatenate([z, x, y])), dtype=float), 3)
    return _verdict("ql", segment_distance(gz, gx, gy), (x, y, z), cfg.tol)


def check_g_nonexpansive(f, g, K, cfg):
    """Sampled test of ``|f(x) - f(y)| <= |g(x) - g(y)|`` on K."""
    x, y = _draw(K, cfg.seed, cfg.samples)
    df = np.linalg.norm(_increments(f, x, y), axis=1)
    dg = np.linalg.norm(_increments(g, x, y), axis=1)
    return _verdict("g_nonexpansive", df - dg, (x, y), cfg.tol)


def affine_nonexpansive(f, g, K):
    """``|f(x) - f(y)| <= |g(x) - g(y)|`` on K proven from the affine forms, or None.

    It holds when ``M_f^T M_f - M_g^T M_g``, whose largest eigenvalue is the
    ``max_violation``, is negative semidefinite on the directions of K.
    """
    forms = f.affine_form(), g.affine_form()
    if None in forms:
        return None
    (mf, _), (mg, _) = forms
    w, _ = _on_directions(mf.T @ mf - mg.T @ mg, K.span())
    lmax = float(w[-1]) if w.size else 0.0
    return PropertyReport("g_nonexpansive", "proven", None, 0, lmax) if lmax <= PSD_TOL else None


def affine_range_inclusion(f, g, K, tol):
    """``f(K)`` inside ``g(K)`` decided in closed form, or None to leave it to sampling.

    ``f(x)`` lies in ``g(K)`` exactly when ``T(x) = g^-1(f(x))`` lies in K,
    which the vertices of the convex K decide for an affine T.  On a Box,
    the 2n vertices where some coordinate of T peaks or bottoms decide it;
    other sets score every vertex.  The violation is the distance of a
    vertex's image from K.  On a Ball(c, r), ``|T(c) - c| + r |M_T|_2 <= r``
    proves the property.
    """
    inverse = g.inverse()
    form = None if inverse is None else Compose(inverse, f).affine_form()
    if form is None:
        return None
    T = Affine(*form)
    if isinstance(K, Ball):
        spread = K.radius * (float(np.linalg.norm(T.matrix, 2)) - 1.0)
        excess = float(np.linalg.norm(T(K.center) - K.center)) + spread
        proven = PropertyReport("range_inclusion", "proven", None, 0, excess)
        return proven if excess <= tol else None
    if isinstance(K, Box):
        # row i of the first half is the vertex where T_i peaks, of the second where it bottoms
        up = T.matrix >= 0.0
        v = np.vstack([np.where(up, K.upper, K.lower), np.where(up, K.lower, K.upper)])
    else:
        try:
            v = K.vertices()
        except (UnsupportedVariant, DimensionTooLarge):
            return None
    return _verdict("range_inclusion", _exact_distances(K, T(v)), (v,), tol, 0, "proven")


def check_range_inclusion(f, g, K, cfg, inversion=None):
    """Sampled test that ``f`` maps K into ``g(K)``.

    With g's closed-form inverse the violation at x is the distance of
    ``g^-1(f(x))`` from K.  Otherwise it is the distance of ``f(x)`` from
    ``g.enclosure`` on K's bounding box, a box that holds ``g(K)``; since
    it can overestimate the range, a capped prefix of the samples also
    inverts ``g`` at ``f(x)`` to confirm the point is reachable.
    """
    from .gvi import select_preimage

    (x,) = _draw(K, cfg.seed, cfg.samples, points=1)
    fx = np.asarray(f(x), dtype=float)
    inverse = g.inverse()
    if inverse is not None:
        viol = _exact_distances(K, np.asarray(inverse(fx), dtype=float))
        return _verdict("range_inclusion", viol, (x,), cfg.tol)
    lo, hi = g.enclosure(*K.bounding_box())
    viol = np.linalg.norm(fx - np.clip(fx, lo, hi), axis=1)
    for i in range(min(cfg.samples, _INVERT_CHECK_CAP)):
        try:
            select_preimage(g, K, fx[i], inversion)
        except InversionFailed as err:
            viol[i] = max(viol[i], float(err.best_residual or math.inf))
    return _verdict("range_inclusion", viol, (x,), cfg.tol)


def fiber_factors(A, a):
    """Whether the affine forms prove that ``a(x) = a(y)`` forces ``A(x) = A(y)``.

    For an affine a, ``a(x) = a(y)`` puts ``x - y`` in the null space N of
    ``M_a``, on which an affine A with ``|M_A N| <= PSD_TOL`` is constant.  Equal
    values of A and a give equal gaps, so this proves selection independence.
    """
    form = a.affine_form()
    if form is None:
        return False
    null, form_A = _null_space(form[0]), A.affine_form()
    return null.shape[1] == 0 or (form_A is not None and np.linalg.norm(form_A[0] @ null, 2) <= PSD_TOL)


def check_fiber_condition(A, a, K, cfg, inversion=None, match_tol=FIBER_MATCH_TOL):
    """Sampled test that points with equal ``a``-values share ``A``-values.

    For each probe x the check inverts ``a`` at ``a(x)`` from several
    starts; every recovered preimage y with ``|a(x) - a(y)| <= match_tol``
    must satisfy ``|A(x) - A(y)| <= cfg.tol``.  This is the condition that
    makes the reduced operator independent of the preimage selection.
    """
    from .gvi import preimage_candidates

    n_probe = min(cfg.samples, _FIBER_PROBE_CAP)
    (x,) = _draw(K, cfg.seed, n_probe, points=1)
    ax = np.asarray(a(x), dtype=float)
    fibers = [preimage_candidates(a, K, u, inversion) for u in ax]
    owner = np.repeat(np.arange(n_probe), [len(ys) for ys in fibers])
    y = np.array([p for ys in fibers for p in ys]).reshape(-1, K.dim)
    match = np.linalg.norm(np.asarray(a(y), dtype=float) - ax[owner], axis=1) <= match_tol
    x, y = x[owner][match], y[match]
    viol = np.linalg.norm(_increments(A, x, y), axis=1)
    return _verdict("fiber_condition", viol, (x, y), cfg.tol, n_probe)
