"""Convex sets with exact Euclidean projections.

Five set variants are provided: axis-aligned boxes, Euclidean balls, the
standard (probability) simplex, bounded halfspace intersections, and
finitely generated cones.  Boxes, balls, and simplices project in closed
form.  Halfspace intersections and cones project with a primal active-set
method that starts from a stored feasible point (a vertex, or the apex)
and reaches the exact projection in finitely many steps.  The four
bounded variants also minimize a linear function in closed form
(``linear_min``), which makes the gap certificate exact, and name the
directions they span (``span``), on which the affine checks decide.

All sets are immutable value objects and all operations are pure.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    DimensionTooLarge,
    EmptySet,
    NonConvergence,
    UnboundedSet,
    UnsupportedVariant,
)

PROJ_TOL = 1e-10
VERTEX_ENUM_MAX_DIM = 6
VERTEX_DEDUP_TOL = 1e-9
CONTAINS_TOL = 1e-9
# a square matrix inverts in closed form only below this condition number
INVERSE_COND_LIMIT = 1e8

# Active-set projection: a step shorter than _ZERO_STEP (relative to the
# point and its distance from the start) is zero, and a unit normal within
# _DEPENDENT of the working span counts as dependent.  The method is finite;
# the step cap only turns an unforeseen cycle into an error, not a hang.
_ZERO_STEP = 1e-13
_DEPENDENT = 1e-9
_ACTIVE_SET_MAX_STEPS = 1000

# Facet enumeration walks over point subsets; cap the combinatorial budget.
_HULL_SUBSET_CAP = 200_000
# Row and point subsets are tested in stacked blocks of at most this many.
_SUBSET_BLOCK = 1 << 14


def as_vector(x, dim=None, name="vector"):
    """Coerce ``x`` to a finite 1-D float array, validating its length."""
    v = np.asarray(x, dtype=float)
    if v.ndim == 0:
        v = v.reshape(1)
    if v.ndim != 1:
        raise DimensionMismatch(f"{name} must be 1-D, got shape {v.shape}")
    if dim is not None and v.shape[0] != dim:
        raise DimensionMismatch(f"{name} has dimension {v.shape[0]}, expected {dim}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} has non-finite entries")
    return v


def stable_inverse(matrix):
    """The inverse of a square matrix below ``INVERSE_COND_LIMIT``, else None."""
    m = np.atleast_2d(np.asarray(matrix, dtype=float))
    if m.shape[0] != m.shape[1] or not np.linalg.cond(m) < INVERSE_COND_LIMIT:
        return None
    return np.linalg.inv(m)


def _readonly(a):
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


def _dedup_rows(rows, tol):
    """Keep the first representative of every tol-cluster, in input order; each
    row is compared with all kept rows in one call, in memory linear in the rows."""
    kept = np.empty((len(rows), len(rows[0]) if len(rows) else 0))
    n = 0
    for r in rows:
        if np.all(np.linalg.norm(kept[:n] - r, axis=1) > tol):
            kept[n] = r
            n += 1
    return list(kept[:n])


def _null_space(a, rcond=1e-10):
    """Orthonormal basis of the null space of ``a`` (rows may be empty)."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    n = a.shape[1]
    if a.size == 0:
        return np.eye(n)
    _, s, vt = np.linalg.svd(a)
    smax = s[0] if s.size else 0.0
    rank = int(np.sum(s > rcond * max(smax, 1.0)))
    return vt[rank:].T


def _project_polyhedron(normals, offsets, point, start):
    """Euclidean projection of ``point`` onto ``{x : normals @ x <= offsets}``.

    Primal active-set method for ``min |x - point|^2 / 2`` (Nocedal &
    Wright, Alg. 16.3, with the identity Hessian), started from the
    feasible point ``start``.  Each step heads for the projection of
    ``point`` onto the affine span of the working facets; the first facet
    that blocks it joins the working set.  Once the iterate is that
    projection (a full or a zero step), the facet with the most negative
    multiplier leaves; with none negative the iterate meets the
    optimality conditions, so it is the projection.  Rows of
    ``normals`` have unit length.  An orthonormal basis of the working
    normals gives the step without forming ill-conditioned normal
    equations, and facets inside their span never join, so the working
    set stays independent and holds at most ``dim`` facets.
    """
    x0 = np.array(point, dtype=float)
    if offsets.size == 0 or np.max(normals @ x0 - offsets) <= 0.0:
        return x0
    x = np.array(start, dtype=float)
    # rounding in a step scales with |x0| and |x0 - x|, which only falls
    zero = _ZERO_STEP * (1.0 + float(np.linalg.norm(x0)) + float(np.linalg.norm(x0 - x)))
    work = []
    q = np.zeros((x0.shape[0], 0))  # orthonormal basis of the working normals
    res = normals  # every normal minus its projection onto that basis
    for _ in range(_ACTIVE_SET_MAX_STEPS):
        d = (x0 - x) - q @ (q.T @ (x0 - x))
        if np.linalg.norm(d) > zero:
            rate = normals @ d
            blocking = (rate > 0.0) & (np.einsum("ij,ij->i", res, res) > _DEPENDENT**2)
            reach = np.full(rate.shape, np.inf)
            reach[blocking] = np.maximum(offsets[blocking] - normals[blocking] @ x, 0.0) / rate[blocking]
            j = int(np.argmin(reach))
            if reach[j] < 1.0:
                x = x + reach[j] * d
                work.append(j)
                v = res[j] - q @ (q.T @ res[j])
                v /= np.linalg.norm(v)
                q = np.column_stack([q, v])
                res = res - np.outer(res @ v, v)
                continue
            x = x + d
        # x minimizes the distance on the working facets' span
        mu = np.linalg.solve(q.T @ normals[work].T, q.T @ (x0 - x))
        if np.min(mu, initial=0.0) >= 0.0:
            return x
        work.pop(int(np.argmin(mu)))
        q = np.linalg.qr(normals[work].T)[0]
        res = normals - (normals @ q) @ q.T
    raise NonConvergence(f"active-set projection took over {_ACTIVE_SET_MAX_STEPS} steps")


class ConvexSet:
    """Common interface for the set variants."""

    dim: int

    def project(self, point):
        raise NotImplementedError

    def distance(self, point):
        p = as_vector(point, self.dim, "point")
        return float(np.linalg.norm(p - self.project(p)))

    def contains(self, point, tol=CONTAINS_TOL):
        if tol < 0:
            raise ValueError("tol must be nonnegative")
        return self.distance(point) <= tol

    def vertices(self):
        raise UnsupportedVariant(f"{type(self).__name__} does not enumerate vertices")

    def sample(self, rng, n=None):
        raise UnsupportedVariant(f"{type(self).__name__} does not support sampling")

    def bounding_box(self):
        raise UnsupportedVariant(f"{type(self).__name__} has no bounding box")

    def span(self):
        """Orthonormal columns spanning the directions ``x - y`` of the set."""
        raise UnsupportedVariant(f"{type(self).__name__} does not report its directions")

    def linear_min(self, g):
        """A point of the set minimizing ``<g, x>``.

        Ties resolve deterministically: to the first vertex in ``vertices()``
        order, or to a ball's center when ``g = 0``.
        """
        raise UnsupportedVariant(f"{type(self).__name__} has no linear minimizer")

    def to_dict(self):
        raise NotImplementedError

    # Vectorized distances for grid filtering; rows of ``pts`` are points.
    def _distance_batch(self, pts):
        return np.array([self.distance(p) for p in pts])


@dataclass(frozen=True, eq=False)
class Box(ConvexSet):
    """Axis-aligned box ``{x : lower <= x <= upper}``."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = as_vector(self.lower, name="lower")
        hi = as_vector(self.upper, dim=lo.shape[0], name="upper")
        if np.any(lo > hi):
            raise ValueError("box needs lower <= upper in every coordinate")
        object.__setattr__(self, "lower", _readonly(lo))
        object.__setattr__(self, "upper", _readonly(hi))

    @property
    def dim(self):
        return self.lower.shape[0]

    def project(self, point):
        p = as_vector(point, self.dim, "point")
        return np.clip(p, self.lower, self.upper)

    def vertices(self):
        if self.dim > VERTEX_ENUM_MAX_DIM:
            raise DimensionTooLarge(
                f"vertex enumeration supports dimension <= {VERTEX_ENUM_MAX_DIM}"
            )
        corners = itertools.product(*zip(self.lower, self.upper))
        vs = _dedup_rows([np.array(c) for c in corners], VERTEX_DEDUP_TOL)
        return np.array(vs)

    def sample(self, rng, n=None):
        size = self.dim if n is None else (n, self.dim)
        return rng.uniform(self.lower, self.upper, size=size)

    def bounding_box(self):
        return self.lower.copy(), self.upper.copy()

    def span(self):
        return np.eye(self.dim)[:, self.lower < self.upper]

    def linear_min(self, g):
        return np.where(as_vector(g, self.dim, "g") < 0.0, self.upper, self.lower)

    def _distance_batch(self, pts):
        return np.linalg.norm(pts - np.clip(pts, self.lower, self.upper), axis=1)

    def to_dict(self):
        return {"type": "box", "lower": self.lower.tolist(), "upper": self.upper.tolist()}


@dataclass(frozen=True, eq=False)
class Ball(ConvexSet):
    """Euclidean ball ``{x : |x - center| <= radius}``."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        c = as_vector(self.center, name="center")
        r = float(self.radius)
        if not (r > 0 and math.isfinite(r)):
            raise ValueError("ball radius must be positive and finite")
        object.__setattr__(self, "center", _readonly(c))
        object.__setattr__(self, "radius", r)

    @property
    def dim(self):
        return self.center.shape[0]

    def project(self, point):
        p = as_vector(point, self.dim, "point")
        d = p - self.center
        nd = float(np.linalg.norm(d))
        if nd <= self.radius:
            return p.copy()
        return self.center + d * (self.radius / nd)

    def distance(self, point):
        p = as_vector(point, self.dim, "point")
        return max(0.0, float(np.linalg.norm(p - self.center)) - self.radius)

    def sample(self, rng, n=None):
        m = 1 if n is None else n
        z = rng.standard_normal((m, self.dim))
        z /= np.maximum(np.linalg.norm(z, axis=1, keepdims=True), 1e-300)
        radii = self.radius * rng.random(m) ** (1.0 / self.dim)
        pts = self.center + z * radii[:, None]
        return pts[0] if n is None else pts

    def bounding_box(self):
        return self.center - self.radius, self.center + self.radius

    def span(self):
        return np.eye(self.dim)

    def linear_min(self, g):
        g = as_vector(g, self.dim, "g")
        ng = float(np.linalg.norm(g))
        return self.center - (self.radius / ng) * g if ng > 0.0 else self.center.copy()

    def _distance_batch(self, pts):
        return np.maximum(
            0.0, np.linalg.norm(pts - self.center, axis=1) - self.radius
        )

    def to_dict(self):
        return {"type": "ball", "center": self.center.tolist(), "radius": self.radius}


def _simplex_project_rows(y):
    """Row-wise projection onto the standard simplex (sum one, nonnegative).

    Sort-based algorithm: find the largest active-support size whose
    water-level shift keeps every kept coordinate positive.
    """
    u = -np.sort(-y, axis=1)
    css = np.cumsum(u, axis=1)
    j = np.arange(1, y.shape[1] + 1)
    cond = u + (1.0 - css) / j > 0.0
    rho = y.shape[1] - 1 - np.argmax(cond[:, ::-1], axis=1)
    theta = (css[np.arange(y.shape[0]), rho] - 1.0) / (rho + 1.0)
    return np.maximum(y - theta[:, None], 0.0)


@dataclass(frozen=True)
class Simplex(ConvexSet):
    """Standard simplex ``{x >= 0, sum(x) = 1}`` in R^dim."""

    dim: int

    def __post_init__(self):
        if int(self.dim) < 1:
            raise ValueError("simplex dimension must be at least 1")
        object.__setattr__(self, "dim", int(self.dim))

    def project(self, point):
        p = as_vector(point, self.dim, "point")
        return _simplex_project_rows(p[None, :])[0]

    def vertices(self):
        if self.dim > VERTEX_ENUM_MAX_DIM:
            raise DimensionTooLarge(
                f"vertex enumeration supports dimension <= {VERTEX_ENUM_MAX_DIM}"
            )
        return np.eye(self.dim)

    def sample(self, rng, n=None):
        size = None if n is None else n
        return rng.dirichlet(np.ones(self.dim), size=size)

    def bounding_box(self):
        return np.zeros(self.dim), np.ones(self.dim)

    def span(self):
        return _null_space(np.ones((1, self.dim)))

    def linear_min(self, g):
        return np.eye(self.dim)[int(np.argmin(as_vector(g, self.dim, "g")))]

    def _distance_batch(self, pts):
        # the distances to the hyperplane sum(x) = 1 and to the orthant
        # bound the distance from below; only rows near the set are projected
        off_plane = np.abs(pts.sum(axis=1) - 1.0) / math.sqrt(self.dim)
        out = np.maximum(off_plane, np.max(-pts, axis=1))
        near = out <= 10 * CONTAINS_TOL
        out[near] = np.linalg.norm(pts[near] - _simplex_project_rows(pts[near]), axis=1)
        return out

    def to_dict(self):
        return {"type": "simplex", "dim": self.dim}


def _subsets(m, k):
    """Every k-subset of ``range(m)`` in lexicographic order, as index rows in
    blocks of ``_SUBSET_BLOCK``: one stacked LAPACK call each, in bounded memory."""
    it = itertools.combinations(range(m), k)
    while block := list(itertools.islice(it, _SUBSET_BLOCK)):
        yield np.array(block, dtype=np.intp).reshape(len(block), k)


def _enumerate_polytope_vertices(normals, offsets, dim):
    """All basic feasible intersection points of ``dim`` active rows: per block
    of row subsets, one stacked SVD, one stacked solve and one product."""
    verts = []
    for idx in _subsets(normals.shape[0], dim):
        sub = normals[idx]
        s = np.linalg.svd(sub, compute_uv=False)
        regular = s[:, -1] > 1e-10 * np.maximum(s[:, 0], 1.0)
        x = np.linalg.solve(sub[regular], offsets[idx[regular]][..., None])[..., 0]
        verts.extend(x[np.max(x @ normals.T - offsets, axis=1) <= 1e-9])
    verts.sort(key=tuple)
    return _dedup_rows(verts, VERTEX_DEDUP_TOL)


def _has_recession_ray(normals, dim):
    """True when ``{d : normals @ d <= 0}`` contains a nonzero direction.

    The lineality space catches contained lines; every extreme ray of a
    pointed recession cone is the null direction of some rank ``dim - 1``
    row subset, so testing those subsets (the empty one in 1-D, whose null
    directions are +-e_1) is complete.  One stacked SVD per block.
    """
    if _null_space(normals).shape[1] > 0:
        return True
    for idx in _subsets(normals.shape[0], dim - 1):
        _, s, vt = np.linalg.svd(normals[idx])
        rank = np.sum(s > 1e-10 * np.maximum(s[:, :1], 1.0), axis=1)
        d = vt[rank == dim - 1, -1]
        if np.any(np.max(np.concatenate([d, -d]) @ normals.T, axis=1) <= 1e-9):
            return True
    return False


@dataclass(frozen=True, eq=False)
class HPolytope(ConvexSet):
    """Bounded intersection of halfspaces ``{x : normals @ x <= offsets}``.

    The constructor enumerates vertices to certify that the intersection
    is nonempty and bounded; dimensions above VERTEX_ENUM_MAX_DIM are
    rejected because that certificate would be unaffordable.  Its cost is
    the C(m, d) and C(m, d - 1) row subsets of m rows in d dimensions,
    tested by a few stacked LAPACK calls rather than one call per subset.
    """

    normals: np.ndarray
    offsets: np.ndarray
    _unit_normals: np.ndarray = field(init=False, repr=False, compare=False)
    _unit_offsets: np.ndarray = field(init=False, repr=False, compare=False)
    _vertices: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        a = np.atleast_2d(np.asarray(self.normals, dtype=float))
        b = as_vector(self.offsets, name="offsets")
        if a.ndim != 2 or a.shape[0] != b.shape[0]:
            raise DimensionMismatch("normals and offsets row counts differ")
        if not np.all(np.isfinite(a)):
            raise ValueError("normals have non-finite entries")
        dim = a.shape[1]
        if dim > VERTEX_ENUM_MAX_DIM:
            raise DimensionTooLarge(
                f"halfspace sets support dimension <= {VERTEX_ENUM_MAX_DIM}, got {dim}"
            )
        norms = np.linalg.norm(a, axis=1)
        if np.any(norms <= 0):
            raise ValueError("every halfspace needs a nonzero normal")
        un = a / norms[:, None]
        ub = b / norms
        if _has_recession_ray(un, dim):
            raise UnboundedSet("halfspace intersection is unbounded")
        verts = _enumerate_polytope_vertices(un, ub, dim)
        if not verts:
            raise EmptySet("halfspace intersection is empty")
        object.__setattr__(self, "normals", _readonly(a))
        object.__setattr__(self, "offsets", _readonly(b))
        object.__setattr__(self, "_unit_normals", _readonly(un))
        object.__setattr__(self, "_unit_offsets", _readonly(ub))
        object.__setattr__(self, "_vertices", _readonly(np.array(verts)))

    @property
    def dim(self):
        return self.normals.shape[1]

    def project(self, point):
        p = as_vector(point, self.dim, "point")
        return _project_polyhedron(self._unit_normals, self._unit_offsets, p, self._vertices[0])

    def distance(self, point):
        p = as_vector(point, self.dim, "point")
        worst = float(np.max(self._unit_normals @ p - self._unit_offsets))
        if worst <= 0.0:
            return 0.0
        return float(np.linalg.norm(p - self.project(p)))

    def contains(self, point, tol=CONTAINS_TOL):
        if tol < 0:
            raise ValueError("tol must be nonnegative")
        p = as_vector(point, self.dim, "point")
        worst = float(np.max(self._unit_normals @ p - self._unit_offsets))
        if worst <= 0.0:
            return True
        if worst > tol:
            # per-halfspace distance lower-bounds the set distance
            return False
        return float(np.linalg.norm(p - self.project(p))) <= tol

    def vertices(self):
        return self._vertices.copy()

    def sample(self, rng, n=None):
        lo, hi = self.bounding_box()
        m = 1 if n is None else n
        out = []
        for _ in range(2000):
            cand = rng.uniform(lo, hi, size=(max(4 * m, 64), self.dim))
            keep = self._distance_batch(cand) <= 0.0
            out.extend(cand[keep])
            if len(out) >= m:
                break
        if len(out) < m:
            raise NonConvergence(
                "rejection sampling failed; the set may have near-zero volume"
            )
        pts = np.array(out[:m])
        return pts[0] if n is None else pts

    def bounding_box(self):
        return self._vertices.min(axis=0), self._vertices.max(axis=0)

    def span(self):
        return _null_space(_null_space(self._vertices[1:] - self._vertices[0]).T)

    def linear_min(self, g):
        # a linear function attains its minimum over a polytope at a vertex
        return self._vertices[int(np.argmin(self._vertices @ as_vector(g, self.dim, "g")))].copy()

    def _distance_batch(self, pts):
        slack = pts @ self._unit_normals.T - self._unit_offsets
        worst = slack.max(axis=1)
        out = np.where(worst <= 0.0, 0.0, worst)
        # the slack is only a lower bound off the set; refine the few
        # borderline points with a true projection
        for i in np.nonzero((worst > 0.0) & (worst <= 10 * CONTAINS_TOL))[0]:
            out[i] = float(np.linalg.norm(pts[i] - self.project(pts[i])))
        return out

    def to_dict(self):
        return {
            "type": "hpolytope",
            "normals": self.normals.tolist(),
            "offsets": self.offsets.tolist(),
        }


def _cone_halfspaces(generators):
    """Halfspace description of ``cone(generators)``.

    The facets of the cone are the facets through 0 of the hull of 0 and
    the generators, the pinned pairs orthogonal to the span among them.
    If no facet passes through 0, the cone fills its span.  Raises
    ``DimensionTooLarge`` where the hull enumeration does.
    """
    g = np.atleast_2d(np.asarray(generators, dtype=float))
    rows, offsets = _hull_halfspaces(np.vstack([np.zeros(g.shape[0]), g.T]))
    through_zero = np.abs(offsets) <= 1e-9 * (1.0 + float(np.max(np.abs(g))))
    a = rows.reshape(-1, g.shape[0])[through_zero]
    return a, np.zeros(a.shape[0])


@dataclass(frozen=True, eq=False)
class PolyhedralCone(ConvexSet):
    """Conic hull of finitely many generator directions.

    Not compact, so it only supports projection, membership, and the
    complementarity predicates; sampling and vertex enumeration are
    undefined for this variant.
    """

    generators: np.ndarray
    _hs_normals: np.ndarray = field(init=False, repr=False, compare=False)
    _hs_offsets: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        g = np.atleast_2d(np.asarray(self.generators, dtype=float))
        if g.ndim != 2 or g.shape[1] == 0:
            raise DimensionMismatch("generators must form a d x m matrix")
        if not np.all(np.isfinite(g)):
            raise ValueError("generators have non-finite entries")
        if np.any(np.linalg.norm(g, axis=0) <= 0):
            raise ValueError("every generator must be nonzero")
        a, b = _cone_halfspaces(g)
        object.__setattr__(self, "generators", _readonly(g))
        object.__setattr__(self, "_hs_normals", _readonly(a))
        object.__setattr__(self, "_hs_offsets", _readonly(b))

    @property
    def dim(self):
        return self.generators.shape[0]

    def project(self, point):
        p = as_vector(point, self.dim, "point")
        return _project_polyhedron(self._hs_normals, self._hs_offsets, p, np.zeros(self.dim))

    def to_dict(self):
        return {"type": "cone", "generators": self.generators.tolist()}


def segment_distance(p, x, y):
    """Distance from ``p`` to the closed segment ``[x, y]``, row by row for stacks.

    ``p``, ``x`` and ``y`` are points of one shape, or stacks of points
    with one segment per row.  The projection coefficient is clamped to
    ``[0, 1]``, so degenerate segments fall back to the point distance.
    """
    p, x, y = (np.atleast_1d(np.asarray(v, dtype=float)) for v in (p, x, y))
    if p.ndim > 2 or x.shape != p.shape or y.shape != p.shape:
        raise DimensionMismatch(f"p, x and y differ in shape: {p.shape}, {x.shape}, {y.shape}")
    if not all(np.all(np.isfinite(v)) for v in (p, x, y)):
        raise ValueError("segment_distance got non-finite entries")
    d = y - x
    den = np.einsum("...i,...i->...", d, d)
    num = np.einsum("...i,...i->...", p - x, d)
    t = np.clip(np.divide(num, den, out=np.zeros_like(num), where=den > 0.0), 0.0, 1.0)
    dist = np.linalg.norm(p - (x + t[..., None] * d), axis=-1)
    return float(dist) if p.ndim == 1 else dist


def _exact_distances(s, pts):
    """Distances of the rows of ``pts`` from the set ``s``.

    Off the set the batch distance may only bound the true one from
    below, so the rows it puts outside are scored again with ``distance``.
    """
    d = s._distance_batch(pts)
    for i in np.flatnonzero(d > 0.0):
        d[i] = s.distance(pts[i])
    return d


def _hull_halfspaces(points):
    """Facet description of the convex hull of ``points``.

    Works in the affine hull: orthogonal directions are pinned with
    equality pairs, and facets are enumerated inside the hull coordinates,
    one stacked SVD per block of point subsets.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n, d = pts.shape
    center = pts.mean(axis=0)
    q = pts - center
    _, s, vt = np.linalg.svd(q, full_matrices=True)
    smax = s[0] if s.size else 0.0
    rank = int(np.sum(s > 1e-10 * max(smax, 1.0)))
    rows = []
    offsets = []
    for j in range(rank, d):
        nrm = vt[j]
        rows.append(nrm)
        offsets.append(float(nrm @ center))
        rows.append(-nrm)
        offsets.append(-float(nrm @ center))
    basis = vt[:rank].T
    coords = q @ basis
    scale = 1.0 + float(np.max(np.abs(coords)))
    side_tol = 1e-9 * scale
    if rank == 1:
        t = coords[:, 0]
        b0 = basis[:, 0]
        rows.append(b0)
        offsets.append(float(t.max()) + float(b0 @ center))
        rows.append(-b0)
        offsets.append(-float(t.min()) - float(b0 @ center))
    else:
        if math.comb(n, rank) > _HULL_SUBSET_CAP:
            raise DimensionTooLarge(
                f"hull facet enumeration over C({n},{rank}) subsets is too large"
            )
        facets = []
        for idx in _subsets(n, rank):
            sub = coords[idx]
            _, s, vt = np.linalg.svd(sub[:, 1:] - sub[:, :1])
            line = np.sum(s > 1e-10 * np.maximum(s[:, :1], 1.0), axis=1) == rank - 1
            nrm = vt[line, -1]
            # one dot product per subset, as np.dot takes it, for bit-equal offsets
            c = np.matmul(nrm[:, None, :], sub[line, 0, :, None])[:, 0, 0]
            vals = coords @ nrm.T - c
            below = vals.max(axis=0) <= side_tol
            above = ~below & (vals.min(axis=0) >= -side_tol)
            sign = np.where(below, 1.0, -1.0)[:, None]
            facets.extend((sign * np.column_stack([nrm, c]))[below | above])
        for key in _dedup_rows(facets, 1e-9):
            rows.append(basis @ key[:-1])
            offsets.append(key[-1] + float((basis @ key[:-1]) @ center))
    return np.array(rows), np.array(offsets)


def set_from_dict(d):
    """Inverse of ``ConvexSet.to_dict``."""
    kind = d.get("type")
    if kind == "box":
        return Box(d["lower"], d["upper"])
    if kind == "ball":
        return Ball(d["center"], d["radius"])
    if kind == "simplex":
        return Simplex(d["dim"])
    if kind == "hpolytope":
        return HPolytope(d["normals"], d["offsets"])
    if kind == "cone":
        return PolyhedralCone(d["generators"])
    raise UnsupportedVariant(f"unknown set type {kind!r}")
