"""Brute-force grid oracle for low-dimensional certification.

Everything here works on an axis-aligned lattice clipped to the set, so
results are exact minima over the grid rather than over the set: a grid
gap is an upper bound on the true infimum, which makes it a refutation
tool.  Grids are generated in lexicographic order and ties resolve to the
first point, keeping every oracle answer deterministic.

No grid gap can refute the gap certificate: ``gvi.gvi_gap`` is exact or
a lower bound on every compact K, so it is already at most the minimum
over any grid in K, and the command line never runs ``brute_gap``; the
acceptance tests use it as an independent upper bound.
``brute_coincidence`` answers another question, the lattice point of
least residual, and ``gvikit certify`` runs it on every coincidence or
fixed-point solution.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionTooLarge, EmptyGrid, UnsupportedVariant
from .geometry import as_vector

ORACLE_MAX_DIM = 4
GRID_POINT_CAP = 10_000_000
_MEMBERSHIP_TOL = 1e-9
# lattice rows filtered for membership at a time
_GRID_CHUNK = 8_192


def grid_points(K, resolution):
    """Lattice of spacing ``resolution`` over K's bounding box, clipped to K.

    Vertices are appended when the set enumerates them, so sets whose
    interior misses the lattice (the simplex for most spacings) still
    produce a usable grid.
    """
    if not resolution > 0:
        raise ValueError("resolution must be positive")
    if K.dim > ORACLE_MAX_DIM:
        raise DimensionTooLarge(f"oracle supports dimension <= {ORACLE_MAX_DIM}")
    lo, hi = K.bounding_box()
    axes = []
    count = 1
    for i in range(K.dim):
        n_i = int(np.floor((hi[i] - lo[i]) / resolution + 1e-12)) + 1
        axes.append(lo[i] + resolution * np.arange(n_i))
        count *= n_i
        if count > GRID_POINT_CAP:
            raise DimensionTooLarge(
                f"grid would exceed {GRID_POINT_CAP} points at resolution {resolution}"
            )
    shape = tuple(len(ax) for ax in axes)

    def rows(flat):
        """The lattice points at C-order indices ``flat``, one per row."""
        return np.stack([ax[i] for ax, i in zip(axes, np.unravel_index(flat, shape))], axis=1)

    # membership is filtered chunk by chunk, so the full lattice and the
    # distance temporaries are never held at once
    keep = np.zeros(count, dtype=bool)
    chunks = []
    for start in range(0, count, _GRID_CHUNK):
        chunk = rows(np.arange(start, min(start + _GRID_CHUNK, count)))
        inside = K._distance_batch(chunk) <= _MEMBERSHIP_TOL
        keep[start:start + chunk.shape[0]] = inside
        chunks.append(chunk[inside])
    try:
        vs = np.asarray(K.vertices(), dtype=float).reshape(-1, K.dim)
    except (UnsupportedVariant, DimensionTooLarge):
        vs = np.zeros((0, K.dim))
    # only the nearest lattice point can lie within 1e-12 of a vertex
    idx = np.rint((vs - lo) / resolution).astype(np.int64)
    on_lattice = np.all((idx >= 0) & (idx < shape), axis=1)
    nearest = np.ravel_multi_index(np.clip(idx, 0, np.array(shape) - 1).T, shape)
    covered = (
        on_lattice
        & keep[nearest]
        & (np.linalg.norm(rows(nearest) - vs, axis=1) <= 1e-12)
    )
    pts = np.concatenate(chunks, axis=0)
    if not np.all(covered):
        pts = np.concatenate([pts, vs[~covered]], axis=0)
    if pts.shape[0] == 0:
        raise EmptyGrid(f"no grid point of spacing {resolution} lies inside the set")
    return pts


def brute_gap(A, a, K, x, resolution):
    """Grid minimum of ``<A(x), a(y) - a(x)>`` over y; upper-bounds the gap."""
    x = as_vector(x, K.dim, "x")
    pts = grid_points(K, resolution)
    ax = np.asarray(a(x), dtype=float)
    gx = np.asarray(A(x), dtype=float)
    vals = (np.asarray(a(pts), dtype=float) - ax) @ gx
    return float(np.min(vals))


def brute_vi_solve(A, a, K, resolution):
    """Grid point with the best (largest) grid gap, plus that gap.

    Quadratic in the grid size; rows are processed in chunks to keep the
    pairing matrix small.
    """
    pts = grid_points(K, resolution)
    avals = np.asarray(a(pts), dtype=float)
    gvals = np.asarray(A(pts), dtype=float)
    self_pair = np.einsum("nd,nd->n", gvals, avals)
    n = pts.shape[0]
    gaps = np.empty(n)
    chunk = max(1, min(n, 8_000_000 // max(n, 1)))
    for s in range(0, n, chunk):
        e = min(s + chunk, n)
        gaps[s:e] = (gvals[s:e] @ avals.T).min(axis=1) - self_pair[s:e]
    i = int(np.argmax(gaps))
    return pts[i].copy(), float(gaps[i])


def brute_coincidence(f, g, K, resolution):
    """Grid point minimizing ``|f(x) - g(x)|``, plus that residual."""
    pts = grid_points(K, resolution)
    r = np.linalg.norm(
        np.asarray(f(pts), dtype=float) - np.asarray(g(pts), dtype=float), axis=1
    )
    i = int(np.argmin(r))
    return pts[i].copy(), float(r[i])
