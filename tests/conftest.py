"""Shared random-instance factories for the test suite.

Sets are generated well-conditioned on purpose: halfspace normals are
kept away from parallel pairs and every polytope contains a ball around
its seed center, so iterative projections converge at healthy rates and
tolerance assertions measure the algorithms rather than the instances.
"""

import numpy as np

from gvikit import Ball, Box, HPolytope, PolyhedralCone, Simplex


def random_box(rng, dim):
    lo = rng.uniform(-2.0, 1.0, size=dim)
    return Box(lo, lo + rng.uniform(0.2, 2.5, size=dim))


def random_ball(rng, dim):
    return Ball(rng.uniform(-1.0, 1.0, size=dim), float(rng.uniform(0.3, 2.0)))


def random_simplex(rng, dim):
    del rng
    return Simplex(dim)


def random_hpolytope(rng, dim):
    """Random cuts through a box; box facets keep the set bounded.

    In R^1 every unit normal is +-1, so one cut is all the parallel-pair
    test admits there.
    """
    k = int(rng.integers(2, 5)) if dim > 1 else 1
    rows = []
    while len(rows) < k:
        n = rng.normal(size=dim)
        n /= np.linalg.norm(n)
        if all(abs(n @ r) < 0.95 for r in rows):
            rows.append(n)
    normals = np.array(rows)
    center = rng.uniform(-0.3, 0.3, size=dim)
    offsets = normals @ center + rng.uniform(0.3, 1.0, size=k)
    eye = np.eye(dim)
    normals = np.vstack([normals, eye, -eye])
    offsets = np.concatenate([offsets, np.full(2 * dim, 1.5)])
    return HPolytope(normals, offsets)


def random_cone(rng, dim):
    m = int(rng.integers(dim, dim + 2))
    g = rng.normal(size=(dim, m))
    g /= np.linalg.norm(g, axis=0)
    return PolyhedralCone(g)


def cone_samples(rng, cone, n):
    """Points of the cone as nonnegative generator combinations."""
    lam = rng.uniform(0.0, 2.0, size=(n, cone.generators.shape[1]))
    return lam @ cone.generators.T
