"""Independent answer checks for the benchmark workloads.

Nothing here calls gvikit: every certificate is recomputed from the raw
problem data with plain numpy, so a wrong answer from the program cannot
also fool its own check.  Each check returns ``None`` when the answer holds
and a short reason string when it does not.
"""

from __future__ import annotations

import itertools

import numpy as np

GAP_TOL = 1e-6
PULLBACK_TOL = 1e-7
FEAS_TOL = 1e-7
LCP_TOL = 1e-6


def affine(op, x):
    """Evaluate an ``affine`` operator given as its problem-file dict."""
    return np.asarray(op["matrix"], dtype=float) @ x + np.asarray(op["shift"], dtype=float)


def box_linear_min(g, lower, upper):
    """``min <g, u>`` over the box ``[lower, upper]``, taken coordinatewise."""
    return float(np.sum(np.minimum(g * lower, g * upper)))


def check_box_gvi(A_matrix, A_shift, inner, x, u_reduced, lower, upper, image_lower, image_upper):
    """Exact GVI gap over an image box, pullback and feasibility.

    ``inner`` maps x to a(x).  The gap ``min_{u in a(K)} <A(x), u - a(x)>``
    is linear in u, so its minimizer follows from the sign of each
    coordinate of A(x).
    """
    x = np.asarray(x, dtype=float)
    if x.shape != lower.shape or not np.all(np.isfinite(x)):
        return "solution has the wrong shape or non-finite entries"
    if np.any(x < lower - FEAS_TOL) or np.any(x > upper + FEAS_TOL):
        return "solution lies outside K"
    ax = inner(x)
    g = A_matrix @ x + A_shift
    gap = box_linear_min(g, image_lower, image_upper) - float(g @ ax)
    if gap < -GAP_TOL:
        return f"exact gap {gap:.3e} below -{GAP_TOL}"
    pullback = float(np.linalg.norm(ax - np.asarray(u_reduced, dtype=float)))
    if pullback > PULLBACK_TOL:
        return f"pullback {pullback:.3e} above {PULLBACK_TOL}"
    return None


def polytope_vertices(normals, offsets):
    """Vertices of ``{x : normals @ x <= offsets}`` by brute force.

    Every vertex is the solution of ``dim`` linearly independent active
    rows, so trying every row subset is complete; feasible solutions are
    kept and near-duplicates merged.
    """
    normals = np.asarray(normals, dtype=float)
    offsets = np.asarray(offsets, dtype=float)
    dim = normals.shape[1]
    found = []
    for rows in itertools.combinations(range(normals.shape[0]), dim):
        sub = normals[list(rows)]
        if abs(np.linalg.det(sub)) < 1e-12:
            continue
        v = np.linalg.solve(sub, offsets[list(rows)])
        if np.all(normals @ v <= offsets + 1e-9) and all(
            np.linalg.norm(v - w) > 1e-9 for w in found
        ):
            found.append(v)
    return np.array(found)


def check_vertex_gap(A_op, x, vertices, normals=None, offsets=None, simplex=False):
    """VI answer on a polytope: feasibility plus the vertex-minimum gap.

    ``<A(x), y - x>`` is linear in y, so its minimum over a polytope is
    attained at a vertex and the finite minimum over ``vertices`` is exact.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (vertices.shape[1],) or not np.all(np.isfinite(x)):
        return "solution has the wrong shape or non-finite entries"
    if simplex:
        if np.min(x) < -FEAS_TOL or abs(float(np.sum(x)) - 1.0) > FEAS_TOL:
            return "solution lies outside the simplex"
    elif np.max(np.asarray(normals) @ x - np.asarray(offsets)) > FEAS_TOL:
        return "solution lies outside the polytope"
    g = affine(A_op, x)
    gap = float(np.min((vertices - x) @ g))
    if gap < -GAP_TOL:
        return f"vertex-minimum gap {gap:.3e} below -{GAP_TOL}"
    return None


def check_affine_gvi_box(A_op, a_op, x, lower, upper):
    """GVI answer with an affine inner map on a box K.

    ``<A(x), a(y) - a(x)> = <G^T A(x), y - x>`` for ``a(y) = G y + h``, so
    the exact gap over K is the coordinatewise box minimum.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != lower.shape or not np.all(np.isfinite(x)):
        return "solution has the wrong shape or non-finite entries"
    if np.any(x < lower - FEAS_TOL) or np.any(x > upper + FEAS_TOL):
        return "solution lies outside K"
    w = np.asarray(a_op["matrix"], dtype=float).T @ affine(A_op, x)
    gap = box_linear_min(w, lower, upper) - float(w @ x)
    if gap < -GAP_TOL:
        return f"exact gap {gap:.3e} below -{GAP_TOL}"
    return None


def check_lcp(T_op, g_op, generators, x):
    """Generalized complementarity on the cone spanned by ``generators``.

    Requires ``g(x)`` in the cone (nonnegative generator coefficients),
    ``T(x)`` in the dual cone (nonnegative pairing with every generator),
    and ``<T(x), g(x)> = 0``.  The generator matrix is square here.
    """
    x = np.asarray(x, dtype=float)
    gen = np.asarray(generators, dtype=float)
    if x.shape != (gen.shape[1],) or not np.all(np.isfinite(x)):
        return "solution has the wrong shape or non-finite entries"
    gx = affine(g_op, x)
    tx = affine(T_op, x)
    coef = np.linalg.solve(gen, gx)
    if np.min(coef) < -LCP_TOL:
        return f"g(x) leaves the cone by {-np.min(coef):.3e}"
    pair = gen.T @ tx
    if np.min(pair) < -LCP_TOL:
        return f"T(x) leaves the dual cone by {-np.min(pair):.3e}"
    orth = abs(float(tx @ gx))
    if orth > LCP_TOL:
        return f"<T(x), g(x)> = {orth:.3e} is not zero"
    return None


def check_close(x, expected, tol):
    """Demo answers: the closed-form solution within its stated tolerance."""
    x = np.asarray(x, dtype=float)
    e = np.asarray(expected, dtype=float)
    if x.shape != e.shape or not np.all(np.isfinite(x)):
        return "solution has the wrong shape or non-finite entries"
    err = float(np.max(np.abs(x - e)))
    if err > tol:
        return f"solution is {err:.3e} from the expected answer"
    return None


def check_fixed_point(f_op, x, tol=1e-6):
    """Fixed-point answer on the standard simplex: ``x`` in K and ``f(x) = x``."""
    if x is None:
        return "no solution reported"
    x = np.asarray(x, dtype=float)
    if x.shape != (len(f_op["shift"]),) or not np.all(np.isfinite(x)):
        return "solution has the wrong shape or non-finite entries"
    if np.min(x) < -FEAS_TOL or abs(float(np.sum(x)) - 1.0) > FEAS_TOL:
        return "solution lies outside the simplex"
    residual = float(np.linalg.norm(affine(f_op, x) - x))
    if residual > tol:
        return f"|f(x) - x| = {residual:.3e} above {tol}"
    return None
