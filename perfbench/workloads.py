"""Seeded problem generators for the three benchmark workloads.

A workload is an endless sequence of rounds; each round is a fixed list of
problem shapes.  Everything that varies between runs is drawn from one
``numpy`` generator seeded with the workload seed, so the same seed always
yields the same problems.  Every case carries its problem file (the
program's only input), the status a correct run must report, and an
independent check of the answer from ``reference``.

Why each workload exists:

* ``demos`` -- the 14 built-in demos through ``gvikit certify``, the
  problems users run first (dimension 1-2).  Only the ``seed`` field is
  redrawn; it steers the hypothesis battery's samples and nothing else, so
  each demo's hand-worked ``expect`` answer stays the reference.  The
  battery dominates here; solver, polyhedral projection and oracle do
  little.
* ``ladder`` -- the dimension ladder n in {2, 10, 30} crossed with the inner
  maps identity, 2I and cube, solved through the library call
  ``solve_gvi`` on the box [-1, 1]^n with a strongly monotone affine A.
  No battery and no oracle run.  The identity and 2I rungs are pure
  inversion overhead and set the median;
  the cube rungs are bound by solver iterations, stop at ``LADDER_CAP``
  from n = 10 on, and set the tail and the failure share.
* ``polytope`` -- generated problems in dimensions 2-4 through
  ``gvikit certify``: VIs on simplices and halfspace polytopes, GVIs whose
  affine inner map has a derived polytope image, complementarity on a
  simplicial cone, and a minority of fixed-point instances with no fixed
  point in their simplex (reference status ``refuted_hypothesis``).  These
  drive Dykstra projection, dimension-4 oracle grids clipped to polytopes,
  hull and vertex enumeration in the schema, and the coincidence failure
  path.  Solvable instances are built around a planted solution, some in
  the interior and some on a face; the seed permutes their coordinates.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

import reference

WORKLOADS = ("demos", "ladder", "polytope")

LADDER_DIMS = (2, 10, 30)
LADDER_MAPS = ("identity", "double", "cube")
# Identity and 2I rungs converge in at most about 70 extragradient
# iterations; the cap keeps a capped cube rung at n = 30 near two seconds.
LADDER_CAP = 100
# Instance difficulty (iteration counts, backtracking, projection cycles)
# varies widely between random draws, and that variance would swamp
# run-to-run comparisons.  Rounds therefore cycle through a small pool of
# base instances drawn from a fixed seed, and the workload seed varies each
# round's inputs by a (signed, for the ladder) permutation of coordinates,
# which leaves the difficulty unchanged.
LADDER_POOL = 3
LADDER_BASE_SEED = 1310
POLYTOPE_POOL = 3
POLYTOPE_BASE_SEED = 7636
POLYTOPE_DIMS = (2, 3, 4)
# Eigenvalues of the symmetric part are 1 and of the whole matrix 1 +- i,
# so every generated operator is strongly monotone with modulus 1.
_ROTATION = 1.0


@dataclass
class Case:
    """One problem: its file, the status to expect, and the answer check."""

    pid: int
    label: str
    data: dict
    expected_status: str
    check: Callable[[np.ndarray, dict], Optional[str]]


def _affine(matrix, shift):
    return {"op": "affine", "matrix": np.asarray(matrix).tolist(), "shift": np.asarray(shift).tolist()}


def _box(lower, upper):
    return {"type": "box", "lower": list(map(float, lower)), "upper": list(map(float, upper))}


def _seed(rng):
    return int(rng.integers(1, 2**31 - 1))


def strongly_monotone(rng, n):
    """``Q (I + R) Q^T`` with R a block rotation generator and Q orthogonal."""
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    m = np.eye(n)
    for i in range(0, n - 1, 2):
        m[i, i + 1] = _ROTATION
        m[i + 1, i] = -_ROTATION
    return q @ m @ q.T


def _well_conditioned(rng, n, spread=0.4):
    while True:
        g = np.eye(n) + spread * rng.normal(size=(n, n)) / math.sqrt(n)
        if np.linalg.cond(g) < 8.0:
            return g


# ---------------------------------------------------------------- demos


def demo_round(rng, demos):
    cases = []
    for name, entry in demos.items():
        data = copy.deepcopy(entry["problem"])
        data["seed"] = _seed(rng)
        expect = entry["expect"]

        def check(x, report, expect=expect):
            return reference.check_close(x, expect["solution"], expect["tol"])

        cases.append(Case(0, f"demo:{name}", data, "certified", check))
    return cases


# --------------------------------------------------------------- ladder


def _ladder_inner(kind, n):
    """(operator dict, numpy map, image bound) for one inner map."""
    if kind == "identity":
        return {"op": "identity", "dim": n}, (lambda x: x), 1.0
    if kind == "double":
        return _affine(2.0 * np.eye(n), np.zeros(n)), (lambda x: 2.0 * x), 2.0
    return {"op": "pointwise", "kind": "cube", "dim": n}, (lambda x: x**3), 1.0


def ladder_pool():
    """Base instances ``(A matrix, A shift)`` per dimension, the same for every seed."""
    base = np.random.default_rng(LADDER_BASE_SEED)
    return {
        n: [(strongly_monotone(base, n), base.uniform(-1.5, 1.5, size=n)) for _ in range(LADDER_POOL)]
        for n in LADDER_DIMS
    }


def ladder_round(rng, index, pool):
    cases = []
    for n in LADDER_DIMS:
        # a seeded signed permutation of a base instance: new inputs, same
        # difficulty, since the box, the inner maps and the solver are all
        # symmetric under signed permutations of the coordinates
        matrix, shift = pool[n][index % LADDER_POOL]
        t = np.eye(n)[rng.permutation(n)] * rng.choice([-1.0, 1.0], size=n)[:, None]
        matrix, shift = t @ matrix @ t.T, t @ shift
        seed = _seed(rng)
        lower, upper = -np.ones(n), np.ones(n)
        for kind in LADDER_MAPS:
            inner_op, inner, bound = _ladder_inner(kind, n)
            data = {
                "version": "1",
                "kind": "gvi",
                "operators": {"A": _affine(matrix, shift), "a": inner_op},
                "set": _box(lower, upper),
                "image_set": _box(-bound * np.ones(n), bound * np.ones(n)),
                "solver": {"max_iter": LADDER_CAP},
                "seed": seed,
            }

            def check(x, report, matrix=matrix, shift=shift, inner=inner, bound=bound, n=n):
                return reference.check_box_gvi(
                    matrix, shift, inner, x, report["reduced_solution"],
                    -np.ones(n), np.ones(n), -bound * np.ones(n), bound * np.ones(n),
                )

            cases.append(Case(0, f"ladder:{kind}-{n}", data, "certified", check))
    return cases


# ------------------------------------------------------------- polytope


def _simplex_vi(rng, d, face):
    x_star = rng.dirichlet(np.ones(d))
    c = np.full(d, rng.uniform(-1.0, 1.0))
    if face:
        zeros = rng.choice(d, size=int(rng.integers(1, d)), replace=False)
        x_star[zeros] = 0.0
        x_star /= x_star.sum()
        c[zeros] += rng.uniform(0.2, 1.0, size=zeros.size)
    m = strongly_monotone(rng, d)
    return {
        "version": "1",
        "kind": "vi",
        "operators": {"A": _affine(m, c - m @ x_star)},
        "set": {"type": "simplex", "dim": d},
    }


def _hpolytope_vi(rng, d, face):
    center = np.full(d, 0.5)
    normals = [row for i in range(d) for row in (np.eye(d)[i], -np.eye(d)[i])]
    offsets = [b for i in range(d) for b in (1.0, 0.0)]
    cuts = []
    for _ in range(int(rng.integers(2, 4))):
        n = rng.normal(size=d)
        n /= np.linalg.norm(n)
        cuts.append(len(normals))
        normals.append(n)
        offsets.append(float(n @ center + rng.uniform(0.15, 0.3)))
    normals, offsets = np.array(normals), np.array(offsets)
    if face:
        # plant on a cut that touches the polytope; its vertex centroid lies on it
        vertices = reference.polytope_vertices(normals, offsets)
        on = np.abs(vertices @ normals.T - offsets) <= 1e-9
        rows = [j for j in cuts if on[:, j].any()] or list(range(2 * d))
        j = rows[int(rng.integers(len(rows)))]
        x_star = vertices[on[:, j]].mean(axis=0)
        c = -rng.uniform(0.2, 1.0) * normals[j]
    else:
        delta = rng.normal(size=d)
        x_star = center + 0.1 * rng.uniform() * delta / np.linalg.norm(delta)
        c = np.zeros(d)
    m = strongly_monotone(rng, d)
    return {
        "version": "1",
        "kind": "vi",
        "operators": {"A": _affine(m, c - m @ x_star)},
        "set": {"type": "hpolytope", "normals": normals.tolist(), "offsets": offsets.tolist()},
    }


def _affine_gvi(rng, d, face):
    g = _well_conditioned(rng, d)
    h = rng.uniform(-0.5, 0.5, size=d)
    x_star = rng.uniform(0.25, 0.75, size=d)
    w = np.zeros(d)
    if face:
        for i in rng.choice(d, size=int(rng.integers(1, d)), replace=False):
            at_upper = bool(rng.integers(2))
            x_star[i] = 1.0 if at_upper else 0.0
            w[i] = rng.uniform(0.2, 1.0) * (-1.0 if at_upper else 1.0)
    # <A(x*), G (y - x*)> = <w, y - x*> >= 0 on the unit box; P G keeps A
    # strongly monotone relative to a
    pg = strongly_monotone(rng, d) @ g
    return {
        "version": "1",
        "kind": "gvi",
        "operators": {"A": _affine(pg, np.linalg.solve(g.T, w) - pg @ x_star), "a": _affine(g, h)},
        "set": _box(np.zeros(d), np.ones(d)),
    }


def _cone_lcp(rng, d, face):
    gen = _well_conditioned(rng, d, spread=0.3)
    u_star = rng.uniform(0.15, 0.7, size=d)
    w = np.zeros(d)
    if face:
        zeros = rng.choice(d, size=int(rng.integers(1, d)), replace=False)
        u_star[zeros] = 0.0
        w[zeros] = rng.uniform(0.2, 1.0, size=zeros.size)
    # G^T T(u) = P (u - u*) + w: dual feasible, complementary to u* >= 0
    gen_inv_t = np.linalg.inv(gen).T
    p = strongly_monotone(rng, d)
    return {
        "version": "1",
        "kind": "complementarity",
        "operators": {
            "T": _affine(gen_inv_t @ p, gen_inv_t @ (w - p @ u_star)),
            "g": _affine(gen, np.zeros(d)),
        },
        "set": {"type": "cone", "generators": gen.tolist()},
        "domain": _box(np.zeros(d), np.ones(d)),
        "solver": {"residual_tol": 1e-10},
    }


def _escaping_fixed_point(rng, d):
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    lin = 0.5 * q
    # the unique fixed point sums to 1.3, so it lies off the simplex
    fixed = rng.dirichlet(np.ones(d)) * 1.3
    return {
        "version": "1",
        "kind": "fixed_point",
        "operators": {"f": _affine(lin, (np.eye(d) - lin) @ fixed)},
        "set": {"type": "simplex", "dim": d},
    }


_POLYTOPE_KINDS = (
    ("vi-simplex", _simplex_vi),
    ("vi-hpolytope", _hpolytope_vi),
    ("gvi-affine", _affine_gvi),
    ("lcp-cone", _cone_lcp),
)


def polytope_pool():
    """Base rounds of ``(label, dim, problem data, expected status)``, the same for every seed."""
    base = np.random.default_rng(POLYTOPE_BASE_SEED)
    pool = []
    for index in range(POLYTOPE_POOL):
        shapes = []
        for d in POLYTOPE_DIMS:
            for k, (name, make) in enumerate(_POLYTOPE_KINDS):
                face = (index + d + k) % 2 == 1
                label = f"polytope:{name}-{d}-{'face' if face else 'interior'}"
                shapes.append((label, d, make(base, d, face), "certified"))
        # two of the fourteen problems have no solution, so the 90th
        # percentile falls inside their group rather than on its edge
        for k in range(2):
            d = POLYTOPE_DIMS[(2 * index + k) % len(POLYTOPE_DIMS)]
            label = f"polytope:fixed-point-escape-{d}"
            shapes.append((label, d, _escaping_fixed_point(base, d), "refuted_hypothesis"))
        pool.append(shapes)
    return pool


def permuted(data, order):
    """The same problem in coordinates ``x' = P x``, P the permutation ``order``."""
    p = np.eye(len(order))[order]
    out = copy.deepcopy(data)
    for op in out["operators"].values():
        op["matrix"] = (p @ np.asarray(op["matrix"]) @ p.T).tolist()
        op["shift"] = (p @ np.asarray(op["shift"])).tolist()
    for key in ("set", "domain"):
        s = out.get(key)
        if s is None or s["type"] == "simplex":
            continue
        if s["type"] == "hpolytope":
            s["normals"] = (np.asarray(s["normals"]) @ p.T).tolist()
        elif s["type"] == "cone":
            s["generators"] = (p @ np.asarray(s["generators"])).tolist()
        else:
            s["lower"], s["upper"] = (p @ np.asarray(s["lower"])).tolist(), (p @ np.asarray(s["upper"])).tolist()
    return out


def polytope_check(data):
    """The independent answer check for one polytope-workload problem."""
    ops, s = data["operators"], data["set"]
    if data["kind"] == "vi" and s["type"] == "simplex":
        vertices = np.eye(s["dim"])
        return lambda x, report: reference.check_vertex_gap(ops["A"], x, vertices, simplex=True)
    if data["kind"] == "vi":
        normals, offsets = np.asarray(s["normals"]), np.asarray(s["offsets"])
        vertices = reference.polytope_vertices(normals, offsets)
        return lambda x, report: reference.check_vertex_gap(ops["A"], x, vertices, normals, offsets)
    if data["kind"] == "gvi":
        lower, upper = np.asarray(s["lower"]), np.asarray(s["upper"])
        return lambda x, report: reference.check_affine_gvi_box(ops["A"], ops["a"], x, lower, upper)
    if data["kind"] == "complementarity":
        return lambda x, report: reference.check_lcp(ops["T"], ops["g"], s["generators"], x)
    return lambda x, report: reference.check_fixed_point(ops["f"], x)


def polytope_round(rng, index, pool):
    cases = []
    for label, d, base, expected in pool[index % POLYTOPE_POOL]:
        data = permuted(base, rng.permutation(d))
        data["seed"] = _seed(rng)
        cases.append(Case(0, label, data, expected, polytope_check(data)))
    return cases


def rounds(workload, seed, demos=None):
    """Endless rounds of cases for ``workload``; ids count up from 0."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = np.random.default_rng(seed)
    pool = {"ladder": ladder_pool, "polytope": polytope_pool}.get(workload, lambda: None)()
    pid = 0
    index = 0
    while True:
        if workload == "demos":
            batch = demo_round(rng, demos)
        elif workload == "ladder":
            batch = ladder_round(rng, index, pool)
        else:
            batch = polytope_round(rng, index, pool)
        for case in batch:
            case.pid = pid
            pid += 1
        yield batch
        index += 1
