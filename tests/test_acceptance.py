"""Acceptance suite: one test per release criterion, one verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines;
without ``-s`` the per-test pass/fail report carries the same information.
"""

import contextlib
import io
import json
import time

import numpy as np
import pytest

from gvikit.cli import main, run_problem
from gvikit.coincidence import CoincidenceProblem, find_coincidence, find_fixed_point
from gvikit.demos import demo_names, get_demo
from gvikit.geometry import (
    PROJ_TOL,
    Ball,
    Box,
    HPolytope,
    PolyhedralCone,
    Simplex,
)
from gvikit.gvi import (
    GviProblem,
    ReducedOperator,
    complementarity_check,
    gvi_gap,
    solve_gvi,
)
from gvikit.operators import (
    Affine,
    Constant,
    Identity,
    PointwiseNonlinear,
    Rotation,
    SampleConfig,
    Sum,
    affine_relative_monotone,
    check_fiber_condition,
    check_monotone_relative,
    check_ql,
)
from gvikit.oracle import brute_coincidence, brute_gap
from gvikit.schema import parse_problem
from gvikit.vi import SolverParams, solve_extragradient, solve_projection


@contextlib.contextmanager
def _criterion(num, text):
    try:
        yield
    except Exception:
        print(f"\nACCEPTANCE {num:02d} FAIL  {text}")
        raise
    print(f"\nACCEPTANCE {num:02d} PASS  {text}")


def _unit_offaxis(rng, dim, axis_cos=0.9):
    """Unit vector whose angle to every axis and prior pick is generic."""
    while True:
        v = rng.normal(size=dim)
        v /= np.linalg.norm(v)
        if np.max(np.abs(v)) <= axis_cos:
            return v


def _random_hpolytope(rng, dim):
    normals = []
    while len(normals) < 2:
        v = _unit_offaxis(rng, dim)
        if all(abs(v @ n) <= 0.9 for n in normals):
            normals.append(v)
    center = rng.uniform(-0.5, 0.5, size=dim)
    offsets = [n @ center + rng.uniform(0.4, 1.0) for n in normals]
    for i in range(dim):
        e = np.zeros(dim)
        e[i] = 1.0
        normals.extend([e, -e])
        offsets.extend([center[i] + 1.5, -center[i] + 1.5])
    return HPolytope(np.array(normals), np.array(offsets))


def _random_cone(rng, dim):
    gens = []
    while len(gens) < dim:
        v = _unit_offaxis(rng, dim)
        if all(abs(v @ g) <= 0.9 for g in gens):
            gens.append(v)
    return PolyhedralCone(np.column_stack(gens))


def _interior_point(K, rng):
    if isinstance(K, PolyhedralCone):
        lam = rng.uniform(0.0, 2.0, size=K.generators.shape[1])
        return K.generators @ lam
    try:
        return np.asarray(K.sample(rng, 1)).reshape(-1)
    except Exception:
        return K.project(rng.uniform(-2.0, 2.0, size=K.dim))


def test_criterion_01_projection_axiom_suite():
    """Idempotence, nonexpansiveness, variational characterization; 1e4 cases."""
    rng = np.random.default_rng(20260815)
    plan = [
        ("box", 3000, False),
        ("ball", 3000, False),
        ("simplex", 2000, False),
        ("hpolytope", 1000, True),
        ("cone", 1000, True),
    ]
    start = time.monotonic()
    cases = 0
    variational_runs = 0
    with _criterion(1, "projection axioms on 10^4 randomized (set, point) cases"):
        for variant, count, iterative in plan:
            for _ in range(count):
                dim = int(rng.integers(1, 4)) if variant in ("box", "ball") else 2
                if variant == "box":
                    lo = rng.uniform(-2.0, 0.5, size=dim)
                    K = Box(lo, lo + rng.uniform(0.3, 2.5, size=dim))
                elif variant == "ball":
                    K = Ball(rng.uniform(-1.0, 1.0, size=dim), rng.uniform(0.4, 2.0))
                elif variant == "simplex":
                    dim = int(rng.integers(2, 4))
                    K = Simplex(dim)
                elif variant == "hpolytope":
                    K = _random_hpolytope(rng, 2)
                else:
                    K = _random_cone(rng, 2)

                x = rng.uniform(-5.0, 5.0, size=K.dim)
                y = rng.uniform(-5.0, 5.0, size=K.dim)
                px = K.project(x)
                py = K.project(y)
                # idempotence within 2 * proj_tol
                assert np.linalg.norm(K.project(px) - px) <= 2 * PROJ_TOL
                # nonexpansiveness up to 2 * proj_tol
                assert (
                    np.linalg.norm(px - py)
                    <= np.linalg.norm(x - y) + 2 * PROJ_TOL
                )
                # variational characterization, measured only at points whose
                # distance dominates the projector's own error
                d = np.linalg.norm(x - px)
                floor = 1.0 if iterative else 1e-3
                if d >= floor:
                    z = _interior_point(K, rng)
                    assert (x - px) @ (z - px) <= PROJ_TOL * d
                    variational_runs += 1
                cases += 1
        elapsed = time.monotonic() - start
        assert cases == 10_000
        assert variational_runs >= 5_000
        assert elapsed < 10.0, f"axiom suite took {elapsed:.1f}s"


def test_criterion_02_stampacchia_baseline():
    """50 strongly monotone affine instances at 1e-6; rotation-field contrast."""
    rng = np.random.default_rng(31415)
    with _criterion(2, "extragradient matches closed forms; rotation field contrast"):
        for case in range(50):
            dim = case % 4 + 1
            if case % 2 == 0:
                # F(x) = x - c solves at project(K, c)
                lo = rng.uniform(-2.0, 0.0, size=dim)
                K = Box(lo, lo + rng.uniform(0.5, 2.0, size=dim))
                c = rng.uniform(-3.0, 3.0, size=dim)
                F = Affine(np.eye(dim), -c)
                expected = K.project(c)
            else:
                # F(x) = M (x - x0) with sym(M) >= I solves at interior x0
                R = rng.uniform(-1.0, 1.0, size=(dim, dim))
                skew = rng.uniform(-1.0, 1.0, size=(dim, dim))
                M = np.eye(dim) + R.T @ R + (skew - skew.T)
                K = Box(-np.ones(dim), np.ones(dim))
                expected = rng.uniform(-0.5, 0.5, size=dim)
                F = Affine(M, -M @ expected)
            rep = solve_extragradient(F, K)
            assert rep.converged
            assert np.linalg.norm(rep.solution - expected) <= 1e-6

        ball = Ball(np.zeros(2), 1.0)
        spin = Rotation(np.pi / 2)
        x0 = np.array([0.9, 0.0])
        plain = solve_projection(spin, ball, SolverParams(max_iter=2000), x0=x0)
        assert not plain.converged
        extra = solve_extragradient(
            spin, ball, SolverParams(residual_tol=1e-9), x0=x0
        )
        assert extra.converged
        assert np.linalg.norm(extra.solution) <= 1e-8


def test_criterion_03_reduction_pipeline():
    """Three worked instances: grid gap >= -1e-6, pullback <= 1e-7."""
    square = PointwiseNonlinear("square", 1)
    instances = [
        GviProblem(
            A=Affine(np.array([[2.0, 1.0], [1.0, 2.0]]), np.array([-1.0, -1.0])),
            a=Identity(2),
            K=Box(np.zeros(2), np.ones(2)),
            image_aK=Box(np.zeros(2), np.ones(2)),
        ),
        GviProblem(
            A=Affine(np.eye(1), np.array([-1.5])),
            a=Affine(np.array([[2.0]]), np.zeros(1)),
            K=Box(np.zeros(1), np.ones(1)),
            image_aK=Box(np.zeros(1), 2.0 * np.ones(1)),
        ),
        GviProblem(
            A=Sum(square, Constant(np.array([-0.5]))),
            a=square,
            K=Box(-np.ones(1), np.ones(1)),
            image_aK=Box(np.zeros(1), np.ones(1)),
        ),
    ]
    with _criterion(3, "reduction pipeline certifies three worked instances"):
        for problem in instances:
            rep = solve_gvi(problem)
            assert rep.converged
            grid_gap = brute_gap(
                problem.A, problem.a, problem.K, rep.solution, 0.01
            )
            assert grid_gap >= -1e-6
            assert rep.pullback_residual <= 1e-7


def test_criterion_04_monotone_reduction():
    """Constructed sym(M^T G) PSD passes at 1e-9; indefinite is refuted."""
    rng = np.random.default_rng(2718)

    def _pair(dim, definite):
        while True:
            G = rng.uniform(-1.0, 1.0, size=(dim, dim))
            if np.linalg.svd(G, compute_uv=False)[-1] >= 0.3:
                break
        if definite:
            R = rng.uniform(-1.0, 1.0, size=(dim, dim))
            S = R.T @ R + 1e-3 * np.eye(dim)
        else:
            while True:
                Q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
                d = rng.uniform(0.5, 1.5, size=dim)
                d[0] = -d[0]
                S = (Q * d) @ Q.T
                if np.linalg.eigvalsh((S + S.T) / 2.0)[0] <= -0.25:
                    break
        # M^T G = S by construction, so sym(M^T G) inherits S's signature
        M = np.linalg.solve(G.T, S)
        return M, G

    with _criterion(4, "monotone reduction: 30 PSD pairs pass, 30 indefinite refuted"):
        for case in range(30):
            dim = case % 2 + 2
            M, G = _pair(dim, definite=True)
            A = Affine(M, rng.uniform(-1.0, 1.0, size=dim))
            a = Affine(G, rng.uniform(-1.0, 1.0, size=dim))
            K = Box(-np.ones(dim), np.ones(dim))
            # a(K) = {u : N G^-1 (u - c) <= 1} for the box's facets N
            normals = np.vstack([np.eye(dim), -np.eye(dim)]) @ np.linalg.inv(G)
            image = HPolytope(normals, np.ones(2 * dim) + normals @ a.shift)
            reduced = ReducedOperator(A, a, K)
            report = check_monotone_relative(
                reduced,
                Identity(dim),
                image,
                SampleConfig(seed=900 + case, samples=100, tol=1e-9),
            )
            assert report.verdict == "holds_on_samples"
            assert report.max_violation <= 1e-9

        for case in range(30):
            dim = case % 2 + 2
            M, G = _pair(dim, definite=False)
            report = affine_relative_monotone(M, G)
            assert report.verdict == "violated"
            x, y = report.witness
            pairing = (M @ (x - y)) @ (G @ (x - y))
            assert pairing < -1e-9  # witness reproduces the violation


def test_criterion_05_coincidence_certification():
    """Linear, constant, and rotation pairs certify and match the grid oracle."""
    start = time.monotonic()
    c, s = np.cos(np.pi / 3), np.sin(np.pi / 3)
    R60 = np.array([[c, -s], [s, c]])
    center = np.array([0.25, 0.25])
    cases = [
        (
            CoincidenceProblem(
                f=Affine(np.eye(1), np.array([0.5])),
                g=Affine(2.0 * np.eye(1), np.zeros(1)),
                K=Box(np.zeros(1), np.ones(1)),
                image_gK=Box(np.zeros(1), 2.0 * np.ones(1)),
            ),
            None,
        ),
        (
            CoincidenceProblem(
                f=Constant(np.array([0.25, 0.75]), in_dim=2),
                g=Identity(2),
                K=Box(np.zeros(2), np.ones(2)),
                image_gK=Box(np.zeros(2), np.ones(2)),
            ),
            None,
        ),
        (
            None,
            (
                Affine(R60, center - R60 @ center),
                Ball(center, 1.0),
            ),
        ),
    ]
    with _criterion(5, "coincidence demos certify and agree with the grid oracle"):
        for problem, fixed in cases:
            if fixed is not None:
                f, K = fixed
                rep = find_fixed_point(
                    f, K, params=SolverParams(residual_tol=1e-9)
                )
                g = Identity(K.dim)
            else:
                rep = find_coincidence(problem)
                f, g, K = problem.f, problem.g, problem.K
            assert rep.certified
            assert rep.coincidence_residual <= 1e-6
            point, residual = brute_coincidence(f, g, K, 0.02)
            assert np.linalg.norm(point - rep.solution) <= 2 * 0.02
        assert time.monotonic() - start < 30.0


def test_criterion_06_nonexpansive_implies_pseudocontractive():
    """No sampled pair satisfies the norm bound yet fails the inner-product bound."""
    rng = np.random.default_rng(777)

    def _operator(dim, which):
        if which == 0:
            return Affine(
                rng.uniform(-1.5, 1.5, size=(dim, dim)),
                rng.uniform(-1.0, 1.0, size=dim),
            )
        if which == 1:
            return PointwiseNonlinear("tanh", dim)
        if which == 2:
            return Rotation(rng.uniform(0.0, 2 * np.pi))
        return Sum(
            Affine(rng.uniform(-1.0, 1.0, size=(dim, dim)), np.zeros(dim)),
            PointwiseNonlinear("sigmoid", dim),
        )

    with _criterion(6, "norm nonexpansiveness implies the inner-product bound"):
        violations = 0
        pairs_seen = 0
        for case in range(50):
            dim = 2
            f = _operator(dim, case % 4)
            g = _operator(dim, (case // 4) % 4)
            xs = rng.uniform(-2.0, 2.0, size=(200, dim))
            ys = rng.uniform(-2.0, 2.0, size=(200, dim))
            df = np.asarray(f(xs), dtype=float) - np.asarray(f(ys), dtype=float)
            dg = np.asarray(g(xs), dtype=float) - np.asarray(g(ys), dtype=float)
            nf = np.linalg.norm(df, axis=1)
            ng = np.linalg.norm(dg, axis=1)
            inner = np.einsum("nd,nd->n", df, dg)
            premise = nf <= ng + 1e-9
            conclusion = inner <= ng**2 + 1e-9
            violations += int(np.sum(premise & ~conclusion))
            pairs_seen += xs.shape[0]
        assert pairs_seen == 10_000
        assert violations == 0


def test_criterion_07_fiber_condition_semantics():
    """Even A: both preimages certify; odd A: witness pair reproduces."""
    square = PointwiseNonlinear("square", 1)
    K = Box(-np.ones(1), np.ones(1))
    image = Box(np.zeros(1), np.ones(1))
    cfg = SampleConfig(seed=4242, samples=64, tol=1e-6)
    with _criterion(7, "fiber condition separates even from odd numerators"):
        even = Sum(square, Constant(np.array([-0.5])))
        rep = check_fiber_condition(even, square, K, cfg)
        assert rep.verdict == "holds_on_samples"
        problem = GviProblem(A=even, a=square, K=K, image_aK=image)
        root = np.sqrt(0.5)
        for branch in (root, -root):
            assert gvi_gap(problem, np.array([branch])) >= -1e-6

        odd = Affine(np.eye(1), np.zeros(1))
        rep = check_fiber_condition(odd, square, K, cfg)
        assert rep.verdict == "violated"
        x, y = rep.witness
        assert abs(square(x).item() - square(y).item()) <= 1e-6
        assert np.linalg.norm(odd(x) - odd(y)) > 1e-6


def test_criterion_08_complementarity_equivalence():
    """Orthant LCP solution clears every complementarity slack at 1e-8."""
    problem = parse_problem(get_demo("orthant-lcp")["problem"])
    with _criterion(8, "orthant LCP slacks within 1e-8"):
        report, code = run_problem(problem, certify=False, resolution=None, tol=None)
        assert code == 0
        comp = report["complementarity"]
        assert comp["ok"] is True
        assert all(abs(s) <= 1e-8 for s in comp["slacks"].values())
        T = Affine(np.array([[2.0, 1.0], [1.0, 2.0]]), np.array([-1.0, -1.0]))
        direct = complementarity_check(
            T,
            Identity(2),
            PolyhedralCone(np.eye(2)),
            np.asarray(report["solution"], dtype=float),
        )
        assert direct.ok


def test_criterion_09_non_ql_headline():
    """A map flunking the segment-alignment diagnostic still certifies."""
    square = PointwiseNonlinear("square", 1)
    K = Box(-np.ones(1), np.ones(1))
    with _criterion(9, "ql violated yet the solve certifies"):
        ql = check_ql(square, K, SampleConfig(seed=99, samples=200))
        assert ql.verdict == "violated"
        problem = GviProblem(
            A=Sum(square, Constant(np.array([-0.5]))),
            a=square,
            K=K,
            image_aK=Box(np.zeros(1), np.ones(1)),
        )
        rep = solve_gvi(problem)
        assert rep.converged
        assert rep.gap_certificate >= -1e-6
        assert rep.pullback_residual <= 1e-7


def test_criterion_10_cli_determinism():
    """Re-running every demo reproduces its report bit for bit."""
    start = time.monotonic()

    def _run(name):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(["demo", name, "--quiet"])
        assert code == 0, f"demo {name} exited {code}"
        report = json.loads(buf.getvalue())
        report.pop("timings")
        return json.dumps(report, sort_keys=True)

    with _criterion(10, "demo reports are bit-identical across runs"):
        for name in demo_names():
            assert _run(name) == _run(name), f"demo {name} is not deterministic"
        assert time.monotonic() - start < 60.0
