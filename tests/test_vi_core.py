"""Projection and extragradient solvers on monotone vector fields."""

import numpy as np
import pytest

from gvikit import vi
from gvikit.geometry import Ball, Box, Simplex
from gvikit.gvi import GviProblem, solve_gvi
from gvikit.operators import Affine, Constant, PointwiseNonlinear, Rotation, Sum
from gvikit.vi import (
    SolverParams,
    natural_residual,
    solve_extragradient,
    solve_projection,
)


def _shifted_identity(target):
    """F(x) = x - target, whose constrained solution is project(C, target)."""
    target = np.asarray(target, dtype=float)
    return Affine(np.eye(target.size), -target)


def _rotation_field():
    """A quarter-turn rotation: monotone (skew) but not strictly, zero at 0."""
    return Rotation(np.pi / 2)


class TestNaturalResidual:
    def test_zero_at_solution(self):
        box = Box(np.zeros(2), np.ones(2))
        f = _shifted_identity([2.0, -1.0])
        # project(box, (2,-1)) = (1, 0) solves the VI.
        assert natural_residual(f, box, np.array([1.0, 0.0]), 0.5) <= 1e-12

    def test_known_value_interior(self):
        box = Box(np.zeros(1), np.ones(1))
        f = _shifted_identity([0.25])
        x = np.array([0.75])
        # x - step*F(x) = 0.75 - 0.5*0.5 = 0.5, interior, so residual = |0.75-0.5|.
        assert natural_residual(f, box, x, 0.5) == pytest.approx(0.25, abs=1e-12)

    def test_clipping_at_boundary(self):
        box = Box(np.zeros(1), np.ones(1))
        f = _shifted_identity([3.0])
        x = np.array([0.5])
        # x - step*F(x) = 0.5 + 2.5 = 3.0 projects back to 1.0.
        assert natural_residual(f, box, x, 1.0) == pytest.approx(0.5, abs=1e-12)


class TestProjectionSolver:
    def test_strongly_monotone_box(self):
        box = Box(np.zeros(2), np.ones(2))
        f = _shifted_identity([2.0, -1.0])
        rep = solve_projection(f, box)
        assert rep.converged
        np.testing.assert_allclose(rep.solution, [1.0, 0.0], atol=1e-7)

    def test_fails_on_rotation_field(self):
        # The plain projection iteration is non-contractive here; the
        # extragradient method exists precisely for this case.
        ball = Ball(np.zeros(2), 1.0)
        rep = solve_projection(
            _rotation_field(),
            ball,
            SolverParams(max_iter=2000),
            x0=np.array([0.9, 0.0]),
        )
        assert not rep.converged
        assert rep.iterations == 2000

    def test_report_residual_is_reproducible(self):
        box = Box(np.zeros(2), np.ones(2))
        f = _shifted_identity([0.3, 0.8])
        rep = solve_projection(f, box)
        again = natural_residual(f, box, rep.solution, rep.step_used)
        assert rep.residual == pytest.approx(again, abs=1e-15)


class TestExtragradientSolver:
    def test_strongly_monotone_box(self):
        box = Box(np.zeros(2), np.ones(2))
        f = _shifted_identity([2.0, -1.0])
        rep = solve_extragradient(f, box)
        assert rep.converged
        np.testing.assert_allclose(rep.solution, [1.0, 0.0], atol=1e-7)

    def test_rotation_field_reaches_origin(self):
        ball = Ball(np.zeros(2), 1.0)
        rep = solve_extragradient(
            _rotation_field(),
            ball,
            SolverParams(residual_tol=1e-9),
            x0=np.array([0.9, 0.0]),
        )
        assert rep.converged
        assert np.linalg.norm(rep.solution) <= 1e-8

    def test_agrees_with_projection_when_both_converge(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            target = rng.uniform(-2.0, 2.0, size=2)
            box = Box(-np.ones(2), np.ones(2))
            f = _shifted_identity(target)
            a = solve_projection(f, box)
            b = solve_extragradient(f, box)
            assert a.converged and b.converged
            np.testing.assert_allclose(a.solution, b.solution, atol=1e-6)

    def test_solution_is_feasible_from_infeasible_start(self):
        ball = Ball(np.array([0.5, -0.5]), 0.75)
        f = _shifted_identity([4.0, 4.0])
        rep = solve_extragradient(f, ball, x0=np.array([100.0, 100.0]))
        assert rep.converged
        assert ball.contains(rep.solution, tol=1e-9)

    def test_distance_to_solution_is_monotone(self):
        # Fejer monotonicity: iterate distances to the unique solution
        # (the origin) never increase for a monotone field.
        ball = Ball(np.zeros(2), 1.0)
        rep = solve_extragradient(
            _rotation_field(),
            ball,
            x0=np.array([0.7, 0.3]),
            record_iterates=True,
        )
        dists = [np.linalg.norm(z) for z in rep.iterates]
        assert all(b <= a + 1e-12 for a, b in zip(dists, dists[1:]))

    def test_history_tracks_residual_decrease(self):
        box = Box(np.zeros(2), np.ones(2))
        f = _shifted_identity([2.0, -1.0])
        rep = solve_extragradient(f, box, record_history=True)
        assert rep.history
        assert rep.history[-1] <= SolverParams().residual_tol

    def test_backtracking_handles_unknown_lipschitz(self):
        # cube has no global Lipschitz bound, so the step must be found
        # by sampling plus backtracking.
        box = Box(np.zeros(1), np.ones(1))
        f = Sum(PointwiseNonlinear("cube", 1), Constant(np.array([-0.5])))
        rep = solve_extragradient(f, box)
        assert rep.converged
        np.testing.assert_allclose(rep.solution, [0.5 ** (1.0 / 3.0)], atol=1e-6)

    def test_explicit_step_is_honored(self):
        box = Box(np.zeros(2), np.ones(2))
        f = _shifted_identity([2.0, -1.0])
        rep = solve_extragradient(f, box, SolverParams(step=0.125))
        assert rep.step_used == pytest.approx(0.125)
        assert rep.converged

    def test_affine_step_from_spectral_bound(self):
        box = Box(-np.ones(2), np.ones(2))
        f = Affine(2.0 * np.eye(2), np.array([-0.5, 0.5]))
        rep = solve_extragradient(f, box)
        # Lipschitz constant is exactly 2, so the automatic step is 0.45.
        assert rep.step_used == pytest.approx(0.9 / 2.0)


class TestZeroLipschitzBound:
    def test_a_constant_operator_takes_step_one_without_probing(self, monkeypatch):
        # an exact bound of 0 is known: no sampled estimate, no backtracking
        probes = []
        real = vi._sampled_lipschitz
        monkeypatch.setattr(
            vi, "_sampled_lipschitz", lambda F, C: probes.append(F) or real(F, C)
        )
        ball = Ball(np.zeros(2), 1.0)
        f = Affine(np.zeros((2, 2)), np.array([0.6, -0.8]))
        rep = solve_extragradient(f, ball)
        assert probes == []
        assert rep.step_used == 1.0
        fixed = solve_extragradient(f, ball, SolverParams(step=1.0))
        assert (rep.iterations, rep.solution.tolist()) == (fixed.iterations, fixed.solution.tolist())
        np.testing.assert_allclose(rep.solution, [-0.6, 0.8], atol=1e-12)


def _spy_faces(monkeypatch):
    """Record every point ``vi._face_point`` returns."""
    points = []
    real = vi._face_point

    def spy(form, C, x):
        points.append(real(form, C, x))
        return points[-1]

    monkeypatch.setattr(vi, "_face_point", spy)
    return points


class TestFaceSolve:
    def test_a_solution_on_a_face_is_solved_exactly(self):
        # x0 = 1 at its upper bound with F_0 = -1.5 <= 0; F_1 = 2 x1 - 1 = 0
        box = Box(np.zeros(2), np.ones(2))
        f = Affine(np.array([[2.0, 1.0], [1.0, 2.0]]), np.array([-4.0, -2.0]))
        rep = solve_extragradient(f, box, record_history=True)
        assert rep.stop_reason == "face_solve"
        assert rep.converged
        np.testing.assert_allclose(rep.solution, [1.0, 0.5], rtol=0, atol=1e-12)
        assert rep.history[-1] == rep.residual <= 1e-15

    def test_a_bound_the_solution_leaves_is_not_accepted(self, monkeypatch):
        # F = (x0 - x1 + 0.6, x1 - 0.9) solves at (0.3, 0.9), but the early
        # iterates hold x0 = 0, whose face point (0, 0.9) is no solution
        points = _spy_faces(monkeypatch)
        box = Box(np.zeros(2), np.ones(2))
        f = Affine(np.array([[1.0, -1.0], [0.0, 1.0]]), np.array([0.6, -0.9]))
        rep = solve_extragradient(f, box)
        np.testing.assert_allclose(points[0], [0.0, 0.9], atol=1e-15)
        assert natural_residual(f, box, points[0], rep.step_used) > 0.1
        assert rep.stop_reason == "face_solve"
        np.testing.assert_allclose(rep.solution, [0.3, 0.9], rtol=0, atol=1e-12)

    @pytest.mark.parametrize(
        "K, matrix, shift, want",
        [
            (Box(-np.ones(2), np.ones(2)), [[1.0, 1.0], [1.0, 1.0]], [1.0, -1.0], [-1.0, 1.0]),
            (Box(np.full(2, -10.0), np.full(2, 10.0)), np.zeros((2, 2)), [1.0, 0.5],
             [-10.0, -10.0]),
            # on the simplex F is q plus a multiple of (1, 1, 1), so the vertex
            # (0, 0, 1), where q is least, solves it; the bordered block of
            # every face with two or more free coordinates is singular
            (Simplex(3), np.ones((3, 3)), [1.0, 0.5, 0.2], [0.0, 0.0, 1.0]),
            (Simplex(3), np.zeros((3, 3)), [1.0, 0.5, 0.2], [0.0, 0.0, 1.0]),
        ],
        ids=["rank-one", "zero", "simplex-rank-one", "simplex-zero"],
    )
    def test_a_singular_free_block_falls_back_to_iterating(
        self, monkeypatch, K, matrix, shift, want
    ):
        points = _spy_faces(monkeypatch)
        f = Affine(np.array(matrix), np.array(shift))
        rep = solve_extragradient(f, K)
        assert points, "the face step never ran"
        assert all(natural_residual(f, K, z, rep.step_used) > 1e-8 for z in points)
        assert rep.stop_reason == "residual"
        np.testing.assert_allclose(rep.solution, want, atol=1e-7)

    def test_a_face_is_solved_at_most_once(self, monkeypatch):
        points = _spy_faces(monkeypatch)
        box = Box(np.full(2, -10.0), np.full(2, 10.0))
        solve_extragradient(Affine(np.zeros((2, 2)), np.array([1.0, 0.5])), box)
        # the interior face and the face x0 = -10, each tried once
        assert len(points) == 2

    def test_a_rejected_point_on_a_smaller_face_is_solved_at_once(self, monkeypatch):
        # the interior solve (1.5, 0.2) clips to (1, 0.2) on the face x0 = 1,
        # whose own solve (1, 0.45) is the solution; it is taken in the same
        # iteration, not once two iterates reach that face
        points = _spy_faces(monkeypatch)
        m = np.array([[2.0, 1.0], [1.0, 2.0]])
        f, box = Affine(m, -m @ np.array([1.5, 0.2])), Box(np.zeros(2), np.ones(2))
        rep = solve_extragradient(f, box, x0=np.array([0.5, 0.5]))
        assert (rep.iterations, rep.stop_reason) == (1, "face_solve")
        np.testing.assert_allclose(points, [[1.0, 0.2], [1.0, 0.45]], rtol=0, atol=1e-12)
        np.testing.assert_allclose(rep.solution, [1.0, 0.45], rtol=0, atol=1e-12)

    def test_a_simplex_face_is_solved_at_most_once(self, monkeypatch):
        points = _spy_faces(monkeypatch)
        rep = solve_extragradient(
            Affine(np.zeros((3, 3)), np.array([1.0, 0.5, 0.2])), Simplex(3), record_iterates=True
        )
        # three successive iterates hold x0 = 0, and that face is tried once
        faces = [tuple(x == 0.0) for x in rep.iterates]
        assert faces[1:4] == [(True, False, False)] * 3
        assert len(points) == 1

    def test_an_interior_simplex_solution_is_solved_exactly(self):
        # without the face solve, extragradient took 44 iterations here
        m = np.array([[2.0, 1.0, 0.0], [-1.0, 2.0, 0.5], [0.0, -0.5, 1.0]])
        q = np.array([-1.0, 0.2, 0.1])
        rep = solve_extragradient(Affine(m, q), Simplex(3), record_history=True)
        assert (rep.iterations, rep.stop_reason, rep.converged) == (1, "face_solve", True)
        kkt = np.block([[m, np.ones((3, 1))], [np.ones((1, 3)), np.zeros((1, 1))]])
        want = np.linalg.solve(kkt, np.append(-q, 1.0))[:3]
        assert np.all(want > 0)
        np.testing.assert_allclose(rep.solution, want, rtol=0, atol=1e-12)
        assert rep.history[-1] == rep.residual <= 1e-15

    def test_a_simplex_solution_with_zero_coordinates_is_solved_exactly(self):
        # F = x - (0.8, 0.5, -0.3) solves at the projection (0.65, 0.35, 0)
        rep = solve_extragradient(_shifted_identity([0.8, 0.5, -0.3]), Simplex(3))
        assert (rep.stop_reason, rep.converged) == ("face_solve", True)
        np.testing.assert_allclose(rep.solution, [0.65, 0.35, 0.0], rtol=0, atol=1e-12)
        assert rep.residual <= 1e-15

    def test_a_simplex_face_the_solution_leaves_is_not_accepted(self, monkeypatch):
        # from the vertex (0, 0, 1) the early iterates hold x0 = 0, whose face point
        # (0, 5/13, 8/13) is no solution; the solution is interior
        points = _spy_faces(monkeypatch)
        m = np.array([[1.8, 0.0, -0.1], [-0.5, 0.9, 0.3], [-0.5, -0.7, 1.3]])
        q = np.array([1.5, 1.1, 1.1])
        f, simplex = Affine(m, q), Simplex(3)
        rep = solve_extragradient(f, simplex, x0=np.array([0.0, 0.0, 1.0]))
        np.testing.assert_allclose(points[0], [0.0, 5.0 / 13.0, 8.0 / 13.0], atol=1e-15)
        assert natural_residual(f, simplex, points[0], rep.step_used) > 0.05
        assert rep.stop_reason == "face_solve"
        kkt = np.block([[m, np.ones((3, 1))], [np.ones((1, 3)), np.zeros((1, 1))]])
        want = np.linalg.solve(kkt, np.append(-q, 1.0))[:3]
        np.testing.assert_allclose(rep.solution, want, rtol=0, atol=1e-12)
        assert np.all(rep.solution > 0.05)

    def test_the_iteration_cap_comes_first(self):
        box = Box(np.zeros(2), np.ones(2))
        f = Affine(np.array([[2.0, 1.0], [1.0, 2.0]]), np.array([-4.0, -2.0]))
        rep = solve_extragradient(f, box, SolverParams(max_iter=1))
        assert (rep.iterations, rep.stop_reason, rep.converged) == (1, "max_iter", False)

    @pytest.mark.parametrize(
        "solve, iterations",
        [
            (lambda: solve_extragradient(
                Affine(np.array([[2.0, 1.0], [-1.0, 2.0]]), np.array([-1.0, 0.5])),
                Ball(np.zeros(2), 0.3),
            ), 28),
            (lambda: solve_gvi(GviProblem(
                A=Sum(PointwiseNonlinear("square", 1), Constant(np.array([-0.5]))),
                a=PointwiseNonlinear("square", 1),
                K=Box(-np.ones(1), np.ones(1)),
                image_aK=Box(np.zeros(1), np.ones(1)),
            )), 84),
        ],
        ids=["ball", "image-square"],
    )
    def test_other_sets_and_the_image_path_keep_their_iterations(
        self, monkeypatch, solve, iterations
    ):
        points = _spy_faces(monkeypatch)
        rep = solve()
        assert points == []
        assert (rep.iterations, rep.stop_reason) == (iterations, "residual")


class TestSolverParams:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"step": 0.0},
            {"step": -1.0},
            {"max_iter": 0},
            {"residual_tol": 0.0},
            {"step_rule": "adaptive"},
            {"beta": 1.0},
            {"beta": 0.0},
            {"trial_cap": 0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            SolverParams(**kwargs)

    def test_defaults_are_valid(self):
        p = SolverParams()
        assert p.step is None
        assert p.step_rule == "fixed"
