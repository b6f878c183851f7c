"""Reduction pipeline: preimage selection, reduced solves, complementarity."""

import json
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_box, random_hpolytope, random_simplex

from gvikit import gvi as gvi_module
from gvikit.errors import DimensionMismatch, InversionFailed, UnsupportedVariant
from gvikit.geometry import Ball, Box, HPolytope, PolyhedralCone, Simplex
from gvikit.gvi import (
    GviProblem,
    ImageConsistencyWarning,
    InversionParams,
    ReducedOperator,
    certify,
    check_selection_independence,
    complementarity_check,
    gvi_gap,
    preimage_candidates,
    select_preimage,
    solve_gvi,
)
from gvikit.operators import (
    Affine,
    Compose,
    Constant,
    Difference,
    Identity,
    PointwiseNonlinear,
    Rotation,
    Scale,
    Sum,
    jacobian_fd,
)
from gvikit.vi import SolverParams


def _square_problem(A=None):
    """a(x) = x^2 on [-1, 1]; every interior image point has two preimages."""
    square = PointwiseNonlinear("square", 1)
    if A is None:
        A = Sum(square, Constant(np.array([-0.5])))
    return GviProblem(
        A=A,
        a=square,
        K=Box(-np.ones(1), np.ones(1)),
        image_aK=Box(np.zeros(1), np.ones(1)),
    )


class TestSelectPreimage:
    def test_affine_closed_form(self):
        a = Affine(np.array([[2.0]]), np.zeros(1))
        box = Box(np.zeros(1), np.ones(1))
        x = select_preimage(a, box, np.array([1.2]))
        np.testing.assert_allclose(x, [0.6], atol=1e-9)

    def test_cube_root(self):
        a = PointwiseNonlinear("cube", 1)
        box = Box(-2.0 * np.ones(1), 2.0 * np.ones(1))
        x = select_preimage(a, box, np.array([0.343]))
        np.testing.assert_allclose(x, [0.7], atol=1e-7)

    def test_square_branch_is_deterministic(self):
        a = PointwiseNonlinear("square", 1)
        box = Box(-np.ones(1), np.ones(1))
        first = select_preimage(a, box, np.array([0.25]))
        assert abs(abs(first.item()) - 0.5) <= 1e-7
        for _ in range(5):
            again = select_preimage(a, box, np.array([0.25]))
            np.testing.assert_array_equal(again, first)

    def test_explicit_start_picks_the_branch(self):
        a = PointwiseNonlinear("square", 1)
        box = Box(-np.ones(1), np.ones(1))
        x = select_preimage(a, box, np.array([0.25]), starts=[np.array([-0.9])])
        np.testing.assert_allclose(x, [-0.5], atol=1e-7)

    def test_unreachable_target_raises_with_best_point(self):
        a = PointwiseNonlinear("square", 1)
        box = Box(np.zeros(1), np.ones(1))
        with pytest.raises(InversionFailed) as exc:
            select_preimage(a, box, np.array([4.0]))
        err = exc.value
        # best effort is the boundary point x=1 with residual |1 - 4| = 3
        assert err.best_residual == pytest.approx(3.0, abs=1e-6)
        assert box.contains(err.best_point, tol=1e-9)


class TestPreimageCandidates:
    def test_square_finds_both_branches(self):
        a = PointwiseNonlinear("square", 1)
        box = Box(-np.ones(1), np.ones(1))
        found = preimage_candidates(a, box, np.array([0.25]))
        values = sorted(x.item() for x in found)
        assert len(values) == 2
        np.testing.assert_allclose(values, [-0.5, 0.5], atol=1e-7)

    def test_injective_map_yields_one(self):
        a = Affine(np.array([[2.0]]), np.zeros(1))
        box = Box(np.zeros(1), np.ones(1))
        found = preimage_candidates(a, box, np.array([1.0]))
        assert len(found) == 1
        np.testing.assert_allclose(found[0], [0.5], atol=1e-9)

    def test_unreachable_target_yields_none(self):
        a = PointwiseNonlinear("square", 1)
        box = Box(np.zeros(1), np.ones(1))
        assert preimage_candidates(a, box, np.array([4.0])) == []


class TestReducedOperator:
    def test_affine_reduction_values(self):
        # b(u) = u/2, so A(b(u)) = u/2 - 1.5
        A = Affine(np.eye(1), np.array([-1.5]))
        a = Affine(np.array([[2.0]]), np.zeros(1))
        box = Box(np.zeros(1), 2.0 * np.ones(1))
        reduced = ReducedOperator(A, a, box)
        assert reduced.in_dim == 1 and reduced.out_dim == 1
        np.testing.assert_allclose(reduced(np.array([2.0])), [-0.5], atol=1e-8)
        np.testing.assert_allclose(reduced(np.array([0.0])), [-1.5], atol=1e-8)

    def test_representative_is_cached(self):
        a = PointwiseNonlinear("square", 1)
        reduced = ReducedOperator(
            Identity(1), a, Box(-np.ones(1), np.ones(1))
        )
        u = np.array([0.25])
        first = reduced.representative(u)
        second = reduced.representative(u)
        assert first is second

    def test_warm_start_keeps_the_branch(self):
        # After resolving u=0.49 near x=-0.7, nearby image points should
        # stay on the negative branch rather than hopping across fibers.
        a = PointwiseNonlinear("square", 1)
        reduced = ReducedOperator(Identity(1), a, Box(-np.ones(1), np.ones(1)))
        reduced._last = np.array([-0.7])
        x1 = reduced.representative(np.array([0.49]))
        x2 = reduced.representative(np.array([0.4899]))
        assert x1.item() < 0 and x2.item() < 0

    def test_no_lipschitz_bound_through_inversion(self):
        a = Affine(np.array([[2.0]]), np.zeros(1))
        reduced = ReducedOperator(Identity(1), a, Box(np.zeros(1), np.ones(1)))
        assert reduced.lipschitz_bound() is None

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            ReducedOperator(Identity(2), Identity(1), Box(np.zeros(1), np.ones(1)))


class TestSolveGvi:
    def test_linear_reduction(self):
        # Reduced operator u/2 - 1 vanishes at u=2, pulling back to x=1.
        problem = GviProblem(
            A=Affine(np.eye(1), np.array([-1.0])),
            a=Affine(np.array([[2.0]]), np.zeros(1)),
            K=Box(np.zeros(1), 2.0 * np.ones(1)),
            image_aK=Box(np.zeros(1), 4.0 * np.ones(1)),
        )
        rep = solve_gvi(problem)
        assert rep.converged
        np.testing.assert_allclose(rep.solution, [1.0], atol=1e-6)
        np.testing.assert_allclose(rep.reduced_solution, [2.0], atol=1e-6)
        assert rep.pullback_residual <= 1e-8
        assert rep.gap_certificate >= -1e-6

    def test_square_reduction(self):
        problem = _square_problem()
        rep = solve_gvi(problem)
        assert rep.converged
        assert abs(abs(rep.solution.item()) - np.sqrt(0.5)) <= 1e-6
        np.testing.assert_allclose(rep.reduced_solution, [0.5], atol=1e-6)
        assert rep.gap_certificate >= -1e-6

    def test_identity_reduction_matches_plain_vi(self):
        problem = GviProblem(
            A=Affine(np.array([[2.0, 1.0], [1.0, 2.0]]), np.array([-1.0, -1.0])),
            a=Identity(2),
            K=Box(np.zeros(2), np.ones(2)),
            image_aK=Box(np.zeros(2), np.ones(2)),
        )
        rep = solve_gvi(problem)
        assert rep.converged
        np.testing.assert_allclose(rep.solution, [1.0 / 3.0, 1.0 / 3.0], atol=1e-6)
        # identity reduction: the reduced and original solutions coincide
        np.testing.assert_allclose(rep.solution, rep.reduced_solution, atol=1e-9)

    def test_iteration_budget_is_respected(self):
        problem = GviProblem(
            A=Affine(np.eye(1), np.array([-1.0])),
            a=Affine(np.array([[2.0]]), np.zeros(1)),
            K=Box(np.zeros(1), 2.0 * np.ones(1)),
            image_aK=Box(np.zeros(1), 4.0 * np.ones(1)),
            params=SolverParams(max_iter=2, step=1e-3),
        )
        rep = solve_gvi(problem)
        assert not rep.converged
        assert rep.iterations == 2


class TestGviGap:
    def test_near_zero_at_solution(self):
        problem = _square_problem()
        gap = gvi_gap(problem, np.array([np.sqrt(0.5)]))
        assert -1e-6 <= gap <= 1e-12

    def test_markedly_negative_off_solution(self):
        problem = GviProblem(
            A=Affine(np.array([[2.0, 1.0], [1.0, 2.0]]), np.array([-1.0, -1.0])),
            a=Identity(2),
            K=Box(np.zeros(2), np.ones(2)),
            image_aK=Box(np.zeros(2), np.ones(2)),
        )
        # At the origin A = (-1,-1), so the probe y=(1,1) scores -2.
        gap = gvi_gap(problem, np.zeros(2))
        assert gap == pytest.approx(-2.0, abs=1e-9)


def _image_miss_by_loop(a, K, image, seed):
    rng = np.random.default_rng(seed)
    pts = np.atleast_2d(K.sample(rng, gvi_module._IMAGE_CHECK_SAMPLES))
    worst, witness = 0.0, None
    for x in pts:
        d = image.distance(np.asarray(a(x), dtype=float))
        if d > worst:
            worst, witness = d, x
    return worst, witness


def _box_image(K, a):
    """The image of the Box K under the nonsingular Affine a, as an HPolytope.

    K is ``{v : N v <= b}`` with N its facet normals, so ``a(K)`` is
    ``{u : N M^-1 (u - c) <= b}``.
    """
    normals = np.vstack([np.eye(K.dim), -np.eye(K.dim)]) @ np.linalg.inv(a.matrix)
    return HPolytope(normals, np.concatenate([K.upper, -K.lower]) + normals @ a.shift)


class TestImageMiss:
    SHEAR = Affine(np.array([[1.0, 0.5], [-0.25, 1.0]]), np.array([0.1, -0.2]))
    K = Box(-np.ones(2), np.ones(2))

    @staticmethod
    def _shrunk(margin):
        a = TestImageMiss.SHEAR
        exact = _box_image(TestImageMiss.K, a)
        widths = np.linalg.norm(exact.normals, axis=1)
        return HPolytope(exact.normals, exact.offsets - margin * widths)

    @pytest.mark.parametrize(
        "image",
        [
            Box(-np.ones(2), np.ones(2)),
            Ball(np.zeros(2), 1.2),
            Simplex(2),
            Box(-2.0 * np.ones(2), 2.0 * np.ones(2)),
        ],
    )
    def test_matches_the_loop(self, image):
        for seed in (1, 2, 3):
            worst, witness = gvi_module._image_miss(self.SHEAR, self.K, image, seed)
            ref_worst, ref_witness = _image_miss_by_loop(self.SHEAR, self.K, image, seed)
            assert worst == pytest.approx(ref_worst, rel=1e-12, abs=1e-15)
            if ref_witness is None:
                assert witness is None
            else:
                np.testing.assert_array_equal(witness, ref_witness)

    @pytest.mark.parametrize("margin", [1e-2, 1e-9, 1e-12])
    def test_polytope_just_outside(self, margin):
        # K is the top face of the square, so every mapped sample lies on a
        # facet of a(square) and just outside the shrunk image; the small
        # margins fall in the band where the batch distance is refined
        face = Box(np.array([-1.0, 1.0]), np.ones(2))
        image = self._shrunk(margin)
        for seed in (4, 5):
            worst, witness = gvi_module._image_miss(self.SHEAR, face, image, seed)
            ref_worst, ref_witness = _image_miss_by_loop(self.SHEAR, face, image, seed)
            assert 0.5 * margin < ref_worst < 10 * margin
            assert worst == pytest.approx(ref_worst, rel=1e-9, abs=1e-15)
            np.testing.assert_array_equal(witness, ref_witness)

    def test_nan_rows_never_decide(self):
        # cube - cube is inf - inf = NaN where the cube overflows; the rows
        # that still evaluate decide, as the per-sample loop had it
        cube = PointwiseNonlinear("cube", 2)
        a = Sum(Difference(cube, cube), Identity(2))
        K = Box(np.array([-1e103, -1.0]), np.array([1e103, 1.0]))
        image = Box(-0.5 * np.ones(2), 0.5 * np.ones(2))
        with np.errstate(over="ignore", invalid="ignore"):
            worst, witness = gvi_module._image_miss(a, K, image, 3)
            pts = K.sample(np.random.default_rng(3), gvi_module._IMAGE_CHECK_SAMPLES)
            imgs = a(pts)
        finite = np.all(np.isfinite(imgs), axis=1)
        assert 0 < finite.sum() < len(pts)
        dists = [image.distance(u) for u in imgs[finite]]
        assert worst == max(dists)
        np.testing.assert_array_equal(witness, pts[finite][int(np.argmax(dists))])


class TestComplementarity:
    ORTHANT = PolyhedralCone(np.eye(2))

    def test_solution_passes_all_three(self):
        T = Affine(np.eye(2), np.array([-1.0, 0.0]))
        rep = complementarity_check(T, Identity(2), self.ORTHANT, np.array([1.0, 0.0]))
        assert rep.ok
        assert rep.value_in_cone and rep.operator_in_polar and rep.orthogonal
        assert all(s <= 1e-12 for s in rep.slacks.values())

    def test_orthogonality_slack_is_reported(self):
        T = Affine(np.eye(2), np.array([-1.0, 0.0]))
        rep = complementarity_check(T, Identity(2), self.ORTHANT, np.array([0.5, 0.0]))
        assert not rep.ok
        assert rep.slacks["polar"] == pytest.approx(0.5)
        assert rep.slacks["orthogonality"] == pytest.approx(0.25)

    def test_membership_slack_is_reported(self):
        T = Constant(np.zeros(2), in_dim=2)
        rep = complementarity_check(T, Identity(2), self.ORTHANT, np.array([-1.0, 0.0]))
        assert not rep.value_in_cone
        assert rep.slacks["membership"] == pytest.approx(1.0)

    def test_requires_a_cone(self):
        with pytest.raises(DimensionMismatch):
            complementarity_check(
                Identity(2), Identity(2), Box(np.zeros(2), np.ones(2)), np.zeros(2)
            )

    def test_report_serializes(self):
        T = Affine(np.eye(2), np.array([-1.0, 0.0]))
        rep = complementarity_check(T, Identity(2), self.ORTHANT, np.array([1.0, 0.0]))
        parsed = json.loads(json.dumps(rep.to_dict()))
        assert parsed["ok"] is True
        assert set(parsed["slacks"]) == {"membership", "polar", "orthogonality"}


class TestCertifyProofProbe:
    """An exact gap already prices the coincidence proof probe ``g^{-1}(f(x))``."""

    IMAGE = Box(np.zeros(2), np.ones(2))
    CUBE = PointwiseNonlinear("cube", 2)
    F = Constant(np.array([0.125, 0.125]), in_dim=2)  # g = f at (0.5, 0.5)
    X = np.array([0.8, 0.3])  # off the coincidence point

    def _certify_off_solution(self, monkeypatch):
        """``(report, certificate, select_preimage calls)`` at ``X``."""
        K = Box(np.zeros(2), np.ones(2))
        problem = GviProblem(A=Difference(self.CUBE, self.F), a=self.CUBE, K=K, image_aK=self.IMAGE)
        rep = solve_gvi(problem)
        rep = replace(rep, solution=self.X, gap_certificate=gvi_gap(problem, self.X))
        calls = []
        real = gvi_module.select_preimage

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(gvi_module, "select_preimage", spy)
        return rep, certify(problem, rep, pair=(self.F, self.CUBE)), calls

    def _probe_value(self):
        # A(X) = g(X) - f(X) and g(probe) = f(X), so the probe scores -|g(X) - f(X)|^2
        miss = self.CUBE(self.X) - self.F(self.X)
        return -float(miss @ miss)

    def test_an_exact_gap_skips_the_probe(self, monkeypatch):
        rep, cert, calls = self._certify_off_solution(monkeypatch)
        assert rep.gap_kind == "exact"  # the cube maps the box K onto its enclosure
        assert calls == []
        assert cert.residuals["gap"] == rep.gap_certificate
        assert cert.residuals["gap"] <= self._probe_value()


class TestSelectionIndependence:
    def test_even_operator_is_branch_free(self):
        problem = _square_problem()
        rep = check_selection_independence(problem, np.array([np.sqrt(0.5)]))
        assert rep.verdict == "holds_on_samples"
        assert rep.samples_used >= 1  # the mirror branch was actually visited

    def test_odd_operator_is_branch_dependent(self):
        problem = _square_problem(A=Identity(1))
        rep = check_selection_independence(problem, np.array([0.5]))
        assert rep.verdict == "violated"
        x, y = rep.witness
        # the witness pair sits on opposite branches of the same fiber
        assert abs(x.item() + y.item()) <= 1e-6
        assert rep.max_violation == pytest.approx(1.0, abs=1e-5)


class _BoxWithoutBoundingBox(Box):
    """A box that reports no bounding box, so it is not known to be compact."""

    def bounding_box(self):
        raise UnsupportedVariant("no bounding box")


class TestGviProblem:
    def test_wrong_image_warns(self):
        square = PointwiseNonlinear("square", 1)
        with pytest.warns(ImageConsistencyWarning):
            GviProblem(
                A=Identity(1),
                a=square,
                K=Box(-np.ones(1), np.ones(1)),
                image_aK=Box(np.zeros(1), 0.5 * np.ones(1)),
            )

    def test_operator_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            GviProblem(
                A=Identity(2),
                a=Identity(1),
                K=Box(np.zeros(1), np.ones(1)),
                image_aK=Box(np.zeros(1), np.ones(1)),
            )

    def test_image_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            GviProblem(
                A=Identity(1),
                a=Identity(1),
                K=Box(np.zeros(1), np.ones(1)),
                image_aK=Box(np.zeros(2), np.ones(2)),
            )

    def test_K_must_be_compact(self):
        # test_soundness.py holds the cone case
        K = _BoxWithoutBoundingBox(np.zeros(2), np.ones(2))
        for a in (Identity(2), PointwiseNonlinear("cube", 2)):
            with pytest.raises(UnsupportedVariant, match="K must be compact"):
                GviProblem(A=Identity(2), a=a, K=K, image_aK=Box(np.zeros(2), np.ones(2)))

    def test_only_a_map_with_no_affine_form_needs_an_image(self):
        K = Box(np.zeros(2), np.ones(2))
        problem = GviProblem(A=Affine(np.eye(2), np.array([-0.5, -0.25])), a=Scale(2.0, Identity(2)), K=K)
        assert problem.image_aK is None
        rep = solve_gvi(problem)
        assert (rep.reduction, rep.gap_kind) == ("x_space", "exact") and rep.converged
        np.testing.assert_allclose(rep.solution, [0.5, 0.25], atol=1e-6)
        with pytest.raises(UnsupportedVariant, match="needs its image_aK"):
            GviProblem(A=Identity(2), a=PointwiseNonlinear("cube", 2), K=K)

    def test_an_affine_map_skips_the_image_check(self):
        # the solve of an affine map never reads the image, so a wrong one
        # raises no warning; a map with no affine form still checks it
        K = Box(np.zeros(1), np.ones(1))
        with warnings.catch_warnings():
            warnings.simplefilter("error", ImageConsistencyWarning)
            GviProblem(A=Identity(1), a=Identity(1), K=K, image_aK=Box([5.0], [6.0]))
        with pytest.warns(ImageConsistencyWarning):
            GviProblem(A=Identity(1), a=PointwiseNonlinear("cube", 1), K=K, image_aK=Box([5.0], [6.0]))

    def test_inversion_params_validate(self):
        with pytest.raises(ValueError):
            InversionParams(tol=0.0)
        with pytest.raises(ValueError):
            InversionParams(multistart=0)
        with pytest.raises(ValueError):
            InversionParams(step_control=1.5)


class TestClosedFormInversion:
    """Nonsingular affine expressions invert without Gauss-Newton."""

    SHEAR = Affine(np.array([[2.0, 1.0], [0.0, 1.0]]), np.array([0.5, -0.25]))

    @pytest.fixture
    def fd_calls(self, monkeypatch):
        calls = []

        def counted(op, x, *args, **kwargs):
            calls.append(np.array(x))
            return jacobian_fd(op, x, *args, **kwargs)

        monkeypatch.setattr(gvi_module, "jacobian_fd", counted)
        return calls

    def test_invertible_affine_needs_no_jacobian(self, fd_calls):
        box = Box(np.zeros(2), np.ones(2))
        x = select_preimage(self.SHEAR, box, self.SHEAR(np.array([0.3, 0.6])))
        np.testing.assert_allclose(x, [0.3, 0.6], atol=1e-12)
        assert fd_calls == []

    def test_warm_started_representative_needs_no_jacobian(self, fd_calls):
        reduced = ReducedOperator(Identity(2), Identity(2), Box(-np.ones(2), np.ones(2)))
        reduced._last = np.array([-0.7, 0.2])
        x = reduced.representative(np.array([0.4, -0.1]))
        np.testing.assert_array_equal(x, [0.4, -0.1])
        assert fd_calls == []

    def test_identity_candidates_need_no_jacobian(self, fd_calls):
        box = Box(-np.ones(2), np.ones(2))
        found = preimage_candidates(Identity(2), box, np.array([0.25, -0.5]))
        assert len(found) == 1
        np.testing.assert_array_equal(found[0], [0.25, -0.5])
        assert fd_calls == []

    def test_identity_miss_is_final(self, fd_calls):
        # P_K(u) is the nearest point of K, so no multistart can beat it
        simplex = Simplex(3)
        u = np.array([0.9, 0.6, -0.2])
        with pytest.raises(InversionFailed) as exc:
            select_preimage(Identity(3), simplex, u)
        assert exc.value.best_residual == simplex.distance(u)
        np.testing.assert_array_equal(exc.value.best_point, simplex.project(u))
        assert preimage_candidates(Identity(3), simplex, u) == []
        assert fd_calls == []

    @pytest.mark.parametrize(
        "a",
        [Rotation(0.8), Compose(Rotation(0.3), Rotation(0.5)), Scale(-1.0, Identity(2))],
        ids=["rotation", "composed-rotations", "reflection"],
    )
    def test_isometry_miss_is_final(self, fd_calls, a):
        # |a(x) - u| = |x - a^-1(u)|, so P_K(a^-1(u)) is the point of K that
        # a maps nearest to u and no multistart can beat it
        box = Box(np.zeros(2), np.ones(2))
        u = a(np.array([1.4, -0.3]))
        with pytest.raises(InversionFailed) as exc:
            select_preimage(a, box, u)
        np.testing.assert_allclose(exc.value.best_point, [1.0, 0.0], atol=1e-12)
        assert exc.value.best_residual == pytest.approx(0.5, abs=1e-12)
        assert preimage_candidates(a, box, u) == []
        assert fd_calls == []

    def test_affine_expressions_invert_in_closed_form(self, fd_calls):
        box = Box(np.zeros(2), np.ones(2))
        a = Sum(Scale(2.0, Rotation(0.4)), Constant([0.5, -0.5]))
        x = select_preimage(a, box, a(np.array([0.3, 0.6])))
        np.testing.assert_allclose(x, [0.3, 0.6], atol=1e-12)
        assert fd_calls == []

    def test_non_square_inner_map_reaches_the_search(self):
        # the starts skip P_K(u) when u lives in a space of another dimension
        a = Affine([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        reduced = ReducedOperator(a, a, Box(np.zeros(2), np.ones(2)))
        x = reduced.representative(a(np.array([0.3, 0.6])))
        np.testing.assert_allclose(x, [0.3, 0.6], atol=1e-8)

    def test_affine_miss_still_runs_the_multistart(self, fd_calls):
        box = Box(np.zeros(2), np.ones(2))
        u = self.SHEAR(np.ones(2)) + np.array([0.03, 0.02])
        with pytest.raises(InversionFailed) as exc:
            select_preimage(self.SHEAR, box, u)
        # every start of the multistart took at least one Gauss-Newton step
        assert len(fd_calls) >= InversionParams().multistart
        # the multistart's best is the corner (1, 1), |(0.03, 0.02)| short
        assert exc.value.best_residual == pytest.approx(0.03605551275463974, abs=1e-12)
        np.testing.assert_allclose(exc.value.best_point, [1.0, 1.0], atol=1e-12)
        assert preimage_candidates(self.SHEAR, box, u) == []

    def test_singular_affine_has_no_closed_form(self):
        a = Affine(np.array([[1.0, 2.0], [2.0, 4.0]]))
        assert a.inverse() is None
        assert Affine(np.ones((1, 2))).inverse() is None
        assert PointwiseNonlinear("cube", 2).inverse() is None

    def test_cache_key_holds_large_coordinates(self):
        # a key quantized to int64 collapsed every coordinate above ~9.2e9
        box = Box(np.array([1e10]), np.array([3e10]))
        reduced = ReducedOperator(Identity(1), Identity(1), box)
        reduced.representative(np.array([1.2e10]))
        x = reduced.representative(np.array([2.5e10]))
        np.testing.assert_array_equal(x, [2.5e10])


def _skew_operator():
    """``I + 0.5 (superdiagonal - subdiagonal)`` shifted: strongly monotone, zero inside K."""
    m = np.eye(3) + 0.5 * (np.eye(3, k=1) - np.eye(3, k=-1))
    return Affine(m, np.array([0.2, -0.3, 0.1]))


class TestClosedFormReduction:
    """An affine ``a`` is solved as ``VI(M^T A, K)`` in x-space, with no inversion."""

    K = Box(-np.ones(3), np.ones(3))
    SHEAR = Affine(
        np.array([[2.0, 0.5, 0.0], [0.0, 1.5, -0.5], [0.25, 0.0, 1.0]]), np.array([0.1, -0.2, 0.3])
    )

    @pytest.fixture
    def counts(self, monkeypatch):
        calls = {"select_preimage": 0, "jacobian_fd": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(gvi_module, name, counted(name, getattr(gvi_module, name)))
        return calls

    @pytest.mark.parametrize("a", [Identity(3), SHEAR], ids=["identity", "affine"])
    def test_no_inversion_inside_the_solve(self, a, counts):
        if isinstance(a, Identity):
            image = self.K
        else:
            image = _box_image(self.K, a)
        rep = solve_gvi(GviProblem(A=_skew_operator(), a=a, K=self.K, image_aK=image))
        assert rep.converged
        assert rep.reduction == "x_space"
        assert rep.gap_certificate >= -1e-6
        np.testing.assert_array_equal(rep.reduced_solution, a(rep.solution))
        assert rep.pullback_residual == 0.0
        assert counts == {"select_preimage": 0, "jacobian_fd": 0}

    def test_cube_keeps_gauss_newton(self, counts):
        a = PointwiseNonlinear("cube", 3)
        problem = GviProblem(
            A=_skew_operator(), a=a, K=self.K, image_aK=self.K, params=SolverParams(max_iter=3)
        )
        assert solve_gvi(problem).reduction == "image"
        assert counts["select_preimage"] > 1
        assert counts["jacobian_fd"] > 0

    @pytest.mark.parametrize(
        "a, half_width",
        [(Identity(3), 2.0), (Affine(2.0 * np.eye(3)), 3.0)],
        ids=["identity", "double"],
    )
    def test_declared_image_larger_than_aK(self, a, half_width):
        # the solver walks points of the declared image outside a(K), which
        # have no preimage in K but a closed-form value of A o a^{-1}
        image = Box(-half_width * np.ones(3), half_width * np.ones(3))
        rep = solve_gvi(GviProblem(A=_skew_operator(), a=a, K=self.K, image_aK=image))
        assert rep.converged
        np.testing.assert_allclose(rep.solution, [-0.283333, 0.166667, -0.016667], atol=1e-6)
        assert rep.pullback_residual == pytest.approx(0.0, abs=1e-12)
        assert rep.gap_certificate >= -1e-6


class TestPullbackOutsideAK:
    """A = x - 1.5 on K = [-1, 1] has its zero at 1.5, outside K."""

    @staticmethod
    def _problem(a, half_width):
        return GviProblem(
            A=Affine(np.eye(1), np.array([-1.5])),
            a=a,
            K=Box(-np.ones(1), np.ones(1)),
            image_aK=Box(-half_width * np.ones(1), half_width * np.ones(1)),
        )

    @pytest.mark.parametrize(
        "a, half_width",
        [(Identity(1), 2.0), (Affine(2.0 * np.eye(1)), 3.0)],
        ids=["identity", "double"],
    )
    def test_affine_map_certifies_the_true_solution(self, a, half_width):
        # solved on K itself, the declared image [-h, h] past a(K) plays no
        # part: x = 1 is the solution, since -A(1) = 0.5 points out of K
        problem = self._problem(a, half_width)
        rep = solve_gvi(problem)
        assert rep.reduction == "x_space"
        np.testing.assert_allclose(rep.solution, [1.0], atol=1e-12)
        np.testing.assert_array_equal(rep.reduced_solution, a(rep.solution))
        assert rep.pullback_residual == 0.0
        assert rep.gap_certificate == 0.0 and rep.gap_kind == "exact"
        assert certify(problem, rep).certified

    @pytest.mark.parametrize("half_width", [2.0, 3.0])
    def test_cube_solve_reports_the_miss(self, half_width):
        # on the image path the reduced operator vanishes at u = 1.5^3, past
        # a(K) = [-1, 1]; the solver walks the declared image beyond a(K),
        # where no preimage exists, and the search says how far it got
        problem = self._problem(PointwiseNonlinear("cube", 1), half_width)
        with pytest.raises(InversionFailed) as exc:
            solve_gvi(problem)
        assert exc.value.best_residual > problem.inversion.tol
        assert problem.K.contains(exc.value.best_point)


_X_SPACE_SETS = {"box": random_box, "simplex": random_simplex, "hpolytope": random_hpolytope}


def _inner_matrix(rng, shape, dim):
    """A nonsingular, a singular (rank dim - 1, zero in R^1) or a non-square M."""
    if shape == "nonsingular":
        return np.eye(dim) + 0.4 * rng.normal(size=(dim, dim)) / np.sqrt(dim)
    if shape == "singular":
        m, v = rng.normal(size=(dim, dim)), rng.normal(size=dim)
        return m - np.outer(m @ v, v) / (v @ v)  # m v = 0
    return rng.normal(size=(dim + 1, dim))


@given(
    kind=st.sampled_from(sorted(_X_SPACE_SETS)),
    shape=st.sampled_from(["nonsingular", "singular", "non-square"]),
    dim=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
@settings(derandomize=True, max_examples=40, deadline=None)
def test_affine_inner_maps_solve_in_x_space(kind, shape, dim, seed):
    # A(x) = S a(x) + r with S + S^T positive definite is strongly monotone
    # relative to a, so VI(M^T A, K) is a monotone VI on K
    rng = np.random.default_rng(seed)
    K = _X_SPACE_SETS[kind](rng, dim)
    m = _inner_matrix(rng, shape, dim)
    a = Affine(m, rng.normal(size=m.shape[0]))
    skew = rng.normal(size=(m.shape[0], m.shape[0]))
    s = np.eye(m.shape[0]) + 0.5 * (skew - skew.T)
    A = Affine(s @ m, s @ a.shift + rng.normal(size=m.shape[0]))
    image = Box(*a.enclosure(*K.bounding_box()))
    rep = solve_gvi(GviProblem(A=A, a=a, K=K, image_aK=image))
    assert rep.converged and rep.reduction == "x_space" and rep.gap_kind == "exact"
    assert rep.gap_certificate >= -1e-6
    # the gap is linear in a(y), so its minimum over K sits at a vertex
    gx = A(rep.solution)
    assert np.min((a(K.vertices()) - a(rep.solution)) @ gx) >= -1e-6


class _KeyErrorSampling(Box):
    def sample(self, rng, n=None):
        raise KeyError("sample")


def test_the_image_check_does_not_swallow_programming_errors():
    K = _KeyErrorSampling(np.zeros(2), np.ones(2))
    with pytest.raises(KeyError):
        gvi_module._image_miss(Identity(2), K, Box(np.zeros(2), np.ones(2)), 1)
