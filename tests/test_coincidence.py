"""Coincidence and fixed-point solving with residual certification."""

import numpy as np
import pytest

from gvikit import cli
from gvikit.geometry import Ball, Box
from gvikit.coincidence import (
    CoincidenceProblem,
    find_coincidence,
    find_fixed_point,
)
from gvikit.operators import Affine, Constant, Identity, Rotation, affine_range_inclusion
from gvikit.schema import parse_problem
from gvikit.vi import SolverParams


def _rot(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s], [s, c]])


def _linear_pair():
    """f(x) = x + 0.5 and g(x) = 2x cross at x = 0.5."""
    return CoincidenceProblem(
        f=Affine(np.eye(1), np.array([0.5])),
        g=Affine(2.0 * np.eye(1), np.zeros(1)),
        K=Box(np.zeros(1), np.ones(1)),
        image_gK=Box(np.zeros(1), 2.0 * np.ones(1)),
    )


class TestFindCoincidence:
    def test_crossing_lines(self):
        rep = find_coincidence(_linear_pair())
        assert rep.certified
        np.testing.assert_allclose(rep.solution, [0.5], atol=1e-6)
        assert rep.coincidence_residual <= 1e-6
        assert rep.gap_certificate >= -1e-6

    def test_constant_target(self):
        problem = CoincidenceProblem(
            f=Constant(np.array([0.25, 0.75]), in_dim=2),
            g=Identity(2),
            K=Box(np.zeros(2), np.ones(2)),
            image_gK=Box(np.zeros(2), np.ones(2)),
        )
        rep = find_coincidence(problem)
        assert rep.certified
        np.testing.assert_allclose(rep.solution, [0.25, 0.75], atol=1e-6)

    def test_rotation_against_doubling(self):
        # f(x) = R(pi/2) x + (1.2, 0.2) meets g(x) = 2x at (0.44, 0.32).
        problem = CoincidenceProblem(
            f=Affine(_rot(np.pi / 2), np.array([1.2, 0.2])),
            g=Affine(2.0 * np.eye(2), np.zeros(2)),
            K=Box(np.zeros(2), np.ones(2)),
            image_gK=Box(np.zeros(2), 2.0 * np.ones(2)),
        )
        rep = find_coincidence(problem)
        assert rep.certified
        np.testing.assert_allclose(rep.solution, [0.44, 0.32], atol=1e-6)

    def test_no_coincidence_reports_uncertified_with_diagnosis(self):
        # f is the constant 2, outside g(K) = [0, 1]: the inequality still
        # solves (at the boundary) but the residual cannot close.
        problem = CoincidenceProblem(
            f=Constant(np.array([2.0])),
            g=Identity(1),
            K=Box(np.zeros(1), np.ones(1)),
            image_gK=Box(np.zeros(1), np.ones(1)),
        )
        rep = find_coincidence(problem)
        assert rep.converged
        assert not rep.certified
        np.testing.assert_allclose(rep.solution, [1.0], atol=1e-6)
        assert rep.coincidence_residual == pytest.approx(1.0, abs=1e-6)
        rep = affine_range_inclusion(problem.f, problem.g, problem.K, 1e-6)
        assert rep.verdict == "violated"
        (v,) = rep.witness
        assert problem.K.distance(problem.f(v)) == pytest.approx(1.0)

    def test_report_fields_cover_the_pipeline(self):
        rep = find_coincidence(_linear_pair())
        # reduced solution lives in g(K): u* = g(0.5) = 1
        np.testing.assert_allclose(rep.reduced_solution, [1.0], atol=1e-6)
        assert rep.pullback_residual <= 1e-8
        assert rep.iterations >= 1
        assert rep.converged


def _pair_file(f, g, check_samples=None):
    """A coincidence file for the pair on [0, 1]."""
    data = {
        "version": "1",
        "kind": "coincidence",
        "operators": {"f": f, "g": g},
        "set": {"type": "box", "lower": [0.0], "upper": [1.0]},
        "seed": 5,
    }
    if check_samples is not None:
        data["tolerances"] = {"check_samples": check_samples}
    return parse_problem(data)


_LINEAR_F = {"op": "affine", "matrix": [[1.0]], "shift": [0.5]}
_DOUBLE = {"op": "affine", "matrix": [[2.0]], "shift": [0.0]}
_ID1 = {"op": "identity", "dim": 1}


class TestPrecheck:
    """The hypothesis battery that runs before a coincidence solve."""

    def test_reports_come_in_load_bearing_order(self):
        report, code = cli.run_check(_pair_file(_LINEAR_F, _DOUBLE))
        assert code == 0
        names = [r["property"] for r in report["hypothesis_reports"]]
        assert names == [
            "affine_relative_monotone",
            "ql",
            "fiber_condition",
            "range_inclusion",
            "g_nonexpansive",
        ]
        assert all(r["verdict"] == "proven" for r in report["hypothesis_reports"])

    def test_expansion_past_g_is_flagged(self):
        report, code = cli.run_check(_pair_file({"op": "scale", "factor": 3.0, "inner": _ID1}, _ID1))
        assert code == 1
        by_name = {r["property"]: r for r in report["hypothesis_reports"]}
        # g - f = -2x is not monotone relative to g = x, and f doubles distances past g
        assert by_name["affine_relative_monotone"]["verdict"] == "violated"
        assert by_name["g_nonexpansive"]["verdict"] == "violated"
        assert by_name["range_inclusion"]["verdict"] == "violated"
        x, y = (np.array(w) for w in by_name["affine_relative_monotone"]["witness"])
        # witness reproduces <f(x)-f(y), g(x)-g(y)> > |g(x)-g(y)|^2
        lhs = 3.0 * (x - y) @ (x - y)
        assert lhs > (x - y) @ (x - y)

    def test_sampling_is_configurable(self):
        tanh = {"op": "scale", "factor": 0.5, "inner": {"op": "pointwise", "kind": "tanh", "dim": 1}}
        report, _ = cli.run_check(_pair_file(tanh, _ID1, check_samples=32))
        used = [r["samples_used"] for r in report["hypothesis_reports"]]
        assert max(used) == 32
        assert all(n <= 32 for n in used)


class TestFindFixedPoint:
    def test_averaging_map(self):
        f = Affine(0.5 * np.eye(1), np.array([0.5]))
        rep = find_fixed_point(f, Box(np.zeros(1), np.ones(1)))
        assert rep.certified
        np.testing.assert_allclose(rep.solution, [1.0], atol=1e-6)
        assert rep.self_map_report.verdict in ("holds_on_samples", "proven")

    def test_rotation_pins_the_center(self):
        rep = find_fixed_point(
            Rotation(np.pi / 2),
            Ball(np.zeros(2), 1.0),
            params=SolverParams(residual_tol=1e-9),
        )
        assert rep.certified
        assert np.linalg.norm(rep.solution) <= 1e-6

    def test_matches_explicit_identity_pair(self):
        f = Affine(0.5 * np.eye(1), np.array([0.5]))
        K = Box(np.zeros(1), np.ones(1))
        via_fixed = find_fixed_point(f, K)
        via_pair = find_coincidence(CoincidenceProblem(f=f, g=Identity(1), K=K))
        np.testing.assert_allclose(via_fixed.solution, via_pair.solution, atol=1e-8)

    def test_self_map_violation_does_not_abort(self):
        # The quarter turn maps this off-center ball outside itself, yet its
        # fixed point (the origin) still lies inside and is found.
        K = Ball(np.array([0.25, 0.25]), 1.0)
        rep = find_fixed_point(
            Rotation(np.pi / 2), K, params=SolverParams(residual_tol=1e-9)
        )
        assert rep.self_map_report.verdict == "violated"
        assert rep.certified
        assert np.linalg.norm(rep.solution) <= 1e-6

    def test_tolerance_is_respected(self):
        f = Affine(0.5 * np.eye(1), np.array([0.5]))
        rep = find_fixed_point(f, Box(np.zeros(1), np.ones(1)), tol=1e-3)
        assert rep.coincidence_residual <= 1e-3


class TestContractionSuite:
    """Invertible g plus a strict contraction of K into g(K) always certifies."""

    @pytest.mark.parametrize("case", range(20))
    def test_contraction_into_image_certifies(self, case):
        rng = np.random.default_rng(9000 + case)
        while True:
            G = rng.uniform(-1.0, 1.0, size=(2, 2))
            sigma_min = float(np.linalg.svd(G, compute_uv=False)[-1])
            if sigma_min >= 0.3:
                break
        h = rng.uniform(-1.0, 1.0, size=2)
        K = Box(np.zeros(2), np.ones(2))
        center = np.array([0.5, 0.5])
        g_center = G @ center + h

        # f contracts K into a ball around g(center) of radius
        # s * sqrt(0.5) <= 0.6 * sigma_min * 0.71 < sigma_min * 0.5,
        # which sits inside g(K); the coincidence point is the center.
        s = 0.6 * sigma_min
        R = _rot(rng.uniform(0.0, 2.0 * np.pi))
        f = Affine(s * R, g_center - s * (R @ center))

        problem = CoincidenceProblem(f=f, g=Affine(G, h), K=K)
        rep = find_coincidence(problem)
        assert rep.certified
        assert rep.coincidence_residual <= 1e-6
        np.testing.assert_allclose(rep.solution, center, atol=1e-5)
