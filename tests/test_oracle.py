"""Grid oracle: exhaustive low-dimensional checks used to refute solutions."""

import numpy as np
import pytest

from gvikit import oracle
from gvikit.errors import DimensionTooLarge, EmptyGrid
from gvikit.geometry import Ball, Box, HPolytope, Simplex
from gvikit.operators import Affine, Constant, Identity, PointwiseNonlinear, Sum
from gvikit.oracle import (
    GRID_POINT_CAP,
    brute_coincidence,
    brute_gap,
    brute_vi_solve,
    grid_points,
)


class TestGridPoints:
    def test_unit_interval(self):
        pts = grid_points(Box(np.zeros(1), np.ones(1)), 0.5)
        np.testing.assert_allclose(sorted(p.item() for p in pts), [0.0, 0.5, 1.0])

    def test_square_lattice_count(self):
        pts = grid_points(Box(np.zeros(2), np.ones(2)), 0.25)
        assert pts.shape == (25, 2)

    def test_simplex_keeps_its_vertices(self):
        # The lattice from the bounding-box corner misses nothing here, but
        # the vertices are guaranteed regardless of the spacing.
        pts = grid_points(Simplex(2), 0.5)
        rows = {tuple(np.round(p, 9)) for p in pts}
        assert (1.0, 0.0) in rows and (0.0, 1.0) in rows and (0.5, 0.5) in rows

    def test_membership_filter_clips_the_ball(self):
        pts = grid_points(Ball(np.zeros(2), 1.0), 0.5)
        # corner lattice points like (1, 1) are outside and must be dropped
        assert np.all(np.linalg.norm(pts, axis=1) <= 1.0 + 1e-9)
        rows = {tuple(np.round(p, 9)) for p in pts}
        assert (0.0, 0.0) in rows and (1.0, 0.0) in rows

    def test_deterministic_order(self):
        a = grid_points(Box(np.zeros(2), np.ones(2)), 0.2)
        b = grid_points(Box(np.zeros(2), np.ones(2)), 0.2)
        np.testing.assert_array_equal(a, b)

    def test_empty_grid(self):
        # A tiny off-lattice ball contains no lattice point and enumerates
        # no vertices.
        with pytest.raises(EmptyGrid):
            grid_points(Ball(np.array([0.51, 0.51]), 0.005), 1.0)

    def test_dimension_cap(self):
        with pytest.raises(DimensionTooLarge):
            grid_points(Box(np.zeros(5), np.ones(5)), 0.5)

    def test_point_cap(self):
        with pytest.raises(DimensionTooLarge):
            grid_points(Box(np.zeros(4), np.ones(4)), 1e-5)

    def test_bad_resolution(self):
        with pytest.raises(ValueError):
            grid_points(Box(np.zeros(1), np.ones(1)), 0.0)


class TestBruteGap:
    def _problem(self):
        # VI for A(x) = x - 1 on [0, 2] with identity a: solution x = 1
        A = Affine(np.eye(1), np.array([-1.0]))
        return A, Identity(1), Box(np.zeros(1), 2.0 * np.ones(1))

    def test_solution_scores_zero(self):
        A, a, K = self._problem()
        assert brute_gap(A, a, K, np.array([1.0]), 0.01) == pytest.approx(0.0, abs=1e-12)

    def test_non_solution_is_refuted(self):
        A, a, K = self._problem()
        # at x = 0, A = -1 and y = 2 drives the pairing to -2
        assert brute_gap(A, a, K, np.array([0.0]), 0.01) == pytest.approx(-2.0, abs=1e-9)

    def test_finer_grids_never_increase_the_gap(self):
        # The grid minimum over a subset can only go down as points are added.
        square = PointwiseNonlinear("square", 1)
        A = Sum(square, Constant(np.array([-0.5])))
        K = Box(-np.ones(1), np.ones(1))
        x = np.array([0.6])
        coarse = brute_gap(A, square, K, x, 0.5)
        medium = brute_gap(A, square, K, x, 0.25)
        fine = brute_gap(A, square, K, x, 0.125)
        assert medium <= coarse + 1e-15
        assert fine <= medium + 1e-15


class TestBruteViSolve:
    def test_linear_instance(self):
        A = Affine(np.eye(1), np.array([-1.0]))
        point, gap = brute_vi_solve(A, Identity(1), Box(np.zeros(1), 2.0 * np.ones(1)), 0.01)
        np.testing.assert_allclose(point, [1.0], atol=1e-9)
        assert gap == pytest.approx(0.0, abs=1e-12)

    def test_square_reduction_instance(self):
        square = PointwiseNonlinear("square", 1)
        A = Sum(square, Constant(np.array([-0.5])))
        point, gap = brute_vi_solve(A, square, Box(-np.ones(1), np.ones(1)), 0.01)
        # both branches solve; lexicographic order keeps the answer stable
        assert abs(abs(point.item()) - np.sqrt(0.5)) <= 0.01
        # the best grid point is within the spacing of the true solution,
        # so its gap is only O(resolution) below zero
        assert -5e-3 <= gap <= 0.0

    def test_boundary_solution(self):
        # A is the constant field (-1): everything pushes toward the
        # right endpoint.
        A = Constant(np.array([-1.0]))
        point, gap = brute_vi_solve(A, Identity(1), Box(np.zeros(1), np.ones(1)), 0.1)
        np.testing.assert_allclose(point, [1.0], atol=1e-12)
        assert gap == pytest.approx(0.0, abs=1e-12)


class TestBruteCoincidence:
    def test_crossing_lines(self):
        f = Affine(np.eye(1), np.array([0.5]))
        g = Affine(2.0 * np.eye(1), np.zeros(1))
        point, residual = brute_coincidence(f, g, Box(np.zeros(1), np.ones(1)), 0.01)
        np.testing.assert_allclose(point, [0.5], atol=1e-9)
        assert residual == pytest.approx(0.0, abs=1e-12)

    def test_off_grid_minimum_is_within_spacing(self):
        f = Constant(np.array([0.512]))
        g = Identity(1)
        point, residual = brute_coincidence(f, g, Box(np.zeros(1), np.ones(1)), 0.1)
        assert abs(point.item() - 0.512) <= 0.1
        assert residual <= 0.1

    def test_two_dimensional_fixed_point(self):
        f = Constant(np.array([0.25, 0.75]), in_dim=2)
        point, residual = brute_coincidence(
            f, Identity(2), Box(np.zeros(2), np.ones(2)), 0.05
        )
        np.testing.assert_allclose(point, [0.25, 0.75], atol=1e-9)
        assert residual == pytest.approx(0.0, abs=1e-12)

    def test_cap_is_exposed(self):
        assert GRID_POINT_CAP == 10_000_000


def _grid_points_by_scan(K, resolution):
    """Reference grid: the lattice clipped to K, plus every vertex that no
    kept lattice point matches within 1e-12, found by scanning them all."""
    lo, hi = K.bounding_box()
    axes = [
        lo[i] + resolution * np.arange(int(np.floor((hi[i] - lo[i]) / resolution + 1e-12)) + 1)
        for i in range(K.dim)
    ]
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, K.dim)
    pts = pts[K._distance_batch(pts) <= 1e-9]
    extra = [
        v
        for v in np.asarray(K.vertices(), dtype=float)
        if pts.size == 0 or np.min(np.linalg.norm(pts - v, axis=1)) > 1e-12
    ]
    if extra:
        pts = np.concatenate([pts, np.array(extra)], axis=0)
    return pts


_CUT_CUBE = HPolytope(
    np.vstack([np.eye(3), -np.eye(3), [[1.0, 1.0, 1.0], [-1.0, 2.0, 0.5]]]),
    np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 2.2, 1.3]),
)


@pytest.mark.parametrize(
    "K, resolution",
    [
        (Box(np.zeros(4), np.ones(4)), 0.05),
        (Box(np.zeros(4), np.ones(4)), 0.3),
        (Simplex(3), 0.25),
        (Simplex(3), 0.3),
        (_CUT_CUBE, 0.1),
        (_CUT_CUBE, 0.15),
    ],
)
def test_vertex_dedup_matches_a_full_scan(K, resolution):
    np.testing.assert_array_equal(grid_points(K, resolution), _grid_points_by_scan(K, resolution))


def _cut_box(dim):
    """The box [-1, 1]^dim cut by the halfspace sum(x) <= 0.7."""
    eye = np.eye(dim)
    return HPolytope(
        np.vstack([eye, -eye, np.ones((1, dim))]),
        np.concatenate([np.ones(2 * dim), [0.7]]),
    )


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
@pytest.mark.parametrize(
    "make",
    [
        lambda d: Box(-np.ones(d), np.linspace(0.5, 1.0, d)),
        lambda d: Simplex(d),
        _cut_box,
        lambda d: Ball(np.linspace(-0.1, 0.2, d), 0.9),
    ],
    ids=["box", "simplex", "hpolytope", "ball"],
)
def test_chunked_membership_matches_one_pass(monkeypatch, make, dim):
    K = make(dim)
    resolution = 0.3 if dim == 4 else 0.13
    whole = grid_points(K, resolution)
    assert whole.shape[0] < oracle._GRID_CHUNK  # one chunk: the unchunked filter
    monkeypatch.setattr(oracle, "_GRID_CHUNK", 7)
    np.testing.assert_array_equal(grid_points(K, resolution), whole)


def _simplex_distances_by_projection(K, pts):
    """Every row's distance through a projection, with no lower-bound screen."""
    from gvikit.geometry import _simplex_project_rows

    return np.linalg.norm(pts - _simplex_project_rows(pts), axis=1)


@pytest.mark.parametrize("resolution", [0.05, 0.07, 0.3])
@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_simplex_screen_keeps_the_grid(monkeypatch, dim, resolution):
    # rows whose lower bound exceeds 10 * CONTAINS_TOL are far outside, so
    # projecting only the others keeps the grid byte for byte
    K = Simplex(dim)
    screened = grid_points(K, resolution)
    monkeypatch.setattr(Simplex, "_distance_batch", _simplex_distances_by_projection)
    full = grid_points(K, resolution)
    assert screened.tobytes() == full.tobytes()


def test_simplex_screen_is_a_lower_bound():
    rng = np.random.default_rng(5)
    K = Simplex(4)
    pts = rng.uniform(-0.5, 1.2, size=(500, 4))
    exact = _simplex_distances_by_projection(K, pts)
    screened = K._distance_batch(pts)
    assert np.all(screened <= exact + 1e-15)
    near = screened <= 1e-8
    np.testing.assert_array_equal(screened[near], exact[near])
