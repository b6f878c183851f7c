"""Set variants: projections, membership, vertices, spans, and affine images."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_box, random_cone, random_hpolytope
from test_acceptance import _random_cone, _random_hpolytope
from gvikit import geometry as geometry_module
from gvikit import (
    Ball,
    Box,
    DimensionMismatch,
    DimensionTooLarge,
    EmptySet,
    HPolytope,
    PolyhedralCone,
    Simplex,
    UnboundedSet,
    UnsupportedVariant,
    segment_distance,
    set_from_dict,
)
from gvikit.operators import (
    Affine,
    Constant,
    Identity,
    SampleConfig,
    affine_range_inclusion,
    check_range_inclusion,
)

TRIANGLE = HPolytope([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]], [0.0, 0.0, 1.0])


def _coords(dim):
    return st.lists(
        st.floats(-10, 10, allow_nan=False, allow_infinity=False),
        min_size=dim,
        max_size=dim,
    ).map(np.array)


class TestExactProjections:
    def test_box_clamps(self):
        box = Box([0.0, 0.0], [1.0, 1.0])
        np.testing.assert_allclose(box.project([2.0, -1.0]), [1.0, 0.0])
        np.testing.assert_allclose(box.project([0.3, 0.7]), [0.3, 0.7])
        np.testing.assert_allclose(box.project([-5.0, 0.5]), [0.0, 0.5])

    def test_ball_scales_radially(self):
        ball = Ball([0.0, 0.0], 1.0)
        np.testing.assert_allclose(ball.project([3.0, 4.0]), [0.6, 0.8])
        np.testing.assert_allclose(ball.project([0.2, -0.1]), [0.2, -0.1])
        off = Ball([1.0, 1.0], 2.0)
        np.testing.assert_allclose(off.project([1.0, 5.0]), [1.0, 3.0])

    def test_simplex_water_filling(self):
        s3 = Simplex(3)
        np.testing.assert_allclose(
            s3.project([0.5, 0.5, 0.5]), [1 / 3, 1 / 3, 1 / 3]
        )
        s2 = Simplex(2)
        np.testing.assert_allclose(s2.project([2.0, 0.0]), [1.0, 0.0])
        np.testing.assert_allclose(s2.project([0.25, 0.75]), [0.25, 0.75])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            Box([0.0], [1.0]).project([1.0, 2.0])
        with pytest.raises(DimensionMismatch):
            Ball([0.0, 0.0], 1.0).distance([1.0])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            Box([0.0], [1.0]).project([np.nan])


class TestMembership:
    def test_contains_examples(self):
        assert Box([0.0, 0.0], [1.0, 1.0]).contains([0.5, 0.5], tol=0.0)
        assert Ball([0.0, 0.0], 1.0).contains([1.0 + 1e-12, 0.0], tol=1e-9)
        assert not Simplex(2).contains([0.7, 0.7], tol=1e-6)

    def test_projection_lands_inside(self):
        rng = np.random.default_rng(5)
        for s in (Box([-1.0, 0.0], [2.0, 1.0]), Ball([0.5, 0.5], 0.7), Simplex(2), TRIANGLE):
            for _ in range(20):
                p = s.project(rng.uniform(-3, 3, size=2))
                assert s.contains(p, tol=1e-9)

    def test_negative_tol_rejected(self):
        with pytest.raises(ValueError):
            Box([0.0], [1.0]).contains([0.5], tol=-1.0)


class TestVertices:
    def test_box_corners(self):
        vs = Box([0.0, 0.0], [1.0, 1.0]).vertices()
        assert vs.shape == (4, 2)
        expected = {(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)}
        assert {tuple(v) for v in vs} == expected

    def test_simplex_standard_basis(self):
        np.testing.assert_allclose(Simplex(3).vertices(), np.eye(3))

    def test_triangle_enumeration(self):
        vs = TRIANGLE.vertices()
        np.testing.assert_allclose(vs, [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]], atol=1e-12)

    def test_vertex_order_is_lexicographic(self):
        vs = Box([0.0, 0.0], [1.0, 1.0]).vertices()
        assert [tuple(v) for v in vs] == sorted(tuple(v) for v in vs)

    def test_unsupported_variants(self):
        with pytest.raises(UnsupportedVariant):
            Ball([0.0], 1.0).vertices()
        with pytest.raises(UnsupportedVariant):
            PolyhedralCone([[1.0], [1.0]]).vertices()

    def test_dimension_cap(self):
        with pytest.raises(DimensionTooLarge):
            Box(np.zeros(7), np.ones(7)).vertices()
        with pytest.raises(DimensionTooLarge):
            Simplex(7).vertices()


class TestHPolytopeConstruction:
    def test_unbounded_rejected(self):
        with pytest.raises(UnboundedSet):
            HPolytope([[1.0, 0.0]], [1.0])
        with pytest.raises(UnboundedSet):
            HPolytope([[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0])

    def test_empty_rejected(self):
        with pytest.raises(EmptySet):
            HPolytope([[1.0], [-1.0]], [-1.0, -1.0])

    def test_a_half_line_is_unbounded(self):
        # in 1-D the recession test has one row subset, the empty one, whose
        # null directions are +-e_1; x <= 0.5 has the recession ray -e_1
        with pytest.raises(UnboundedSet):
            HPolytope([[1.0], [2.0]], [1.0, 1.0])
        with pytest.raises(UnboundedSet):
            HPolytope([[-1.0], [-3.0]], [1.0, 0.0])
        assert np.array_equal(HPolytope([[1.0], [-2.0]], [1.0, 1.0]).vertices(), [[-0.5], [1.0]])

    def test_dimension_cap(self):
        eye = np.eye(7)
        with pytest.raises(DimensionTooLarge):
            HPolytope(np.vstack([eye, -eye]), np.ones(14))

    def test_zero_normal_rejected(self):
        with pytest.raises(ValueError):
            HPolytope([[0.0, 0.0], [1.0, 0.0]], [1.0, 1.0])

    def test_frozen_value_semantics(self):
        box = Box([0.0], [1.0])
        with pytest.raises(Exception):
            box.lower = np.array([5.0])
        with pytest.raises(ValueError):
            box.lower[0] = 5.0


def _triangle_oracle_projection(pt, vs):
    """Nearest point of a triangle: interior hit or best edge projection."""
    a, b, c = vs
    m = np.column_stack([b - a, c - a])
    lam = np.linalg.solve(m, pt - a)
    if lam[0] >= 0 and lam[1] >= 0 and lam.sum() <= 1:
        return pt
    best = None
    for p0, p1 in ((a, b), (a, c), (b, c)):
        d = p1 - p0
        t = np.clip((pt - p0) @ d / (d @ d), 0.0, 1.0)
        cand = p0 + t * d
        if best is None or np.linalg.norm(pt - cand) < np.linalg.norm(pt - best):
            best = cand
    return best


def _cone_projection_by_subsets(gens, x):
    """Nearest nonnegative least-squares fit over every generator subset."""
    best = np.zeros_like(x)
    for k in range(1, gens.shape[1] + 1):
        for idx in itertools.combinations(range(gens.shape[1]), k):
            sub = gens[:, list(idx)]
            lam = np.linalg.lstsq(sub, x, rcond=None)[0]
            if np.all(lam >= 0.0) and np.linalg.norm(x - sub @ lam) < np.linalg.norm(x - best):
                best = sub @ lam
    return best


class TestDykstraProjections:
    """Projections onto halfspace intersections and cones.

    The name predates the active-set method and is kept so that the test
    ids stay stable.
    """

    def test_matches_box_closed_form(self):
        hp = HPolytope(
            np.vstack([np.eye(2), -np.eye(2)]), [1.0, 1.0, 0.0, 0.0]
        )
        box = Box([0.0, 0.0], [1.0, 1.0])
        rng = np.random.default_rng(11)
        for _ in range(50):
            x = rng.uniform(-3, 3, size=2)
            np.testing.assert_allclose(hp.project(x), box.project(x), atol=1e-9)

    def test_matches_triangle_oracle(self):
        vs = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        rng = np.random.default_rng(12)
        for _ in range(50):
            x = rng.uniform(-2, 2, size=2)
            np.testing.assert_allclose(
                TRIANGLE.project(x), _triangle_oracle_projection(x, vs), atol=1e-8
            )

    def test_orthant_cone_is_positive_clamp(self):
        orthant = PolyhedralCone(np.eye(2))
        rng = np.random.default_rng(13)
        for _ in range(30):
            x = rng.uniform(-2, 2, size=2)
            np.testing.assert_allclose(orthant.project(x), np.maximum(x, 0.0), atol=1e-9)

    def test_ray_cone(self):
        ray = PolyhedralCone([[1.0], [1.0]])  # generators are columns
        d = np.array([1.0, 1.0])
        for x in ([3.0, 1.0], [-1.0, -2.0], [0.5, 0.5]):
            t = max(0.0, np.dot(x, d) / 2.0)
            np.testing.assert_allclose(ray.project(x), t * d, atol=1e-9)

    def test_wedge_cone_hand_cases(self):
        wedge = PolyhedralCone([[1.0, 1.0], [0.0, 1.0]])  # cone{(1,0),(1,1)}
        np.testing.assert_allclose(wedge.project([-1.0, 2.0]), [0.5, 0.5], atol=1e-9)
        np.testing.assert_allclose(wedge.project([2.0, 1.0]), [2.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(wedge.project([1.0, -1.0]), [1.0, 0.0], atol=1e-9)

    def test_random_polytopes_variational(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            hp = random_hpolytope(rng, 2)
            zs = hp.sample(rng, 12)
            x = rng.uniform(-4, 4, size=2)
            p = hp.project(x)
            assert ((zs - p) @ (x - p) <= 1e-10 * max(1.0, np.linalg.norm(x - p)) * 5).all()

    def test_random_cones_variational(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            cone = random_cone(rng, 3)
            lam = rng.uniform(0, 2, size=(12, cone.generators.shape[1]))
            zs = lam @ cone.generators.T
            x = rng.uniform(-3, 3, size=3)
            p = cone.project(x)
            assert ((zs - p) @ (x - p) <= 1e-10 * max(1.0, np.linalg.norm(x - p)) * 5).all()

    def test_point_in_polar_cone_projects_to_apex(self):
        cone = PolyhedralCone(
            [
                [-0.6252321147077669, -0.4018632134856956, 0.6182043323555896],
                [-0.015319011850246577, -0.43150159215550926, -0.767377401520632],
                [0.7802884919143598, 0.8076585501399776, -0.170162648933961],
            ]
        )
        x = [2.0351154907252074, 3.884576714933605, -4.90380079866047]
        assert np.linalg.norm(cone.project(x)) <= 1e-10

    def test_four_dim_cone_matches_subset_reference(self):
        cone = PolyhedralCone(
            [
                [0.5797634214131772, 0.2623626261012707, 0.2276197247904374, -0.3901231914885732],
                [0.18287322761680017, 0.5934597890491635, -0.5332436782515969, -0.8806270542137108],
                [0.6620928761260667, -0.39881133199428226, 0.474273782556195, 0.2377489881726063],
                [0.43825196085746576, -0.6480130034805732, -0.6624989205054389, -0.12559978293195434],
            ]
        )
        x = np.array([1.6061082494645982, -3.056103025589312, -3.0802549613694827, 4.214206104147632])
        ref = _cone_projection_by_subsets(cone.generators, x)
        assert np.linalg.norm(cone.project(x) - ref) <= 1e-10

    def test_random_sweep_meets_references(self):
        rng = np.random.default_rng(16)
        for _ in range(150):
            dim = int(rng.integers(2, 5))
            hp = _random_hpolytope(rng, dim)
            x = rng.uniform(-5, 5, size=dim)
            p = hp.project(x)
            # feasible, and x - p is normal to the polytope at p: the
            # optimality conditions, checked over every vertex
            assert np.max(hp.normals @ p - hp.offsets) <= 1e-9
            assert np.max((hp.vertices() - p) @ (x - p)) <= 1e-9
            cone = _random_cone(rng, dim)
            x = rng.uniform(-5, 5, size=dim)
            ref = _cone_projection_by_subsets(cone.generators, x)
            assert np.linalg.norm(cone.project(x) - ref) <= 1e-9


class TestSampling:
    def test_samples_are_members(self):
        rng = np.random.default_rng(21)
        for s in (
            Box([-1.0, 2.0], [0.5, 3.0]),
            Ball([1.0, -1.0], 0.5),
            Simplex(3),
            TRIANGLE,
        ):
            pts = s.sample(rng, 200)
            assert pts.shape == (200, s.dim)
            for p in pts:
                assert s.contains(p, tol=1e-9)

    def test_single_sample_shape(self):
        rng = np.random.default_rng(22)
        assert Box([0.0], [1.0]).sample(rng).shape == (1,)
        assert Simplex(2).sample(rng).shape == (2,)

    def test_cone_sampling_unsupported(self):
        rng = np.random.default_rng(23)
        with pytest.raises(UnsupportedVariant):
            PolyhedralCone(np.eye(2)).sample(rng)

    def test_bounding_box_contains_samples(self):
        rng = np.random.default_rng(24)
        for s in (Ball([0.3, -0.2], 1.1), TRIANGLE, Simplex(2)):
            lo, hi = s.bounding_box()
            pts = s.sample(rng, 100)
            assert (pts >= lo - 1e-9).all() and (pts <= hi + 1e-9).all()


class TestSegmentDistance:
    def test_on_segment(self):
        assert segment_distance([1.0, 0.0], [0.0, 0.0], [2.0, 0.0]) == 0.0

    def test_perpendicular_drop(self):
        assert segment_distance([1.0, 1.0], [0.0, 0.0], [2.0, 0.0]) == pytest.approx(1.0)

    def test_clamped_to_endpoint(self):
        assert segment_distance([-1.0, 0.0], [0.0, 0.0], [2.0, 0.0]) == pytest.approx(1.0)

    def test_degenerate_segment(self):
        assert segment_distance([3.0, 4.0], [0.0, 0.0], [0.0, 0.0]) == pytest.approx(5.0)


class TestSpan:
    """``span()``: orthonormal columns spanning the directions x - y of the set."""

    @staticmethod
    def _assert_spans(basis, directions):
        np.testing.assert_allclose(basis.T @ basis, np.eye(basis.shape[1]), atol=1e-12)
        # every direction lies in the span, and the span has no extra dimension
        d = np.atleast_2d(directions)
        np.testing.assert_allclose(d - (d @ basis) @ basis.T, 0.0, atol=1e-12)
        assert basis.shape[1] == np.linalg.matrix_rank(d, tol=1e-9)

    def test_box_drops_pinned_coordinates(self):
        box = Box([0.0, 2.0, -1.0], [1.0, 2.0, 1.0])
        np.testing.assert_array_equal(box.span(), np.eye(3)[:, [0, 2]])
        assert Box([1.0], [1.0]).span().shape == (1, 0)

    def test_ball_spans_everything(self):
        np.testing.assert_array_equal(Ball([0.0, 1.0], 0.5).span(), np.eye(2))

    @pytest.mark.parametrize("dim", [1, 2, 3, 5])
    def test_simplex_directions_sum_to_zero(self, dim):
        basis = Simplex(dim).span()
        assert basis.shape == (dim, dim - 1)
        np.testing.assert_allclose(np.ones(dim) @ basis, 0.0, atol=1e-12)
        v = Simplex(dim).vertices()
        if dim > 1:
            self._assert_spans(basis, v[1:] - v[0])

    def test_hpolytope_spans_its_edges(self):
        rng = np.random.default_rng(5)
        for dim in (1, 2, 3):
            K = random_hpolytope(rng, dim)
            v = K.vertices()
            self._assert_spans(K.span(), v[1:] - v[0])
        # a segment in the plane spans one direction
        segment = HPolytope([[1.0, 1.0], [-1.0, -1.0], [1.0, 0.0], [-1.0, 0.0]], [1.0, -1.0, 1.0, 0.0])
        self._assert_spans(segment.span(), [[1.0, -1.0]])

    def test_a_cone_does_not_report_its_span(self):
        with pytest.raises(UnsupportedVariant):
            PolyhedralCone([[1.0, 0.0], [0.0, 1.0]]).span()


def _in_image(K, g, p):
    """Whether p lies in g(K): the range check of the constant map p against g.

    For a g with a closed-form inverse this decides ``g^-1(p)`` in K; any
    other g takes the sampled check, with its preimage search.
    """
    f = Constant(p, in_dim=K.dim)
    cfg = SampleConfig(seed=3, samples=50, tol=1e-9)
    rep = affine_range_inclusion(f, g, K, cfg.tol) or check_range_inclusion(f, g, K, cfg)
    return rep.verdict != "violated"


class TestAffineImage:
    """Membership in the image g(K) of an affine g, decided without building g(K)."""

    def test_interval_scaling(self):
        K, g = Box([0.0], [1.0]), Affine([[2.0]])
        assert _in_image(K, g, [0.0]) and _in_image(K, g, [2.0]) and _in_image(K, g, [1.3])
        assert not _in_image(K, g, [2.1])

    def test_box_translation(self):
        K, g = Box([0.0, 0.0], [1.0, 1.0]), Affine(np.eye(2), [1.0, 1.0])
        for p in ([1.0, 1.0], [2.0, 2.0], [1.5, 1.7]):
            assert _in_image(K, g, p)
        assert not _in_image(K, g, [0.9, 1.0])

    def test_simplex_image_is_mapped_hull(self):
        # vertices e1, e2 map to (1,0) and (0,2); the image is that segment
        g = Affine([[1.0, 0.0], [0.0, 2.0]])
        rng = np.random.default_rng(31)
        for q in g(Simplex(2).sample(rng, 20)):
            assert _in_image(Simplex(2), g, q)
        assert _in_image(Simplex(2), g, [0.5, 1.0])
        assert not _in_image(Simplex(2), g, [0.5, 0.5])
        assert not _in_image(Simplex(2), g, [1.2, 0.0])

    def test_parallelogram_image(self):
        K, g = Box([0.0, 0.0], [1.0, 1.0]), Affine([[1.0, 0.0], [1.0, 1.0]])
        for p in ([0.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 2.0], [0.5, 1.0]):
            assert _in_image(K, g, p)
        for p in ([1.0, 0.0], [0.0, 2.0]):
            assert not _in_image(K, g, p)

    def test_rank_deficient_to_point(self):
        K, g = Box([0.0], [1.0]), Affine([[0.0]], [3.0])
        assert _in_image(K, g, [3.0])
        assert not _in_image(K, g, [3.1])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            _in_image(Box([0.0], [1.0]), Identity(1), [0.0, 0.0])

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_closed_form_matches_the_hull(self, dim):
        # p lies in {N v <= b} mapped by v -> M v + c exactly when M^-1 (p - c)
        # does, which the range check decides with no hull facet
        hull = geometry_module._hull_halfspaces
        rng = np.random.default_rng(600 + dim)
        for case in range(8):
            K = random_box(rng, dim) if case % 2 == 0 else _cut_box(rng, dim)
            m = _nonsingular(rng, dim)
            c = rng.normal(size=dim)
            mapped = K.vertices() @ m.T + c
            reference = HPolytope(*hull(mapped))
            lo, hi = reference.bounding_box()
            inside = rng.dirichlet(np.ones(len(mapped)), 8) @ mapped
            for p in np.vstack([inside, rng.uniform(lo - 0.5, hi + 0.5, size=(8, dim))]):
                d = reference.distance(p)
                if 0.0 < d < 1e-6:
                    continue  # too close to the boundary for either test to settle
                assert _in_image(K, Affine(m, c), p) == (d == 0.0)


def _cut_box(rng, dim):
    """A random box cut by one random halfspace that keeps its center."""
    box = random_box(rng, dim)
    n = rng.normal(size=dim)
    center = 0.5 * (box.lower + box.upper)
    reach = 0.5 * np.abs(n) @ (box.upper - box.lower)
    eye = np.eye(dim)
    return HPolytope(
        np.vstack([eye, -eye, n]),
        np.concatenate([box.upper, -box.lower, [n @ center + rng.uniform(0.0, 0.8) * reach]]),
    )


def _nonsingular(rng, dim):
    while True:
        m = rng.normal(size=(dim, dim))
        if np.linalg.cond(m) < 1e3:
            return m


def _assert_same_points(got, expected, tol):
    assert len(got) == len(expected)
    for p in got:
        assert np.min(np.linalg.norm(expected - p, axis=1)) <= tol
    for p in expected:
        assert np.min(np.linalg.norm(got - p, axis=1)) <= tol


class TestSerialization:
    def test_round_trip_all_variants(self):
        rng = np.random.default_rng(41)
        sets = [
            Box([-1.0, 0.5], [0.0, 2.0]),
            Ball([0.1, 0.2, 0.3], 1.5),
            Simplex(4),
            TRIANGLE,
            PolyhedralCone([[1.0, 0.0], [0.0, 1.0]]),
        ]
        for s in sets:
            t = set_from_dict(s.to_dict())
            assert type(t) is type(s) and t.dim == s.dim
            x = rng.uniform(-2, 2, size=s.dim)
            np.testing.assert_allclose(t.project(x), s.project(x), atol=1e-9)

    def test_unknown_type(self):
        with pytest.raises(UnsupportedVariant):
            set_from_dict({"type": "octagon"})


class TestProjectionAxioms:
    @given(_coords(3))
    @settings(max_examples=60, deadline=None)
    def test_box_idempotent_hypothesis(self, x):
        box = Box([-1.0, 0.0, 2.0], [1.0, 0.5, 3.0])
        p = box.project(x)
        np.testing.assert_allclose(box.project(p), p, atol=2e-10)

    @given(_coords(2), _coords(2))
    @settings(max_examples=60, deadline=None)
    def test_ball_nonexpansive_hypothesis(self, x, y):
        ball = Ball([0.25, -0.5], 1.25)
        px, py = ball.project(x), ball.project(y)
        assert np.linalg.norm(px - py) <= np.linalg.norm(x - y) + 2e-10

    @given(_coords(3))
    @settings(max_examples=60, deadline=None)
    def test_simplex_variational_hypothesis(self, x):
        s = Simplex(3)
        p = s.project(x)
        for z in (np.eye(3)[0], np.eye(3)[2], np.full(3, 1 / 3)):
            assert (x - p) @ (z - p) <= 1e-10 * max(1.0, np.linalg.norm(x - p))


# Halfspace rows of cone(G), G a matrix whose columns are the generators,
# computed by enumerating the rank - 1 subsets of the generators: pointed
# cones, cones containing a line, and cones that fill their span, in
# dimensions 1-4.
_CONE_ROWS = {
    "ray-1d": (
        [[2.0]],
        [[-1.0]],
    ),
    "line-1d": (
        [[1.0, -1.0]],
        [],
    ),
    "orthant-2d": (
        [[1.0, 0.0], [0.0, 1.0]],
        [[0.0, -1.0], [-1.0, 0.0]],
    ),
    "pointed-2d": (
        [[1.0, 2.0, 3.0], [2.0, 1.0, 2.0]],
        [[-0.8944271909999159, 0.44721359549995804], [0.44721359549995787, -0.8944271909999159]],
    ),
    "halfplane-2d": (
        [[1.0, -1.0, 0.0], [0.0, 0.0, 1.0]],
        [[0.0, -1.0]],
    ),
    "filling-2d": (
        [[1.0, 0.0, -1.0], [0.0, 1.0, -1.0]],
        [],
    ),
    "ray-2d": (
        [[1.0], [1.0]],
        [[-0.7071067811865475, 0.7071067811865476], [0.7071067811865475, -0.7071067811865476], [-0.7071067811865474, -0.7071067811865476]],
    ),
    "orthant-3d": (
        [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
        [[0.0, 0.0, -1.0], [0.0, -1.0, 0.0], [-1.0, 0.0, 0.0]],
    ),
    "pyramid-3d": (
        [[1.0, 0.0, -1.0, 0.0], [0.0, 1.0, 0.0, -1.0], [1.0, 1.0, 1.0, 1.0]],
        [[0.5773502691896257, 0.5773502691896258, -0.5773502691896258], [0.5773502691896257, -0.5773502691896258, -0.5773502691896258], [-0.5773502691896256, 0.5773502691896258, -0.5773502691896258], [-0.5773502691896257, -0.5773502691896258, -0.5773502691896258]],
    ),
    "line-quadrant-3d": (
        [[1.0, -1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]],
        [[0.0, 0.0, -1.0], [0.0, -1.0, 0.0]],
    ),
    "filling-3d": (
        [[1.0, 0.0, 0.0, -1.0], [0.0, 1.0, 0.0, -1.0], [0.0, 0.0, 1.0, -1.0]],
        [],
    ),
    "planar-3d": (
        [[1.0, 1.0], [0.0, 1.0], [0.0, 0.0]],
        [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [0.0, -1.0, 0.0], [-0.7071067811865476, 0.7071067811865476, 0.0]],
    ),
    "ray-3d": (
        [[1.0], [2.0], [2.0]],
        [[-0.6666666666666666, 0.6666666666666667, -0.3333333333333333], [0.6666666666666666, -0.6666666666666667, 0.3333333333333333], [-0.6666666666666666, -0.3333333333333333, 0.6666666666666667], [0.6666666666666666, 0.3333333333333333, -0.6666666666666667], [-0.3333333333333333, -0.6666666666666667, -0.6666666666666667]],
    ),
    "orthant-4d": (
        [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]],
        [[0.0, 0.0, 0.0, -1.0], [0.0, 0.0, -1.0, 0.0], [0.0, -1.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0]],
    ),
    "plane-ray-4d": (
        [[1.0, -1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, -1.0, 0.0], [0.0, 0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 0.0, 0.0, 0.0]],
        [[0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 0.0, -1.0], [0.0, 0.0, -1.0, 0.0]],
    ),
    "filling-4d": (
        [[1.0, 0.0, 0.0, 0.0, -1.0, -0.0, -0.0, -0.0], [0.0, 1.0, 0.0, 0.0, -0.0, -1.0, -0.0, -0.0], [0.0, 0.0, 1.0, 0.0, -0.0, -0.0, -1.0, -0.0], [0.0, 0.0, 0.0, 1.0, -0.0, -0.0, -0.0, -1.0]],
        [],
    ),
    "planar-4d": (
        [[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]],
        [[-0.7071067811865475, 0.0, 0.7071067811865476, 0.0], [0.7071067811865475, 0.0, -0.7071067811865476, 0.0], [0.0, -0.7071067811865475, 0.0, 0.7071067811865476], [0.0, 0.7071067811865475, 0.0, -0.7071067811865476], [0.0, -0.7071067811865474, 0.0, -0.7071067811865476], [-0.7071067811865474, 0.0, -0.7071067811865476, 0.0]],
    ),
    "simplicial-4d": (
        [[1.0, 1.0, 1.0, 1.0], [0.0, 1.0, 1.0, 1.0], [0.0, 0.0, 1.0, 1.0], [0.0, 0.0, 0.0, 1.0]],
        [[0.0, 0.0, 0.0, -1.0], [0.0, 0.0, -0.7071067811865476, 0.7071067811865476], [0.0, -0.7071067811865476, 0.7071067811865475, 0.0], [-0.7071067811865476, 0.7071067811865475, 0.0, 0.0]],
    ),
}


def _split_pinned(rows):
    """Facet rows, and the rows whose negation is also a row (the pins of the span)."""
    rows = np.asarray(rows, dtype=float)
    pinned = np.array([np.min(np.linalg.norm(rows + r, axis=1)) <= 1e-9 for r in rows], bool)
    return rows[~pinned], rows[pinned]


def _span_projector(rows, dim):
    if len(rows) == 0:
        return np.zeros((dim, dim))
    _, s, vt = np.linalg.svd(rows)
    basis = vt[: int(np.sum(s > 1e-9))]
    return basis.T @ basis


@pytest.mark.parametrize("name", sorted(_CONE_ROWS))
def test_cone_rows_match_the_generator_enumeration(name):
    gens, expected = _CONE_ROWS[name]
    dim = len(gens)
    normals, offsets = geometry_module._cone_halfspaces(np.array(gens))
    assert normals.shape[1] == dim and np.all(offsets == 0.0)
    np.testing.assert_allclose(np.linalg.norm(normals, axis=1), 1.0, atol=1e-12)
    got_facets, got_pins = _split_pinned(normals)
    want_facets, want_pins = _split_pinned(np.reshape(expected, (-1, dim)))
    _assert_same_points(got_facets.reshape(-1, dim), want_facets.reshape(-1, dim), 1e-9)
    # the pins of a span of codimension 2 or more are one basis among many
    # of its complement, so they agree as a subspace; with codimension 1
    # they are the same pair of rows
    if dim - np.linalg.matrix_rank(np.array(gens)) <= 1:
        _assert_same_points(got_pins.reshape(-1, dim), want_pins.reshape(-1, dim), 1e-9)
    np.testing.assert_allclose(_span_projector(got_pins, dim), _span_projector(want_pins, dim), atol=1e-9)


# ------------------------------------------------ batched subset enumeration
#
# The per-subset loops that the stacked LAPACK calls replaced, kept verbatim
# as the reference: the batched construction must give the same vertices,
# verdicts and hull rows bit for bit.


def _loop_dedup(rows, tol):
    kept = []
    for r in rows:
        if all(np.linalg.norm(r - k) > tol for k in kept):
            kept.append(r)
    return kept


def _loop_vertices(normals, offsets, dim):
    verts = []
    for idx in itertools.combinations(range(normals.shape[0]), dim):
        sub = normals[list(idx)]
        s = np.linalg.svd(sub, compute_uv=False)
        if s[-1] <= 1e-10 * max(s[0], 1.0):
            continue
        x = np.linalg.solve(sub, offsets[list(idx)])
        if np.max(normals @ x - offsets) <= 1e-9:
            verts.append(x)
    verts.sort(key=lambda v: tuple(v))
    return _loop_dedup(verts, 1e-9)


def _loop_recession_ray(normals, dim):
    null_space = geometry_module._null_space
    if null_space(normals).shape[1] > 0:
        return True
    for idx in itertools.combinations(range(normals.shape[0]), dim - 1):
        ns = null_space(normals[list(idx)])
        if ns.shape[1] != 1:
            continue
        d = ns[:, 0]
        for cand in (d, -d):
            if np.max(normals @ cand) <= 1e-9:
                return True
    return False


def _loop_hull(points):
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n, d = pts.shape
    center = pts.mean(axis=0)
    q = pts - center
    _, s, vt = np.linalg.svd(q, full_matrices=True)
    rank = int(np.sum(s > 1e-10 * max(s[0], 1.0)))
    rows, offsets = [], []
    for j in range(rank, d):
        rows += [vt[j], -vt[j]]
        offsets += [float(vt[j] @ center), -float(vt[j] @ center)]
    basis = vt[:rank].T
    coords = q @ basis
    side_tol = 1e-9 * (1.0 + float(np.max(np.abs(coords))))
    if rank == 1:
        t, b0 = coords[:, 0], basis[:, 0]
        rows += [b0, -b0]
        offsets += [float(t.max()) + float(b0 @ center), -float(t.min()) - float(b0 @ center)]
        return np.array(rows), np.array(offsets)
    facets = []
    for idx in itertools.combinations(range(n), rank):
        sub = coords[list(idx)]
        ns = geometry_module._null_space(sub[1:] - sub[0])
        if ns.shape[1] != 1:
            continue
        nrm = ns[:, 0]
        c = float(nrm @ sub[0])
        vals = coords @ nrm - c
        if np.max(vals) <= side_tol:
            facets.append((nrm, c))
        elif np.min(vals) >= -side_tol:
            facets.append((-nrm, -c))
    seen = []
    for nrm, c in facets:
        key = np.concatenate([nrm, [c]])
        if any(np.linalg.norm(key - k) <= 1e-9 for k in seen):
            continue
        seen.append(key)
        rows.append(basis @ nrm)
        offsets.append(c + float((basis @ nrm) @ center))
    return np.array(rows), np.array(offsets)


def _loop_hpolytope(normals, offsets):
    """The constructor's verdict by the loops: an exception type or the vertices."""
    a, b = np.asarray(normals, dtype=float), np.asarray(offsets, dtype=float)
    norms = np.linalg.norm(a, axis=1)
    un, ub = a / norms[:, None], b / norms
    if _loop_recession_ray(un, a.shape[1]):
        return UnboundedSet
    verts = _loop_vertices(un, ub, a.shape[1])
    return np.array(verts) if verts else EmptySet


def _assert_construction_matches_the_loops(normals, offsets):
    normals, offsets = np.asarray(normals, dtype=float), np.asarray(offsets, dtype=float)
    dim = normals.shape[1]
    un = normals / np.linalg.norm(normals, axis=1)[:, None]
    ub = offsets / np.linalg.norm(normals, axis=1)
    assert geometry_module._has_recession_ray(un, dim) == _loop_recession_ray(un, dim)
    got = geometry_module._enumerate_polytope_vertices(un, ub, dim)
    want = _loop_vertices(un, ub, dim)
    assert np.array_equal(np.array(got), np.array(want))
    expected = _loop_hpolytope(normals, offsets)
    if isinstance(expected, type):
        with pytest.raises(expected):
            HPolytope(normals, offsets)
    else:
        assert np.array_equal(HPolytope(normals, offsets)._vertices, expected)
    return expected


_SMALL = st.integers(-2, 2).map(float)
_REAL = st.floats(-2.0, 2.0, allow_nan=False, allow_subnormal=False)


@st.composite
def _halfspace_systems(draw):
    """Halfspaces in 1-4 dimensions, often degenerate.

    Small integer normals put more than d facets through one vertex and
    make parallel facets; a box prefix keeps many of the sets bounded; a
    scaled copy of a row is a duplicate facet after normalization.  The
    rest are unbounded or empty.
    """
    dim = draw(st.integers(1, 4))
    entry = draw(st.sampled_from([_SMALL, _REAL]))
    rows, offsets = [], []
    if draw(st.booleans()):
        for i in range(dim):
            rows += [np.eye(dim)[i], -np.eye(dim)[i]]
            offsets += [1.0, 1.0]
    for _ in range(draw(st.integers(1 if not rows else 0, 4 if dim < 4 else 3))):
        row = np.array(draw(st.lists(entry, min_size=dim, max_size=dim)))
        if np.linalg.norm(row) > 1e-3:
            rows.append(row)
            offsets.append(draw(st.sampled_from([-1.0, 0.0, 0.5, 1.0])) * draw(st.sampled_from([1.0, 0.3])))
    if not rows:
        rows, offsets = [np.eye(dim)[0]], [1.0]
    if draw(st.booleans()):
        j = draw(st.integers(0, len(rows) - 1))
        rows.append(draw(st.sampled_from([1.0, 2.5])) * rows[j])
        offsets.append(rows[-1][0] / rows[j][0] * offsets[j] if rows[j][0] else offsets[j])
    return np.array(rows), np.array(offsets)


class TestBatchedEnumeration:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(_halfspace_systems())
    def test_construction_matches_the_subset_loops(self, system):
        _assert_construction_matches_the_loops(*system)

    def test_the_property_covers_every_outcome(self):
        # one fixed case of each outcome the strategy is meant to reach
        cube = [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]
        # three facets through the vertex (1, 1) and a duplicate facet
        degenerate = _assert_construction_matches_the_loops(
            cube + [[1.0, 1.0], [2.0, 2.0]], [1.0, 1.0, 1.0, 1.0, 2.0, 4.0]
        )
        assert len(degenerate) == 4
        assert _assert_construction_matches_the_loops(cube[:3], [1.0, 1.0, 1.0]) is UnboundedSet
        assert _assert_construction_matches_the_loops(cube + [[1.0, 1.0]], [1.0] * 4 + [-3.0]) is EmptySet
        # parallel facets: x <= 1 twice over and x <= 0.5
        parallel = _assert_construction_matches_the_loops(
            cube + [[1.0, 0.0]], [1.0, 1.0, 1.0, 1.0, 0.5]
        )
        assert np.array_equal(parallel, [[-1.0, -1.0], [-1.0, 1.0], [0.5, -1.0], [0.5, 1.0]])

    @pytest.mark.parametrize(
        "name", ["cut-5-cube", "6-simplex-with-duplicate", "6-orthant", "empty-5", "cut-6-box"]
    )
    def test_five_and_six_dimensions_match_the_subset_loops(self, name):
        rng = np.random.default_rng(sum(map(ord, name)))
        if name == "cut-5-cube":
            # the cut sum(x) <= 1 puts six facets through each unit vector
            eye = np.eye(5)
            normals = np.vstack([eye, -eye, np.ones((1, 5))])
            offsets = np.r_[np.ones(5), np.zeros(5), 1.0]
        elif name == "6-simplex-with-duplicate":
            normals = np.vstack([-np.eye(6), np.ones((2, 6))])
            offsets = np.r_[np.zeros(6), 1.0, 1.0]
        elif name == "6-orthant":
            normals, offsets = -np.eye(6), np.zeros(6)
        elif name == "empty-5":
            normals = np.vstack([-np.eye(5), np.ones((1, 5))])
            offsets = np.r_[np.zeros(5), -1.0]
        else:
            eye, cuts = np.eye(6), rng.normal(size=(2, 6))
            normals = np.vstack([eye, -eye, cuts])
            offsets = np.r_[np.ones(12), 0.3 * np.linalg.norm(cuts, axis=1)]
        expected = _assert_construction_matches_the_loops(normals, offsets)
        want = {"6-orthant": UnboundedSet, "empty-5": EmptySet}.get(name)
        assert expected is want if want else len(expected) > normals.shape[1]

    @pytest.mark.parametrize("dim", [5, 6])
    def test_a_vertex_on_nineteen_facets_is_kept_once(self, dim):
        # a pyramid over a (dim - 1)-cube cut by random halfspaces through
        # its centre: the apex lies on all 19 lateral facets, so C(19, dim)
        # row subsets give a copy of it (27,132 at dim 6)
        rng = np.random.default_rng(dim)
        eye = np.eye(dim - 1)
        base = np.vstack([eye, -eye, rng.normal(size=(19 - 2 * (dim - 1), dim - 1))])
        normals = np.vstack([np.hstack([base, np.ones((19, 1))]), -np.eye(dim)[-1]])
        offsets = np.r_[np.ones(19), 0.0]
        if dim == 5:
            _assert_construction_matches_the_loops(normals, offsets)
        # the vertices are those of the base, at height 0, and the apex
        floor = HPolytope(base, np.ones(19)).vertices()
        want = np.vstack([np.hstack([floor, np.zeros((len(floor), 1))]), np.eye(dim)[-1]])
        got = HPolytope(normals, offsets).vertices()
        apart = np.linalg.norm(got[:, None] - want[None], axis=2)
        assert len(got) == len(want)
        assert np.all(apart.min(axis=0) < 1e-9) and np.all(apart.min(axis=1) < 1e-9)

    def test_duplicate_rows_are_dropped_in_linear_memory(self):
        rows = [np.full(6, 0.5)] * 4000 + [np.zeros(6)]
        tracemalloc.start()
        kept = geometry_module._dedup_rows(rows, 1e-9)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert np.array_equal(kept, [np.full(6, 0.5), np.zeros(6)])
        # a 4000 x 4000 array of pairwise distances alone would take 128 MB
        assert peak < 2_000_000

    def test_blocks_of_subsets_join_in_order(self, monkeypatch):
        # subsets come in blocks; blocks of 2 must give what one block gives
        monkeypatch.setattr(geometry_module, "_SUBSET_BLOCK", 2)
        eye = np.eye(3)
        # four facets of the cut cube meet at (1, 0, 1) and at (0, 1, 1)
        cube = np.vstack([eye, -eye, [[1.0, 1.0, 1.0], [1.0, 1.0, 0.0]]])
        vertices = _assert_construction_matches_the_loops(cube, np.r_[np.ones(6), 2.0, 1.0])
        assert len(vertices) > 3
        assert _assert_construction_matches_the_loops(cube[:5], np.ones(5)) is UnboundedSet
        gens = np.array([[1.0, 0.0, 1.0, 2.0], [0.0, 1.0, 1.0, -1.0], [1.0, 1.0, 0.0, 0.5]])
        points = np.vstack([np.zeros(3), gens.T])
        got, want = geometry_module._hull_halfspaces(points), _loop_hull(points)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(
        st.integers(1, 4).flatmap(
            lambda dim: st.tuples(
                st.just(dim),
                st.integers(1, 5),
                st.sampled_from([_SMALL, _REAL]),
                st.booleans(),
            )
        ),
        st.data(),
    )
    def test_cone_hull_rows_match_the_subset_loops(self, shape, data):
        dim, count, entry, repeat = shape
        gens = np.array(data.draw(st.lists(
            st.lists(entry, min_size=dim, max_size=dim).filter(lambda g: any(g)),
            min_size=count, max_size=count,
        ))).T
        if repeat:
            gens = np.hstack([gens, 2.0 * gens[:, :1]])
        points = np.vstack([np.zeros(dim), gens.T])
        got_rows, got_offsets = geometry_module._hull_halfspaces(points)
        want_rows, want_offsets = _loop_hull(points)
        assert np.array_equal(got_rows, want_rows)
        assert np.array_equal(got_offsets, want_offsets)
