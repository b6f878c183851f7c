"""Soundness of the gap certificate: a wrong answer must not certify.

The gap ``min_{y in K} <A(x), a(y) - a(x)>`` is a linear minimization, so
on every bounded set variant it is computed through
``ConvexSet.linear_min`` rather than over sampled probes.  Most cases
are ones a sampled gap would score ``0.0`` and so certify; the last ones
pin that a declared image that misses ``a(K)`` never stands in for it:
a map with no affine form minimizes over its interval enclosure on K's
bounding box, which holds ``a(K)`` whatever the image says.
"""

import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_ball, random_box, random_hpolytope, random_simplex
from gvikit import (
    Affine,
    Ball,
    Box,
    Compose,
    Constant,
    Difference,
    GviProblem,
    Identity,
    PointwiseNonlinear,
    PolyhedralCone,
    Scale,
    Simplex,
    Sum,
    UnsupportedVariant,
    gvi_gap,
)
from gvikit.cli import main
from gvikit.demos import DEMOS
from gvikit.gvi import ImageConsistencyWarning, _linear_minimizer
from gvikit.schema import parse_problem, validate
from gvikit.vi import solve_extragradient

FIXTURES = Path(__file__).resolve().parent / "fixtures"

_FACTORIES = {
    "box": random_box,
    "ball": random_ball,
    "simplex": random_simplex,
    "hpolytope": random_hpolytope,
}


@given(
    kind=st.sampled_from(sorted(_FACTORIES)),
    dim=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
@settings(derandomize=True, max_examples=80, deadline=None)
def test_linear_min_is_a_minimizer(kind, dim, seed):
    rng = np.random.default_rng(seed)
    K = _FACTORIES[kind](rng, dim)
    g = rng.normal(size=dim)
    y = K.linear_min(g)
    assert K.contains(y)
    others = [K.sample(rng, 256)]
    if kind != "ball":
        others.append(K.vertices())
    assert g @ y <= np.min(np.vstack(others) @ g) + 1e-12


@pytest.mark.parametrize(
    "K, g, want",
    [
        (Box([0.0, -1.0], [2.0, 1.0]), [1.0, 0.0], [0.0, -1.0]),
        (Ball([1.0, 1.0], 2.0), [0.0, 0.0], [1.0, 1.0]),
        (Ball([1.0, 1.0], 2.0), [0.0, -3.0], [1.0, 3.0]),
    ],
)
def test_linear_min_ties_and_zero_directions(K, g, want):
    np.testing.assert_array_equal(K.linear_min(np.array(g)), want)


def test_simplex_linear_min_takes_the_first_tied_vertex():
    np.testing.assert_array_equal(Simplex(3).linear_min([0.5, -1.0, -1.0]), [0.0, 1.0, 0.0])


def test_cone_has_no_linear_minimizer():
    with pytest.raises(UnsupportedVariant):
        PolyhedralCone(np.eye(2)).linear_min([1.0, 1.0])


@pytest.mark.parametrize("n", [7, 10, 30])
def test_box_gap_sees_the_lower_face_in_high_dimension(n):
    # every coordinate but x_0 sits on the lower face, and a constant
    # positive A prices moving x_0 from -0.5 down to -1 at -0.5
    K = Box(-np.ones(n), np.ones(n))
    problem = GviProblem(A=Constant(np.ones(n), in_dim=n), a=Identity(n), K=K, image_aK=K)
    x = -np.ones(n)
    x[0] = -0.5
    assert gvi_gap(problem, x) == pytest.approx(-0.5, abs=1e-12)


@pytest.mark.parametrize("n", [2, 3, 6])
def test_ball_gap_sees_a_slightly_tilted_operator(n):
    # at the boundary point e_0 an operator tilted by t from the inward
    # normal has the exact gap cos(t) - 1, about -t^2 / 2
    t = 3e-3
    K = Ball(np.zeros(n), 1.0)
    value = np.zeros(n)
    value[:2] = [-np.cos(t), np.sin(t)]
    problem = GviProblem(A=Constant(value, in_dim=n), a=Identity(n), K=K, image_aK=K)
    x = np.eye(n)[0]
    assert gvi_gap(problem, x) == pytest.approx(np.cos(t) - 1.0, rel=1e-6)
    assert gvi_gap(problem, x) < -4.4e-6


def test_affine_gap_minimizes_over_the_image_of_K():
    # a(K) = [0, 2] inside the declared image [-5, 5]: the gap is exact
    # over a(K), not a looser bound over the declared image
    K = Box([0.0], [1.0])
    problem = GviProblem(
        A=Constant(np.array([1.0]), in_dim=1),
        a=Affine(np.array([[2.0]]), np.zeros(1)),
        K=K,
        image_aK=Box([-5.0], [5.0]),
    )
    assert gvi_gap(problem, np.array([0.5])) == pytest.approx(-1.0, abs=1e-15)


def test_cube_ladder_rung_with_a_shrunken_step_is_not_certified(capsys):
    # the n = 10 cube rung stops on a small residual at a step that
    # backtracking shrank; its exact gap is -2.57e-5
    code = main(["certify", str(FIXTURES / "cube-10-max-iter-3000.json"), "--quiet"])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    assert report["exit_status"] != "certified"
    assert report["gap_kind"] == "exact"
    assert report["residuals"]["gap"] == pytest.approx(-2.57e-5, rel=1e-2)


@pytest.mark.parametrize("upper", [0.5, 0.999])
def test_a_declared_image_that_misses_a_of_K_is_not_minimized_over(capsys, tmp_path, upper):
    # a(x) = x^3 maps [0, 1] onto [0, 1], past the declared image [0, upper].
    # With A = -1 the reduced solve stops at u = upper, which y = 1 prices
    # at upper - 1; at 0.999 only the vertex y = 1 maps past the image.
    data = {
        "version": "1",
        "kind": "gvi",
        "operators": {
            "A": {"op": "constant", "value": [-1.0], "in_dim": 1},
            "a": {"op": "pointwise", "kind": "cube", "dim": 1},
        },
        "set": {"type": "box", "lower": [0.0], "upper": [1.0]},
        "image_set": {"type": "box", "lower": [0.0], "upper": [upper]},
        "seed": 3,
    }
    assert [d["pointer"] for d in validate(data)] == ["/image_set"]
    path = tmp_path / "cube.json"
    path.write_text(json.dumps(data))
    with pytest.warns(ImageConsistencyWarning):
        code = main(["certify", str(path), "--quiet"])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    assert report["exit_status"] != "certified"
    assert report["residuals"]["gap"] == pytest.approx(upper - 1.0, abs=1e-6)
    # the gap runs over the cube's enclosure [0, 1] of K, which is a(K)
    assert report["gap_kind"] == "exact"
    assert report["oracle"] == {"skipped": "the gap is exact, so no grid can refute it"}


def _nonlinear_maps(rng, dim):
    """Maps with no affine form, one per way ``enclosure`` combines its children."""
    square, cube = PointwiseNonlinear("square", dim), PointwiseNonlinear("cube", dim)
    shear = Affine(rng.normal(size=(dim, dim)), rng.normal(size=dim))
    return [
        *(PointwiseNonlinear(kind, dim) for kind in ("cube", "tanh", "sigmoid", "square")),
        Scale(-1.5, square),
        Sum(PointwiseNonlinear("tanh", dim), shear),
        Difference(square, cube),
        Compose(PointwiseNonlinear("sigmoid", dim), shear),
        Compose(cube, Sum(shear, Scale(0.5, square))),
        Compose(Affine(rng.normal(size=(dim + 1, dim))), square),  # into R^(dim+1)
    ]


@given(
    kind=st.sampled_from(sorted(_FACTORIES)),
    dim=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
@settings(derandomize=True, max_examples=60, deadline=None)
def test_enclosure_holds_a_of_K(kind, dim, seed):
    rng = np.random.default_rng(seed)
    K = _FACTORIES[kind](rng, dim)
    pts = [K.sample(rng, 256)]
    if kind != "ball":
        pts.append(K.vertices())
    pts = np.vstack(pts)
    for a in _nonlinear_maps(rng, dim):
        lo, hi = a.enclosure(*K.bounding_box())
        vals = a(pts)
        slack = 1e-12 * (1.0 + np.abs(vals))
        assert np.all(lo - slack <= vals) and np.all(vals <= hi + slack), a.to_dict()


def test_a_square_image_that_misses_zero_inside_K_is_refuted(capsys):
    # the declared image [9e-5, 1] misses a(0) = 0 inside K = [-1, 1], and
    # every sampled point of the image check maps inside it; the reduced
    # solve stops at x = 0.00949 with a(x) = 9e-5, which y = 0 prices at -9e-5
    code = main(["certify", str(FIXTURES / "square-image-misses-zero.json"), "--quiet"])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    assert report["exit_status"] != "certified"
    assert report["gap_kind"] == "exact"
    assert report["residuals"]["gap"] == pytest.approx(-9.0e-5, rel=1e-3)


def _image_box_gap(problem, x):
    """The gap minimized over the declared image box, as before enclosures."""
    ax, gx = problem.a(x), problem.A(x)
    return min(0.0, float((problem.image_aK.linear_min(gx) - ax) @ gx))


def _square_demos():
    for name, entry in DEMOS.items():
        problem = parse_problem(entry["problem"])
        if entry["problem"]["operators"].get("a", {}).get("kind") == "square":
            ops = problem.operators
            yield name, GviProblem(
                A=ops["A"], a=ops["a"], K=problem.feasible_set, image_aK=problem.image_set
            )


def _cube_rungs():
    rng = np.random.default_rng(8)
    for n in (2, 10, 30):
        K = Box(-np.ones(n), np.ones(n))
        A = Affine(rng.normal(size=(n, n)), rng.uniform(-1.5, 1.5, size=n))
        yield f"cube-{n}", GviProblem(A=A, a=PointwiseNonlinear("cube", n), K=K, image_aK=K)


_IMAGE_IS_A_OF_K = [*_square_demos(), *_cube_rungs()]


@pytest.mark.parametrize(
    "problem", [p for _, p in _IMAGE_IS_A_OF_K], ids=[name for name, _ in _IMAGE_IS_A_OF_K]
)
def test_enclosure_gap_equals_the_declared_image_gap_bit_for_bit(problem):
    # where the declared image is a(K), its enclosure is the same box
    xs = problem.K.sample(np.random.default_rng(3), 16)
    for x in np.vstack([xs, *problem.K.bounding_box()]):
        assert gvi_gap(problem, x) == _image_box_gap(problem, x)


def test_a_non_box_K_gives_a_lower_bound(capsys, tmp_path):
    # the square maps the unit disc onto the triangle declared as the
    # image; its enclosure on the disc's bounding box is [0, 1]^2, which
    # holds a(K) but is larger, so the gap is a lower bound and no grid can
    # refute what it accepts
    data = {
        "version": "1",
        "kind": "gvi",
        "operators": {
            "A": {"op": "constant", "value": [1.0, 2.0], "in_dim": 2},
            "a": {"op": "pointwise", "kind": "square", "dim": 2},
        },
        "set": {"type": "ball", "center": [0.0, 0.0], "radius": 1.0},
        "image_set": {
            "type": "hpolytope", "normals": [[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]],
            "offsets": [0.0, 0.0, 1.0],
        },
        "seed": 5,
    }
    path = tmp_path / "disc.json"
    path.write_text(json.dumps(data))
    code = main(["certify", str(path), "--quiet"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["exit_status"] == "certified"
    assert (report["gap_kind"], report["reduction"]) == ("bound", "image")
    assert -1e-6 <= report["residuals"]["gap"] <= 0.0
    assert report["oracle"] == {"skipped": "the gap is a lower bound, so no grid can refute it"}


def test_an_overflowing_enclosure_is_unsupported():
    # the cube of 1e120 overflows, so no finite box holds a(K)
    problem = SimpleNamespace(a=PointwiseNonlinear("cube", 1), K=Box([0.0], [1e120]))
    with pytest.raises(UnsupportedVariant, match="enclosure of a on K overflows"):
        _linear_minimizer(problem)


def test_a_cone_K_is_rejected():
    # a gap minimized over the cone alone would read 0 at every point; the
    # cone belongs to the complementarity problem
    cone = PolyhedralCone(np.eye(2))
    for a in (Identity(2), PointwiseNonlinear("cube", 2)):
        with pytest.raises(UnsupportedVariant, match="K must be compact"):
            GviProblem(A=Identity(2), a=a, K=cone, image_aK=Box(np.zeros(2), np.ones(2)))


@given(dim=st.integers(2, 6), support=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
@settings(derandomize=True, max_examples=100, deadline=None)
def test_a_face_solved_simplex_vi_is_exact(dim, support, seed):
    # a strongly monotone affine F = M x + q on Simplex(dim) with a planted
    # solution x*: interior when support >= dim, else on the face of its
    # support, where q makes the KKT conditions hold with strictly positive
    # multipliers off the support
    rng = np.random.default_rng(seed)
    k = min(support, dim)
    on = rng.permutation(dim)[:k]
    x_star = np.zeros(dim)
    x_star[on] = 0.5 * rng.dirichlet(np.ones(k)) + 0.5 / k
    g = rng.normal(size=(dim, dim))
    m = np.eye(dim) + 0.3 * g @ g.T / dim + 0.5 * (g - g.T)
    mu = rng.uniform(0.1, 1.0, size=dim)
    mu[on] = 0.0
    q = rng.normal() + mu - m @ x_star
    rep = solve_extragradient(Affine(m, q), Simplex(dim))
    x = rep.solution
    # the projection lands on a vertex exactly, where no face solve is needed
    assert rep.stop_reason == "face_solve" or (k == 1 and np.array_equal(x, x_star))
    fx = m @ x + q
    # min over y in the simplex of <F(x), y - x> is taken at a vertex
    assert fx.min() - fx @ x >= -1e-9
    np.testing.assert_allclose(x, x_star, rtol=0, atol=1e-9)
