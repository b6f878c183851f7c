"""Sampled and analytic hypothesis checks."""

import warnings

import numpy as np
import pytest

from gvikit import (
    Affine,
    Ball,
    Box,
    Compose,
    Constant,
    Difference,
    HPolytope,
    Identity,
    PointwiseNonlinear,
    PropertyReport,
    Rotation,
    SampleConfig,
    Scale,
    Simplex,
    Sum,
    affine_nonexpansive,
    affine_range_inclusion,
    affine_relative_monotone,
    check_fiber_condition,
    check_g_nonexpansive,
    check_monotone_relative,
    check_ql,
    check_range_inclusion,
    fiber_factors,
    segment_distance,
)
from gvikit import gvi as gvi_module
from gvikit import operators as operators_module
from gvikit.errors import DimensionMismatch, InversionFailed
from gvikit.gvi import (
    GviProblem,
    InversionParams,
    check_selection_independence,
    preimage_candidates,
    select_preimage,
)

CFG = SampleConfig(seed=2024, samples=400)
SQUARE = PointwiseNonlinear("square", 1)
SYM_BOX = Box([-1.0], [1.0])
UNIT_BOX = Box([0.0, 0.0], [1.0, 1.0])


class TestMonotoneRelative:
    def test_plain_monotone_affine(self):
        op = Affine([[2.0, 1.0], [1.0, 2.0]])
        rep = check_monotone_relative(op, Identity(2), UNIT_BOX, CFG)
        assert rep.verdict == "holds_on_samples"
        assert rep.max_violation <= CFG.tol

    def test_reflection_is_not_monotone(self):
        op = Scale(-1.0, Identity(2))
        rep = check_monotone_relative(op, Identity(2), UNIT_BOX, CFG)
        assert rep.verdict == "violated"
        x, y = rep.witness
        inner = float((op(x) - op(y)) @ (x - y))
        assert -inner == pytest.approx(rep.max_violation)
        assert -inner > CFG.tol

    def test_square_monotone_on_positive_interval(self):
        rep = check_monotone_relative(SQUARE, Identity(1), Box([0.0], [1.0]), CFG)
        assert rep.verdict == "holds_on_samples"

    def test_square_not_monotone_on_symmetric_interval(self):
        # (x^2 - y^2)(x - y) = (x + y)(x - y)^2 turns negative when x + y < 0
        rep = check_monotone_relative(SQUARE, Identity(1), SYM_BOX, CFG)
        assert rep.verdict == "violated"
        x, y = rep.witness
        assert (x + y).item() < 0

    def test_relative_to_doubling(self):
        # g - f with f a rotation and g = 2x: <(2I - R)d, 2d> = 4|d|^2 >= 0
        g = Affine(2 * np.eye(2))
        diff = Affine(2 * np.eye(2) - np.array([[0.0, -1.0], [1.0, 0.0]]))
        rep = check_monotone_relative(diff, g, UNIT_BOX, CFG)
        assert rep.verdict == "holds_on_samples"

    def test_determinism(self):
        op = Scale(-1.0, Identity(2))
        r1 = check_monotone_relative(op, Identity(2), UNIT_BOX, CFG)
        r2 = check_monotone_relative(op, Identity(2), UNIT_BOX, CFG)
        assert r1.max_violation == r2.max_violation
        np.testing.assert_array_equal(r1.witness[0], r2.witness[0])


class TestAffineRelativeMonotone:
    def test_proven_for_worked_pair(self):
        m = [[2.0, -1.0], [0.0, 1.0]]
        g = [[1.0, 0.0], [1.0, 1.0]]
        rep = affine_relative_monotone(m, g)
        assert rep.verdict == "proven"

    def test_violated_with_reproducing_witness(self):
        rep = affine_relative_monotone([[-1.0]], [[1.0]])
        assert rep.verdict == "violated"
        d, origin = rep.witness
        inner = float((np.array([[-1.0]]) @ d) @ (np.array([[1.0]]) @ d))
        assert inner < -1e-9
        np.testing.assert_array_equal(origin, np.zeros(1))

    def test_agrees_with_sampled_check(self):
        rng = np.random.default_rng(77)
        box = Box([-1.0, -1.0, -1.0], [1.0, 1.0, 1.0])
        for _ in range(10):
            g_mat = np.eye(3) + 0.3 * rng.normal(size=(3, 3))
            s = rng.normal(size=(3, 3))
            psd = s.T @ s + 1e-3 * np.eye(3)
            indef = psd - (np.trace(psd)) * np.eye(3)
            for sym, expect in ((psd, "proven"), (indef, "violated")):
                m = np.linalg.solve(g_mat.T, sym)
                rep = affine_relative_monotone(m, g_mat)
                assert rep.verdict == expect
                sampled = check_monotone_relative(
                    Affine(m), Affine(g_mat), box, SampleConfig(seed=3, samples=300)
                )
                if expect == "proven":
                    assert sampled.verdict == "holds_on_samples"
                else:
                    assert sampled.verdict == "violated"

    def test_shape_validation(self):
        from gvikit import DimensionMismatch

        with pytest.raises(DimensionMismatch):
            affine_relative_monotone([[1.0, 0.0]], [[1.0]])


class TestQl:
    def test_affine_maps_hold(self):
        rep = check_ql(Affine([[2.0, 0.0], [1.0, 1.0]], [3.0, -1.0]), UNIT_BOX, CFG)
        assert rep.verdict == "holds_on_samples"

    def test_square_violates_with_witness(self):
        rep = check_ql(SQUARE, SYM_BOX, CFG)
        assert rep.verdict == "violated"
        x, y, z = rep.witness
        d = segment_distance(SQUARE(z), SQUARE(x), SQUARE(y))
        assert d == pytest.approx(rep.max_violation)
        assert d > CFG.tol


class TestNonexpansiveAndPseudocontractive:
    def test_contraction_is_nonexpansive(self):
        rep = check_g_nonexpansive(Scale(0.5, Identity(1)), Identity(1), SYM_BOX, CFG)
        assert rep.verdict == "holds_on_samples"

    def test_expansion_violates(self):
        rep = check_g_nonexpansive(Scale(2.0, Identity(1)), Identity(1), SYM_BOX, CFG)
        assert rep.verdict == "violated"
        x, y = rep.witness
        assert abs(2 * (x - y)) > abs(x - y)

    def test_rotation_nonexpansive_relative_to_doubling(self):
        rep = check_g_nonexpansive(Rotation(0.7), Affine(2 * np.eye(2)), UNIT_BOX, CFG)
        assert rep.verdict == "holds_on_samples"

    # f is pseudocontractive relative to g exactly when g - f is monotone relative to g

    def test_crossing_lines_pseudocontractive(self):
        f = Affine([[1.0]], [0.5])
        g = Affine([[2.0]], [0.0])
        rep = check_monotone_relative(Difference(g, f), g, Box([0.0], [1.0]), CFG)
        assert rep.verdict == "holds_on_samples"

    def test_triple_expansion_violates(self):
        f, g = Scale(3.0, Identity(1)), Identity(1)
        rep = check_monotone_relative(Difference(g, f), g, SYM_BOX, CFG)
        assert rep.verdict == "violated"
        x, y = rep.witness
        viol = 3 * (x - y) * (x - y) - (x - y) ** 2
        assert viol.item() == pytest.approx(rep.max_violation)

    def test_nonexpansive_implies_pseudocontractive(self):
        rng = np.random.default_rng(99)
        box = Box([-1.0, -1.0], [1.0, 1.0])
        ops = [
            (Rotation(0.9), Identity(2)),
            (Scale(0.8, Rotation(0.2)), Identity(2)),
            (Rotation(1.5), Affine(2 * np.eye(2))),
            (Affine(0.5 * np.eye(2), [0.3, 0.3]), Identity(2)),
        ]
        for f, g in ops:
            for _ in range(500):
                x, y = box.sample(rng), box.sample(rng)
                df = np.asarray(f(x)) - f(y)
                dg = np.asarray(g(x)) - g(y)
                if np.linalg.norm(df) <= np.linalg.norm(dg):
                    assert float(df @ dg - dg @ dg) <= 1e-9


class TestRangeInclusion:
    def test_constant_inside(self):
        rep = check_range_inclusion(Constant([0.25, 0.75]), Identity(2), UNIT_BOX, CFG)
        assert rep.verdict == "holds_on_samples"

    def test_translation_escapes(self):
        f = Affine(np.eye(2), [2.0, 0.0])
        rep = check_range_inclusion(f, Identity(2), UNIT_BOX, CFG)
        assert rep.verdict == "violated"
        (x,) = rep.witness
        assert UNIT_BOX.distance(f(x)) > CFG.tol

    def test_doubling_covers_shifted_line(self):
        f = Affine([[1.0]], [0.5])
        g = Affine([[2.0]], [0.0])
        rep = check_range_inclusion(f, g, Box([0.0], [1.0]), CFG)
        assert rep.verdict == "holds_on_samples"


class TestFiberCondition:
    # the inversion recovers preimages only to ~1e-9, so compare at 1e-6
    FIBER_CFG = SampleConfig(seed=8, samples=48, tol=1e-6)

    def test_even_operator_passes(self):
        A = PointwiseNonlinear("square", 1)
        rep = check_fiber_condition(A, SQUARE, SYM_BOX, self.FIBER_CFG)
        assert rep.verdict == "holds_on_samples"

    def test_odd_operator_fails_with_witness(self):
        A = PointwiseNonlinear("cube", 1)
        rep = check_fiber_condition(A, SQUARE, SYM_BOX, self.FIBER_CFG)
        assert rep.verdict == "violated"
        x, y = rep.witness
        assert abs((SQUARE(x) - SQUARE(y)).item()) <= 1e-7
        assert abs((A(x) - A(y)).item()) > 1e-6

    def test_injective_inner_map_trivially_passes(self):
        A = PointwiseNonlinear("cube", 1)
        rep = check_fiber_condition(A, Affine([[2.0]], [1.0]), SYM_BOX, self.FIBER_CFG)
        assert rep.verdict == "holds_on_samples"


class TestClosedForms:
    """Verdicts decided from the affine forms and the set, with no sample."""

    def test_relative_monotone_on_the_directions_of_k(self):
        m = np.array([[1.0, -2.0], [-2.0, 1.0]])
        assert affine_relative_monotone(m, np.eye(2)).verdict == "violated"
        rep = affine_relative_monotone(m, np.eye(2), basis=Simplex(2).span())
        assert rep.verdict == "proven"
        assert rep.max_violation == pytest.approx(-3.0)
        # a box that pins its second coordinate only moves along e1
        flat = Box([0.0, 0.5], [1.0, 0.5])
        rep = affine_relative_monotone(np.diag([1.0, -1.0]), np.eye(2), basis=flat.span())
        assert rep.verdict == "proven"
        rep = affine_relative_monotone(np.diag([-1.0, 1.0]), np.eye(2), basis=flat.span())
        assert rep.verdict == "violated"
        d, origin = rep.witness
        np.testing.assert_allclose(np.abs(d), [1.0, 0.0])
        np.testing.assert_array_equal(origin, np.zeros(2))

    def test_nonexpansive_on_the_directions_of_k(self):
        # f collapses every direction of the simplex, but doubles (1, 1)
        f, g = Affine([[1.0, 1.0], [1.0, 1.0]]), Identity(2)
        assert affine_nonexpansive(f, g, Simplex(2)).verdict == "proven"
        assert affine_nonexpansive(f, g, UNIT_BOX) is None
        rep = affine_nonexpansive(Rotation(0.7), Affine(2 * np.eye(2)), UNIT_BOX)
        assert (rep.verdict, rep.samples_used) == ("proven", 0)
        assert rep.max_violation == pytest.approx(-3.0)
        assert affine_nonexpansive(Scale(0.5, _TANH), Identity(3), _SETS_3D["box"]) is None

    def test_range_inclusion_on_a_box_names_a_vertex(self):
        K = Box([0.0, 0.0, -1.0], [1.0, 2.0, 1.0])
        f = Affine([[0.5, 0.2, 0.0], [0.0, 1.0, -0.3], [0.1, 0.0, 0.4]], [0.1, 0.0, 0.7])
        rep = affine_range_inclusion(f, Identity(3), K, 1e-9)
        assert (rep.verdict, rep.samples_used) == ("violated", 0)
        (v,) = rep.witness
        assert np.all((v == K.lower) | (v == K.upper))
        assert K.distance(f(v)) == pytest.approx(rep.max_violation)
        # the enclosure is the exact range: no sample leaves by more
        sampled = check_range_inclusion(f, Identity(3), K, SampleConfig(seed=5, samples=2000))
        assert sampled.verdict == "violated"
        assert sampled.max_violation <= rep.max_violation * np.sqrt(3) + 1e-12
        shrink = Affine(0.5 * np.eye(3), 0.5 * (K.lower + K.upper) / 2)
        assert affine_range_inclusion(shrink, Identity(3), K, 1e-9).verdict == "proven"

    def test_range_inclusion_through_the_inverse(self):
        # f(K) inside g(K) exactly when g^-1(f(K)) inside K
        g = Affine([[2.0, 1.0], [0.0, 1.0]], [1.0, -1.0])
        inside = Compose(g, Affine(0.5 * np.eye(2), [0.2, 0.3]))
        assert affine_range_inclusion(inside, g, UNIT_BOX, 1e-9).verdict == "proven"
        outside = Compose(g, Affine(np.eye(2), [0.2, 0.0]))
        rep = affine_range_inclusion(outside, g, UNIT_BOX, 1e-9)
        assert rep.verdict == "violated"
        (v,) = rep.witness
        assert UNIT_BOX.distance(g.inverse()(outside(v))) > 1e-9
        # a g with no inverse, or an f that is not affine, is left to sampling
        assert affine_range_inclusion(Identity(2), Affine([[1.0, 1.0], [1.0, 1.0]]), UNIT_BOX, 1e-9) is None
        assert affine_range_inclusion(PointwiseNonlinear("square", 2), Identity(2), UNIT_BOX, 1e-9) is None

    @pytest.mark.parametrize("set_name", ["simplex", "hpolytope"])
    def test_range_inclusion_on_vertices_agrees_with_sampling(self, set_name):
        K = _SETS_3D[set_name]
        rng = np.random.default_rng(21)
        center = K.vertices().mean(axis=0)
        span = K.span()
        for case in range(12):
            # shrink or stretch about the center, then move along K's directions
            scale = rng.uniform(0.3, 1.3)
            shift = (1.0 - scale) * center + span @ rng.normal(scale=0.1, size=span.shape[1])
            f = Affine(scale * np.eye(3), shift)
            rep = affine_range_inclusion(f, Identity(3), K, 1e-9)
            sampled = check_range_inclusion(f, Identity(3), K, SampleConfig(seed=case, samples=300))
            assert rep.samples_used == 0
            if rep.verdict == "proven":
                assert sampled.verdict == "holds_on_samples"
            else:
                (v,) = rep.witness
                assert any(np.array_equal(v, w) for w in K.vertices())
                assert K.distance(f(v)) == pytest.approx(rep.max_violation)
                assert sampled.max_violation <= rep.max_violation + 1e-12

    def test_range_inclusion_on_a_ball_is_sufficient(self):
        K = Ball([0.25, 0.25], 1.0)
        turn = 0.8 * Rotation(1.0).matrix
        about_center = Affine(turn, K.center - turn @ K.center)
        rep = affine_range_inclusion(about_center, Identity(2), K, 1e-9)
        assert (rep.verdict, rep.samples_used) == ("proven", 0)
        assert rep.max_violation == pytest.approx(-0.2)
        # the quarter turn about 0 moves this ball off itself: left to sampling
        assert affine_range_inclusion(Rotation(np.pi / 2), Identity(2), K, 1e-9) is None

    def test_fiber_factors(self):
        singular = Affine([[1.0, 1.0], [1.0, 1.0]])
        # A(x) = (x1 + x2, 2 x1 + 2 x2) is constant wherever a is
        assert fiber_factors(Affine([[1.0, 1.0], [2.0, 2.0]], [0.5, 0.0]), singular)
        assert not fiber_factors(Identity(2), singular)
        assert not fiber_factors(SQUARE, Affine([[0.0]]))
        # an injective a has one-point fibers, whatever A is
        tall = Affine([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        assert fiber_factors(PointwiseNonlinear("cube", 3), tall)
        assert not fiber_factors(SQUARE, SQUARE)


def test_report_to_dict_is_jsonable():
    import json

    rep = check_monotone_relative(Scale(-1.0, Identity(2)), Identity(2), UNIT_BOX, CFG)
    encoded = json.dumps(rep.to_dict())
    decoded = json.loads(encoded)
    assert decoded["property"] == "monotone_relative"
    assert decoded["verdict"] == "violated"
    assert len(decoded["witness"]) == 2


# Reference implementations: the per-sample loops the checks replaced.  Each
# draws its points one ``K.sample(rng)`` call at a time and keeps the first
# worst sample, so comparing against them pins the draw order and the
# tie rule of the batched checks.


def _scan_pairs_by_loop(name, K, cfg, violation):
    rng = np.random.default_rng(cfg.seed)
    worst, worst_pair = -np.inf, None
    for _ in range(cfg.samples):
        x = K.sample(rng)
        y = K.sample(rng)
        v = violation(x, y)
        if v > worst:
            worst, worst_pair = v, (x, y)
    if worst > cfg.tol:
        return PropertyReport(name, "violated", worst_pair, cfg.samples, worst)
    return PropertyReport(name, "holds_on_samples", None, cfg.samples, worst)


def _monotone_by_loop(T, t, K, cfg):
    def viol(x, y):
        return -float(np.dot(np.asarray(T(x)) - T(y), np.asarray(t(x)) - t(y)))

    return _scan_pairs_by_loop("monotone_relative", K, cfg, viol)


def _nonexpansive_by_loop(f, g, K, cfg):
    def viol(x, y):
        df = float(np.linalg.norm(np.asarray(f(x), float) - f(y)))
        dg = float(np.linalg.norm(np.asarray(g(x), float) - g(y)))
        return df - dg

    return _scan_pairs_by_loop("g_nonexpansive", K, cfg, viol)


def _ql_by_loop(g, K, cfg):
    rng = np.random.default_rng(cfg.seed)
    worst, worst_triple = -np.inf, None
    for _ in range(cfg.samples):
        x = K.sample(rng)
        y = K.sample(rng)
        z = x + rng.random() * (y - x)
        d = segment_distance(np.asarray(g(z), float), np.asarray(g(x), float), np.asarray(g(y), float))
        if d > worst:
            worst, worst_triple = d, (x, y, z)
    if worst > cfg.tol:
        return PropertyReport("ql", "violated", worst_triple, cfg.samples, worst)
    return PropertyReport("ql", "holds_on_samples", None, cfg.samples, worst)


def _range_inclusion_by_loop(f, g, K, gK, cfg):
    rng = np.random.default_rng(cfg.seed)
    worst, worst_witness = -np.inf, None
    for i in range(cfg.samples):
        x = K.sample(rng)
        fx = np.asarray(f(x), dtype=float)
        v = gK.distance(fx)
        if i < operators_module._INVERT_CHECK_CAP:
            try:
                select_preimage(g, K, fx, InversionParams())
            except InversionFailed as err:
                v = max(v, float(err.best_residual or np.inf))
        if v > worst:
            worst, worst_witness = v, (x,)
    if worst > cfg.tol:
        return PropertyReport("range_inclusion", "violated", worst_witness, cfg.samples, worst)
    return PropertyReport("range_inclusion", "holds_on_samples", None, cfg.samples, worst)


def _fiber_by_loop(A, a, K, cfg, match_tol=operators_module.FIBER_MATCH_TOL):
    rng = np.random.default_rng(cfg.seed)
    n_probe = min(cfg.samples, operators_module._FIBER_PROBE_CAP)
    worst, worst_pair = -np.inf, None
    for _ in range(n_probe):
        x = K.sample(rng)
        ax = np.asarray(a(x), dtype=float)
        Ax = np.asarray(A(x), dtype=float)
        for y in preimage_candidates(a, K, ax, InversionParams()):
            if np.linalg.norm(np.asarray(a(y), float) - ax) > match_tol:
                continue
            v = float(np.linalg.norm(Ax - np.asarray(A(y), float)))
            if v > worst:
                worst, worst_pair = v, (x, y)
    if worst == -np.inf:
        worst = 0.0
    if worst > cfg.tol:
        return PropertyReport("fiber_condition", "violated", worst_pair, n_probe, worst)
    return PropertyReport("fiber_condition", "holds_on_samples", None, n_probe, worst)


_SETS_3D = {
    "box": Box([-1.0, -0.5, -1.0], [1.0, 1.0, 0.5]),
    "ball": Ball([0.1, -0.2, 0.05], 0.9),
    "simplex": Simplex(3),
    "hpolytope": HPolytope(
        np.vstack([np.eye(3), -np.eye(3), np.ones((1, 3))]),
        np.array([1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.5]),
    ),
}
_TANH = PointwiseNonlinear("tanh", 3)
_SHEAR = Affine([[1.0, 0.5, 0.0], [0.0, 1.0, -0.25], [0.2, 0.0, 1.0]])
_SHIFT = Affine(0.9 * np.eye(3), [0.3, -0.1, 0.2])
_FIRST = Affine([[1.0, 0.0, 0.0]])

# name -> (batched check, reference loop, sample count); the operators make
# most cases violated, so witnesses are compared and not only verdicts
_CHECKS = {
    "monotone": (
        lambda K, c: check_monotone_relative(Sum(Rotation(2.0, dim=3), _TANH), _SHEAR, K, c),
        lambda K, c: _monotone_by_loop(Sum(Rotation(2.0, dim=3), _TANH), _SHEAR, K, c),
        200,
    ),
    "ql": (
        lambda K, c: check_ql(PointwiseNonlinear("square", 3), K, c),
        lambda K, c: _ql_by_loop(PointwiseNonlinear("square", 3), K, c),
        200,
    ),
    "nonexpansive": (
        lambda K, c: check_g_nonexpansive(Scale(1.5, _TANH), Identity(3), K, c),
        lambda K, c: _nonexpansive_by_loop(Scale(1.5, _TANH), Identity(3), K, c),
        200,
    ),
    # f = 2.5 tanh pseudocontractive relative to g = _SHEAR: g - f monotone relative to g
    "pseudocontractive": (
        lambda K, c: check_monotone_relative(Difference(_SHEAR, Scale(2.5, _TANH)), _SHEAR, K, c),
        lambda K, c: _monotone_by_loop(Difference(_SHEAR, Scale(2.5, _TANH)), _SHEAR, K, c),
        200,
    ),
    "range_inclusion": (
        lambda K, c: check_range_inclusion(_SHIFT, Identity(3), K, c),
        lambda K, c: _range_inclusion_by_loop(_SHIFT, Identity(3), K, K, c),
        200,
    ),
    "fiber": (
        lambda K, c: check_fiber_condition(Identity(3), _FIRST, K, c),
        lambda K, c: _fiber_by_loop(Identity(3), _FIRST, K, c),
        12,
    ),
}


@pytest.mark.parametrize("seed", [11, 12])
@pytest.mark.parametrize("set_name", sorted(_SETS_3D))
@pytest.mark.parametrize("check", sorted(_CHECKS))
def test_batched_check_matches_the_loop(check, set_name, seed):
    batched, by_loop, samples = _CHECKS[check]
    K = _SETS_3D[set_name]
    cfg = SampleConfig(seed=seed, samples=samples)
    got, want = batched(K, cfg), by_loop(K, cfg)
    assert want.verdict == "violated"  # so the witnesses are compared too
    assert (got.property, got.verdict, got.samples_used) == (
        want.property,
        want.verdict,
        want.samples_used,
    )
    assert abs(got.max_violation - want.max_violation) <= 1e-12 * max(1.0, abs(want.max_violation))
    if want.witness is None:
        assert got.witness is None
    else:
        assert len(got.witness) == len(want.witness)
        for g, w in zip(got.witness, want.witness):
            np.testing.assert_array_equal(g, w)


class TestSegmentDistanceStacks:
    RNG_SEED = 5

    def _stacks(self, n=40, dim=3):
        rng = np.random.default_rng(self.RNG_SEED)
        return rng.normal(size=(n, dim)), rng.normal(size=(n, dim)), rng.normal(size=(n, dim))

    def test_stack_equals_row_by_row(self):
        p, x, y = self._stacks()
        got = segment_distance(p, x, y)
        assert got.shape == (40,)
        want = [segment_distance(pi, xi, yi) for pi, xi, yi in zip(p, x, y)]
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-15)

    def test_single_points_give_a_float(self):
        d = segment_distance([0.0, 1.0], [-1.0, 0.0], [1.0, 0.0])
        assert isinstance(d, float) and d == 1.0

    def test_degenerate_rows_use_the_point_distance(self):
        p, x, _ = self._stacks(n=6)
        y = x.copy()
        y[::2] += 1.0  # every other segment is a proper one
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = segment_distance(p, x, y)
        np.testing.assert_array_equal(got[1::2], np.linalg.norm(p[1::2] - x[1::2], axis=1))

    @pytest.mark.parametrize(
        "shapes", [((2,), (3,), (3,)), ((4, 2), (4, 2), (3, 2)), ((4, 2), (4, 3), (4, 2))]
    )
    def test_mismatched_shapes(self, shapes):
        p, x, y = (np.zeros(s) for s in shapes)
        with pytest.raises(DimensionMismatch):
            segment_distance(p, x, y)

    @pytest.mark.parametrize("where", [0, 1, 2])
    def test_non_finite_entries(self, where):
        args = [np.zeros((3, 2)) for _ in range(3)]
        args[where][1, 0] = np.nan if where else np.inf
        with pytest.raises(ValueError):
            segment_distance(*args)


class TestVerdict:
    def test_first_of_tied_worst_is_the_witness(self):
        viol = np.array([0.1, 0.5, 0.2, 0.5, 0.5])
        pts = np.arange(10.0).reshape(5, 2)
        rep = operators_module._verdict("p", viol, (pts, -pts), tol=0.3)
        assert rep.verdict == "violated"
        assert rep.samples_used == 5 and rep.max_violation == 0.5
        np.testing.assert_array_equal(rep.witness[0], pts[1])
        np.testing.assert_array_equal(rep.witness[1], -pts[1])

    def test_nan_samples_never_decide(self):
        viol = np.array([np.nan, 0.5, np.nan, 0.1])
        rep = operators_module._verdict("p", viol, (np.arange(4.0),), tol=0.3)
        assert (rep.verdict, rep.max_violation, rep.witness[0]) == ("violated", 0.5, 1.0)

    def test_overflow_keeps_the_refutation(self):
        # cube overflows on this box, so many increments are inf - inf = NaN;
        # the samples that still score refute monotonicity, as the loop did
        K = Box([-1e103, -1.0], [1e103, 1.0])
        T = Scale(-1.0, PointwiseNonlinear("cube", 2))
        cfg = SampleConfig(seed=1, samples=50)
        with np.errstate(over="ignore", invalid="ignore"):
            got = check_monotone_relative(T, Identity(2), K, cfg)
            want = _monotone_by_loop(T, Identity(2), K, cfg)
        assert (got.verdict, got.max_violation) == (want.verdict, want.max_violation)
        assert got.verdict == "violated"
        for g, w in zip(got.witness, want.witness):
            np.testing.assert_array_equal(g, w)

    def test_holding_report_has_no_witness(self):
        rep = operators_module._verdict("p", np.array([-1.0, 0.25]), (np.zeros((2, 1)),), tol=0.3)
        assert (rep.verdict, rep.witness, rep.samples_used) == ("holds_on_samples", None, 2)
        assert rep.max_violation == 0.25

    def test_no_samples_hold_at_zero(self):
        rep = operators_module._verdict("p", np.zeros(0), (np.zeros((0, 2)),), tol=0.0)
        assert (rep.verdict, rep.witness, rep.samples_used) == ("holds_on_samples", None, 0)
        assert rep.max_violation == 0.0 and isinstance(rep.max_violation, float)

    def test_fiber_without_alternative_preimages(self, monkeypatch):
        monkeypatch.setattr(gvi_module, "preimage_candidates", lambda *args: [])
        cfg = SampleConfig(seed=3, samples=10)
        rep = check_fiber_condition(PointwiseNonlinear("cube", 1), SQUARE, SYM_BOX, cfg)
        assert (rep.verdict, rep.witness, rep.samples_used) == ("holds_on_samples", None, 10)
        assert rep.max_violation == 0.0

    def test_selection_independence_without_alternative_preimages(self):
        # the cube is injective but has no closed-form inverse, so the search
        # runs and finds x itself only
        problem = GviProblem(
            A=Affine([[1.0]], [-0.5]), a=PointwiseNonlinear("cube", 1), K=SYM_BOX, image_aK=SYM_BOX
        )
        rep = check_selection_independence(problem, np.array([0.5]))
        assert (rep.verdict, rep.witness, rep.samples_used) == ("holds_on_samples", None, 0)
        assert rep.max_violation == 0.0

    def test_selection_independence_is_proven_for_an_invertible_map(self, monkeypatch):
        monkeypatch.setattr(gvi_module, "preimage_candidates", None)  # never searched
        problem = GviProblem(
            A=Affine([[1.0]], [-0.5]), a=Affine([[2.0]], [0.1]), K=SYM_BOX,
            image_aK=Box([-1.9], [2.1]),
        )
        rep = check_selection_independence(problem, np.array([0.5]))
        assert (rep.verdict, rep.witness, rep.samples_used, rep.max_violation) == (
            "proven", None, 0, 0.0
        )
