"""Operator expressions: evaluation, bounds, Jacobians, serialization, structure."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gvikit import (
    Affine,
    Compose,
    Constant,
    Difference,
    DimensionMismatch,
    Identity,
    OperatorExpr,
    PointwiseNonlinear,
    Rotation,
    Scale,
    Sum,
    UnsupportedVariant,
    jacobian_fd,
    operator_from_dict,
)
from gvikit import operators as operators_module


class TestEvaluation:
    def test_identity(self):
        np.testing.assert_allclose(Identity(2)([3.0, -1.0]), [3.0, -1.0])

    def test_constant_ignores_input(self):
        c = Constant([0.25, 0.75], in_dim=3)
        np.testing.assert_allclose(c([9.0, 9.0, 9.0]), [0.25, 0.75])
        assert c.in_dim == 3 and c.out_dim == 2

    def test_affine(self):
        op = Affine([[2.0, 1.0], [1.0, 2.0]], [-1.0, -1.0])
        np.testing.assert_allclose(op([1.0, 0.0]), [1.0, 0.0])
        np.testing.assert_allclose(op([1 / 3, 1 / 3]), [0.0, 0.0], atol=1e-15)

    def test_rotation_quarter_turn(self):
        rot = Rotation(math.pi / 2)
        np.testing.assert_allclose(rot([1.0, 0.0]), [0.0, 1.0], atol=1e-15)
        np.testing.assert_allclose(rot([0.0, 1.0]), [-1.0, 0.0], atol=1e-15)

    def test_rotation_in_higher_dimension(self):
        rot = Rotation(math.pi, plane=(0, 2), dim=3)
        np.testing.assert_allclose(
            rot([1.0, 5.0, 0.0]), [-1.0, 5.0, 0.0], atol=1e-15
        )

    def test_pointwise_kinds(self):
        x = np.array([0.5, -2.0])
        np.testing.assert_allclose(PointwiseNonlinear("square", 2)(x), [0.25, 4.0])
        np.testing.assert_allclose(PointwiseNonlinear("cube", 2)(x), [0.125, -8.0])
        np.testing.assert_allclose(PointwiseNonlinear("tanh", 2)(x), np.tanh(x))
        sig = PointwiseNonlinear("sigmoid", 2)(x)
        np.testing.assert_allclose(sig, 1.0 / (1.0 + np.exp(-x)))

    def test_sigmoid_stable_at_extremes(self):
        out = PointwiseNonlinear("sigmoid", 2)(np.array([800.0, -800.0]))
        np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-12)

    def test_scale_sum_difference_compose(self):
        f = Affine([[1.0]], [0.5])
        g = Affine([[2.0]], [0.0])
        np.testing.assert_allclose(Difference(g, f)([0.5]), [0.0])
        np.testing.assert_allclose(Sum(f, g)([1.0]), [3.5])
        np.testing.assert_allclose(Scale(-2.0, g)([1.5]), [-6.0])
        comp = Compose(PointwiseNonlinear("square", 1), g)
        np.testing.assert_allclose(comp([1.5]), [9.0])

    def test_batch_shapes(self):
        op = Affine([[1.0, 2.0]], [0.0])
        batch = np.ones((4, 3, 2))
        assert op(batch).shape == (4, 3, 1)
        rot = Rotation(0.3)
        assert rot(np.ones((5, 2))).shape == (5, 2)

    def test_validation(self):
        # jacobian_fd is the single-vector entry point that validates input
        with pytest.raises(DimensionMismatch):
            jacobian_fd(Identity(2), [1.0])
        with pytest.raises(ValueError):
            jacobian_fd(Identity(1), [np.inf])
        with pytest.raises(DimensionMismatch):
            Sum(Identity(2), Identity(3))
        with pytest.raises(DimensionMismatch):
            Compose(Identity(2), Affine([[1.0, 0.0]]))
        with pytest.raises(ValueError):
            PointwiseNonlinear("exp", 1)
        with pytest.raises(ValueError):
            Rotation(1.0, plane=(0, 0))


class TestLipschitzBounds:
    def test_known_bounds(self):
        assert Identity(3).lipschitz_bound() == 1.0
        assert Constant([1.0, 2.0]).lipschitz_bound() == 0.0
        assert Rotation(1.2).lipschitz_bound() == 1.0
        assert Affine([[3.0, 0.0], [0.0, 4.0]]).lipschitz_bound() == pytest.approx(4.0)
        assert PointwiseNonlinear("tanh", 2).lipschitz_bound() == 1.0
        assert PointwiseNonlinear("sigmoid", 2).lipschitz_bound() == 0.25

    def test_unbounded_kinds_return_none(self):
        assert PointwiseNonlinear("square", 1).lipschitz_bound() is None
        assert PointwiseNonlinear("cube", 1).lipschitz_bound() is None

    def test_composition_rules(self):
        g = Affine([[2.0]])
        assert Scale(-3.0, g).lipschitz_bound() == pytest.approx(6.0)
        assert Sum(g, Identity(1)).lipschitz_bound() == pytest.approx(3.0)
        assert Compose(g, g).lipschitz_bound() == pytest.approx(4.0)
        assert Sum(g, PointwiseNonlinear("square", 1)).lipschitz_bound() is None


class TestJacobian:
    def test_affine_is_exact(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        jac = jacobian_fd(Affine(m, [5.0, 6.0]), [0.3, -0.7])
        np.testing.assert_allclose(jac, m, atol=1e-9)

    def test_square_diagonal(self):
        x = np.array([0.5, -1.5])
        jac = jacobian_fd(PointwiseNonlinear("square", 2), x)
        np.testing.assert_allclose(jac, np.diag(2 * x), atol=1e-9)

    def test_tanh_at_origin(self):
        jac = jacobian_fd(PointwiseNonlinear("tanh", 2), [0.0, 0.0])
        np.testing.assert_allclose(jac, np.eye(2), atol=1e-9)


class TestSerialization:
    CASES = [
        Identity(3),
        Constant([1.0, -2.0], in_dim=4),
        Affine([[1.0, 2.0], [0.0, 1.0]], [0.5, -0.5]),
        Rotation(0.7, plane=(1, 2), dim=4),
        PointwiseNonlinear("tanh", 2),
        Scale(0.5, Affine([[2.0]], [1.0])),
        Sum(Identity(2), Rotation(0.3)),
        Difference(Affine([[2.0, 0.0], [0.0, 2.0]]), Rotation(1.0)),
        Compose(PointwiseNonlinear("square", 2), Affine(np.eye(2), [1.0, 1.0])),
    ]

    @pytest.mark.parametrize("op", CASES, ids=lambda o: type(o).__name__)
    def test_round_trip(self, op):
        clone = operator_from_dict(op.to_dict())
        assert clone.in_dim == op.in_dim and clone.out_dim == op.out_dim
        rng = np.random.default_rng(7)
        x = rng.normal(size=op.in_dim)
        np.testing.assert_allclose(clone(x), op(x), atol=1e-14)

    def test_unknown_tag(self):
        with pytest.raises(UnsupportedVariant):
            operator_from_dict({"op": "convolution"})


@given(
    st.lists(
        st.floats(-5, 5, allow_nan=False, allow_infinity=False),
        min_size=6,
        max_size=6,
    )
)
@settings(max_examples=50, deadline=None)
def test_batch_matches_rowwise(flat):
    rows = np.array(flat).reshape(3, 2)
    for op in (
        Affine([[1.0, -1.0], [2.0, 0.5]], [0.1, 0.2]),
        Rotation(0.9),
        PointwiseNonlinear("tanh", 2),
        Difference(Identity(2), Rotation(0.4)),
    ):
        batch = op(rows)
        single = np.array([op(r) for r in rows])
        np.testing.assert_allclose(batch, single, atol=1e-14)


def _affine_trees(n, nonlinear=False):
    """Random expression trees on R^n; ``nonlinear`` adds PointwiseNonlinear leaves."""
    num = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)
    vec = st.lists(num, min_size=n, max_size=n)
    leaves = [
        st.just(Identity(n)),
        st.builds(Constant, vec),
        st.builds(lambda m, c: Affine(np.reshape(m, (n, n)), c), st.lists(num, min_size=n * n, max_size=n * n), vec),
    ]
    if n >= 2:
        leaves.append(st.builds(lambda t, i: Rotation(t, (i, (i + 1) % n), n), num, st.integers(0, n - 1)))
    if nonlinear:
        leaves.append(st.sampled_from([PointwiseNonlinear(k, n) for k in ("cube", "tanh", "square")]))
    return st.recursive(
        st.one_of(leaves),
        lambda kids: st.one_of(
            st.builds(Scale, num, kids),
            st.builds(Sum, kids, kids),
            st.builds(Difference, kids, kids),
            st.builds(Compose, kids, kids),
        ),
        max_leaves=8,
    )


def _has_pointwise(op):
    children = [getattr(op, k) for k in ("inner", "outer", "left", "right") if hasattr(op, k)]
    return isinstance(op, PointwiseNonlinear) or any(_has_pointwise(c) for c in children)


class TestAffineForm:
    @given(st.integers(1, 3).flatmap(lambda n: _affine_trees(n, nonlinear=True)))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_form_reproduces_the_tree(self, op):
        form = op.affine_form()
        if _has_pointwise(op):
            assert form is None
            return
        m, c = form
        assert m.shape == (op.out_dim, op.in_dim) and c.shape == (op.out_dim,)
        x = np.random.default_rng(5).uniform(-1.0, 1.0, size=(6, op.in_dim))
        want = op(x)
        np.testing.assert_allclose(x @ m.T + c, want, rtol=0.0, atol=1e-12 * (1.0 + np.abs(want).max()))

    def test_affine_returns_its_own_arrays(self):
        op = Affine([[2.0, 1.0], [0.0, 1.0]], [0.5, -0.5])
        m, c = op.affine_form()
        assert m is op.matrix and c is op.shift

    def test_rotation_is_an_affine_isometry(self):
        rot = Rotation(0.7, plane=(0, 2), dim=3)
        assert isinstance(rot, Affine) and rot.is_isometry()
        np.testing.assert_allclose(rot.inverse().matrix, rot.matrix.T, atol=1e-15)
        assert not Scale(2.0, rot).is_isometry()
        assert not PointwiseNonlinear("tanh", 3).is_isometry()

    def test_inverse_composes_through_the_tree(self):
        op = Compose(Scale(2.0, Rotation(0.4)), Sum(Identity(2), Constant([1.0, -1.0])))
        x = np.array([0.3, -0.8])
        np.testing.assert_allclose(op.inverse()(op(x)), x, atol=1e-14)
        assert Identity(2).inverse().__class__ is Identity
        assert Compose(Constant([1.0]), Identity(1)).inverse() is None


# the operator node classes; structure is asked of the node, not of its class
_NODE_CLASSES = {
    name
    for name, obj in vars(operators_module).items()
    if isinstance(obj, type) and issubclass(obj, OperatorExpr) and obj is not OperatorExpr
}


class TestEnclosure:
    LO, HI = np.array([-1.0, 0.2]), np.array([0.5, 2.0])

    @pytest.mark.parametrize(
        "kind, lo, hi",
        [
            ("square", [0.0, 0.04], [1.0, 4.0]),
            ("cube", [-1.0, 0.008], [0.125, 8.0]),
            ("tanh", np.tanh([-1.0, 0.2]), np.tanh([0.5, 2.0])),
        ],
    )
    def test_pointwise_maps_endpoints(self, kind, lo, hi):
        got = PointwiseNonlinear(kind, 2).enclosure(self.LO, self.HI)
        np.testing.assert_allclose(got, [lo, hi], rtol=1e-15)

    def test_affine_form_maps_center_and_radius(self):
        a = Affine([[1.0, -2.0], [0.0, 3.0]], [0.5, -1.0])
        lo, hi = a.enclosure(self.LO, self.HI)
        corners = np.array([[x, y] for x in (-1.0, 0.5) for y in (0.2, 2.0)])
        np.testing.assert_allclose(lo, a(corners).min(axis=0), atol=1e-15)
        np.testing.assert_allclose(hi, a(corners).max(axis=0), atol=1e-15)

    def test_children_combine(self):
        square, cube = PointwiseNonlinear("square", 2), PointwiseNonlinear("cube", 2)
        np.testing.assert_allclose(
            Difference(square, cube).enclosure(self.LO, self.HI), [[-0.125, -7.96], [2.0, 3.992]]
        )
        np.testing.assert_allclose(
            Scale(-2.0, square).enclosure(self.LO, self.HI), [[-2.0, -8.0], [0.0, -0.08]]
        )
        # the cube's interval [-1, 0.125] x [0.008, 8] straddles 0 in x only
        np.testing.assert_allclose(
            Compose(square, cube).enclosure(self.LO, self.HI), [[0.0, 6.4e-5], [1.0, 64.0]]
        )

    def test_an_affine_combination_uses_its_form(self):
        # interval arithmetic alone would give x - x the interval [lo - hi, hi - lo]
        x = Identity(2)
        np.testing.assert_array_equal(Difference(x, x).enclosure(self.LO, self.HI), np.zeros((2, 2)))

    @pytest.mark.parametrize(
        "op, exact",
        [
            (PointwiseNonlinear("square", 2), True),
            (Scale(-1.0, PointwiseNonlinear("cube", 2)), True),
            (Compose(PointwiseNonlinear("cube", 2), Affine([[0.0, 2.0], [-1.0, 0.0]])), True),
            (Compose(PointwiseNonlinear("cube", 2), Rotation(0.3)), False),
            (Sum(PointwiseNonlinear("square", 2), PointwiseNonlinear("cube", 2)), False),
            (Affine([[1.0, 1.0], [0.0, 1.0]]), False),
        ],
        ids=["square", "scaled-cube", "cube-of-permutation", "cube-of-rotation", "sum", "shear"],
    )
    def test_exact_enclosure(self, op, exact):
        assert op.exact_enclosure() is exact


def _isinstance_class_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
            spec = node.args[1]
            for leaf in spec.elts if isinstance(spec, ast.Tuple) else [spec]:
                yield node.lineno, getattr(leaf, "id", None) or getattr(leaf, "attr", None)


def test_no_isinstance_on_operator_nodes_outside_operators():
    package = Path(operators_module.__file__).parent
    hits = [
        f"{path.name}:{line} {name}"
        for path in sorted(package.glob("*.py"))
        if path.name != "operators.py"
        for line, name in _isinstance_class_names(ast.parse(path.read_text()))
        if name in _NODE_CLASSES
    ]
    assert hits == []
