"""Built-in demonstration problems.

Each entry is a schema-valid problem file plus metadata: a one-line
summary for ``gvikit list-demos`` and the closed-form answer (when one
exists) so runs can be checked by eye.  The expected values are exact
solutions of the corresponding inequalities, worked out by hand.
"""

from __future__ import annotations

import copy
import math

__all__ = ["DEMOS", "demo_names", "get_demo"]


def _rot(angle):
    c, s = math.cos(angle), math.sin(angle)
    return [[c, -s], [s, c]]


def _affine(matrix, shift):
    return {"op": "affine", "matrix": matrix, "shift": shift}


# rotation demo: f rotates by pi/3 around m, so m is the unique fixed point
_M = [0.25, 0.25]
_R3 = _rot(math.pi / 3)
_R3_SHIFT = [
    _M[0] - (_R3[0][0] * _M[0] + _R3[0][1] * _M[1]),
    _M[1] - (_R3[1][0] * _M[0] + _R3[1][1] * _M[1]),
]

_SQUARE_GVI = {
    "version": "1",
    "kind": "gvi",
    "operators": {
        "A": {
            "op": "sum",
            "left": {"op": "pointwise", "kind": "square", "dim": 1},
            "right": {"op": "constant", "value": [-0.5]},
        },
        "a": {"op": "pointwise", "kind": "square", "dim": 1},
    },
    "set": {"type": "box", "lower": [-1.0], "upper": [1.0]},
    "image_set": {"type": "box", "lower": [0.0], "upper": [1.0]},
    "seed": 104,
}

DEMOS = {
    "box-projection": {
        "title": "Projection onto a box",
        "summary": "Plain inequality for F(x) = x - (2, -1) on [0,1]^2; the answer is the projection (1, 0).",
        "expect": {"solution": [1.0, 0.0], "tol": 1e-6},
        "problem": {
            "version": "1",
            "kind": "vi",
            "operators": {"A": _affine([[1.0, 0.0], [0.0, 1.0]], [-2.0, 1.0])},
            "set": {"type": "box", "lower": [0.0, 0.0], "upper": [1.0, 1.0]},
            "seed": 101,
        },
    },
    "identity-reduction": {
        "title": "Identity inner map",
        "summary": "General form with a = identity collapses to a plain inequality; interior solution (1/3, 1/3).",
        "expect": {"solution": [1.0 / 3.0, 1.0 / 3.0], "tol": 1e-6},
        "problem": {
            "version": "1",
            "kind": "gvi",
            "operators": {
                "A": _affine([[2.0, 1.0], [1.0, 2.0]], [-1.0, -1.0]),
                "a": {"op": "identity", "dim": 2},
            },
            "set": {"type": "box", "lower": [0.0, 0.0], "upper": [1.0, 1.0]},
            "seed": 102,
        },
    },
    "linear-gvi": {
        "title": "One-dimensional linear pair",
        "summary": "A(x) = x - 1.5 against a(x) = 2x on [0,1]; the x-space VI of 2(x - 1.5) solves on the face x = 1, so u = 2.",
        "expect": {"solution": [1.0], "tol": 1e-6},
        "problem": {
            "version": "1",
            "kind": "gvi",
            "operators": {
                "A": _affine([[1.0]], [-1.5]),
                "a": _affine([[2.0]], [0.0]),
            },
            "set": {"type": "box", "lower": [0.0], "upper": [1.0]},
            "image_set": {"type": "box", "lower": [0.0], "upper": [2.0]},
            "seed": 103,
        },
    },
    "square-gvi": {
        "title": "Square inner map",
        "summary": "A(x) = x^2 - 0.5 against a(x) = x^2 on [-1,1]; two preimage branches, solution sqrt(1/2).",
        "expect": {"solution": [math.sqrt(0.5)], "tol": 1e-6},
        "problem": dict(_SQUARE_GVI),
    },
    "relative-monotone": {
        "title": "Monotone relative to a shear",
        "summary": "Affine pair whose reduced matrix is symmetric positive definite; it needs no image set.",
        "expect": {"solution": [0.75, 0.5], "tol": 1e-6},
        "problem": {
            "version": "1",
            "kind": "gvi",
            "operators": {
                "A": _affine([[2.0, -1.0], [0.0, 1.0]], [-1.0, -0.5]),
                "a": _affine([[1.0, 0.0], [1.0, 1.0]], [0.0, 0.0]),
            },
            "set": {"type": "box", "lower": [0.0, 0.0], "upper": [1.0, 1.0]},
            "seed": 105,
        },
    },
    "linear-coincidence": {
        "title": "Two lines crossing",
        "summary": "f(x) = x + 0.5 meets g(x) = 2x on [0,1] at x = 0.5.",
        "expect": {"solution": [0.5], "tol": 1e-6},
        "problem": {
            "version": "1",
            "kind": "coincidence",
            "operators": {
                "f": _affine([[1.0]], [0.5]),
                "g": _affine([[2.0]], [0.0]),
            },
            "set": {"type": "box", "lower": [0.0], "upper": [1.0]},
            "image_set": {"type": "box", "lower": [0.0], "upper": [2.0]},
            "seed": 106,
        },
    },
    "pseudocontractive-rotation": {
        "title": "Rotation against a doubling map",
        "summary": "f rotates by pi/2 and translates, g doubles; f is pseudocontractive relative to g and they meet at (0.44, 0.32).",
        "expect": {"solution": [0.44, 0.32], "tol": 1e-6},
        "problem": {
            "version": "1",
            "kind": "coincidence",
            "operators": {
                "f": _affine(_rot(math.pi / 2), [1.2, 0.2]),
                "g": _affine([[2.0, 0.0], [0.0, 2.0]], [0.0, 0.0]),
            },
            "set": {"type": "box", "lower": [0.0, 0.0], "upper": [1.0, 1.0]},
            "image_set": {"type": "box", "lower": [0.0, 0.0], "upper": [2.0, 2.0]},
            "seed": 107,
        },
    },
    "constant-map": {
        "title": "Constant target",
        "summary": "f is constant at (0.25, 0.75) and g is the identity, so the coincidence point is the constant itself.",
        "expect": {"solution": [0.25, 0.75], "tol": 1e-6},
        "problem": {
            "version": "1",
            "kind": "coincidence",
            "operators": {
                "f": {"op": "constant", "value": [0.25, 0.75]},
                "g": {"op": "identity", "dim": 2},
            },
            "set": {"type": "box", "lower": [0.0, 0.0], "upper": [1.0, 1.0]},
            "seed": 108,
        },
    },
    "rotation": {
        "title": "Rotation about an interior point",
        "summary": "f rotates the unit ball around (0.25, 0.25) by pi/3; the center is the only point f leaves in place.",
        "expect": {"solution": [0.25, 0.25], "tol": 1e-6},
        "problem": {
            "version": "1",
            "kind": "coincidence",
            "operators": {
                "f": _affine(_R3, _R3_SHIFT),
                "g": {"op": "identity", "dim": 2},
            },
            "set": {"type": "ball", "center": [0.25, 0.25], "radius": 1.0},
            "seed": 109,
        },
    },
    "averaging-fixed-point": {
        "title": "Averaging toward 1",
        "summary": "f(x) = (x + 1) / 2 on [0,1] has the boundary fixed point x = 1.",
        "expect": {"solution": [1.0], "tol": 1e-6},
        "problem": {
            "version": "1",
            "kind": "fixed_point",
            "operators": {"f": _affine([[0.5]], [0.5])},
            "set": {"type": "box", "lower": [0.0], "upper": [1.0]},
            "seed": 110,
        },
    },
    "rotation-fixed-point": {
        "title": "Quarter turn of the disk",
        "summary": "A pi/2 rotation of the unit disk; nonexpansive but not a contraction, fixed point at the origin.",
        "expect": {"solution": [0.0, 0.0], "tol": 1e-6},
        "problem": {
            "version": "1",
            "kind": "fixed_point",
            "operators": {"f": {"op": "rotation", "angle": math.pi / 2}},
            "set": {"type": "ball", "center": [0.0, 0.0], "radius": 1.0},
            "seed": 111,
        },
    },
    "orthant-lcp": {
        "title": "Linear complementarity on the orthant",
        "summary": "T(u) = Mu - 1 with M = [[2,1],[1,2]] over the nonnegative orthant; T vanishes at u = (1/3, 1/3).",
        "expect": {"solution": [1.0 / 3.0, 1.0 / 3.0], "tol": 1e-6},
        "problem": {
            "version": "1",
            "kind": "complementarity",
            "operators": {
                "T": _affine([[2.0, 1.0], [1.0, 2.0]], [-1.0, -1.0]),
                "g": {"op": "identity", "dim": 2},
            },
            "set": {"type": "cone", "generators": [[1.0, 0.0], [0.0, 1.0]]},
            "domain": {"type": "box", "lower": [0.0, 0.0], "upper": [10.0, 10.0]},
            "solver": {"residual_tol": 1e-10},
            "seed": 112,
        },
    },
    "fiber-square": {
        "title": "Two preimage branches, one answer",
        "summary": "The square-map instance again; both preimages of the solved image point carry the same operator value.",
        "expect": {"solution": [math.sqrt(0.5)], "tol": 1e-6},
        "problem": {**copy.deepcopy(_SQUARE_GVI), "seed": 113},
    },
    "non-ql": {
        "title": "Certified without segment alignment",
        "summary": "The square map sends segments of [-1,1] far from segments, yet the solve still certifies; the ql check is advisory.",
        "expect": {"solution": [math.sqrt(0.5)], "tol": 1e-6},
        "problem": {**copy.deepcopy(_SQUARE_GVI), "seed": 114},
    },
}


def demo_names():
    return list(DEMOS)


def get_demo(name):
    """A deep copy of one demo entry; raises KeyError for unknown names."""
    if name not in DEMOS:
        known = ", ".join(sorted(DEMOS))
        raise KeyError(f"unknown demo {name!r}; available: {known}")
    return copy.deepcopy(DEMOS[name])
