"""Strict parsing and validation of JSON problem files.

The schema is closed: unknown fields anywhere are rejected, and every
complaint carries a JSON pointer to the offending location.  Parsing
builds real solver objects, so a file that parses is a file that runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .errors import SchemaError, ToolkitError, UnsupportedVariant
from .geometry import (
    Ball,
    Box,
    ConvexSet,
    HPolytope,
    PolyhedralCone,
    Simplex,
)
from .gvi import IMAGE_TOL, InversionParams, _image_miss
from .operators import operator_from_dict
from .vi import SolverParams

KINDS = ("vi", "gvi", "coincidence", "fixed_point", "complementarity")

REQUIRED_OPERATORS = {
    "vi": ("A",),
    "gvi": ("A", "a"),
    "coincidence": ("f", "g"),
    "fixed_point": ("f",),
    "complementarity": ("T", "g"),
}

_TOP_KEYS = {
    "version",
    "kind",
    "operators",
    "set",
    "image_set",
    "domain",
    "solver",
    "inversion",
    "seed",
    "tolerances",
}

# the inner map of each kind that may declare an image set
_INNER = {"gvi": "a", "coincidence": "g", "complementarity": "g"}

_SET_KEYS = {
    "box": {"type", "lower", "upper"},
    "ball": {"type", "center", "radius"},
    "simplex": {"type", "dim"},
    "hpolytope": {"type", "normals", "offsets"},
    "cone": {"type", "generators"},
}

_OP_KEYS = {
    "identity": {"op", "dim"},
    "constant": {"op", "value", "in_dim"},
    "affine": {"op", "matrix", "shift"},
    "rotation": {"op", "angle", "plane", "dim"},
    "pointwise": {"op", "kind", "dim"},
    "scale": {"op", "factor", "inner"},
    "sum": {"op", "left", "right"},
    "difference": {"op", "left", "right"},
    "compose": {"op", "outer", "inner"},
}

_SOLVER_KEYS = {"step", "max_iter", "residual_tol", "step_rule", "beta", "trial_cap"}
_INVERSION_KEYS = {"tol", "max_iter", "multistart", "step_control"}
_TOLERANCE_KEYS = {
    "gap",
    "coincidence",
    "complementarity",
    "pullback",
    "resolution",
    "check_samples",
}


def _need(d, key, pointer):
    if key not in d:
        raise SchemaError(f"{pointer}/{key}", "missing required field")
    return d[key]


def _expect_dict(v, pointer):
    if not isinstance(v, dict):
        raise SchemaError(pointer, f"expected an object, got {type(v).__name__}")
    return v

def _expect_number(v, pointer):
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise SchemaError(pointer, f"expected a number, got {type(v).__name__}")
    return float(v)


def _expect_int(v, pointer):
    if isinstance(v, bool) or not isinstance(v, int):
        raise SchemaError(pointer, f"expected an integer, got {type(v).__name__}")
    return v


def check_tolerance(v, pointer, flag=None):
    """A finite tolerance ``> 0``; ``flag`` names the command-line flag that set it."""
    v = _expect_number(v, pointer)
    if not (math.isfinite(v) and v > 0):
        source = f"{flag} " if flag else ""
        raise SchemaError(pointer, f"{source}must be a finite number > 0, got {v}")
    return v


def _expect_string(v, pointer):
    if not isinstance(v, str):
        raise SchemaError(pointer, f"expected a string, got {type(v).__name__}")
    return v


def _reject_unknown(d, allowed, pointer):
    for key in d:
        if key not in allowed:
            raise SchemaError(f"{pointer}/{key}", "unknown field")


def parse_set(d, pointer):
    d = _expect_dict(d, pointer)
    kind = _expect_string(_need(d, "type", pointer), f"{pointer}/type")
    if kind not in _SET_KEYS:
        raise SchemaError(f"{pointer}/type", f"unknown set type {kind!r}")
    _reject_unknown(d, _SET_KEYS[kind], pointer)
    try:
        if kind == "box":
            return Box(_need(d, "lower", pointer), _need(d, "upper", pointer))
        if kind == "ball":
            return Ball(_need(d, "center", pointer), _need(d, "radius", pointer))
        if kind == "simplex":
            return Simplex(_expect_int(_need(d, "dim", pointer), f"{pointer}/dim"))
        if kind == "hpolytope":
            return HPolytope(_need(d, "normals", pointer), _need(d, "offsets", pointer))
        return PolyhedralCone(_need(d, "generators", pointer))
    except SchemaError:
        raise
    except (ToolkitError, ValueError, TypeError) as err:
        raise SchemaError(pointer, str(err)) from err


def parse_operator(d, pointer):
    d = _expect_dict(d, pointer)
    tag = _expect_string(_need(d, "op", pointer), f"{pointer}/op")
    if tag not in _OP_KEYS:
        raise SchemaError(f"{pointer}/op", f"unknown operator {tag!r}")
    _reject_unknown(d, _OP_KEYS[tag], pointer)
    for sub in ("inner", "outer", "left", "right"):
        if sub in d:
            parse_operator(d[sub], f"{pointer}/{sub}")
    try:
        return operator_from_dict(d)
    except SchemaError:
        raise
    except (ToolkitError, ValueError, TypeError, KeyError) as err:
        raise SchemaError(pointer, str(err)) from err


def parse_solver(d, pointer):
    if d is None:
        return SolverParams()
    d = _expect_dict(d, pointer)
    _reject_unknown(d, _SOLVER_KEYS, pointer)
    kwargs = {}
    if d.get("step") is not None:
        kwargs["step"] = _expect_number(d["step"], f"{pointer}/step")
    if "max_iter" in d:
        kwargs["max_iter"] = _expect_int(d["max_iter"], f"{pointer}/max_iter")
    if "residual_tol" in d:
        kwargs["residual_tol"] = _expect_number(d["residual_tol"], f"{pointer}/residual_tol")
    if "step_rule" in d:
        kwargs["step_rule"] = _expect_string(d["step_rule"], f"{pointer}/step_rule")
    if "beta" in d:
        kwargs["beta"] = _expect_number(d["beta"], f"{pointer}/beta")
    if "trial_cap" in d:
        kwargs["trial_cap"] = _expect_int(d["trial_cap"], f"{pointer}/trial_cap")
    try:
        return SolverParams(**kwargs)
    except ValueError as err:
        raise SchemaError(pointer, str(err)) from err


def parse_inversion(d, pointer):
    if d is None:
        return InversionParams()
    d = _expect_dict(d, pointer)
    _reject_unknown(d, _INVERSION_KEYS, pointer)
    kwargs = {}
    if "tol" in d:
        kwargs["tol"] = _expect_number(d["tol"], f"{pointer}/tol")
    if "max_iter" in d:
        kwargs["max_iter"] = _expect_int(d["max_iter"], f"{pointer}/max_iter")
    if "multistart" in d:
        kwargs["multistart"] = _expect_int(d["multistart"], f"{pointer}/multistart")
    if "step_control" in d:
        kwargs["step_control"] = _expect_number(d["step_control"], f"{pointer}/step_control")
    try:
        return InversionParams(**kwargs)
    except ValueError as err:
        raise SchemaError(pointer, str(err)) from err


@dataclass
class Problem:
    """A fully parsed problem file, ready to run."""

    kind: str
    operators: dict
    feasible_set: ConvexSet
    image_set: Optional[ConvexSet]
    domain: Optional[ConvexSet]
    solver: SolverParams
    inversion: InversionParams
    seed: int
    tolerances: dict
    raw: dict


def parse_problem(data):
    """Validate ``data`` against the closed schema and build a Problem."""
    d = _expect_dict(data, "")
    _reject_unknown(d, _TOP_KEYS, "")
    version = _expect_string(_need(d, "version", ""), "/version")
    if version != "1":
        raise SchemaError("/version", f"unsupported version {version!r}")
    kind = _expect_string(_need(d, "kind", ""), "/kind")
    if kind not in KINDS:
        raise SchemaError("/kind", f"kind must be one of {', '.join(KINDS)}")
    seed = _expect_int(_need(d, "seed", ""), "/seed")

    ops_raw = _expect_dict(_need(d, "operators", ""), "/operators")
    required = REQUIRED_OPERATORS[kind]
    _reject_unknown(ops_raw, set(required), "/operators")
    operators = {}
    for name in required:
        if name not in ops_raw:
            raise SchemaError(f"/operators/{name}", f"kind {kind!r} requires operator {name!r}")
        operators[name] = parse_operator(ops_raw[name], f"/operators/{name}")

    feasible = parse_set(_need(d, "set", ""), "/set")
    solver = parse_solver(d.get("solver"), "/solver")
    inversion = parse_inversion(d.get("inversion"), "/inversion")

    tolerances = {}
    if "tolerances" in d:
        tol_raw = _expect_dict(d["tolerances"], "/tolerances")
        _reject_unknown(tol_raw, _TOLERANCE_KEYS, "/tolerances")
        for key, value in tol_raw.items():
            pointer = f"/tolerances/{key}"
            if key == "check_samples" and _expect_int(value, pointer) < 1:
                raise SchemaError(pointer, f"must be an integer >= 1, got {value}")
            tolerances[key] = check_tolerance(value, pointer)

    inner = _INNER.get(kind)
    image_set = None
    domain = None
    if kind == "complementarity":
        if not isinstance(feasible, PolyhedralCone):
            raise SchemaError("/set", "complementarity requires a cone set")
        if "domain" not in d:
            raise SchemaError(
                "/domain", "complementarity requires a compact solve domain"
            )
        domain = parse_set(d["domain"], "/domain")
        if isinstance(domain, PolyhedralCone):
            raise SchemaError("/domain", "the solve domain must be a compact variant")
    elif isinstance(feasible, PolyhedralCone):
        raise SchemaError(
            "/set", f"kind {kind!r} needs a compact set; a cone set belongs to kind 'complementarity'"
        )
    elif "domain" in d:
        raise SchemaError("/domain", f"field not allowed for kind {kind!r}")
    if "image_set" in d:
        if inner is None:
            raise SchemaError("/image_set", f"field not allowed for kind {kind!r}")
        image_set = parse_set(d["image_set"], "/image_set")
    elif inner is not None and operators[inner].affine_form() is None:
        # only a map with no affine form is solved on its image
        raise SchemaError("/image_set", "image_set is required when the inner map is not affine")

    base = domain if kind == "complementarity" else feasible
    for name, op in operators.items():
        if op.in_dim != base.dim:
            raise SchemaError(
                f"/operators/{name}",
                f"operator input dimension {op.in_dim} does not match the set dimension {base.dim}",
            )
    if kind == "complementarity" and operators["g"].out_dim != feasible.dim:
        raise SchemaError(
            "/operators/g",
            f"output dimension {operators['g'].out_dim} does not match the cone dimension "
            f"{feasible.dim}",
        )
    # the first operator of each kind pairs with its inner map, or with K
    name = REQUIRED_OPERATORS[kind][0]
    want = base.dim if inner is None else operators[inner].out_dim
    if operators[name].out_dim != want:
        against = "the set dimension" if inner is None else f"the output dimension of {inner!r}"
        raise SchemaError(
            f"/operators/{name}",
            f"output dimension {operators[name].out_dim} does not match {against} {want}",
        )
    if image_set is not None and image_set.dim != operators[inner].out_dim:
        raise SchemaError(
            "/image_set",
            f"image dimension {image_set.dim} does not match the range of {inner!r}",
        )

    return Problem(
        kind=kind,
        operators=operators,
        feasible_set=feasible,
        image_set=image_set,
        domain=domain,
        solver=solver,
        inversion=inversion,
        seed=seed,
        tolerances=tolerances,
        raw=d,
    )


def validate(data):
    """Diagnostics for a problem file without running it.

    Returns a list of ``{"severity", "pointer", "message"}`` entries:
    schema violations as errors, plus image-consistency warnings for a
    file that declares its image set, over a sample of the set and, for
    an inner map that is not affine, its vertices, or a warning that the
    inner map overflows there.
    """
    diagnostics = []
    try:
        problem = parse_problem(data)
    except SchemaError as err:
        diagnostics.append(
            {"severity": "error", "pointer": err.pointer, "message": err.reason}
        )
        return diagnostics

    inner_name = _INNER.get(problem.kind)
    if "image_set" in problem.raw:
        base = problem.domain if problem.kind == "complementarity" else problem.feasible_set
        inner = problem.operators[inner_name]
        try:
            worst, witness = _image_miss(
                inner, base, problem.image_set, problem.seed,
                vertices=inner.affine_form() is None,
            )
        except UnsupportedVariant as err:
            diagnostics.append(
                {"severity": "warning", "pointer": "/image_set", "message": str(err)}
            )
            return diagnostics
        if worst > IMAGE_TOL:
            message = (
                f"declared image misses {inner_name}(x) by {worst:.3e} at x={witness.tolist()}"
            )
            diagnostics.append({"severity": "warning", "pointer": "/image_set", "message": message})
    return diagnostics
