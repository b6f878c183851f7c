"""Command-line front end: JSON problem files in, one JSON report out.

stdout carries exactly one JSON document per invocation so output can be
piped; human-readable summaries go to stderr.  Exit codes: 0 when the
run certifies (or a check/validation passes), 1 for numerical failures
and refuted hypotheses, 2 for schema violations.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .demos import DEMOS, get_demo
from .errors import SchemaError, ToolkitError
from .gvi import (
    COINCIDENCE_TOL,
    COMPLEMENTARITY_TOL,
    GAP_TOL,
    GviProblem,
    certify as certify_solve,
    check_selection_independence,
    solve_gvi,
)
from .operators import (
    Difference,
    Identity,
    SampleConfig,
    affine_nonexpansive,
    affine_range_inclusion,
    affine_relative_monotone,
    check_fiber_condition,
    check_g_nonexpansive,
    check_monotone_relative,
    check_ql,
    check_range_inclusion,
    fiber_factors,
    proven_report,
)
from .oracle import brute_coincidence
from .schema import check_tolerance, parse_problem, validate

# Sampled checks at the CLI run against this tolerance rather than the
# library default 1e-9: several checks compare values recovered through
# numerical preimage searches, whose noise sits just above 1e-9.
CHECK_TOL = 1e-6
DEFAULT_CHECK_SAMPLES = 200
DEFAULT_RESOLUTION = 0.05

# the other checks, ql and g_nonexpansive, are informational
_LOAD_BEARING = {
    "monotone_relative", "affine_relative_monotone", "range_inclusion", "fiber_condition",
    "selection_independence",
}

_COMMAND_KINDS = {
    "solve-vi": ("vi",),
    "solve-gvi": ("gvi", "complementarity"),
    "find-coincidence": ("coincidence",),
    "find-fixed-point": ("fixed_point",),
}


def _jsonable(obj):
    if isinstance(obj, dict):
        return {key: _jsonable(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(value) for value in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


def _check_cfg(problem):
    samples = int(problem.tolerances.get("check_samples", DEFAULT_CHECK_SAMPLES))
    return SampleConfig(seed=problem.seed, samples=samples, tol=CHECK_TOL)


def _monotone_report(T, t, K, cfg):
    """Analytic verdict for square affine pairs on the directions of K,
    sampled verdict otherwise."""
    forms = T.affine_form(), t.affine_form()
    if None not in forms:
        m, g = forms[0][0], forms[1][0]
        if m.shape[0] == m.shape[1] and m.shape == g.shape:
            return affine_relative_monotone(m, g, basis=K.span())
    return check_monotone_relative(T, t, K, cfg)


def _normalize(problem):
    """The problem as one ``GviProblem`` plus the kind's extra certificate.

    Returns ``(gvi_problem, pair, cone)``.  A VI is the case ``a = id``.
    Coincidence and fixed-point problems solve ``A = g - f``, ``a = g``
    (``g = id`` for a fixed point) and carry ``pair = (f, g)``.  A
    complementarity problem solves ``A = T``, ``a = g`` on its compact
    domain and carries its ``cone``.  Unused extras are None.
    """
    ops, K = problem.operators, problem.feasible_set
    pair = cone = None
    if problem.kind == "vi":
        A, a = ops["A"], Identity(K.dim)
    elif problem.kind == "gvi":
        A, a = ops["A"], ops["a"]
    elif problem.kind == "complementarity":
        A, a, K, cone = ops["T"], ops["g"], problem.domain, problem.feasible_set
    else:
        f, a = ops["f"], ops.get("g") or Identity(K.dim)
        A, pair = Difference(a, f), (f, a)
    gvi_problem = GviProblem(A, a, K, problem.image_set, problem.solver, problem.inversion)
    return gvi_problem, pair, cone


def _entry(report):
    entry = report.to_dict()
    entry["load_bearing"] = entry["property"] in _LOAD_BEARING
    return entry


def _battery(problem, gvi_problem, pair):
    """The checks of the normalized ``(A, a, K)``, plus range inclusion and
    g-nonexpansiveness for a pair, as report entries marked load-bearing or
    not.  Each is decided in closed form where the affine forms allow it
    (an affine map sends segments to segments) and sampled otherwise.  An
    isometric ``a``, such as the identity of a VI or a fixed point, is
    affine with one-point fibers: ``ql``, the fiber condition and selection
    independence hold by construction and are not reported.
    """
    cfg = _check_cfg(problem)
    A, a, K, inv = gvi_problem.A, gvi_problem.a, gvi_problem.K, problem.inversion
    reports = [_monotone_report(A, a, K, cfg)]
    if not a.is_isometry():
        reports += [
            proven_report("ql") if a.affine_form() is not None else check_ql(a, K, cfg),
            proven_report("fiber_condition") if fiber_factors(A, a)
            else check_fiber_condition(A, a, K, cfg, inv),
        ]
    if pair is not None:
        f, g = pair
        reports += [
            affine_range_inclusion(f, g, K, cfg.tol) or check_range_inclusion(f, g, K, cfg, inv),
            affine_nonexpansive(f, g, K) or check_g_nonexpansive(f, g, K, cfg),
        ]
    return [_entry(report) for report in reports]


def _refuted(battery):
    return any(entry["verdict"] == "violated" and entry["load_bearing"] for entry in battery)


def _tolerances(problem, pair, cone, tol, resolution):
    """Every tolerance of the run; ``--tol`` overrides the certificate of the kind."""
    tols = {
        "gap": GAP_TOL,
        "coincidence": COINCIDENCE_TOL,
        "complementarity": COMPLEMENTARITY_TOL,
        "resolution": DEFAULT_RESOLUTION,
        **problem.tolerances,
    }
    key = "coincidence" if pair else "complementarity" if cone else "gap"
    if tol is not None:
        tols[key] = check_tolerance(tol, f"/tolerances/{key}", "--tol")
    if resolution is not None:
        tols["resolution"] = check_tolerance(resolution, "/tolerances/resolution", "--resolution")
    return tols


def _oracle_section(gvi_problem, pair, solution, resolution, gap_kind):
    """Grid-oracle evidence for the solution.

    A coincidence pair gets the grid point of least residual.  Any other
    kind runs no grid: its gap is exact or a lower bound, so it is already
    at most the minimum over any grid in K, and a grid cannot refute what
    it accepts.
    """
    if pair is None:
        what = "exact" if gap_kind == "exact" else "a lower bound"
        return {"skipped": f"the gap is {what}, so no grid can refute it"}
    try:
        point, residual = brute_coincidence(*pair, gvi_problem.K, resolution)
    except ToolkitError as err:
        return {"resolution": resolution, "error": str(err)}
    return {
        "resolution": resolution,
        "point": point.tolist(),
        "residual": residual,
        "distance_to_solution": float(np.linalg.norm(point - solution)),
    }


def run_problem(problem, certify=False, resolution=None, tol=None):
    """Solve one parsed problem and assemble the run report.

    Returns ``(report_dict, exit_code)``.  Every kind takes the same path:
    ``_normalize``, one solve, one ``gvi.certify`` call and one status
    rule.  Certification means every residual-level test passed;
    hypothesis checks can refute a run but never substitute for the
    residual certificates.
    """
    t_start = time.perf_counter()
    gvi_problem, pair, cone = _normalize(problem)
    tols = _tolerances(problem, pair, cone, tol, resolution)
    battery = _battery(problem, gvi_problem, pair)

    report = {
        "tool": "gvikit",
        "tool_version": __version__,
        "kind": problem.kind,
        "problem": problem.raw,
        "solution": None,
        "reduced_solution": None,
        "reduction": None,
        "residuals": {},
        "gap_kind": None,
        "iterations": 0,
        "stop_reason": None,
        "converged": False,
        "step_used": None,
        "hypothesis_reports": battery,
        "timings": {},
        "exit_status": "failed",
    }

    certified = converged = False
    refutation = error = None
    t_solve = time.perf_counter()
    try:
        rep = solve_gvi(gvi_problem)
        if not gvi_problem.a.is_isometry():
            battery.append(_entry(check_selection_independence(gvi_problem, rep.solution)))
        cert = certify_solve(
            gvi_problem,
            rep,
            gap_tol=tols["gap"],
            pullback_tol=tols.get("pullback"),
            pair=pair,
            cone=cone,
            coincidence_tol=tols["coincidence"],
            complementarity_tol=tols["complementarity"],
        )
        converged, certified, refutation = rep.converged, cert.certified, cert.refutation
        report["solution"] = rep.solution
        report["reduced_solution"] = rep.reduced_solution
        report["reduction"] = rep.reduction
        report["residuals"] = cert.residuals
        report["gap_kind"] = rep.gap_kind
        report["iterations"] = rep.iterations
        report["stop_reason"] = rep.stop_reason
        report["step_used"] = rep.step_used
        if cone is not None:
            report["complementarity"] = cert.complementarity.to_dict()
    except ToolkitError as err:
        error = {"type": type(err).__name__, "message": str(err)}
    if refutation is not None:
        # the report names the failed certificate; no exception carries it
        error = {"type": "CertificationFailed", "message": refutation}
    solve_seconds = time.perf_counter() - t_solve
    report["converged"] = converged

    if certify and report["solution"] is not None:
        report["oracle"] = _oracle_section(
            gvi_problem, pair, np.asarray(report["solution"], dtype=float),
            tols["resolution"], report["gap_kind"],
        )

    if certified:
        status = "certified"
    elif refutation is not None or _refuted(battery):
        status = "refuted_hypothesis"
    elif converged and error is None:
        status = "solved_uncertified"
    else:
        status = "failed"
    if error is not None:
        report["error"] = error
    report["exit_status"] = status
    report["timings"] = {
        "solve_s": solve_seconds,
        "total_s": time.perf_counter() - t_start,
    }
    return _jsonable(report), 0 if status == "certified" else 1


def run_check(problem):
    """Hypothesis battery only; exit 0 when nothing load-bearing fails."""
    t_start = time.perf_counter()
    gvi_problem, pair, _ = _normalize(problem)
    battery = _battery(problem, gvi_problem, pair)
    refuted = _refuted(battery)
    report = {
        "tool": "gvikit",
        "tool_version": __version__,
        "kind": problem.kind,
        "problem": problem.raw,
        "hypothesis_reports": battery,
        "timings": {"total_s": time.perf_counter() - t_start},
        "exit_status": "refuted_hypothesis" if refuted else "checks_passed",
    }
    return _jsonable(report), 1 if refuted else 0


def _load_file(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as err:
        raise SchemaError("", f"cannot read {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise SchemaError("", f"not valid JSON: {err}") from err


def _emit(report, code, args, summary=None):
    """Print the report, and the summary line (by default ``_summary_line``)
    unless ``--quiet`` drops it, in which case it is never built."""
    print(json.dumps(report, indent=2))
    if not getattr(args, "quiet", False):
        print(_summary_line(report) if summary is None else summary, file=sys.stderr)
    return code


def _summary_line(report):
    status = report["exit_status"]
    solution = report.get("solution")
    if solution is None:
        return f"gvikit: {report['kind']} -> {status}"
    residuals = report.get("residuals", {})
    parts = [f"solution {np.asarray(solution)}"]
    for key in ("gap", "coincidence"):
        if key in residuals:
            parts.append(f"{key} {residuals[key]:.2e}")
    parts.append(f"stop {report['stop_reason']}")
    return f"gvikit: {report['kind']} -> {status} ({', '.join(parts)})"


@functools.cache
def _parser():
    """The argument parser, built once; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="gvikit",
        description="Solve and certify variational inequalities with composed maps, "
        "coincidence problems, and fixed points over convex sets.",
    )
    parser.add_argument("--version", action="version", version=f"gvikit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def solver_flags(sp, with_oracle=True):
        sp.add_argument("--tol", type=float, default=None, help="certification tolerance override")
        if with_oracle:
            sp.add_argument(
                "--certify", action="store_true", help="attach grid-oracle evidence"
            )
            sp.add_argument(
                "--resolution", type=float, default=None, help="oracle grid spacing"
            )
        sp.add_argument("--quiet", action="store_true", help="suppress the stderr summary")

    for name in ("solve-vi", "solve-gvi", "find-coincidence", "find-fixed-point"):
        sp = sub.add_parser(name, help=f"run a problem file of kind {_COMMAND_KINDS[name]}")
        sp.add_argument("file")
        solver_flags(sp)

    sp = sub.add_parser("check", help="run only the hypothesis battery of a problem file")
    sp.add_argument("file")
    sp.add_argument("--quiet", action="store_true")

    sp = sub.add_parser("certify", help="solve any kind and attach the grid oracle")
    sp.add_argument("file")
    solver_flags(sp, with_oracle=False)
    sp.add_argument("--resolution", type=float, default=None, help="oracle grid spacing")

    sp = sub.add_parser("validate", help="schema-check a problem file without running it")
    sp.add_argument("file")
    sp.add_argument("--quiet", action="store_true")

    sp = sub.add_parser("demo", help="run a built-in demonstration problem")
    sp.add_argument("name")
    solver_flags(sp)

    sub.add_parser("list-demos", help="list the built-in demonstrations")
    return parser


def _dispatch(args):
    command = args.command
    if command == "list-demos":
        listing = {
            "demos": [
                {
                    "name": name,
                    "kind": entry["problem"]["kind"],
                    "title": entry["title"],
                    "summary": entry["summary"],
                }
                for name, entry in DEMOS.items()
            ]
        }
        print(json.dumps(listing, indent=2))
        return 0

    if command == "demo":
        try:
            entry = get_demo(args.name)
        except KeyError as err:
            print(str(err.args[0]), file=sys.stderr)
            return 2
        problem = parse_problem(entry["problem"])
        report, code = run_problem(
            problem,
            certify=args.certify,
            resolution=args.resolution,
            tol=args.tol,
        )
        report["demo"] = args.name
        report["demo_expected"] = entry.get("expect")
        return _emit(report, code, args)

    data = _load_file(args.file)

    if command == "validate":
        diagnostics = validate(data)
        errors = [d for d in diagnostics if d["severity"] == "error"]
        report = {
            "tool": "gvikit",
            "tool_version": __version__,
            "diagnostics": diagnostics,
            "exit_status": "schema_error" if errors else "valid",
        }
        return _emit(
            report,
            2 if errors else 0,
            args,
            f"gvikit: validate -> {report['exit_status']} "
            f"({len(errors)} error(s), {len(diagnostics) - len(errors)} warning(s))",
        )

    problem = parse_problem(data)
    expected = _COMMAND_KINDS.get(command)
    if expected is not None and problem.kind not in expected:
        raise SchemaError(
            "/kind",
            f"command {command!r} handles kinds {', '.join(expected)}; "
            f"this file has kind {problem.kind!r}",
        )

    if command == "check":
        report, code = run_check(problem)
        return _emit(report, code, args, f"gvikit: check -> {report['exit_status']}")

    report, code = run_problem(
        problem,
        certify=(command == "certify") or getattr(args, "certify", False),
        resolution=args.resolution,
        tol=args.tol,
    )
    return _emit(report, code, args)


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        code = _run(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early (``gvikit list-demos | head``):
        # send what is left to devnull so the exit flush cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


def _run(args):
    try:
        return _dispatch(args)
    except SchemaError as err:
        report = {
            "exit_status": "schema_error",
            "error": {"pointer": err.pointer, "message": err.reason},
        }
        print(json.dumps(report, indent=2))
        if not getattr(args, "quiet", False):
            print(
                f"gvikit: schema error at {err.pointer or '<root>'}: {err.reason}",
                file=sys.stderr,
            )
        return 2
    except ToolkitError as err:
        report = {
            "exit_status": "failed",
            "error": {"type": type(err).__name__, "message": str(err)},
        }
        print(json.dumps(report, indent=2))
        if not getattr(args, "quiet", False):
            print(f"gvikit: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
