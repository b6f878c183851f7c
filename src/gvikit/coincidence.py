"""Coincidence and fixed points via the variational-inequality route.

A coincidence point of the pair (f, g) satisfies f(x) = g(x).  Solving
the general variational inequality with ``A = g - f`` and ``a = g`` finds
one: at a solution the probe ``y = g^{-1}(f(x))`` forces
``-|f(x) - g(x)|^2 >= 0``, so the coincidence residual collapses whenever
``f(K)`` sits inside ``g(K)``.  Fixed points are the ``g = identity``
special case.

``find_coincidence`` certifies the residual explicitly instead of trusting
that argument, with the rule ``gvi.certify`` applies to every kind.  A
solved inequality whose residual stays large is not an error: it comes
back as a converged, uncertified report, and the hypothesis that usually
broke is range inclusion (``affine_range_inclusion``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .geometry import ConvexSet
from .gvi import (
    COINCIDENCE_TOL,
    GviProblem,
    GviSolveReport,
    InversionParams,
    certify,
    solve_gvi,
)
from .operators import (
    Difference,
    Identity,
    OperatorExpr,
    SampleConfig,
    affine_range_inclusion,
    check_range_inclusion,
)
from .vi import SolverParams

_SELF_MAP_SEED = 52802179


@dataclass
class CoincidenceProblem:
    """The pair (f, g) on K; only the solve of a g with no affine form reads ``image_gK``."""

    f: OperatorExpr
    g: OperatorExpr
    K: ConvexSet
    image_gK: Optional[ConvexSet] = None
    params: SolverParams = field(default_factory=SolverParams)
    inversion: InversionParams = field(default_factory=InversionParams)
    coincidence_tol: float = COINCIDENCE_TOL


@dataclass
class CoincidenceReport(GviSolveReport):
    coincidence_residual: float = np.inf
    certified: bool = False


def find_coincidence(problem, x0=None):
    """Solve ``VI(g - f, g, K)`` for a coincidence point and certify it.

    ``certified`` follows ``gvi.certify``: the solve converged, the gap
    and pullback residuals are within tolerance, and ``|f(x) - g(x)| <=
    coincidence_tol``.  A miss is a status, never an exception.  A
    converged solve that misses (``converged=True``, ``certified=False``)
    points to a violated hypothesis, most often range inclusion.
    """
    gvi_problem = GviProblem(
        A=Difference(problem.g, problem.f),
        a=problem.g,
        K=problem.K,
        image_aK=problem.image_gK,
        params=problem.params,
        inversion=problem.inversion,
    )
    rep = solve_gvi(gvi_problem, x0=x0)
    cert = certify(
        gvi_problem,
        rep,
        pair=(problem.f, problem.g),
        coincidence_tol=problem.coincidence_tol,
    )
    return CoincidenceReport(
        **dict(vars(rep), gap_certificate=cert.residuals["gap"]),
        coincidence_residual=cert.residuals["coincidence"],
        certified=cert.certified,
    )


def find_fixed_point(f, K, params=None, inversion=None, tol=COINCIDENCE_TOL, x0=None):
    """Fixed point of f on K as the coincidence of (f, identity).

    Runs the self-map check first, in closed form where it can; a violated
    report does not abort the solve (the condition is sufficient, not
    necessary) but is attached to the returned report as ``self_map_report``.
    """
    g = Identity(K.dim)
    problem = CoincidenceProblem(
        f=f,
        g=g,
        K=K,
        params=params if params is not None else SolverParams(),
        inversion=inversion if inversion is not None else InversionParams(),
        coincidence_tol=tol,
    )
    cfg = SampleConfig(seed=_SELF_MAP_SEED, samples=200)
    self_map = affine_range_inclusion(f, g, K, cfg.tol)
    self_map = self_map or check_range_inclusion(f, g, K, cfg, problem.inversion)
    report = find_coincidence(problem, x0=x0)
    report.self_map_report = self_map
    return report
