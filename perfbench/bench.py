"""Run one workload against gvikit, check every answer, report the metrics.

Each workload is one closed-loop client in this process: the next problem
starts only after the previous one returned.  ``demos`` and ``polytope``
go through the command line entry point, timed as
``cli.main(["certify", file, "--quiet"])`` (file load, parse, hypothesis
battery, solve, grid oracle and JSON output); ``ladder`` goes through the
library, timed as ``GviProblem(...)`` plus ``solve_gvi``.  Writing the
problem file, building the library objects and checking the answers happen
outside the timed calls.

Rounds always run to completion.  A run stops after the first round that
ends at least ``--seconds`` after the start, once at least ``P90_TAIL``
latencies lie above the 90th percentile, so the tail percentile is backed
by that many samples.  Latencies and throughput are scaled to a reference
host speed measured beside every problem (see ``calibration_ms``).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Optional

import numpy as np

import gvikit
from gvikit import cli, gvi
from gvikit.demos import DEMOS
from gvikit.geometry import set_from_dict
from gvikit.operators import operator_from_dict
from gvikit.vi import SolverParams

import reference
import spans
import workloads

SETUP_REPEATS = 5
P90_TAIL = 10
# hard stop, as a multiple of --seconds, when the tail rule is still unmet
MAX_STRETCH = 3.0
# the CLI's certification rule, applied to library results
PULLBACK_LIMIT = 1e-7


@dataclass
class Outcome:
    """What the program returned for one case, and how long it took."""

    ms: float
    status: Optional[str] = None
    code: Optional[int] = None
    solution: Optional[np.ndarray] = None
    report: dict = field(default_factory=dict)
    error: Optional[str] = None


def run_cli(case, workdir):
    path = workdir / f"problem-{case.pid}.json"
    path.write_text(json.dumps(case.data), encoding="utf-8")
    out = io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(["certify", str(path), "--quiet"])
    except Exception as err:  # a crash is a failed problem, not a benchmark error
        return Outcome(1e3 * (perf_counter() - start), error=f"{type(err).__name__}: {err}")
    ms = 1e3 * (perf_counter() - start)
    try:
        report = json.loads(out.getvalue())
    except json.JSONDecodeError as err:
        return Outcome(ms, code=code, error=f"stdout is not one JSON report: {err}")
    solution = report.get("solution")
    return Outcome(
        ms,
        status=report.get("exit_status"),
        code=code,
        solution=None if solution is None else np.asarray(solution, dtype=float),
        report=report,
    )


def library_problem(data):
    """Keyword arguments for ``GviProblem`` built from a ladder problem file."""
    ops = data["operators"]
    return dict(
        A=operator_from_dict(ops["A"]),
        a=operator_from_dict(ops["a"]),
        K=set_from_dict(data["set"]),
        image_aK=set_from_dict(data["image_set"]),
        params=SolverParams(max_iter=data["solver"]["max_iter"]),
    )


def run_library(case, workdir=None):
    kwargs = library_problem(case.data)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        start = perf_counter()
        try:
            rep = gvi.solve_gvi(gvi.GviProblem(**kwargs))
        except Exception as err:
            return Outcome(1e3 * (perf_counter() - start), error=f"{type(err).__name__}: {err}")
        ms = 1e3 * (perf_counter() - start)
    certified = (
        rep.converged
        and rep.gap_certificate >= -reference.GAP_TOL
        and rep.pullback_residual <= PULLBACK_LIMIT
    )
    status = "certified" if certified else "solved_uncertified" if rep.converged else "failed"
    out = Outcome(
        ms,
        status=status,
        code=0 if certified else 1,
        solution=np.asarray(rep.solution, dtype=float),
        report={"reduced_solution": np.asarray(rep.reduced_solution, dtype=float)},
    )
    image_warnings = [w for w in caught if issubclass(w.category, gvi.ImageConsistencyWarning)]
    if image_warnings:
        out.error = f"image-consistency warning: {image_warnings[0].message}"
    return out


RUNNERS = {"demos": run_cli, "ladder": run_library, "polytope": run_cli}


def judge(case, out):
    """``(failed, wrong, reason)`` for one case.

    A problem fails when it raises, reports a status other than the
    reference status, or misses the reference answer.  It is wrong -- a
    silent wrong answer -- when it reports ``certified`` and the
    independent check refutes the answer.
    """
    if out.error is not None:
        return True, False, out.error
    claimed = out.status == "certified"
    reason = None
    if claimed:
        reason = (
            "no solution reported"
            if out.solution is None
            else case.check(out.solution, out.report)
        )
    wrong = claimed and reason is not None
    if out.status != case.expected_status:
        return True, wrong, f"status {out.status}, expected {case.expected_status}"
    if out.code != (0 if claimed else 1):
        return True, wrong, f"exit code {out.code} for status {out.status}"
    return reason is not None, wrong, reason


# Shared hosts drift in speed by tens of percent over tens of seconds,
# which swamps the differences the benchmark must resolve.  After every
# problem the loop times a fixed kernel that never touches gvikit (small
# numpy operations and interpreter work, like gvikit's own inner loops).
# Each latency is then scaled by CAL_REFERENCE_MS over the median kernel time
# of the problems around it: latencies are reported at the speed of a host
# on which the kernel takes CAL_REFERENCE_MS.  The raw figures are printed
# beside the scaled ones.
CAL_REFERENCE_MS = 4.0
CAL_WINDOW = 4
_CAL_MATRIX = np.array([[0.5, -0.2, 0.1, 0.0], [0.3, 0.4, -0.1, 0.2], [0.0, 0.1, 0.6, -0.3], [0.2, 0.0, 0.1, 0.5]])
_CAL_VECTOR = np.array([0.3, -0.1, 0.2, 0.4])


def calibration_ms():
    """Wall time of the fixed calibration kernel, in ms."""
    start = perf_counter()
    x = _CAL_VECTOR.copy()
    total = 0.0
    table = {}
    for i in range(400):
        x = np.clip(_CAL_MATRIX @ x * 0.3 + _CAL_VECTOR, -1.0, 1.0)
        total += float(np.linalg.norm(x))
        table[i % 37] = table.get(i % 37, 0.0) + total
    return 1e3 * (perf_counter() - start)


@dataclass
class Record:
    """One timed problem: its case, the outcome, the loop time, the kernel time."""

    case: workloads.Case
    out: Outcome
    wall_s: float
    cal_ms: float


def speed_factors(records):
    """Per record: local median kernel time over CAL_REFERENCE_MS."""
    cal = np.array([r.cal_ms for r in records])
    return np.array([
        np.median(cal[max(0, i - CAL_WINDOW): i + CAL_WINDOW + 1]) for i in range(cal.size)
    ]) / CAL_REFERENCE_MS


def scaled_latencies(records):
    return np.array([r.out.ms for r in records]) / speed_factors(records)


def tail_count(latencies):
    lat = np.asarray(latencies)
    return int(np.sum(lat > np.percentile(lat, 90)))


def run_rounds(workload, seed, seconds, workdir, tracer=None, rounds=None, tail=P90_TAIL):
    """Run whole rounds; returns (records, rounds run).

    With ``rounds`` set, exactly that many rounds run; otherwise the loop
    stops as the module docstring describes.
    """
    runner = RUNNERS[workload]
    source = workloads.rounds(workload, seed, DEMOS)
    records = []
    done = 0
    start = perf_counter()
    while True:
        for case in next(source):
            t0 = perf_counter()
            if tracer is None:
                out = runner(case, workdir)
            else:
                with tracer.problem_span(case.pid):
                    out = runner(case, workdir)
            records.append(Record(case, out, perf_counter() - t0, calibration_ms()))
        done += 1
        if rounds is not None:
            if done >= rounds:
                break
            continue
        elapsed = perf_counter() - start
        if elapsed >= seconds and (
            tail_count(scaled_latencies(records)) >= tail
            or elapsed >= MAX_STRETCH * seconds
        ):
            break
    return records, done


def measure_setup(root):
    """Median wall time of a fresh interpreter running ``import gvikit``."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import gvikit"],
            cwd=root, env=env, check=True, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, timeout=120,
        )
        times.append(perf_counter() - start)
    return statistics.median(times)


def commit_of(root):
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        res = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
            timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return res.stdout.strip()


def metadata(root, args, nproc):
    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines())
        for p in sorted((root / "src").rglob("*.py"))
    )
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit_of(root),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "gvikit": gvikit.__version__,
        "nproc": nproc,
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", nproc)),
        "src_lines": src_lines,
    }


def summarize(records):
    """(attempted, failed, wrong, [count, first reason] by case label)."""
    failed = wrong = 0
    reasons = {}
    for r in records:
        is_failed, is_wrong, reason = judge(r.case, r.out)
        failed += is_failed
        wrong += is_wrong
        if is_failed:
            reasons.setdefault(r.case.label, [0, reason])[0] += 1
    return len(records), failed, wrong, reasons


def end_to_end(records, failed, setup_s):
    lat = scaled_latencies(records)
    attempted = len(records)
    busy = float(np.sum(np.array([r.wall_s for r in records]) / speed_factors(records)))
    return {
        "setup_s": (setup_s, "s"),
        "problem_ms_p50": (float(np.median(lat)), "ms"),
        "problem_ms_p90": (float(np.percentile(lat, 90)), "ms"),
        "problems_per_s": (attempted / busy, "1/s"),
        "ok_frac": ((attempted - failed) / attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def raw_figures(records):
    """Unscaled latencies and the kernel time, for the record."""
    lat = np.array([r.out.ms for r in records])
    return {
        "raw_problem_ms_p50": float(np.median(lat)),
        "raw_problem_ms_p90": float(np.percentile(lat, 90)),
        "raw_problems_per_s": len(records) / sum(r.wall_s for r in records),
        "calibration_ms_median": float(np.median([r.cal_ms for r in records])),
    }


def main(args, root, nproc):
    src = (root / "src").resolve()
    if src not in Path(gvikit.__file__).resolve().parents:
        print(f"perfbench: imported gvikit from {gvikit.__file__}, not {src}", file=sys.stderr)
        return 2
    out_dir = root / ".perfbench_out"
    workdir = out_dir / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    meta = metadata(root, args, nproc)
    try:
        if args.trace:
            metrics, results, info = traced_run(args, workdir, out_dir)
        else:
            setup_s = measure_setup(root)
            results, done = run_rounds(args.workload, args.seed, args.seconds, workdir)
            info = {"rounds": done, **raw_figures(results)}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed, wrong, reasons = summarize(results)
    if not args.trace:
        metrics = end_to_end(results, failed, setup_s)
    meta.update(info, samples=attempted, failed=failed, wrong=wrong)
    for label, (count, reason) in sorted(reasons.items()):
        print(f"failure  {label}  x{count}: {reason}")
    if not args.trace:
        print(f"metric   failed_frac = {failed / attempted!r} ratio ({failed} of {attempted})")
    for name, (value, unit) in metrics.items():
        print(f"metric   {name} = {value!r} {unit}")
    print("meta     " + json.dumps(meta, sort_keys=True))
    result = {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def traced_run(args, workdir, out_dir):
    """Untraced rounds for half the time, then the same rounds traced."""
    plain, done = run_rounds(args.workload, args.seed, args.seconds / 2.0, workdir, tail=0)
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced, _ = run_rounds(args.workload, args.seed, 0.0, workdir, tracer=tracer, rounds=done)
    finally:
        tracer.uninstall()
    metrics = spans.layer_metrics(tracer)
    p50_plain = float(np.median(scaled_latencies(plain)))
    p50_traced = float(np.median(scaled_latencies(traced)))
    metrics["trace.overhead_frac"] = (p50_traced / p50_plain - 1.0, "ratio")
    path = out_dir / f"spans-{args.workload}-{args.seed}.npz"
    tracer.save(path)
    return metrics, plain + traced, {"rounds": done, "spans": len(tracer.start), "span_file": path.name}
