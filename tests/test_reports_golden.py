"""Golden run reports of the 14 demos.

Each file in ``tests/golden/`` holds the report of
``run_problem(certify=True)`` for one demo, with ``timings`` removed.
Keys, strings, booleans and integers (statuses, verdicts, iteration
counts) must match exactly; floats must match to 1e-9.  A change that
alters report content on purpose regenerates the files with

    PYTHONPATH=src python tests/test_reports_golden.py

and says in its change notes which fields moved and why.
"""

import json
import math
from pathlib import Path

import pytest

from gvikit.cli import run_problem
from gvikit.demos import demo_names, get_demo
from gvikit.schema import parse_problem

GOLDEN = Path(__file__).resolve().parent / "golden"
FLOAT_TOL = 1e-9


def _report(name):
    report, _ = run_problem(parse_problem(get_demo(name)["problem"]), certify=True)
    report.pop("timings")
    return report


def _assert_matches(got, want, path="report"):
    if isinstance(want, dict):
        assert isinstance(got, dict), path
        assert list(got) == list(want), f"{path}: keys {list(got)} != {list(want)}"
        for key in want:
            _assert_matches(got[key], want[key], f"{path}/{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_matches(g, w, f"{path}/{i}")
    elif isinstance(want, float):
        assert isinstance(got, float), f"{path}: {got!r} is not a float"
        assert math.isclose(got, want, rel_tol=FLOAT_TOL, abs_tol=FLOAT_TOL), (
            f"{path}: {got!r} != {want!r}"
        )
    else:
        assert type(got) is type(want) and got == want, f"{path}: {got!r} != {want!r}"


@pytest.mark.parametrize("name", demo_names())
def test_report_matches_golden(name):
    want = json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))
    _assert_matches(json.loads(json.dumps(_report(name))), want)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for demo in demo_names():
        text = json.dumps(_report(demo), indent=2) + "\n"
        (GOLDEN / f"{demo}.json").write_text(text, encoding="utf-8")
