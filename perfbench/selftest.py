"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

Checks that the answer checker rejects a perturbed answer and a wrong
status, that every generated problem file passes ``gvikit validate`` with
no diagnostic, and that one problem of each workload runs and passes.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
import unittest
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import bench  # noqa: E402
import workloads  # noqa: E402
from gvikit import validate  # noqa: E402
from gvikit.demos import DEMOS  # noqa: E402

ROUNDS_VALIDATED = 2


def first_round(workload, seed=7):
    return next(workloads.rounds(workload, seed, DEMOS))


class BenchSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        cls.workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=out_dir))
        cls.smoke = {}
        for workload in workloads.WORKLOADS:
            case = first_round(workload)[0]
            cls.smoke[workload] = (case, bench.RUNNERS[workload](case, cls.workdir))

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.workdir, ignore_errors=True)

    def test_one_problem_of_each_workload_passes(self):
        for workload, (case, out) in self.smoke.items():
            with self.subTest(workload=workload):
                self.assertEqual(bench.judge(case, out), (False, False, None))
                self.assertGreater(out.ms, 0.0)

    def test_checker_rejects_a_perturbed_answer(self):
        for workload, (case, out) in self.smoke.items():
            with self.subTest(workload=workload):
                x = out.solution
                if workload == "demos":
                    moved = x + 0.01
                else:
                    # 2% of the way toward the centre of K (simplex or [-1, 1]^n)
                    centre = np.full_like(x, 1.0 / x.size) if "simplex" in case.label else 0.0 * x
                    moved = 0.98 * x + 0.02 * centre
                moved = replace(out, solution=moved)
                failed, wrong, reason = bench.judge(case, moved)
                self.assertTrue(failed and wrong, reason)

    def test_checker_rejects_a_wrong_status(self):
        case, out = self.smoke["demos"]
        failed, wrong, _ = bench.judge(case, replace(out, status="solved_uncertified", code=1))
        self.assertTrue(failed)
        self.assertFalse(wrong)
        refuted = next(c for c in first_round("polytope") if c.expected_status != "certified")
        claimed = bench.Outcome(1.0, status="certified", code=0, solution=np.full(len(refuted.data["operators"]["f"]["shift"]), 0.5))
        failed, wrong, _ = bench.judge(refuted, claimed)
        self.assertTrue(failed and wrong)
        self.assertEqual(bench.judge(case, replace(out, code=1))[0], True)

    def test_generated_problems_validate_cleanly(self):
        for workload in workloads.WORKLOADS:
            source = workloads.rounds(workload, 11, DEMOS)
            for _ in range(ROUNDS_VALIDATED):
                for case in next(source):
                    with self.subTest(case=case.label, pid=case.pid):
                        self.assertEqual(validate(case.data), [])

    def test_escaping_instances_have_no_fixed_point_in_the_simplex(self):
        source = workloads.rounds("polytope", 5, DEMOS)
        for _ in range(3):
            for case in next(source):
                if case.expected_status != "refuted_hypothesis":
                    continue
                f = case.data["operators"]["f"]
                lin = np.asarray(f["matrix"])
                fixed = np.linalg.solve(np.eye(lin.shape[0]) - lin, np.asarray(f["shift"]))
                self.assertGreater(abs(fixed.sum() - 1.0), 0.1)

    def test_same_seed_same_problems(self):
        for workload in workloads.WORKLOADS:
            a = [c.data for c in first_round(workload, seed=3)]
            b = [c.data for c in first_round(workload, seed=3)]
            c = [c.data for c in first_round(workload, seed=4)]
            self.assertEqual(a, b)
            self.assertNotEqual(a, c)


if __name__ == "__main__":
    unittest.main()
