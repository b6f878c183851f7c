"""Benchmark entry point.

    python3 perfbench/run.py --workload {demos,ladder,polytope,all} --seed N \
        --seconds S --trace {0,1}

Run from the root of a gvikit checkout: the program is imported from
``src/`` of that checkout and nowhere else.  With ``--trace 0`` the last
line of standard output is a JSON object with the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of a traced run.  Lines
before it list failures, every metric with its unit, and the run metadata.
``--workload all`` runs the three workloads one after another, each in a
fresh process, and exits non-zero if any of them does.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("demos", "ladder", "polytope")
SRC = ROOT / "src"

_BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        codes = []
        for workload in WORKLOADS:
            print(f"== {workload}", flush=True)
            argv = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(args.trace)]
            codes.append(subprocess.run(argv, check=False).returncode)
        return max(codes)
    if not (SRC / "gvikit" / "__init__.py").is_file():
        print(f"perfbench: no gvikit sources under {SRC}", file=sys.stderr)
        return 2

    # cap BLAS threads at the CPUs this process may use, before numpy loads
    nproc = len(os.sched_getaffinity(0))
    for var in _BLAS_THREAD_VARS:
        os.environ[var] = str(nproc)
    sys.path.insert(0, str(SRC))

    import bench

    return bench.main(args, ROOT, nproc)


if __name__ == "__main__":
    sys.exit(main())
