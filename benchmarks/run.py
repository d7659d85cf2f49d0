"""Benchmark of the lmmss solver, one workload per invocation.

Usage, from the root of a source checkout::

    python3 benchmarks/run.py --workload {steady,small,ladder} --seed N \\
        --seconds S --trace {0,1}

It imports ``lmmss`` from ``src/`` of the checkout, repeats passes of the
workload for ``S`` seconds, checks every operation from outside the solver
and prints an environment record, a readable summary and, as the last line,
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
calls into each layer are traced and the metrics are the per-layer ones.
See ``NOTES.md`` beside this file for what each workload and metric is for.

BLAS is pinned to one thread through the environment before numpy loads:
on a 2-core machine the OpenBLAS default of two threads made the same solves
about four times slower.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
WORKLOADS = ("steady", "small", "ladder")


def pin_blas_and_path():
    """Pin BLAS threads and put ``src/`` first on the import path.

    Must run before numpy is imported.  Returns False when the checkout has
    no ``src/lmmss`` to benchmark.
    """
    os.environ.update(BLAS_THREADS)
    if not (SRC / "lmmss" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(SRC))
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: build the workload, print "ready" and exit (times set-up).
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not pin_blas_and_path():
        print(f"error: no lmmss sources under {SRC}", file=sys.stderr)
        return 2
    import harness

    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        if args.setup_probe:
            harness.build(args.workload, args.seed, workdir)
            print("ready", flush=True)
            return 0
        probe = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
                 "--seed", str(args.seed), "--setup-probe"]
        lines, result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace),
                                    workdir, probe, ROOT)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by a concurrent run
            workdir.parent.rmdir()
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
