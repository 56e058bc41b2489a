"""Run one workload of the pipeline benchmark and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload fig2-sweep-resnet20 --seed 0 \\
        --seconds 10 --trace 0

``--trace 0`` sets up ``SETUP_REPEATS`` times, then times one unit of
the workload, and reports the end-to-end metrics of ``BENCHMARK.json``.
A unit takes 35 to 60 s on a 2-CPU host, longer than the
``run_seconds`` of ``BENCHMARK.json``, so ``--seconds`` changes nothing.
``--trace 1`` runs the unit twice with the same seed, untraced and then
traced, checks that both compute the same outputs, and reports the
per-layer metrics: self time per layer account, inclusive time of the
stages, per-call medians, counts, the tracing overhead, and the
quantities that are zero on some workload (so cannot be bounded
relative to a median).

Every run prints a line per metric, the environment fingerprint and
its correctness checks, and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``.  Any failed check
makes ``correct`` false and the exit code 1.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _pin_blas_threads() -> None:
    """Run BLAS single-threaded.

    A multi-threaded BLAS stalls whenever another process takes one of
    its CPUs: on a 2-vCPU VM sharing its CPUs with one other process, the
    unit ran 3.4x slower with two BLAS threads, while with one thread it
    slowed only by its share of the CPU (two threads are ~8% faster when
    the CPUs are idle).
    """
    for name in BLAS_THREAD_VARS:
        os.environ[name] = "1"


def _import_package() -> bool:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import repro from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return False
    if Path(repro.__file__).resolve().parent.parent != ROOT / "src":
        print(f"perfbench: repro resolved outside this checkout: {repro.__file__}", file=sys.stderr)
        return False
    return True


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    _pin_blas_threads()
    if not _import_package():
        return 2
    from perfbench import harness

    return harness.run(args.workload, args.seed, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
