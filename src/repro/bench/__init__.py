"""Benchmark baselines: hot-kernel registry, runner and regression gate.

The paper's claim is a latency/compute claim, so this repository keeps
its own performance trajectory machine-readable: ``BENCH_<seq>.json``
files at the repo root record timing distributions (median/std/p95) of
every registered hot-kernel benchmark plus the environment fingerprint
they were measured under, and ``python -m repro.bench compare`` turns
any two of them into a CI exit code.

- :mod:`registry` — ``@register_bench`` and the case registry;
- :mod:`suite`    — the standard kernels (conv2d im2col, IF step,
  surrogate backward, Algorithm 1, full T-step SNN forward);
- :mod:`runner`   — timing + schema-versioned baseline files;
- :mod:`compare`  — median-based regression gating, refused across
  differing environment fingerprints.

The same registered definitions back ``benchmarks/test_microbench.py``
(pytest-benchmark), so a kernel's benchmark is written exactly once.
"""

from .compare import (
    DEFAULT_MIN_DELTA_S,
    DEFAULT_THRESHOLD,
    BenchDelta,
    Comparison,
    compare_reports,
    environment_differences,
)
from .registry import (
    BenchCase,
    bench_names,
    get_bench,
    iter_benches,
    register_bench,
    unregister_bench,
)
from .runner import (
    ACCEPTED_SCHEMAS,
    SCHEMA,
    SCHEMA_VERSION,
    environment_fingerprint,
    find_baselines,
    load_report,
    next_seq,
    run_benches,
    validate_report,
    write_report,
)

__all__ = [
    "ACCEPTED_SCHEMAS",
    "BenchCase",
    "BenchDelta",
    "Comparison",
    "DEFAULT_MIN_DELTA_S",
    "DEFAULT_THRESHOLD",
    "SCHEMA",
    "SCHEMA_VERSION",
    "bench_names",
    "compare_reports",
    "environment_differences",
    "environment_fingerprint",
    "find_baselines",
    "get_bench",
    "iter_benches",
    "load_report",
    "next_seq",
    "register_bench",
    "run_benches",
    "unregister_bench",
    "validate_report",
    "write_report",
]
