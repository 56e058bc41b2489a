"""``python -m repro.bench`` — run, compare and list benchmarks.

Subcommands
-----------
``run``
    Time the registered benches and write a schema-versioned baseline.
    By default the output is ``BENCH_<seq>.json`` at the repository
    root, where ``seq`` continues the existing sequence; ``--out``
    redirects it (e.g. to a scratch file for a CI compare).
``compare``
    Diff a candidate report against a baseline and exit 1 when any
    kernel's median regressed past the threshold (the CI gate).  Exit 2
    (no comparison) when the two reports' environment fingerprints
    differ in python, implementation, machine, numpy or cpu_count.
    Defaults: candidate = highest-seq ``BENCH_*.json``, baseline = the
    one before it.
``list``
    Show the registered benches.

Examples::

    python -m repro.bench run
    python -m repro.bench run --out results/bench_current.json
    python -m repro.bench run --run-dir results/bench_run --profile
    python -m repro.bench compare --candidate results/bench_current.json
    python -m repro.bench compare --threshold 0.25
"""

from __future__ import annotations

import argparse
import os
import sys

from ..obs import console, observe
from .compare import (
    DEFAULT_MIN_DELTA_S,
    DEFAULT_THRESHOLD,
    compare_reports,
    environment_differences,
)
from .registry import iter_benches
from .runner import (
    find_baselines,
    load_report,
    next_seq,
    run_benches,
    write_report,
)


def _cmd_run(args) -> int:
    seq = None
    if args.out is None:
        seq = next_seq(args.root)
        out = os.path.join(args.root, f"BENCH_{seq}.json")
    else:
        out = args.out
    kwargs = dict(
        filter_substring=args.filter,
        repeats=args.repeats,
        warmup=args.warmup,
        seq=seq,
        verbose=not args.quiet,
    )
    if args.profile and not args.run_dir:
        raise SystemExit("--profile requires --run-dir (profiles stream "
                         "into the observed run directory)")
    if args.run_dir:
        with observe(args.run_dir, bench=True, profile=args.profile):
            report = run_benches(**kwargs)
    else:
        report = run_benches(**kwargs)
    write_report(report, out)
    console(f"wrote {out} ({len(report['results'])} benches)")
    return 0


def _default_compare_pair(root: str):
    baselines = find_baselines(root)
    if len(baselines) < 2:
        raise SystemExit(
            "compare needs --baseline/--candidate or at least two "
            f"BENCH_*.json files under {root!r} (found {len(baselines)})"
        )
    return baselines[-2][1], baselines[-1][1]


def _cmd_compare(args) -> int:
    baseline_path, candidate_path = args.baseline, args.candidate
    if baseline_path is None and candidate_path is None:
        baseline_path, candidate_path = _default_compare_pair(args.root)
    elif baseline_path is None:
        baselines = find_baselines(args.root)
        if not baselines:
            raise SystemExit(f"no BENCH_*.json baseline under {args.root!r}")
        baseline_path = baselines[-1][1]
    elif candidate_path is None:
        raise SystemExit("--baseline without --candidate makes no sense")
    baseline, candidate = load_report(baseline_path), load_report(candidate_path)
    console(f"baseline:  {baseline_path}")
    console(f"candidate: {candidate_path}")
    differing = environment_differences(baseline, candidate)
    if differing:
        console(f"environment fingerprints differ in: {', '.join(differing)}")
        for key, (base_value, cand_value) in differing.items():
            console(f"  {key}: {base_value!r} (baseline) vs {cand_value!r} (candidate)")
        console("refusing to compare timings from different environments")
        return 2
    comparison = compare_reports(
        baseline,
        candidate,
        threshold=args.threshold,
        min_delta_s=args.min_delta,
    )
    console(comparison.render())
    return 0 if comparison.ok else 1


def _cmd_list(args) -> int:
    for case in iter_benches(args.filter):
        console(
            f"{case.name:<36} group={case.group} "
            f"repeats={case.repeats} warmup={case.warmup}"
        )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Hot-kernel benchmark baselines and regression gating.",
    )
    parser.add_argument(
        "--root", default=".",
        help="repository root holding the BENCH_*.json sequence",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="time the benches, write a baseline")
    run_p.add_argument("--out", default=None,
                       help="output path (default: next BENCH_<seq>.json)")
    run_p.add_argument("--filter", default=None,
                       help="only benches whose name contains this substring")
    run_p.add_argument("--repeats", type=int, default=None,
                       help="override every case's repeat count")
    run_p.add_argument("--warmup", type=int, default=None,
                       help="override every case's warmup count")
    run_p.add_argument("--run-dir", default=None,
                       help="also record spans/metrics to this obs run dir")
    run_p.add_argument("--profile", action="store_true",
                       help="op-profile the benches with per-case "
                            "attribution (requires --run-dir)")
    run_p.add_argument("--quiet", action="store_true",
                       help="suppress per-bench progress lines")
    run_p.set_defaults(fn=_cmd_run)

    cmp_p = sub.add_parser("compare", help="diff two baselines, gate on regressions")
    cmp_p.add_argument("--baseline", default=None,
                       help="baseline report (default: latest-but-one, or "
                            "latest when --candidate is given)")
    cmp_p.add_argument("--candidate", default=None,
                       help="candidate report (default: latest)")
    cmp_p.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD,
                       help="relative median slowdown that fails the gate "
                            "(default: %(default)s = +50%%)")
    cmp_p.add_argument("--min-delta", type=float, default=DEFAULT_MIN_DELTA_S,
                       help="absolute slowdown floor in seconds "
                            "(default: %(default)s)")
    cmp_p.set_defaults(fn=_cmd_compare)

    list_p = sub.add_parser("list", help="show registered benches")
    list_p.add_argument("--filter", default=None)
    list_p.set_defaults(fn=_cmd_list)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
