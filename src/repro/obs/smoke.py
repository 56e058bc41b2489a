"""Instrumented end-to-end smoke run (``make smoke``).

Trains a micro DNN, converts it, evaluates the SNN — all under an
observed run — then asserts that the run directory contains a non-empty
span timeline covering calibration → Algorithm 1 → conversion → SNN
evaluation, and prints the rendered report.

The analytics layer is exercised on top of the same pipeline:

- **registry round-trip** — the observed run must appear in the run
  registry with a terminal ``completed`` status and a non-empty
  artefact inventory;
- **deterministic self-diff** — the identical pipeline is run a second
  time (same seed, fresh caches) and ``repro.obs.diff`` of the two run
  directories must report *zero* regressions: the substrate is
  deterministic, so only wall-clock series (never gated) may differ;
- **dashboard snapshot** — ``dashboard --once`` must render the same
  frame twice for a finished run directory.

With ``--profile`` (``make profile-smoke``) both pipeline runs are
additionally op-profiled: each run directory must carry a
``profile.jsonl`` plus a ``repro.obs.profile/v1`` summary with
per-layer attribution, the two summaries must agree on their aggregate
keys (deterministic substrate ⇒ deterministic op/layer sets), the
registry inventory must list both profile artefacts, the Chrome-trace
export must be loadable JSON, and the self-diff must stay clean with
the profile series aligned.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
from dataclasses import replace

REQUIRED_SPANS = {"run_pipeline", "calibration", "algorithm1", "conversion", "snn_eval"}

_ARTEFACTS = (
    "trace.jsonl", "events.jsonl", "metrics.json",
    "drift.jsonl", "alerts.jsonl",
    "profile.jsonl", "profile_summary.json",
)


def _clean_run_dir(run_dir: str) -> None:
    # Run directories append across runs; a smoke check wants a fresh
    # timeline so the assertions below see exactly one pipeline.
    for artefact in _ARTEFACTS:
        path = os.path.join(run_dir, artefact)
        if os.path.exists(path):
            os.remove(path)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.smoke",
        description="Tiny instrumented convert+evaluate pipeline.",
    )
    parser.add_argument("--run-dir", default=os.path.join("results", "smoke_run"))
    parser.add_argument("--report", action="store_true",
                        help="print the rendered markdown report")
    parser.add_argument("--profile", action="store_true",
                        help="op-profile both runs and assert the "
                             "profile artefacts/aggregates")
    args = parser.parse_args(argv)

    from ..experiments.config import SCALES, ExperimentConfig
    from ..experiments.context import clear_context_cache
    from ..experiments.pipeline import clear_pipeline_cache, run_pipeline
    from . import load_run, observe, render_report, state
    from .dashboard import main as dashboard_main
    from .diff import diff_run_dirs
    from .registry import RunRegistry, registration_enabled

    scale = replace(
        SCALES["tiny"],
        name="smoke",
        image_size=8,
        train_size=60,
        test_size=30,
        width_multiplier=0.125,
        batch_size=30,
        dnn_epochs=2,
        snn_epochs=1,
        calibration_batches=1,
    )
    config = ExperimentConfig(
        arch="vgg11", dataset="cifar10", timesteps=2, scale=scale
    )

    run_dir_a = args.run_dir
    run_dir_b = f"{args.run_dir}_b"
    run_ids = []
    for run_dir in (run_dir_a, run_dir_b):
        clear_context_cache()
        clear_pipeline_cache()
        _clean_run_dir(run_dir)
        with observe(run_dir, smoke=True, arch=config.arch,
                     timesteps=config.timesteps, seed=config.seed,
                     profile=args.profile):
            run_ids.append(state().run_id)
            result = run_pipeline(config, fine_tune=False)

    trace_path = os.path.join(run_dir_a, "trace.jsonl")
    if not os.path.exists(trace_path) or os.path.getsize(trace_path) == 0:
        print(f"SMOKE FAILED: empty or missing trace file {trace_path}")
        return 1
    run = load_run(run_dir_a)
    names = {span.get("name") for span in run.spans}
    missing = REQUIRED_SPANS - names
    if missing:
        print(f"SMOKE FAILED: trace is missing spans {sorted(missing)}")
        return 1
    spike_histograms = [
        name
        for name in run.metrics.get("histograms", {})
        if name.startswith("snn.spike_rate")
    ]
    if not spike_histograms:
        print("SMOKE FAILED: no per-layer spike-rate histograms recorded")
        return 1
    if not run.drift:
        print("SMOKE FAILED: no conversion-drift records in drift.jsonl")
        return 1
    energy_gauges = [
        name
        for name in run.metrics.get("gauges", {})
        if name.startswith("energy.")
    ]
    if not energy_gauges:
        print("SMOKE FAILED: no energy.* gauges recorded")
        return 1

    # Registry round-trip: both observed runs are findable and terminal.
    if registration_enabled():
        registry = RunRegistry()
        for run_id in run_ids:
            entry = registry.get(run_id)
            if entry is None:
                print(f"SMOKE FAILED: run {run_id} missing from the registry "
                      f"({registry.index_path})")
                return 1
            if entry.get("status") != "completed":
                print(f"SMOKE FAILED: run {run_id} status is "
                      f"{entry.get('status')!r}, expected 'completed'")
                return 1
            if not entry.get("artifacts"):
                print(f"SMOKE FAILED: run {run_id} registered with an empty "
                      "artefact inventory")
                return 1

    # Op-profile artefacts: schema, deterministic aggregates, export.
    profile_note = ""
    if args.profile:
        import json as _json

        from . import profile as profile_mod

        summaries = []
        for run_dir in (run_dir_a, run_dir_b):
            jsonl_path = os.path.join(run_dir, profile_mod.PROFILE_FILENAME)
            if not os.path.exists(jsonl_path) or os.path.getsize(jsonl_path) == 0:
                print(f"SMOKE FAILED: empty or missing profile {jsonl_path}")
                return 1
            summary = profile_mod.load_summary(run_dir)
            if not summary:
                print(f"SMOKE FAILED: missing profile summary in {run_dir}")
                return 1
            if summary.get("schema") != profile_mod.PROFILE_SCHEMA:
                print(f"SMOKE FAILED: profile summary schema is "
                      f"{summary.get('schema')!r}, expected "
                      f"{profile_mod.PROFILE_SCHEMA!r}")
                return 1
            layers = [name for name in summary.get("by_layer", {})
                      if name != profile_mod.UNATTRIBUTED]
            if not layers:
                print(f"SMOKE FAILED: profile summary in {run_dir} has no "
                      "attributed layers")
                return 1
            summaries.append(summary)
        for table in ("by_op", "by_layer"):
            keys_a = sorted(summaries[0].get(table, {}))
            keys_b = sorted(summaries[1].get(table, {}))
            if keys_a != keys_b:
                print(f"SMOKE FAILED: profile {table} keys differ between "
                      f"identical-seed runs: {keys_a} vs {keys_b}")
                return 1
        if registration_enabled():
            entry = RunRegistry().get(run_ids[0])
            artifacts = (entry or {}).get("artifacts") or {}
            for name in (profile_mod.PROFILE_FILENAME,
                         profile_mod.SUMMARY_FILENAME):
                if name not in artifacts:
                    print(f"SMOKE FAILED: registry inventory is missing "
                          f"profile artefact {name!r}")
                    return 1
        chrome_path = os.path.join(run_dir_a, "chrome_trace.json")
        code = profile_mod.main([run_dir_a, "--chrome-trace", chrome_path])
        if code != 0:
            print(f"SMOKE FAILED: profile --chrome-trace exited {code}")
            return 1
        with open(chrome_path, "r", encoding="utf-8") as fp:
            trace_doc = _json.load(fp)
        if not trace_doc.get("traceEvents"):
            print("SMOKE FAILED: exported Chrome trace has no traceEvents")
            return 1
        profile_note = (
            f"{summaries[0].get('ops', 0)} profiled ops over "
            f"{len(summaries[0].get('by_layer', {}))} layers, "
        )

    # Deterministic self-diff: same seed twice => zero regressions.
    diff = diff_run_dirs(run_dir_a, run_dir_b)
    if not diff.ok:
        print(diff.render())
        print(f"SMOKE FAILED: identical-seed self-diff found "
              f"{len(diff.regressions)} regression(s)")
        return 1

    # Dashboard snapshot mode must be a pure function of the run dir.
    frames = []
    for _ in range(2):
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = dashboard_main([run_dir_a, "--once"])
        if code != 0:
            print(f"SMOKE FAILED: dashboard --once exited {code}")
            return 1
        frames.append(buffer.getvalue())
    if frames[0] != frames[1]:
        print("SMOKE FAILED: dashboard --once rendered differing frames "
              "for the same run directory")
        return 1

    if args.report:
        print(render_report(run))
    print(
        f"smoke ok: {len(run.spans)} spans, "
        f"{len(spike_histograms)} spike-rate histograms, "
        f"{len(run.drift)} drift records, "
        f"{len(energy_gauges)} energy gauges, "
        f"{profile_note}"
        f"self-diff clean over {len(diff.deltas)} aligned series, "
        f"dnn={result.dnn_accuracy:.3f} "
        f"conversion={result.conversion_accuracy:.3f} "
        f"(trace: {trace_path})"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
