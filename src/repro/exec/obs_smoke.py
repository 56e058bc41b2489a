"""Distributed-observability smoke check (``make exec-obs-smoke``).

A fast, deterministic end-to-end pass over the worker-telemetry
machinery (:mod:`repro.obs.remote` + the executor integration):

1. an observed instrumented micro-map produces a schema-valid merged
   ``worker_telemetry.jsonl`` that is **bitwise identical** at workers
   1 (serial tee), 2 and 4;
2. the workers=4 trace is stitched: worker spans parent under the
   ``exec.map`` dispatch span, tagged with their worker lane and task
   index, and the run report renders a "Parallel execution" section;
3. an observed 4-worker micro fault sweep matches a serial observed
   sweep on every aggregate (non-``exec.*``) counter — capture+replay
   is semantically transparent;
4. an identical-seed rerun of the parallel sweep with a chaos worker
   kill *mid-telemetry-write* returns the same payload and the same
   merged-stream bytes — torn shards never corrupt the canonical
   artefact;
5. ``repro.obs`` diffs stay clean: clean-vs-chaos parallel runs diff
   with exit 0, and the serial-vs-parallel diff carries only
   informational ``env:executor`` / ``exec:`` rows without gating.

Exits non-zero with a diagnostic on the first failed check.
"""

from __future__ import annotations

import argparse
import json
import os
from dataclasses import replace
from typing import List, Optional, Tuple


def _fail(message: str) -> int:
    print(f"EXEC OBS SMOKE FAILED: {message}")
    return 1


def _probe_task(payload: Tuple[int, float]) -> float:
    """Instrumented micro-task: spans, metrics and a log event per point."""
    from ..obs import get_logger, metrics, trace

    index, scale = payload
    with trace.span("probe.point", index=index):
        with trace.span("probe.inner"):
            value = float(index) * scale
        metrics.inc("probe.points")
        metrics.observe("probe.value", value)
    # debug sits below the console threshold: captured as an event,
    # no stdout noise.
    get_logger("obs-smoke").debug("probe point", index=index)
    return value


def _read_jsonl(path: str) -> List[dict]:
    """Every record of ``path`` (absent → empty); any malformed line is
    a failure, since the smoke's artefacts must be written whole."""
    from ..obs.core import read_jsonl

    if not os.path.exists(path):
        return []
    records, skipped = read_jsonl(path)
    if skipped:
        raise ValueError(f"{path}: {skipped} malformed line(s)")
    return records


def _merged_path(run_dir: str) -> str:
    from ..obs import remote as obs_remote

    return os.path.join(run_dir, obs_remote.MERGED_FILENAME)


def _merged_bytes(run_dir: str) -> bytes:
    path = _merged_path(run_dir)
    if not os.path.exists(path):
        return b""
    with open(path, "rb") as fp:
        return fp.read()


def _validate_merged(run_dir: str) -> Optional[str]:
    """Schema check over every merged-stream line; None when valid."""
    from ..obs import remote as obs_remote

    records = _read_jsonl(_merged_path(run_dir))
    if not records:
        return f"{_merged_path(run_dir)} is empty or absent"
    last_seq: dict = {}
    for i, record in enumerate(records):
        if set(record) != {"map", "task", "seq", "kind", "data"}:
            return f"line {i}: unexpected keys {sorted(record)}"
        if record["kind"] not in obs_remote.KINDS:
            return f"line {i}: unknown kind {record['kind']!r}"
        if not isinstance(record["task"], int) or not isinstance(record["seq"], int):
            return f"line {i}: non-integer task/seq"
        if not isinstance(record["data"], dict):
            return f"line {i}: data is not an object"
        volatile = set(record["data"]) & obs_remote._VOLATILE_KEYS
        if volatile:
            return f"line {i}: volatile keys leaked into canonical stream: {volatile}"
        key = (record["map"], record["task"])
        if key in last_seq and record["seq"] <= last_seq[key]:
            return f"line {i}: seq not increasing within task {key}"
        last_seq[key] = record["seq"]
    return None


def _non_exec_counters(run_dir: str) -> dict:
    metrics_path = os.path.join(run_dir, "metrics.json")
    with open(metrics_path, "r", encoding="utf-8") as fp:
        snapshot = json.load(fp)
    return {
        name: value
        for name, value in snapshot.get("counters", {}).items()
        if not name.startswith("exec.")
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.exec.obs_smoke",
        description="Deterministic distributed-observability check.",
    )
    parser.add_argument(
        "--run-dir", default=os.path.join("results", "exec_obs_smoke_run")
    )
    args = parser.parse_args(argv)

    import repro.experiments.config as config_module
    from ..experiments.config import SCALES
    from ..experiments.context import clear_context_cache
    from ..experiments.fault_sweep import run_fault_sweep
    from ..experiments.pipeline import clear_pipeline_cache
    from ..faults import ChaosSpec
    from ..obs import observe
    from ..obs.diff import diff_run_dirs
    from ..obs.registry import registration_enabled
    from ..obs.report import load_run, render_report
    from . import ParallelExecutor, executor_scope

    # ------------------------------------------------------------------
    # 1. canonical stream: schema-valid, bitwise across worker counts
    # ------------------------------------------------------------------
    tasks = [(i, 0.5) for i in range(6)]

    def _probe_run(run_dir: str, workers: int, chaos=None):
        for name in ("trace.jsonl", "events.jsonl", "metrics.json",
                     "alerts.jsonl", "worker_telemetry.jsonl"):
            path = os.path.join(run_dir, name)
            if os.path.exists(path):
                os.remove(path)
        with observe(run_dir, smoke=True, seed=0):
            executor = ParallelExecutor(workers=workers, chaos=chaos)
            return executor.map(_probe_task, tasks, label="obs-smoke")

    probe_dirs = {}
    for workers in (1, 2, 4):
        run_dir = f"{args.run_dir}_w{workers}"
        probe_dirs[workers] = run_dir
        outcome = _probe_run(run_dir, workers)
        if not outcome.ok:
            return _fail(f"workers={workers} probe map failed: {outcome.failures}")
        problem = _validate_merged(run_dir)
        if problem:
            return _fail(f"workers={workers} merged stream invalid: {problem}")
    reference = _merged_bytes(probe_dirs[1])
    for workers in (2, 4):
        if _merged_bytes(probe_dirs[workers]) != reference:
            return _fail(
                f"worker_telemetry.jsonl differs between workers=1 and "
                f"workers={workers}"
            )
    lines = len(reference.splitlines())
    print(
        f"exec obs smoke: merged telemetry schema-valid and bitwise-identical "
        f"at workers 1/2/4 ({lines} canonical records)"
    )

    # ------------------------------------------------------------------
    # 2. stitched trace + report section from the workers=4 run
    # ------------------------------------------------------------------
    spans = _read_jsonl(os.path.join(probe_dirs[4], "trace.jsonl"))
    dispatch = [s for s in spans if s.get("name") == "exec.map"]
    if len(dispatch) != 1:
        return _fail(f"expected one exec.map dispatch span, saw {len(dispatch)}")
    dispatch_id = dispatch[0]["span_id"]
    stitched = [s for s in spans if s.get("name") == "probe.point"]
    if len(stitched) != len(tasks):
        return _fail(f"expected {len(tasks)} stitched probe.point spans, "
                     f"saw {len(stitched)}")
    for span in stitched:
        if span.get("parent_id") != dispatch_id:
            return _fail("worker span not parented under exec.map")
        if "worker" not in span or "task" not in span:
            return _fail("stitched span missing worker/task tags")
    report = render_report(load_run(probe_dirs[4]))
    for needle in ("## Parallel execution", "Worker lanes", "Worker telemetry"):
        if needle not in report:
            return _fail(f"run report missing {needle!r} section")
    print(
        f"exec obs smoke: {len(stitched)} worker spans stitched under exec.map, "
        f"report renders the parallel-execution section"
    )

    # ------------------------------------------------------------------
    # 3. observed fault sweep: parallel aggregates == serial observed run
    # ------------------------------------------------------------------
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
    config_module.SCALES = {**config_module.SCALES, "smoke": scale}
    sweep_kwargs = dict(
        arch="vgg11",
        dataset="cifar10",
        scale_name="smoke",
        timesteps=2,
        fault_kinds=["prune"],
        ladders={"prune": (0.0, 0.2)},
        seed=0,
    )

    def _observed_sweep(run_dir, executor):
        clear_context_cache()
        clear_pipeline_cache()
        for name in ("trace.jsonl", "events.jsonl", "metrics.json",
                     "drift.jsonl", "faults.jsonl", "alerts.jsonl",
                     "worker_telemetry.jsonl"):
            path = os.path.join(run_dir, name)
            if os.path.exists(path):
                os.remove(path)
        with executor_scope(executor):
            with observe(run_dir, smoke=True, arch="vgg11", timesteps=2, seed=0):
                return run_fault_sweep(**sweep_kwargs)

    serial_dir = f"{args.run_dir}_sweep_serial"
    par_dir = f"{args.run_dir}_sweep_par4"
    chaos_dir = f"{args.run_dir}_sweep_chaos"
    serial_sweep = _observed_sweep(serial_dir, None)
    parallel_sweep = _observed_sweep(par_dir, ParallelExecutor(workers=4))
    if json.dumps(serial_sweep, sort_keys=True) != json.dumps(
        parallel_sweep, sort_keys=True
    ):
        return _fail("sweep payloads differ between serial and 4-worker runs")
    problem = _validate_merged(par_dir)
    if problem:
        return _fail(f"sweep merged stream invalid: {problem}")
    kinds = {r["kind"] for r in _read_jsonl(_merged_path(par_dir))}
    if "fault" not in kinds or "metric" not in kinds:
        return _fail(f"sweep telemetry missing fault/metric records: {kinds}")
    serial_counters = _non_exec_counters(serial_dir)
    parallel_counters = _non_exec_counters(par_dir)
    if serial_counters != parallel_counters:
        drift = {
            name
            for name in set(serial_counters) | set(parallel_counters)
            if serial_counters.get(name) != parallel_counters.get(name)
        }
        return _fail(f"aggregate counters drifted serial vs parallel: {sorted(drift)}")
    print(
        f"exec obs smoke: 4-worker sweep matches serial observed run on all "
        f"{len(serial_counters)} aggregate counters"
    )

    # ------------------------------------------------------------------
    # 4. chaos kill mid-telemetry-write: payload + canonical bytes intact
    # ------------------------------------------------------------------
    chaos_sweep = _observed_sweep(
        chaos_dir,
        ParallelExecutor(workers=4, chaos=ChaosSpec.kill_task_after(1, attempts=1)),
    )
    if json.dumps(chaos_sweep, sort_keys=True) != json.dumps(
        serial_sweep, sort_keys=True
    ):
        return _fail("chaos-killed sweep payload differs")
    if _merged_bytes(chaos_dir) != _merged_bytes(par_dir):
        return _fail(
            "worker kill mid-telemetry-write changed the canonical merged stream"
        )
    with open(os.path.join(chaos_dir, "metrics.json"), encoding="utf-8") as fp:
        chaos_counters = json.load(fp).get("counters", {})
    if chaos_counters.get("exec.worker_crashes", 0) < 1:
        return _fail("chaos worker kill not visible in exec.worker_crashes")
    print(
        "exec obs smoke: identical-seed rerun with a mid-telemetry worker kill "
        "is bitwise-equal on the merged stream"
    )

    # ------------------------------------------------------------------
    # 5. diffs: clean-vs-chaos gates nothing; serial-vs-parallel stays
    #    informational
    # ------------------------------------------------------------------
    diff = diff_run_dirs(par_dir, chaos_dir)
    if not diff.ok:
        print(diff.render())
        return _fail(
            f"clean-vs-chaos parallel diff found {len(diff.regressions)} "
            f"regression(s)"
        )
    cross = diff_run_dirs(serial_dir, par_dir)
    if not cross.ok:
        print(cross.render())
        return _fail("serial-vs-parallel diff gated instead of informational")
    exec_rows = [
        d for d in cross.deltas
        if d.name.startswith("exec:") or d.name.startswith("env:executor")
    ]
    if registration_enabled() and not any(
        d.name == "env:executor.telemetry" or d.name.startswith("exec:")
        for d in exec_rows
    ):
        return _fail("serial-vs-parallel diff carried no telemetry rows")
    if any(d.significant or d.regressed for d in exec_rows):
        return _fail("exec:/env:executor diff rows must stay informational")
    print(
        f"exec obs smoke: diffs clean; serial-vs-parallel carries "
        f"{len(exec_rows)} informational telemetry row(s)"
    )

    print("EXEC OBS SMOKE PASSED")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
