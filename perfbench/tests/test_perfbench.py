"""Fast tests of the pipeline benchmark (tiny scale).

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import replace
from pathlib import Path

import pytest

from repro.experiments import clear_context_cache, clear_pipeline_cache, run_pipeline
from repro.experiments.config import SCALES, ExperimentConfig

from perfbench import compare, fingerprint, harness, spans, stats, workloads

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
TINY = replace(SCALES["tiny"], name="perfbench-tiny", dnn_epochs=2, snn_epochs=1)


class TinyObserved(workloads.Table1Observed):
    scale = TINY


class TinySweep(workloads.Fig2Sweep):
    scale = TINY
    timesteps = (2,)
    latency_timesteps = 2


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_context_cache()
    clear_pipeline_cache()
    yield
    clear_context_cache()
    clear_pipeline_cache()


# ----------------------------------------------------------------------
# BENCHMARK.json
# ----------------------------------------------------------------------
def test_benchmark_json_names_and_workloads():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["command"][:2] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60

    names = [w["name"] for w in spec["workloads"]]
    assert names == list(workloads.WORKLOADS)
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert workload["why"].strip() and "\n" not in workload["why"]
        assert len(workload["why"]) <= 200

    end_to_end = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    per_layer = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    assert end_to_end == list(harness.END_TO_END)
    assert per_layer == list(harness.PER_LAYER)
    all_names = names + [n for n, _ in end_to_end] + [n for n, _ in per_layer]
    assert len(set(all_names)) == len(all_names)
    for name, unit in end_to_end + per_layer:
        assert NAME.match(name) and UNIT.match(unit), name
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert metric["better"] in ("lower", "higher")
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


# ----------------------------------------------------------------------
# Statistics and spans
# ----------------------------------------------------------------------
def test_tail_is_highest_percentile_with_ten_beyond():
    values = list(range(30, 0, -1))
    percentile, value, count = stats.tail(values)
    assert (value, count) == (20.0, 30)
    assert percentile == pytest.approx(100.0 * 20 / 30)
    assert sum(1 for v in values if v > value) == 10

    percentile, value, count = stats.tail([5.0] * 11 + [9.0])
    assert (percentile, value, count) == (pytest.approx(100.0 * 2 / 12), 5.0, 12)
    with pytest.raises(ValueError):
        stats.tail([1.0] * 10)


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_arithmetic_on_synthetic_spans():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)

    def at(t, action, *args):
        clock.now = t
        action(*args)

    at(0, tracer.start)
    at(1, tracer.enter, "a")
    at(2, tracer.enter, "b")
    at(5, tracer.exit, "b", "b.calls")
    at(6, tracer.enter, "c")
    at(7, tracer.exit, "c")
    at(10, tracer.exit, "a")
    at(12, tracer.enter, "a")
    at(13, tracer.enter, "a")  # recursion: counted once in inclusive time
    at(14, tracer.exit, "a")
    at(15, tracer.exit, "a")
    at(20, tracer.stop)
    at(21, tracer.enter, "between")  # spans outside a window are ignored
    at(22, tracer.exit, "between")
    at(30, tracer.start)  # a second window adds to the first
    at(31, tracer.enter, "c")
    at(33, tracer.exit, "c")
    at(34, tracer.stop)

    assert dict(tracer.self_s) == {"a": 5 + 2 + 1, "b": 3, "c": 1 + 2}
    assert dict(tracer.inclusive_s) == {"a": 9 + 3, "b": 3, "c": 1 + 2}
    assert tracer.gap_s == 1 + 2 + 5 + 1 + 1
    assert tracer.window_s == 20 + 4
    assert tracer.samples["b.calls"] == [3]
    # Against the workload's own timing of the two windows' blocks.
    assert tracer.closure_error_s(24) == 0
    assert tracer.closure_holds(24)
    assert not tracer.closure_holds(23)  # a second unaccounted for


def test_mismatched_exit_fails_closure():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)
    tracer.start()
    tracer.enter("a")
    tracer.enter("b")
    clock.now = 2.0
    tracer.exit("a")  # "b" is innermost: the exit is refused and counted
    tracer.exit("b")
    tracer.exit("a")
    tracer.stop()
    assert tracer.mismatches == 1
    assert tracer.closure_error_s(2.0) == 0
    assert not tracer.closure_holds(2.0)


def test_stop_refuses_open_spans():
    tracer = spans.Tracer()
    tracer.start()
    tracer.enter("a")
    with pytest.raises(RuntimeError):
        tracer.stop()


def test_instrument_restores_every_entry_point():
    import repro.nn.conv
    import repro.train
    from repro.data import DataLoader
    from repro.obs.core import observe
    from repro.tensor import Tensor

    before = (
        repro.nn.conv.conv2d,
        repro.train.evaluate_snn,
        DataLoader.__dict__["__iter__"],
        Tensor.__dict__["backward"],
        observe.__dict__["__enter__"],
    )
    tracer = spans.Tracer()
    spans.instrument(tracer)
    assert repro.nn.conv.conv2d is not before[0]
    tracer.restore()
    after = (
        repro.nn.conv.conv2d,
        repro.train.evaluate_snn,
        DataLoader.__dict__["__iter__"],
        Tensor.__dict__["backward"],
        observe.__dict__["__enter__"],
    )
    assert after == before


def test_timed_batches_count_complete_passes_only():
    record = workloads.Record()
    batches = workloads.TimedBatches([([0] * 3, [0] * 3), ([0] * 2, [0] * 2)], record)
    for _ in batches:
        break
    assert record.eval_batch_s == [] and record.eval_samples == 0
    assert sum(len(labels) for _, labels in batches) == 5
    assert len(record.eval_batch_s) == 2 and record.eval_samples == 5
    assert record.latency_batch_s == record.eval_batch_s

    list(workloads.TimedBatches([([0], [0])], record, latency=False))
    assert len(record.eval_batch_s) == 3 and len(record.latency_batch_s) == 2


# ----------------------------------------------------------------------
# Fingerprints
# ----------------------------------------------------------------------
def test_fingerprint_differences_and_refused_comparison(tmp_path):
    env = fingerprint.collect("float64", "fused", {"batch": 50})
    assert env["nproc"] == len(os.sched_getaffinity(0))
    assert fingerprint.differences(env, dict(env)) == []
    other = dict(env, nproc=env["nproc"] + 1)
    assert fingerprint.differences(env, other) == ["nproc"]

    result = {"correct": True, "attempted": 1, "failed": 0,
              "metrics": {"total_s": {"value": 1.0, "unit": "s"}}}
    for name, fp in (("a.txt", env), ("b.txt", other)):
        (tmp_path / name).write_text(
            f"fingerprint {json.dumps(fp)}\n{json.dumps(result)}\n", encoding="utf-8"
        )
    base, head = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
    assert compare.main(["--base", base, "--head", head]) == 2
    assert compare.main(["--base", base, "--head", base]) == 0


# ----------------------------------------------------------------------
# Stage driver and passes (tiny scale)
# ----------------------------------------------------------------------
def test_stage_driver_reproduces_get_context_and_run_pipeline():
    config = ExperimentConfig(arch="vgg16", dataset="cifar10", timesteps=2, scale=TINY, seed=3)
    reference = run_pipeline(config)
    expected = (reference.dnn_accuracy, reference.conversion_accuracy, reference.snn_accuracy)
    clear_context_cache()
    clear_pipeline_cache()

    prepared = workloads.prepare(config)
    workloads.train_dnn(prepared, workloads.Record())
    workloads.install_context(prepared, workloads.Record())
    result = run_pipeline(config)
    assert (prepared.dnn_acc, result.conversion_accuracy, result.snn_accuracy) == expected
    assert workloads.spec_pairs(result.conversion) == workloads.spec_pairs(reference.conversion)

    converted = workloads.convert(prepared, 2, "proposed", workloads.Record())
    assert workloads.spec_pairs(converted) == workloads.spec_pairs(reference.conversion)


def test_traced_pass_matches_untraced_and_closes():
    untraced = harness.Pass(TinySweep(1), repeats=1)
    traced = harness.Pass(
        TinySweep(1), repeats=1, tracer=spans.Tracer(), trained=untraced.prepared
    )
    assert traced.outcome.key() == untraced.outcome.key()
    assert harness.closure_holds(traced)
    assert traced.tracer.window_s >= traced.record.timed_s()
    values = harness.per_layer(untraced, traced)
    for name in ("nn.conv2d_s", "conversion.algorithm1_s", "train.lsuv_s", "energy.activity_s"):
        assert values[name] > 0, name
    assert values["train.lsuv_s"] >= values["train.lsuv_self_s"]
    assert values["obs.session_s"] == 0 and values["obs.files"] == 0
    assert values["tensor.dnn_backward_s"] == 0  # trained weights were reused
    assert set(harness.INCLUSIVE.values()) <= set(harness.PARTITION.values())


def test_observed_pass_is_sandboxed_and_deterministic(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("REPRO_RUNS_ROOT", raising=False)
    first = harness.Pass(TinyObserved(2), repeats=1)
    second = harness.Pass(TinyObserved(2), repeats=1)
    assert first.outcome.key() == second.outcome.key()
    record = first.record
    assert record.obs_bytes > 0 and record.obs_records > 0
    # Post-conversion, SGL-epoch and final evals, plus the energy profile,
    # whose two-batch limit covers the whole two-batch tiny test set.
    assert len(record.convert_s) == 1 and len(record.eval_batch_s) == 4 * 2
    assert record.latency_batch_s == record.eval_batch_s  # every eval is at T=2
    assert record.dnn_samples > 0 and record.sgl_samples > 0
    assert sorted(os.listdir(tmp_path)) == []
    assert "REPRO_RUNS_ROOT" not in os.environ
