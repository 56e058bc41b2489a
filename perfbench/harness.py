"""Benchmark passes, metrics and checks for one workload run."""

from __future__ import annotations

import gc
import json
import os
import resource
from typing import Dict, List, Optional, Tuple

from repro.tensor import get_default_dtype

from perfbench import fingerprint, spans, stats, workloads

#: End-to-end metrics (``--trace 0``): every one is nonzero on every
#: workload and aggregates tens of seconds of work, because on a shared
#: host a single few-second measurement varies by +-20% from run to run.
#: On the sweep, ``conversion_acc`` is the mean over sweep points and
#: ``snn_acc`` the mean over its ``proposed`` points.
END_TO_END = (
    ("setup_s", "s"),
    ("total_s", "s"),
    ("dnn_train_sps", "1/s"),
    ("snn_eval_sps", "1/s"),
    ("snn_batch_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("dnn_acc", "%"),
    ("conversion_acc", "%"),
    ("snn_acc", "%"),
)

#: Printed with the end-to-end metrics but reported only by the traced
#: run, as they cannot hold a bound relative to a median:
#: ``convert_s`` is one ~4 s conversion on the observed workload (3.1 to
#: 4.9 s over five runs of identical work); ``snn_batch_tail_ms`` is at
#: most p58 with the 24 T=2 batches of the observed workload, and
#: p37.5 with the sweep's 16 T=16 batches; ``sgl_train_sps`` is zero on the sweep,
#: ``obs_bytes`` outside the observed workload, and ``ops_failed_frac``
#: whenever the run is correct.
UNGATED = (
    ("convert_s", "s"),
    ("snn_batch_tail_ms", "ms"),
    ("sgl_train_sps", "1/s"),
    ("obs_bytes", "B"),
    ("ops_failed_frac", "frac"),
)

#: Self time of every span account, as per-layer metric -> account.
#: These partition the traced time: with ``gap_s`` they sum to the
#: traced pass's own timing of its setup and unit (``trace.window_s``
#: is the tracer's reading of the same blocks).  Leaf accounts (no
#: traced callees) keep the plain ``_s`` name; accounts with traced callees report self time as
#: ``_self_s`` (``conversion.build_s`` is the self time of
#: ``convert_dnn_to_snn``: building specs and the spiking twin).
PARTITION = {
    "data.synth_s": "data.synth",
    "data.batch_wait_s": "data.batch_wait",
    "train.lsuv_self_s": "train.lsuv",
    "train.dnn_loop_self_s": "train.dnn_loop",
    "nn.dnn_forward_self_s": "nn.dnn_forward",
    "tensor.dnn_backward_s": "tensor.dnn_backward",
    "optim.step_s": "optim.step",
    "nn.conv2d_s": "nn.conv2d",
    "nn.linear_s": "nn.linear",
    "train.eval_self_s": "train.eval",
    "conversion.calibrate_self_s": "conversion.calibrate",
    "conversion.algorithm1_s": "conversion.algorithm1",
    "conversion.build_s": "conversion.build",
    "snn.forward_self_s": "snn.forward",
    "snn.neuron_s": "snn.neuron",
    "snn.sgl_backward_s": "snn.sgl_backward",
    "snn.train_loop_self_s": "snn.train_loop",
    "energy.activity_self_s": "energy.activity",
    "energy.flops_s": "energy.flops",
    "obs.drift_self_s": "obs.drift",
    "obs.monitored_eval_s": "obs.monitored_eval",
    "obs.energy_profile_self_s": "obs.energy_profile",
    "obs.session_s": "obs.session",
}

#: Inclusive time of stage-level accounts: the stage and everything it
#: called (``train.lsuv_s`` includes the forwards LSUV runs).
INCLUSIVE = {
    "train.lsuv_s": "train.lsuv",
    "conversion.calibrate_s": "conversion.calibrate",
    "train.eval_s": "train.eval",
    "energy.activity_s": "energy.activity",
    "obs.drift_s": "obs.drift",
    "obs.energy_profile_s": "obs.energy_profile",
}

#: Per-call duration series (metric ``<series>_ms_p50``).
SERIES = (
    "nn.dnn_forward",
    "tensor.dnn_backward",
    "optim.step",
    "conversion.algorithm1_layer",
    "snn.eval_forward",
    "snn.sgl_forward",
    "snn.sgl_backward",
)

PER_LAYER = (
    tuple((name, "s") for name in PARTITION)
    + tuple((name, "s") for name in INCLUSIVE)
    + tuple((f"{series}_ms_p50", "ms") for series in SERIES)
    + (
        ("nn.conv2d_calls", "count"),
        ("nn.conv2d_gflop", "GFLOP"),
        ("nn.conv2d_gflops_rate", "GFLOP/s"),
        ("conversion.loss_evals", "count"),
        ("snn.neuron_calls", "count"),
        ("obs.files", "count"),
        ("obs.records", "count"),
        ("snn.spikes_per_neuron", "count"),
        ("energy.snn_mflops", "MFLOP"),
        ("gap_s", "s"),
        ("trace.window_s", "s"),
        ("trace.overhead_frac", "frac"),
    )
    + UNGATED
)


# ----------------------------------------------------------------------
# Passes
# ----------------------------------------------------------------------
class Pass:
    """Setup plus one timed unit of a workload, optionally traced.

    One unit outlasts the benchmark's ``run_seconds``, so a pass times
    exactly one.
    """

    def __init__(self, workload, repeats: int, tracer=None, trained=None) -> None:
        self.workload = workload
        self.record = workloads.Record(tracer=tracer)
        self.tracer = tracer
        if tracer is not None:
            spans.instrument(tracer)
        try:
            self.prepared = workload.setup(self.record, repeats, trained)
            state = workload.unit(self.prepared, self.record)
        finally:
            if tracer is not None:
                tracer.restore()
        self.checks: Dict[str, bool] = workload.checks(self.prepared, state)
        self.outcome: workloads.Outcome = state[0]

    def operations(self) -> int:
        """Train steps, eval batches and conversions this pass ran."""
        record = self.record
        return record.train_steps + len(record.eval_batch_s) + len(record.convert_s)


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _tail(record: workloads.Record) -> Tuple[float, float, int]:
    """``(percentile, ms, count)`` of the latency batches' tail, zeros if too few."""
    if len(record.latency_batch_s) <= stats.TAIL_BEYOND:
        return 0.0, 0.0, len(record.latency_batch_s)
    percentile, value, count = stats.tail(record.latency_batch_s)
    return percentile, 1e3 * value, count


def _ungated(record: workloads.Record) -> Dict[str, float]:
    return {
        "convert_s": stats.median(record.convert_s),
        "snn_batch_tail_ms": _tail(record)[1],
        "sgl_train_sps": _ratio(record.sgl_samples, record.sgl_seconds),
        "obs_bytes": record.obs_bytes,
    }


def end_to_end(run: Pass) -> Tuple[Dict[str, float], str]:
    """End-to-end and ungated metrics of an untraced pass."""
    record, outcome = run.record, run.outcome
    percentile, _, count = _tail(record)
    values = {
        "setup_s": stats.median(record.prepare_s) + sum(record.setup_train_s),
        "total_s": record.unit_s[0],
        "dnn_train_sps": _ratio(record.dnn_samples, record.dnn_seconds),
        "snn_eval_sps": _ratio(record.eval_samples, sum(record.eval_batch_s)),
        "snn_batch_p50_ms": 1e3 * stats.median(record.latency_batch_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "dnn_acc": 100.0 * outcome.dnn_acc,
        "conversion_acc": 100.0 * outcome.conversion_acc,
        "snn_acc": 100.0 * outcome.snn_acc,
        **_ungated(record),
    }
    note = (
        f"snn_batch_p50_ms and snn_batch_tail_ms (p{percentile:.1f}) are of {count} "
        f"eval batches at T={run.workload.latency_timesteps}"
    )
    return values, note


def per_layer(untraced: Pass, traced: Pass) -> Dict[str, float]:
    tracer, record = traced.tracer, traced.record
    values = {name: tracer.self_s.get(account, 0.0) for name, account in PARTITION.items()}
    values.update(
        {name: tracer.inclusive_s.get(account, 0.0) for name, account in INCLUSIVE.items()}
    )
    for series in SERIES:
        samples = tracer.samples.get(series)
        values[f"{series}_ms_p50"] = 1e3 * stats.median(samples) if samples else 0.0
    gflop = tracer.counts.get("nn.conv2d_flop", 0.0) / 1e9
    values.update(
        {
            "nn.conv2d_calls": tracer.calls.get("nn.conv2d", 0),
            "nn.conv2d_gflop": gflop,
            "nn.conv2d_gflops_rate": _ratio(gflop, values["nn.conv2d_s"]),
            "conversion.loss_evals": tracer.counts.get("conversion.loss_evals", 0.0),
            "snn.neuron_calls": tracer.calls.get("snn.neuron", 0),
            "obs.files": record.obs_files,
            "obs.records": record.obs_records,
            "snn.spikes_per_neuron": traced.outcome.spikes_per_neuron,
            "energy.snn_mflops": traced.outcome.snn_mflops,
            "gap_s": tracer.gap_s,
            "trace.window_s": tracer.window_s,
            "trace.overhead_frac": record.unit_s[0] / untraced.record.unit_s[0] - 1.0,
        }
    )
    values.update(_ungated(record))
    return values


def closure_holds(traced: Pass) -> bool:
    """Every account is reported, every span exit matched its entry, and
    self times plus the gap sum to the pass's own timing of the traced
    blocks (its setup and unit)."""
    tracer = traced.tracer
    reported = set(PARTITION.values())
    return set(tracer.self_s) <= reported and tracer.closure_holds(traced.record.timed_s())


# ----------------------------------------------------------------------
# Run
# ----------------------------------------------------------------------
def _tree(path: str) -> Optional[List[str]]:
    if not os.path.exists(path):
        return None
    return sorted(os.path.join(folder, name) for folder, _d, files in os.walk(path) for name in files)


def run(name: str, seed: int, trace: bool) -> int:
    if name not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload '{name}'; choose from {sorted(workloads.WORKLOADS)}")
    workload_cls = workloads.WORKLOADS[name]
    guarded = {path: _tree(path) for path in ("results", "runs", workloads.TMP_ROOT)}

    if trace:
        untraced = Pass(workload_cls(seed), repeats=1)
        gc.collect()
        traced = Pass(
            workload_cls(seed), repeats=1, tracer=spans.Tracer(), trained=untraced.prepared
        )
        passes = [untraced, traced]
        checks = {f"untraced: {k}": v for k, v in untraced.checks.items()}
        checks.update({f"traced: {k}": v for k, v in traced.checks.items()})
        checks["traced outputs equal untraced"] = (
            traced.outcome.key() == untraced.outcome.key()
        )
        checks["self times + gap_s = traced setup + total_s"] = closure_holds(traced)
    else:
        untraced = Pass(workload_cls(seed), repeats=workloads.SETUP_REPEATS)
        passes = [untraced]
        checks = dict(untraced.checks)
    checks["no files left in results/, runs/ or scratch"] = all(
        _tree(path) == before for path, before in guarded.items()
    )

    attempted = sum(p.operations() for p in passes) + len(checks)
    failed = sum(1 for ok in checks.values() if not ok)
    shown, note = end_to_end(untraced)
    shown["ops_failed_frac"] = failed / attempted
    if trace:
        metrics = per_layer(untraced, traced)
        metrics["ops_failed_frac"] = shown["ops_failed_frac"]
        units = dict(PER_LAYER)
    else:
        metrics = {metric: shown[metric] for metric, _unit in END_TO_END}
        units = dict(END_TO_END)

    scale = workload_cls.scale
    env = fingerprint.collect(
        dtype=get_default_dtype().__name__,
        engine=untraced.outcome.engine,
        scale={
            "image_size": scale.image_size,
            "width": scale.width_multiplier,
            "batch": scale.batch_size,
            "train": scale.train_size,
            "test": scale.test_size,
            "dnn_epochs": scale.dnn_epochs,
            "snn_epochs": scale.snn_epochs,
        },
    )
    print(f"workload {name} seed {seed} trace {int(trace)}")
    print("fingerprint " + json.dumps(env, sort_keys=True))
    gated = dict(END_TO_END)
    for metric, unit in END_TO_END + UNGATED:
        flag = "" if metric in gated else "  (not gated)"
        print(f"  {metric:<20} {shown[metric]:>14.4f} {unit}{flag}")
    print(f"  ({note})")
    if trace:
        for metric, unit in PER_LAYER:
            print(f"  {metric:<36} {metrics[metric]:>14.6f} {unit}")
    for check, ok in checks.items():
        print(f"check {'ok    ' if ok else 'FAILED'} {check}")
    correct = failed == 0
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric: {"value": float(value), "unit": units[metric]}
            for metric, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1
