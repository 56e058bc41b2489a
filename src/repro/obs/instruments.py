"""SNN-specific instruments and profiling-backed measurement helpers.

Spiking instrumentation builds on the network's existing recording
surface (``set_recording`` / ``reset_spike_stats`` on
:class:`~repro.snn.network.SpikingNetwork`): :class:`StepMonitor`
attaches to the network's per-timestep hook and, at every step, turns
the neurons' running spike counters into per-layer spike-*rate*
histogram samples and membrane-potential statistics in the global
metrics registry.

The measurement helpers fold :mod:`repro.profiling` into the
observability layer as backends: :func:`timed` runs
``profiling.timing.time_callable`` under a span and histograms the
samples; :func:`measure_training_memory` / :func:`measure_inference_memory`
delegate to ``profiling.memory`` and gauge the report fields.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, List, Optional

import numpy as np

from ..profiling.memory import MemoryReport, inference_memory, training_memory
from ..profiling.timing import TimingResult, time_callable
from . import metrics as obs_metrics
from . import trace
from .core import is_enabled
from .metrics import MetricsRegistry


class StepMonitor:
    """Per-timestep spike-rate and membrane-potential monitor.

    Attach via :func:`monitored` (or ``snn.attach_monitor``); the
    network calls :meth:`on_step` after each simulated time step.
    Neuron ``recording`` must be on for spike counters to advance.
    """

    def __init__(
        self,
        snn,
        prefix: str = "snn",
        registry: Optional[MetricsRegistry] = None,
        membranes: bool = True,
    ) -> None:
        self.prefix = prefix
        self.registry = registry if registry is not None else obs_metrics.get_registry()
        self.membranes = membranes
        # The module-tree walk is too slow for a per-step callback;
        # freeze the neuron list at attach time.
        self._neurons = snn.spiking_neurons()
        self._last_counts = [neuron.spike_count for neuron in self._neurons]
        self.steps_seen = 0

    def on_step(self, step: int, network) -> None:
        self.steps_seen += 1
        for index, neuron in enumerate(self._neurons):
            membrane = neuron.membrane
            units = None
            if membrane is not None:
                units = float(np.prod(membrane.data.shape))
                if self.membranes:
                    self.registry.observe(
                        f"{self.prefix}.membrane_mean",
                        float(membrane.data.mean()),
                        layer=index,
                    )
            delta = neuron.spike_count - self._last_counts[index]
            self._last_counts[index] = neuron.spike_count
            if units:
                self.registry.observe(
                    f"{self.prefix}.spike_rate",
                    delta / units,
                    layer=index,
                )
            self.registry.inc(
                f"{self.prefix}.spikes", delta, layer=index
            )

    def summary(self) -> dict:
        """Per-layer totals accumulated so far (counter values)."""
        totals = {}
        for index in range(len(self._neurons)):
            counter = self.registry.counter(
                f"{self.prefix}.spikes", layer=index
            )
            totals[index] = counter.value
        return totals


@contextmanager
def monitored(
    snn,
    prefix: str = "snn",
    registry: Optional[MetricsRegistry] = None,
    membranes: bool = True,
):
    """Monitor ``snn`` for the duration of the block.

    Enables spike recording, attaches a :class:`StepMonitor` to the
    network's per-timestep hook, and restores the previous recording
    state afterwards.  When observability is disabled the block runs
    completely uninstrumented (yields ``None``).
    """
    if not is_enabled() and registry is None:
        yield None
        return
    previous_recording = [n.recording for n in snn.spiking_neurons()]
    snn.reset_spike_stats()
    snn.set_recording(True)
    monitor = StepMonitor(snn, prefix=prefix, registry=registry, membranes=membranes)
    snn.attach_monitor(monitor)
    try:
        yield monitor
    finally:
        snn.detach_monitor()
        for neuron, was_recording in zip(snn.spiking_neurons(), previous_recording):
            neuron.recording = was_recording


def record_spike_profile(
    snn,
    prefix: str = "snn",
    registry: Optional[MetricsRegistry] = None,
) -> List[float]:
    """Summarise the network's accumulated spike statistics into gauges.

    Reads the counters populated by a recorded run (``set_recording``)
    and gauges one average per-neuron-per-step firing rate per layer.
    Returns the per-layer rates.
    """
    registry = registry if registry is not None else obs_metrics.get_registry()
    rates: List[float] = []
    for index, neuron in enumerate(snn.spiking_neurons()):
        denom = neuron.neuron_count * neuron.step_count
        rate = neuron.spike_count / denom if denom else 0.0
        rates.append(rate)
        registry.set_gauge(f"{prefix}.layer_spike_rate", rate, layer=index)
    return rates


def record_energy_profile(
    snn,
    batches,
    input_shape,
    max_batches: Optional[int] = None,
    prefix: str = "energy",
    registry: Optional[MetricsRegistry] = None,
) -> dict:
    """Run :mod:`repro.energy` accounting and publish ``energy.*`` gauges.

    Measures spiking activity of ``snn`` over ``batches`` (Section VI
    of the paper), prices the spike-scaled operation counts with the
    45 nm CMOS :class:`~repro.energy.EnergyModel`, and gauges:

    - per layer: ``energy.spikes_per_neuron``, ``energy.snn_ops``,
      ``energy.dnn_macs`` (labelled ``layer=``);
    - totals: ``energy.snn_total_flops``, ``energy.dnn_total_flops``,
      ``energy.snn_joules``, ``energy.dnn_joules``,
      ``energy.improvement`` (the DNN/SNN energy ratio).

    Returns the summary dict (also attached to the enclosing span).
    The energy package is imported lazily so the observability core
    never drags the accounting machinery in.
    """
    from ..energy import (
        EnergyModel,
        measure_spiking_activity,
        snn_layer_flops,
        snn_total_flops,
    )

    registry = registry if registry is not None else obs_metrics.get_registry()
    record = is_enabled() or registry is not obs_metrics.get_registry()
    with trace.span("energy_profile", timesteps=snn.timesteps) as sp:
        activity = measure_spiking_activity(snn, batches, max_batches=max_batches)
        rates = activity.rates_by_neuron_id(snn)
        records = snn_layer_flops(snn, input_shape, rates)
        model = EnergyModel()
        snn_joules = model.snn_energy(records)
        dnn_joules = model.dnn_energy(records)
        summary = {
            "timesteps": activity.timesteps,
            "images": activity.images,
            "avg_spikes_per_neuron": activity.average_spikes_per_neuron,
            "snn_total_flops": snn_total_flops(records),
            "dnn_total_flops": sum(rec.macs for rec in records),
            "snn_joules": snn_joules,
            "dnn_joules": dnn_joules,
            # A fully silent network has zero SNN energy; report 0 rather
            # than raising mid-run.
            "improvement": dnn_joules / snn_joules if snn_joules else 0.0,
        }
        sp.set(**summary)
    if record:
        for layer, stats in enumerate(activity.layers):
            registry.set_gauge(
                f"{prefix}.spikes_per_neuron", stats.spikes_per_neuron, layer=layer
            )
        for layer, rec in enumerate(records):
            registry.set_gauge(f"{prefix}.snn_ops", rec.snn_ops, layer=layer)
            registry.set_gauge(f"{prefix}.dnn_macs", rec.macs, layer=layer)
        for key in ("snn_total_flops", "dnn_total_flops", "snn_joules",
                    "dnn_joules", "improvement", "avg_spikes_per_neuron"):
            registry.set_gauge(f"{prefix}.{key}", summary[key])
    return summary


# ----------------------------------------------------------------------
# profiling/ as measurement backends
# ----------------------------------------------------------------------
def timed(
    name: str,
    fn: Callable[[], None],
    repeats: int = 3,
    warmup: int = 1,
    registry: Optional[MetricsRegistry] = None,
    **labels,
) -> TimingResult:
    """Time ``fn`` (via :func:`repro.profiling.time_callable`) under a
    span, recording every sample into the ``<name>.seconds`` histogram."""
    registry = registry if registry is not None else obs_metrics.get_registry()
    with trace.span(f"timed:{name}", repeats=repeats, warmup=warmup):
        result = time_callable(fn, repeats=repeats, warmup=warmup)
    if is_enabled() or registry is not obs_metrics.get_registry():
        for sample in result.samples:
            registry.observe(f"{name}.seconds", sample, **labels)
    return result


def measure_training_memory(
    model,
    forward_backward: Callable[[], None],
    optimizer_state_copies: int = 1,
    name: str = "training_memory",
    registry: Optional[MetricsRegistry] = None,
) -> MemoryReport:
    """:func:`repro.profiling.training_memory` + gauges of the report."""
    with trace.span(f"memory:{name}"):
        report = training_memory(
            model, forward_backward, optimizer_state_copies=optimizer_state_copies
        )
    _gauge_memory_report(report, name, registry)
    return report


def measure_inference_memory(
    model,
    input_shape,
    batch_size: int = 1,
    name: str = "inference_memory",
    registry: Optional[MetricsRegistry] = None,
) -> MemoryReport:
    """:func:`repro.profiling.inference_memory` + gauges of the report."""
    with trace.span(f"memory:{name}"):
        report = inference_memory(model, input_shape, batch_size=batch_size)
    _gauge_memory_report(report, name, registry)
    return report


def _gauge_memory_report(
    report: MemoryReport, name: str, registry: Optional[MetricsRegistry]
) -> None:
    if registry is None:
        if not is_enabled():
            return
        registry = obs_metrics.get_registry()
    registry.set_gauge(f"{name}.parameters_bytes", report.parameters)
    registry.set_gauge(f"{name}.activations_bytes", report.activations)
    registry.set_gauge(f"{name}.total_bytes", report.total)
