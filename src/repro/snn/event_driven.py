"""Event-driven execution and exact accumulate accounting.

On neuromorphic hardware a converted SNN performs work only when spikes
arrive: each input spike triggers one accumulate per outgoing synapse.
The dense simulator in :mod:`repro.snn.network` computes the same
numbers with GEMMs, and :mod:`repro.energy.flops` *estimates* the
accumulate count from average spike rates.  This module closes the
loop:

- :class:`EventDrivenNetwork` re-runs a converted network input-by-
  input, counting the **exact** number of accumulates every weight
  layer performs (one per spike event per reachable output connection)
  while producing bit-identical outputs to the dense simulator.

The exact counts let the test-suite bound the error of the rate-based
FLOP estimator — the quantity behind the paper's Fig. 4(b)/(c).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..nn import Conv2d, Linear
from ..tensor import Tensor, no_grad
from .network import SpikingNetwork, StepWrapper


def conv_fanout_map(
    in_shape: Tuple[int, int, int], layer: Conv2d
) -> np.ndarray:
    """Per-input-position fan-out of a convolution.

    Returns an ``(C, H, W)`` integer array: the number of *output*
    connections each input element feeds (``out_channels x`` the number
    of kernel placements covering that position).  Border positions
    have smaller fan-out — exactly the count a spike event from that
    position triggers.
    """
    channels, height, width = in_shape
    k, s, p = layer.kernel_size, layer.stride, layer.padding
    out_h = (height + 2 * p - k) // s + 1
    out_w = (width + 2 * p - k) // s + 1

    def coverage(length: int, out_len: int) -> np.ndarray:
        counts = np.zeros(length, dtype=np.int64)
        for out_index in range(out_len):
            start = out_index * s - p
            lo, hi = max(0, start), min(length, start + k)
            if hi > lo:
                counts[lo:hi] += 1
        return counts

    rows = coverage(height, out_h)
    cols = coverage(width, out_w)
    per_position = rows[:, None] * cols[None, :] * layer.out_channels
    return np.broadcast_to(per_position, (channels, height, width)).copy()


@dataclass
class EventCounts:
    """Exact per-layer event statistics over a measurement run.

    ``accumulates`` are synaptic operations (one per spike event per
    reachable output connection); ``input_events`` are the raw spike
    arrivals at each weight layer (summed over time steps and batch);
    ``input_shapes`` the per-image input shape each layer saw.
    """

    layer_names: List[str] = field(default_factory=list)
    accumulates: List[float] = field(default_factory=list)
    input_events: List[float] = field(default_factory=list)
    input_shapes: List[Tuple[int, ...]] = field(default_factory=list)
    images: int = 0

    @property
    def total(self) -> float:
        return float(sum(self.accumulates))

    def per_image(self) -> List[float]:
        if self.images == 0:
            return [0.0] * len(self.accumulates)
        return [a / self.images for a in self.accumulates]

    def input_events_per_image(self) -> List[float]:
        if self.images == 0:
            return [0.0] * len(self.input_events)
        return [e / self.images for e in self.input_events]


class EventDrivenNetwork:
    """Runs a converted SNN with exact event accounting.

    Parameters
    ----------
    snn:
        A converted :class:`SpikingNetwork` (evaluated in eval mode).
        The dense GEMM computes values while events are counted exactly
        from the spike tensors.

    Usage::

        runner = EventDrivenNetwork(snn)
        logits, counts = runner.run(images)
    """

    def __init__(self, snn: SpikingNetwork) -> None:
        self.snn = snn
        self._counts: Optional[EventCounts] = None
        self._fanout_cache: Dict[int, np.ndarray] = {}
        self._first_weight_layer: Optional[int] = None
        # Weight layers in execution order, populated by run(); aligned
        # with the EventCounts lists (consumed by repro.hw.map_network).
        self.weight_layers: List = []

    # ------------------------------------------------------------------
    def _wrap_layers(self) -> List:
        wrappers = [
            m for m in self.snn.modules()
            if isinstance(m, StepWrapper) and isinstance(m.inner, (Conv2d, Linear))
        ]
        patched = []
        counts = self._counts
        if self._first_weight_layer is None and wrappers:
            self._first_weight_layer = id(wrappers[0])
        self.weight_layers = [w.inner for w in wrappers]
        for index, wrapper in enumerate(wrappers):
            inner = wrapper.inner
            name = f"{type(inner).__name__.lower()}{index}"
            if len(counts.layer_names) < len(wrappers):
                counts.layer_names.append(name)
                counts.accumulates.append(0.0)
                counts.input_events.append(0.0)
                counts.input_shapes.append(())
            original = wrapper.forward
            had_instance_forward = "forward" in wrapper.__dict__

            def counting(
                x: Tensor,
                _inner=inner,
                _index=index,
                _orig=original,
                _wrapper=wrapper,
            ):
                data = x.data
                counts.input_shapes[_index] = tuple(data.shape[1:])
                is_first = id(_wrapper) == self._first_weight_layer
                if is_first:
                    # Analog direct-encoded input: every element is an
                    # "event" at every step (the closure runs per step).
                    counts.input_events[_index] += float(data.size)
                else:
                    counts.input_events[_index] += float((data != 0.0).sum())
                if is_first:
                    # Direct-encoded analog input: every connection is a
                    # MAC each step — dense count, dense compute.
                    if isinstance(_inner, Conv2d):
                        fanout = self._fanout_for(_inner, data.shape[1:])
                        counts.accumulates[_index] += float(
                            fanout.sum() * data.shape[0]
                        )
                    else:
                        counts.accumulates[_index] += float(
                            data.shape[0] * _inner.in_features * _inner.out_features
                        )
                elif isinstance(_inner, Conv2d):
                    fanout = self._fanout_for(_inner, data.shape[1:])
                    active = data != 0.0
                    counts.accumulates[_index] += float(
                        (active * fanout[None]).sum()
                    )
                else:
                    active_counts = (data != 0.0).sum()
                    counts.accumulates[_index] += float(
                        active_counts * _inner.out_features
                    )
                return _orig(x)

            object.__setattr__(wrapper, "forward", counting)
            patched.append((wrapper, original, had_instance_forward))
        return patched

    def _fanout_for(self, layer: Conv2d, in_shape) -> np.ndarray:
        key = (id(layer), tuple(in_shape))
        if key not in self._fanout_cache:
            self._fanout_cache[key] = conv_fanout_map(tuple(in_shape), layer)
        return self._fanout_cache[key]

    # ------------------------------------------------------------------
    def run(self, images: np.ndarray) -> Tuple[Tensor, EventCounts]:
        """One inference pass; returns (logits, exact event counts)."""
        images = np.asarray(images)
        self._counts = EventCounts(images=images.shape[0])
        self._first_weight_layer = None
        patched = self._wrap_layers()
        was_training = self.snn.training
        self.snn.eval()
        try:
            with no_grad():
                logits = self.snn(images)
        finally:
            self.snn.train(was_training)
            for wrapper, original, had_instance_forward in patched:
                if had_instance_forward:
                    object.__setattr__(wrapper, "forward", original)
                else:
                    # Restore by *removing* the instance attribute: an
                    # assigned bound method would read as a patched
                    # forward forever after, silently degrading the
                    # fused engine's folding/prefix optimisations.
                    object.__delattr__(wrapper, "forward")
        return logits, self._counts
