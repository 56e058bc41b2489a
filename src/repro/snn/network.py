"""Temporal execution of converted spiking networks.

The spiking network is a *twin* of the source DNN: every weight layer
(conv/linear/pool/flatten) is applied once per time step, and every
DNN activation is replaced by a stateful :class:`SpikingNeuron`.  The
network presents the (direct-encoded) input for ``timesteps`` steps and
accumulates the final linear layer's outputs — the output layer does
not spike, following standard practice for low-latency SNNs (the class
decision is the accumulated logit).

Two execution modes compute the identical unroll:

- ``"stepwise"`` — the classic step-major loop: T outer steps, each
  pushing one frame through every layer.  Every per-step probe (monitor
  hooks, instance-patched forwards) sees the network exactly as the
  temporal semantics describe it.
- ``"fused"`` (default) — layer-major, time-folded execution: the T
  input frames are packed along the batch axis (``(T*N, C, H, W)``,
  time-major blocks) so each stateless layer runs **one** GEMM over the
  folded batch instead of T small ones, and each stateful module
  (:class:`SpikingNeuron`, :class:`~repro.snn.pooling.SpikingMaxPool`,
  :class:`TemporalDropout`) consumes the folded tensor with a vectorised
  scan over the time blocks.  Valid because the body is feed-forward:
  reordering (step, layer) loops preserves every data dependency.  The
  fused path produces the same spikes, logits and BPTT gradients as the
  step-major loop (see ``tests/test_fused_equivalence.py``).

Fused execution degrades gracefully instead of changing semantics:
a network-level step monitor forces the whole forward back to
stepwise, and any module whose ``forward`` has been instance-patched
(the library's probing idiom — event counting, spike rasters,
calibration taps, spike-rate regularizers) is executed per step on the
unfolded frames while the rest of the body stays fused.

Structure classes:

- :class:`StepWrapper` — applies a stateless DNN module each step;
- :class:`TemporalDropout` — dropout with a mask held fixed across the
  time steps of one forward pass (as in DIET-SNN's SNN-domain training);
- :class:`SpikingSequential` — ordered chain of spiking modules;
- :class:`SpikingResidualBlock` — spiking twin of a ResNet basic block
  (branch and shortcut currents sum before the output neuron);
- :class:`SpikingNetwork` — encoder + body + temporal loop.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, List, Optional, Tuple

import numpy as np

from ..nn.batchnorm import BatchNorm2d
from ..nn.containers import Flatten, Identity
from ..nn.conv import Conv2d
from ..nn.linear import Linear
from ..nn.pooling import AvgPool2d, GlobalAvgPool2d, MaxPool2d
from ..nn.module import Module
from ..tensor import Tensor, concatenate
from .encoding import DirectEncoder, Encoder
from .neurons import SpikingNeuron


# ----------------------------------------------------------------------
# Layer-attribution probe (repro.obs.profile)
# ----------------------------------------------------------------------
#: Installed by the op profiler so temporal loops can label which layer
#: each primitive op belongs to.  A plain module global rather than an
#: import: repro.obs imports repro.snn, so this module must never import
#: the observability stack at top level.  The probe is a
#: ``callable(label) -> context manager``; ``None`` keeps every loop on
#: its fast path.
_LAYER_PROBE = None


def set_layer_probe(probe) -> None:
    """Install (or clear, with ``None``) the per-layer profiling probe."""
    global _LAYER_PROBE
    _LAYER_PROBE = probe


def layer_label(index: int, layer: Module) -> str:
    """Stable attribution label: position plus innermost module type."""
    inner = layer.inner if isinstance(layer, StepWrapper) else layer
    return f"L{index}:{type(inner).__name__}"


# ----------------------------------------------------------------------
# Time folding: frames <-> (T*N, ...) batches, time-major blocks
# ----------------------------------------------------------------------
def fold_time(frames: List[Tensor]) -> Tensor:
    """Pack per-step frames into one time-major folded batch."""
    return concatenate(frames, axis=0)


def unfold_time(fused: Tensor, timesteps: int) -> List[Tensor]:
    """Differentiable inverse of :func:`fold_time` (T row-block slices)."""
    total = fused.data.shape[0]
    if timesteps <= 0 or total % timesteps:
        raise ValueError(
            f"time-folded batch of {total} rows is not divisible by "
            f"timesteps={timesteps}"
        )
    n = total // timesteps
    return [fused[t * n:(t + 1) * n] for t in range(timesteps)]


def tile_time(frame: Tensor, timesteps: int) -> Tensor:
    """Repeat one frame T times along the batch axis (direct encoding).

    Backward sums the per-step gradient blocks — exactly the gradient a
    step-major loop accumulates when the same tensor is presented at
    every step.
    """
    data = frame.data
    out = np.broadcast_to(data, (timesteps,) + data.shape).reshape(
        (timesteps * data.shape[0],) + data.shape[1:]
    )

    def bwd(g):
        return (g.reshape((timesteps,) + data.shape).sum(axis=0),)

    return Tensor.from_op(out, (frame,), bwd, "tile_time")


def _has_patched_forward(module: Module) -> bool:
    """True when ``forward`` was instance-patched (a per-step probe)."""
    return "forward" in module.__dict__


def apply_fused(module: Module, x: Tensor, timesteps: int) -> Tensor:
    """Run ``module`` over a time-folded batch, preserving semantics.

    Dispatches to the module's ``forward_fused`` when it has one and its
    ``forward`` has not been instance-patched; otherwise unfolds the
    batch and replays the module step by step (correct for any stateful
    module, and required for probes that tap ``forward`` per step).
    """
    fused_fn = getattr(module, "forward_fused", None)
    if fused_fn is not None and not _has_patched_forward(module):
        return fused_fn(x, timesteps)
    return fold_time([module(f) for f in unfold_time(x, timesteps)])


class SpikingModule(Module):
    """Base class: one ``forward`` call advances one time step."""

    def reset_state(self) -> None:
        """Clear temporal state (membranes, dropout masks) recursively."""
        for child in self.children():
            if isinstance(child, (SpikingModule, SpikingNeuron)):
                child.reset_state()


class StepWrapper(SpikingModule):
    """Applies a stateless DNN module (conv / linear / pool / flatten)
    at every time step, sharing its weights across steps."""

    # Inners that are deterministic and act row-wise on the batch axis,
    # so a time-folded batch through one call equals T per-step calls.
    _FOLDABLE = (
        Conv2d, Linear, MaxPool2d, AvgPool2d, GlobalAvgPool2d, Flatten,
        Identity,
    )

    def __init__(self, inner: Module) -> None:
        super().__init__()
        self.inner = inner

    def forward(self, x: Tensor) -> Tensor:
        return self.inner(x)

    def _folds(self) -> bool:
        """Whether one call on a folded batch matches T per-step calls."""
        if _has_patched_forward(self.inner):
            # A per-step probe on the inner module must fire once per
            # frame, never once on the folded batch.
            return False
        if isinstance(self.inner, self._FOLDABLE):
            return True
        # Eval-mode BatchNorm is a fixed per-row affine map; in training
        # it computes batch statistics, which a folded batch would pool
        # across time steps — run those per step instead.
        if isinstance(self.inner, BatchNorm2d):
            return not self.inner.training
        return False

    def forward_fused(self, x: Tensor, timesteps: int) -> Tensor:
        if self._folds():
            return self.forward(x)
        return fold_time(
            [self.forward(f) for f in unfold_time(x, timesteps)]
        )

    def extra_repr(self) -> str:
        return type(self.inner).__name__


class TemporalDropout(SpikingModule):
    """Dropout whose mask is sampled once per input and shared by all
    time steps, so the set of silenced units is consistent through the
    temporal unroll."""

    def __init__(self, p: float, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p
        self.rng = rng if rng is not None else np.random.default_rng()
        self._mask: Optional[np.ndarray] = None

    def reset_state(self) -> None:
        self._mask = None
        super().reset_state()

    def forward(self, x: Tensor) -> Tensor:
        if not self.training or self.p == 0.0:
            return x
        if self._mask is None or self._mask.shape != x.data.shape:
            keep = (self.rng.random(x.data.shape) >= self.p).astype(x.data.dtype)
            self._mask = keep / (1.0 - self.p)
        mask = self._mask

        def bwd(g):
            return (g * mask,)

        return Tensor.from_op(x.data * mask, (x,), bwd, "temporal_dropout")

    def forward_fused(self, x: Tensor, timesteps: int) -> Tensor:
        if not self.training or self.p == 0.0:
            return x
        total = x.data.shape[0]
        frame_shape = (total // timesteps,) + x.data.shape[1:]
        if self._mask is None or self._mask.shape != frame_shape:
            # Same RNG draw as the first step-major step: one mask per
            # frame, shared by all T time blocks.
            keep = (self.rng.random(frame_shape) >= self.p).astype(x.data.dtype)
            self._mask = keep / (1.0 - self.p)
        mask = np.tile(self._mask, (timesteps,) + (1,) * (x.data.ndim - 1))

        def bwd(g):
            return (g * mask,)

        return Tensor.from_op(x.data * mask, (x,), bwd, "temporal_dropout")

    def extra_repr(self) -> str:
        return f"p={self.p}"


class SpikingSequential(SpikingModule):
    """Ordered chain of spiking modules (one time step per call)."""

    def __init__(self, *layers: Module) -> None:
        super().__init__()
        self._layer_list: List[Module] = []
        for layer in layers:
            self.append(layer)

    def append(self, layer: Module) -> "SpikingSequential":
        index = len(self._layer_list)
        self._layer_list.append(layer)
        self.add_module(str(index), layer)
        return self

    def forward(self, x: Tensor) -> Tensor:
        probe = _LAYER_PROBE
        if probe is None:
            for layer in self._layer_list:
                x = layer(x)
            return x
        for index, layer in enumerate(self._layer_list):
            with probe(layer_label(index, layer)):
                x = layer(x)
        return x

    def forward_fused(self, x: Tensor, timesteps: int) -> Tensor:
        probe = _LAYER_PROBE
        if probe is None:
            for layer in self._layer_list:
                x = apply_fused(layer, x, timesteps)
            return x
        for index, layer in enumerate(self._layer_list):
            with probe(layer_label(index, layer)):
                x = apply_fused(layer, x, timesteps)
        return x

    def __iter__(self) -> Iterator[Module]:
        return iter(self._layer_list)

    def __getitem__(self, index) -> Module:
        return self._layer_list[index]

    def __len__(self) -> int:
        return len(self._layer_list)


class SpikingResidualBlock(SpikingModule):
    """Spiking twin of :class:`repro.models.resnet.BasicBlock`.

    The main-branch current (conv2 of the spikes of neuron1) and the
    shortcut current sum at the membrane of the output neuron, the
    standard treatment of skip connections in converted spiking ResNets.
    """

    def __init__(
        self,
        conv1: Module,
        neuron1: SpikingNeuron,
        conv2: Module,
        shortcut: Module,
        neuron2: SpikingNeuron,
    ) -> None:
        super().__init__()
        self.conv1 = conv1
        self.neuron1 = neuron1
        self.conv2 = conv2
        self.shortcut = shortcut
        self.neuron2 = neuron2

    def forward(self, x: Tensor) -> Tensor:
        branch = self.conv2(self.neuron1(self.conv1(x)))
        return self.neuron2(branch + self.shortcut(x))

    def forward_fused(self, x: Tensor, timesteps: int) -> Tensor:
        branch = apply_fused(
            self.conv2,
            apply_fused(
                self.neuron1, apply_fused(self.conv1, x, timesteps), timesteps
            ),
            timesteps,
        )
        shortcut = apply_fused(self.shortcut, x, timesteps)
        return apply_fused(self.neuron2, branch + shortcut, timesteps)


class SpikingNetwork(SpikingModule):
    """A converted SNN: encoder, spiking body, and the temporal loop.

    Parameters
    ----------
    body:
        Spiking pipeline mapping one input frame to one output-logit
        contribution (its last stage is the non-spiking output layer).
    timesteps:
        Number of time steps ``T`` (the paper's ultra-low-latency regime
        is T in {2, 3}).
    encoder:
        Input encoder; defaults to direct encoding.

    ``forward`` accepts a numpy batch or Tensor and returns the
    time-averaged logits; differentiable end-to-end through the unroll
    (BPTT) for SGL fine-tuning.

    ``mode`` selects the execution engine: ``"fused"`` (default) folds
    the T frames into the batch axis so each stateless layer runs one
    GEMM and neurons scan their membranes over the time blocks;
    ``"stepwise"`` is the classic step-major loop.  Both produce
    equivalent logits, spike counts and BPTT gradients.  A fused network
    falls back to stepwise automatically while a step monitor is
    attached (the per-step hook observes whole-network state at step
    boundaries, which layer-major execution never materialises).
    """

    OUTPUT_MODES = ("mean", "max", "last")
    MODES = ("fused", "stepwise")

    def __init__(
        self,
        body: SpikingModule,
        timesteps: int,
        encoder: Optional[Encoder] = None,
        output_mode: str = "mean",
        mode: str = "fused",
    ) -> None:
        super().__init__()
        if timesteps <= 0:
            raise ValueError("timesteps must be positive")
        if output_mode not in self.OUTPUT_MODES:
            raise ValueError(
                f"output_mode must be one of {self.OUTPUT_MODES}, got "
                f"'{output_mode}'"
            )
        if mode not in self.MODES:
            raise ValueError(
                f"mode must be one of {self.MODES}, got '{mode}'"
            )
        self.body = body
        self.timesteps = timesteps
        self.encoder = encoder if encoder is not None else DirectEncoder()
        # Output decoding: "mean" accumulates the output layer over all
        # steps (the paper's choice); "max" takes the elementwise max
        # over steps; "last" reads only the final step.
        self.output_mode = output_mode
        self.mode = mode
        # Per-timestep observer (repro.obs.instruments.StepMonitor);
        # None keeps the temporal loop on its fast path.
        self._step_monitor = None
        # Streaming hook: when True, ``forward`` skips the per-input
        # ``reset_state()`` so membranes (and pooling counts) stay warm
        # across consecutive windows.  Set via :meth:`streaming`.
        self.carry_state = False

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def attach_monitor(self, monitor) -> None:
        """Install an object whose ``on_step(step, network)`` is called
        after every simulated time step (see ``repro.obs.monitored``).

        While a monitor is attached, forward passes run stepwise even in
        fused mode, so the hook sees true step-boundary state."""
        self._step_monitor = monitor

    def detach_monitor(self) -> None:
        self._step_monitor = None

    def inject_faults(self, spec, telemetry=None):
        """Context manager realising a :class:`repro.faults.FaultSpec`
        on this network (see :func:`repro.faults.inject_faults`).

        Weight and neuron-parameter faults keep the fused engine;
        transmission faults instance-patch the affected neurons, which
        the fused path detects and replays per step — the same graceful
        degradation any per-step probe triggers.  On exit the network is
        restored bit-for-bit.
        """
        from ..faults import inject_faults as _inject

        return _inject(self, spec, telemetry=telemetry)

    # ------------------------------------------------------------------
    # Execution-mode plumbing
    # ------------------------------------------------------------------
    def resolved_mode(self) -> str:
        """The engine the next forward pass will actually use."""
        if self.mode == "stepwise" or self._step_monitor is not None:
            return "stepwise"
        return "fused"

    @contextmanager
    def using_mode(self, mode: str):
        """Pin the execution mode within a block (probes force stepwise)."""
        if mode not in self.MODES:
            raise ValueError(f"mode must be one of {self.MODES}, got '{mode}'")
        previous = self.mode
        self.mode = mode
        try:
            yield self
        finally:
            self.mode = previous

    @contextmanager
    def streaming(self):
        """Keep temporal state warm across forward calls.

        Inside the block consecutive ``forward`` calls continue from the
        previous window's membranes (and pooling counts) instead of
        resetting — the network behaves as one endless unroll chunked
        into windows, which is the semantics a streaming deployment
        needs.  State is cleared on entry and on exit, so the block
        starts cold and leaves no residue.  Both execution engines
        honour the carried state (the fused scan warm-starts from the
        carried membrane), and batch geometry must stay constant across
        windows: both raise ``ValueError`` when it changes.
        """
        previous = self.carry_state
        self.reset_state()
        self.carry_state = True
        try:
            yield self
        finally:
            self.carry_state = previous
            self.reset_state()

    def forward(self, images) -> Tensor:
        if not self.carry_state:
            self.reset_state()
        if self.resolved_mode() == "fused":
            return self._forward_fused(images)
        return self._forward_stepwise(images)

    def _encode_input(self, images) -> Tuple[Optional[Tensor], List[Tensor]]:
        """Returns ``(direct_frame, frames)``: a single in-graph frame
        under direct encoding (presented every step), or the encoded
        per-step frame list otherwise."""
        if isinstance(self.encoder, DirectEncoder):
            if isinstance(images, Tensor) and images.requires_grad:
                # Keep the input in the autograd graph (direct encoding
                # presents the same tensor every step), so gradients
                # w.r.t. the input are available — used by FGSM probes.
                return images, []
            data = images.data if isinstance(images, Tensor) else np.asarray(images)
            return Tensor(self.encoder(data, self.timesteps)[0]), []
        data = images.data if isinstance(images, Tensor) else np.asarray(images)
        return None, [Tensor(f) for f in self.encoder(data, self.timesteps)]

    def _forward_stepwise(self, images) -> Tensor:
        direct_frame, frames = self._encode_input(images)
        if direct_frame is not None:
            frames = [direct_frame] * self.timesteps
        from ..tensor import maximum

        total: Optional[Tensor] = None
        for step, frame in enumerate(frames):
            out = self.body(frame)
            if self._step_monitor is not None:
                self._step_monitor.on_step(step, self)
            if self.output_mode == "mean":
                total = out if total is None else total + out
            elif self.output_mode == "max":
                total = out if total is None else maximum(total, out)
            else:  # "last"
                total = out
        if self.output_mode == "mean":
            return total * (1.0 / self.timesteps)
        return total

    def _forward_fused(self, images) -> Tensor:
        timesteps = self.timesteps
        direct_frame, frames = self._encode_input(images)
        if direct_frame is not None:
            # Direct encoding presents identical frames: evaluate the
            # leading stateless prefix once on (N, ...) and tile its
            # output T times, so the first weight layer(s) never
            # recompute the same result per step.
            prefix, rest = self._direct_prefix()
            probe = _LAYER_PROBE
            out = direct_frame
            if probe is None:
                for wrapper in prefix:
                    out = wrapper(out)
                fused = tile_time(out, timesteps)
                for layer in rest:
                    fused = apply_fused(layer, fused, timesteps)
            else:
                # The flattened body keeps its positional labels: prefix
                # layers are indices [0, len(prefix)), the rest follow.
                for index, wrapper in enumerate(prefix):
                    with probe(layer_label(index, wrapper)):
                        out = wrapper(out)
                fused = tile_time(out, timesteps)
                for offset, layer in enumerate(rest):
                    with probe(layer_label(len(prefix) + offset, layer)):
                        fused = apply_fused(layer, fused, timesteps)
        else:
            fused = fold_time(frames)
            fused = apply_fused(self.body, fused, timesteps)
        return self._decode_output(fused)

    def _direct_prefix(self) -> Tuple[List[Module], List[Module]]:
        """Split a sequential body into (stateless prefix, remainder).

        The prefix is the leading run of :class:`StepWrapper` layers
        whose output is provably identical at every step under direct
        encoding — deterministic, row-wise inners with no per-step
        probes attached.  Nested, unpatched :class:`SpikingSequential`
        containers are flattened first (chaining their layers over the
        folded batch equals running the container), so converter-built
        bodies like ``SpikingSequential(features, classifier)`` still
        expose their leading conv stack.  Non-sequential bodies get an
        empty prefix.
        """
        if not isinstance(self.body, SpikingSequential):
            return [], [self.body]

        def flatten(seq: SpikingSequential) -> List[Module]:
            flat: List[Module] = []
            for layer in seq:
                if isinstance(layer, SpikingSequential) and not _has_patched_forward(layer):
                    flat.extend(flatten(layer))
                else:
                    flat.append(layer)
            return flat

        if _has_patched_forward(self.body):
            return [], [self.body]
        layers = flatten(self.body)
        prefix: List[Module] = []
        for layer in layers:
            if (
                isinstance(layer, StepWrapper)
                and layer._folds()
                and not _has_patched_forward(layer)
            ):
                prefix.append(layer)
            else:
                break
        return prefix, layers[len(prefix):]

    def _decode_output(self, fused: Tensor) -> Tensor:
        """Reduce the time-folded output blocks per ``output_mode``."""
        timesteps = self.timesteps
        per_step = fused.reshape(
            (timesteps, fused.data.shape[0] // timesteps) + fused.data.shape[1:]
        )
        if self.output_mode == "mean":
            return per_step.mean(axis=0)
        if self.output_mode == "max":
            from ..tensor import maximum

            # Fold pairwise in step order — the same tie-handling as the
            # stepwise loop's running maximum.
            total = per_step[0]
            for t in range(1, timesteps):
                total = maximum(total, per_step[t])
            return total
        return per_step[timesteps - 1]

    # ------------------------------------------------------------------
    # Spiking statistics
    # ------------------------------------------------------------------
    def spiking_neurons(self) -> List[SpikingNeuron]:
        return [m for m in self.modules() if isinstance(m, SpikingNeuron)]

    def set_recording(self, enabled: bool) -> None:
        for neuron in self.spiking_neurons():
            neuron.recording = enabled

    def reset_spike_stats(self) -> None:
        for neuron in self.spiking_neurons():
            neuron.reset_spike_stats()

    def total_spikes(self) -> float:
        return sum(neuron.spike_count for neuron in self.spiking_neurons())

    def extra_repr(self) -> str:
        return (
            f"timesteps={self.timesteps}, "
            f"encoder={type(self.encoder).__name__}, mode={self.mode}"
        )
