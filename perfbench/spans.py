"""Span tracer: per-layer self time measured from outside the package.

:class:`Tracer` wraps public entry points of ``repro`` (module-level
functions wherever they were imported, and methods on their classes) so
that each call opens a span.  A span's *self time* is its duration minus
the time covered by the spans it caused; self times are summed per
account (one account per layer entry point).  Spans count only inside
traced windows, which the workload opens exactly around the blocks it
times itself; time inside a window that no span covers is the gap.
Spans stay in memory; nothing is written while the benchmark runs.

Methods are patched on the class, never on instances: the SNN's fused
engine falls back to step-by-step replay for any module whose
``forward`` is patched on the instance, so instance patches would change
the work being measured.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

#: Closure tolerance: per-layer self times plus the gap must equal the
#: workload's own timing of the traced blocks within this absolute +
#: relative slack (each window opens a few microseconds before the
#: workload's timer starts and closes just after it stops).
CLOSURE_ABS_S = 1e-3
CLOSURE_REL = 1e-3


class Tracer:
    """Self-time accounts, per-call duration series and counters."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.self_s: Dict[str, float] = defaultdict(float)
        self.inclusive_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.counts: Dict[str, float] = defaultdict(float)
        # Which training loop is running ("dnn" / "sgl"); attributes
        # backward passes to the loop that issued them.
        self.stage: Optional[str] = None
        self._stack: List[list] = []
        self._depth: Dict[str, int] = defaultdict(int)
        self._patches: List[tuple] = []
        self._window_start: Optional[float] = None
        self._idle_since: Optional[float] = None
        # Spans count only inside a window.  Bound methods captured while
        # patched (LSUV stores each layer's ``forward`` on the instance)
        # outlive restore(); their spans are ignored once windows close.
        self._active = False
        self.window_s = 0.0
        self.gap_s = 0.0
        # Exits that did not match the innermost open span.
        self.mismatches = 0

    # ------------------------------------------------------------------
    # Windows and spans
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Open a traced window; time in it outside spans counts as gap."""
        if self._active:
            raise RuntimeError("a traced window is already open")
        now = self.clock()
        self._window_start = now
        self._idle_since = now
        self._active = True

    def stop(self) -> None:
        """Close the traced window.  Every span must have ended."""
        if self._stack:
            open_spans = [frame[0] for frame in self._stack]
            raise RuntimeError(f"spans still open at stop: {open_spans}")
        now = self.clock()
        self.gap_s += now - self._idle_since
        self.window_s += now - self._window_start
        self._window_start = self._idle_since = None
        self._active = False

    def enter(self, account: str) -> None:
        if not self._active:
            return
        now = self.clock()
        if not self._stack:
            self.gap_s += now - self._idle_since
        self._stack.append([account, now, 0.0])
        self._depth[account] += 1

    def exit(self, account: str, series: Optional[str] = None) -> float:
        """End the innermost span, which must belong to ``account``."""
        if not self._active:
            return 0.0
        if not self._stack or self._stack[-1][0] != account:
            self.mismatches += 1
            return 0.0
        _, start, covered = self._stack.pop()
        now = self.clock()
        duration = now - start
        self.self_s[account] += duration - covered
        self._depth[account] -= 1
        if not self._depth[account]:
            self.inclusive_s[account] += duration
        self.calls[account] += 1
        if series is not None:
            self.samples[series].append(duration)
        if self._stack:
            self._stack[-1][2] += duration
        else:
            self._idle_since = now
        return duration

    @contextlib.contextmanager
    def span(self, account: str, series: Optional[str] = None):
        self.enter(account)
        try:
            yield
        finally:
            self.exit(account, series)

    def parent(self) -> Optional[str]:
        """Account of the innermost open span."""
        return self._stack[-1][0] if self._stack else None

    def closure_error_s(self, measured_s: float) -> float:
        """``|sum(self times) + gap - measured_s|`` once windows are closed.

        ``measured_s`` is the workload's own timing of the traced blocks.
        """
        return abs(sum(self.self_s.values()) + self.gap_s - measured_s)

    def closure_holds(self, measured_s: float) -> bool:
        """Every exit matched its span and the accounts sum to ``measured_s``."""
        slack = CLOSURE_ABS_S + CLOSURE_REL * measured_s
        return self.mismatches == 0 and self.closure_error_s(measured_s) <= slack

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def wrap(self, func, account, series=None, after=None, stage=None):
        """A traced stand-in for ``func``.

        ``account`` is an account name or ``account(args) -> name``;
        ``series(args)`` names the per-call duration series (or
        ``None``); ``after(args, result)`` updates counters; ``stage``
        labels the training loop for the duration of the call.
        """

        @functools.wraps(func)
        def traced(*args, **kwargs):
            name = series(args) if series is not None else None
            previous_stage = self.stage
            if stage is not None:
                self.stage = stage
            entered = account(args) if callable(account) else account
            self.enter(entered)
            try:
                result = func(*args, **kwargs)
            finally:
                self.exit(entered, name)
                self.stage = previous_stage
            if after is not None:
                after(args, result)
            return result

        return traced

    def patch_function(self, func, account: str, **options) -> None:
        """Replace every reference to ``func`` held by a ``repro`` module."""
        self._replace_everywhere(func, self.wrap(func, account, **options))

    def _replace_everywhere(self, func, replacement) -> None:
        found = False
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is func:
                    setattr(module, attr, replacement)
                    self._patches.append((module, attr, func))
                    found = True
        if not found:
            raise LookupError(f"{func.__qualname__} is not referenced by repro")

    def patch_method(self, cls, name: str, account: str, **options) -> None:
        original = cls.__dict__[name]
        setattr(cls, name, self.wrap(original, account, **options))
        self._patches.append((cls, name, original))

    def patch_iterator(self, cls, account: str) -> None:
        """Time each ``next()`` on ``cls`` instances' iterators."""
        original = cls.__dict__["__iter__"]
        tracer = self

        def __iter__(instance):
            inner = original(instance)
            while True:
                tracer.enter(account)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    tracer.exit(account)
                yield item

        setattr(cls, "__iter__", __iter__)
        self._patches.append((cls, "__iter__", original))

    def patch_context(self, func, account: str) -> None:
        """Time entering and leaving the context manager ``func`` returns."""
        tracer = self

        @contextlib.contextmanager
        def traced(*args, **kwargs):
            manager = func(*args, **kwargs)
            with tracer.span(account):
                value = manager.__enter__()
            try:
                yield value
            except BaseException:
                with tracer.span(account):
                    if not manager.__exit__(*sys.exc_info()):
                        raise
            else:
                with tracer.span(account):
                    manager.__exit__(None, None, None)

        self._replace_everywhere(func, traced)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)


def _constant(name: str):
    return lambda args: name


def instrument(tracer: Tracer) -> None:
    """Open a span at each layer boundary of the ``repro`` pipeline.

    Accounts are named ``<layer>.<entry point>``.
    """
    import repro.experiments.pipeline  # noqa: F401  (holds references to patch)
    from repro import conversion, energy, train
    from repro.data import dataloader, synthetic
    from repro.models import resnet, vgg
    from repro.nn import linear
    from repro.obs import core, drift, instruments
    from repro.optim import adam, sgd
    from repro.snn import network, neurons
    from repro.tensor import conv_ops, tensor
    from repro.train import lsuv

    t = tracer
    t.patch_function(synthetic.synth_cifar10, "data.synth")
    t.patch_iterator(dataloader.DataLoader, "data.batch_wait")
    t.patch_function(lsuv.lsuv_init, "train.lsuv")
    t.patch_function(lsuv.scale_residual_branches, "train.lsuv")

    def dnn_series(args):
        return "nn.dnn_forward" if args[0].training else None

    for model_cls in (vgg.VGG, resnet.ResNet):
        t.patch_method(model_cls, "forward", "nn.dnn_forward", series=dnn_series)

    def count_conv(args, out):
        weight = args[1]
        _, in_channels, kh, kw = weight.data.shape
        t.counts["nn.conv2d_flop"] += 2.0 * out.data.size * in_channels * kh * kw

    t.patch_function(conv_ops.conv2d, "nn.conv2d", after=count_conv)
    t.patch_method(linear.Linear, "forward", "nn.linear")

    def backward_account(args):
        return "tensor.dnn_backward" if t.stage == "dnn" else "snn.sgl_backward"

    t.patch_method(tensor.Tensor, "backward", backward_account, series=backward_account)
    for optimizer_cls in (sgd.SGD, adam.Adam):
        t.patch_method(optimizer_cls, "step", "optim.step", series=_constant("optim.step"))
    t.patch_method(train.DNNTrainer, "fit", "train.dnn_loop", stage="dnn")
    t.patch_method(train.SNNTrainer, "fit", "snn.train_loop", stage="sgl")
    t.patch_function(train.evaluate_dnn, "train.eval")
    t.patch_function(train.evaluate_snn, "train.eval")

    def count_loss_evals(args, factors):
        t.counts["conversion.loss_evals"] += factors.evaluations

    t.patch_function(conversion.collect_activation_stats, "conversion.calibrate")
    t.patch_function(
        conversion.find_scaling_factors,
        "conversion.algorithm1",
        series=_constant("conversion.algorithm1_layer"),
        after=count_loss_evals,
    )
    t.patch_function(conversion.convert_dnn_to_snn, "conversion.build")

    def snn_series(args):
        if args[0].training:
            return "snn.sgl_forward"
        return "snn.eval_forward" if t.parent() == "train.eval" else None

    t.patch_method(network.SpikingNetwork, "forward", "snn.forward", series=snn_series)
    t.patch_method(neurons.SpikingNeuron, "forward", "snn.neuron")
    t.patch_method(neurons.SpikingNeuron, "forward_fused", "snn.neuron")
    t.patch_function(energy.measure_spiking_activity, "energy.activity")
    t.patch_function(energy.snn_layer_flops, "energy.flops")
    for name in ("__init__", "snapshot", "close"):
        t.patch_method(drift.DriftMonitor, name, "obs.drift")
    t.patch_context(instruments.monitored, "obs.monitored_eval")
    t.patch_method(instruments.StepMonitor, "on_step", "obs.monitored_eval")
    t.patch_function(instruments.record_energy_profile, "obs.energy_profile")
    t.patch_method(core.observe, "__enter__", "obs.session")
    t.patch_method(core.observe, "__exit__", "obs.session")
