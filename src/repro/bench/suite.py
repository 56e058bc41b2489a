"""The standard hot-kernel benchmark suite.

Each entry exercises one substrate hot path the paper's cost story
depends on (Figs. 3-4): the im2col convolution, the IF-neuron step and
its surrogate-gradient backward, the Algorithm-1 ``alpha``/``beta``
search (faithful grid and closed-form fast variant), and a full
``T``-step SNN inference pass through a converted network.

Problem sizes mirror ``benchmarks/test_microbench.py`` (which now runs
these same definitions through pytest-benchmark): small enough that the
whole suite runs in seconds, large enough that medians sit well above
timer resolution.
"""

from __future__ import annotations

import numpy as np

from .registry import register_bench


@register_bench("nn.conv2d_forward", group="nn")
def conv2d_forward():
    from ..nn import Conv2d
    from ..tensor import Tensor

    rng = np.random.default_rng(0)
    layer = Conv2d(16, 32, 3, padding=1, rng=rng)
    x = Tensor(rng.normal(size=(8, 16, 16, 16)))

    def run():
        return layer(x)

    assert run().shape == (8, 32, 16, 16)
    return run


@register_bench("nn.conv2d_forward_backward", group="nn")
def conv2d_forward_backward():
    from ..nn import Conv2d
    from ..tensor import Tensor

    rng = np.random.default_rng(0)
    layer = Conv2d(16, 32, 3, padding=1, rng=rng)
    x = Tensor(rng.normal(size=(8, 16, 16, 16)), requires_grad=True)

    def run():
        layer.zero_grad()
        layer(x).sum().backward()

    run()
    assert layer.weight.grad is not None
    return run


@register_bench("snn.if_neuron_step", group="snn")
def if_neuron_step():
    from ..snn import IFNeuron
    from ..tensor import Tensor

    rng = np.random.default_rng(0)
    neuron = IFNeuron(v_threshold=1.0)
    current = Tensor(rng.normal(size=(32, 64, 8, 8)))

    def run():
        neuron.reset_state()
        return neuron(current)

    assert run().shape == current.shape
    return run


@register_bench("snn.surrogate_backward", group="snn")
def surrogate_backward():
    """One IF step forward + boxcar-surrogate backward through it."""
    from ..snn import IFNeuron
    from ..tensor import Tensor

    rng = np.random.default_rng(0)
    neuron = IFNeuron(v_threshold=1.0)
    current = Tensor(rng.normal(size=(32, 64, 8, 8)), requires_grad=True)

    def run():
        neuron.zero_grad()
        current.grad = None
        neuron.reset_state()
        neuron(current).sum().backward()

    run()
    assert current.grad is not None
    return run


def _algorithm1_percentiles() -> np.ndarray:
    rng = np.random.default_rng(0)
    return np.percentile(
        rng.exponential(scale=0.3, size=100_000), np.arange(101.0)
    )


@register_bench("conversion.algorithm1_search", group="conversion")
def algorithm1_search():
    from ..conversion import find_scaling_factors

    percentiles = _algorithm1_percentiles()

    def run():
        return find_scaling_factors(percentiles, 2.0, 2)

    assert 0 < run().alpha <= 1.0
    return run


def _converted_tiny_vgg(mode: str):
    from ..conversion import ConversionConfig, convert_dnn_to_snn
    from ..data import DataLoader
    from ..models import vgg11

    rng = np.random.default_rng(0)
    model = vgg11(
        num_classes=10, image_size=8, width_multiplier=0.125,
        rng=np.random.default_rng(1),
    )
    loader = DataLoader(rng.random((16, 3, 8, 8)), rng.integers(0, 10, 16), 16)
    snn = convert_dnn_to_snn(model, loader, ConversionConfig(timesteps=2)).snn
    snn.mode = mode
    snn.eval()
    return snn, rng.random((16, 3, 8, 8))


@register_bench("snn.full_forward_t2", group="snn", repeats=9, warmup=2)
def snn_full_forward():
    """Full T=2 inference pass through a converted tiny VGG-11.

    Uses the network's default engine (time-fused, layer-major); the
    ``_stepwise`` twin below pins the classic step-major loop so the
    baseline trajectory keeps both engines honest.
    """
    from ..tensor import no_grad

    snn, images = _converted_tiny_vgg("fused")

    def run():
        with no_grad():
            return snn(images)

    assert run().shape == (16, 10)
    return run


@register_bench("snn.full_forward_t2_stepwise", group="snn", repeats=9, warmup=2)
def snn_full_forward_stepwise():
    """Same converted network, pinned to the step-major engine."""
    from ..tensor import no_grad

    snn, images = _converted_tiny_vgg("stepwise")

    def run():
        with no_grad():
            return snn(images)

    assert run().shape == (16, 10)
    return run


@register_bench("snn.fused_spike_scan_t4", group="snn")
def fused_spike_scan_micro():
    """The vectorised membrane scan alone: T=4 folded IF dynamics."""
    from ..snn import IFNeuron
    from ..tensor import Tensor, no_grad

    rng = np.random.default_rng(0)
    neuron = IFNeuron(v_threshold=1.0)
    current = Tensor(rng.normal(size=(4 * 32, 64, 8, 8)))

    def run():
        neuron.reset_state()
        with no_grad():
            return neuron.forward_fused(current, 4)

    assert run().shape == current.shape
    return run


@register_bench("obs.profile_overhead", group="obs", repeats=9, warmup=2)
def profile_overhead():
    """Disabled-path cost of the op-profiler hook.

    The profiler intercepts ``Tensor.from_op`` only while a profiler is
    entered — with none active the pristine ``from_op`` is installed and
    instrumented code must pay nothing.  This case times the
    ``snn.full_forward_t2`` workload with profiling off and asserts it
    stays within 5% of itself measured before the hook machinery was
    ever exercised (a profiled pass runs in between to prove the
    un-patch really restores the fast path).
    """
    from ..obs.profile import OpProfiler
    from ..profiling import time_callable
    from ..tensor import no_grad
    from ..tensor.tensor import Tensor

    snn, images = _converted_tiny_vgg("fused")

    def run():
        with no_grad():
            return snn(images)

    assert run().shape == (16, 10)
    pristine = Tensor.from_op
    # Tolerance: 5% relative plus a 0.1 ms absolute floor, retried a few
    # times because two back-to-back minima on a busy host still jitter.
    for attempt in range(3):
        before = time_callable(run, repeats=9, warmup=2)
        with OpProfiler() as profiler:
            run()
        assert profiler.records, "profiled pass recorded no ops"
        assert Tensor.from_op is pristine, (
            "OpProfiler exit did not restore the pristine Tensor.from_op"
        )
        after = time_callable(run, repeats=9, warmup=2)
        if after.minimum <= before.minimum * 1.05 + 1e-4:
            break
    else:
        raise AssertionError(
            f"disabled-path overhead gate failed: "
            f"{after.minimum * 1e3:.3f} ms after vs "
            f"{before.minimum * 1e3:.3f} ms before (> 5% + 0.1 ms)"
        )
    return run


@register_bench("snn.sgl_step_t2", group="snn", repeats=5)
def sgl_train_step():
    """One SGL fine-tuning step (fused forward + BPTT backward)."""
    from ..tensor import Tensor

    snn, images = _converted_tiny_vgg("fused")
    snn.train()
    x = Tensor(images)

    def run():
        snn.zero_grad()
        snn(x).sum().backward()

    run()
    assert any(p.grad is not None for p in snn.parameters())
    return run
