"""Spiking network structure: wrappers, dropout, residual blocks, loop."""

import numpy as np
import pytest

from repro.nn import Conv2d, Flatten, Identity, Linear
from repro.snn import (
    DirectEncoder,
    IFNeuron,
    SpikingMaxPool,
    SpikingNetwork,
    SpikingNeuron,
    SpikingResidualBlock,
    SpikingSequential,
    StepWrapper,
    TemporalDropout,
)
from repro.tensor import Tensor, no_grad


def conv_snn(timesteps=4, v_th=1.0, rng=None):
    rng = rng or np.random.default_rng(0)
    body = SpikingSequential(
        StepWrapper(Conv2d(1, 2, 3, padding=1, rng=rng)),
        IFNeuron(v_threshold=v_th),
        StepWrapper(Flatten()),
        StepWrapper(Linear(2 * 4 * 4, 3, bias=False, rng=rng)),
    )
    return SpikingNetwork(body, timesteps=timesteps)


def tiny_snn(input_features=36, num_classes=4, timesteps=2, seed=0):
    rng = np.random.default_rng(seed)
    body = SpikingSequential(
        StepWrapper(Flatten()),
        StepWrapper(Linear(input_features, 10, rng=rng)),
        SpikingNeuron(v_threshold=0.5, trainable=False),
        StepWrapper(Linear(10, num_classes, rng=rng)),
        SpikingNeuron(v_threshold=0.5, trainable=False),
    )
    return SpikingNetwork(body, timesteps=timesteps)


class TestStepWrapper:
    def test_applies_inner(self, rng):
        layer = Linear(3, 2, rng=rng)
        wrapper = StepWrapper(layer)
        x = Tensor(rng.normal(size=(4, 3)))
        np.testing.assert_allclose(wrapper(x).data, layer(x).data)

    def test_repr(self, rng):
        assert "Linear" in repr(StepWrapper(Linear(2, 2, rng=rng)))


class TestTemporalDropout:
    def test_mask_fixed_across_steps(self, rng):
        drop = TemporalDropout(0.5, rng=rng)
        drop.train()
        x = Tensor(np.ones((2, 10)))
        first = drop(x).data
        second = drop(x).data
        np.testing.assert_allclose(first, second)

    def test_mask_resampled_after_reset(self, rng):
        drop = TemporalDropout(0.5, rng=rng)
        drop.train()
        x = Tensor(np.ones((2, 50)))
        first = drop(x).data.copy()
        drop.reset_state()
        second = drop(x).data
        assert not np.allclose(first, second)

    def test_eval_identity(self, rng):
        drop = TemporalDropout(0.5, rng=rng)
        drop.eval()
        x = Tensor(np.ones((2, 4)))
        assert drop(x) is x

    def test_gradient_through_mask(self, rng):
        drop = TemporalDropout(0.5, rng=rng)
        drop.train()
        x = Tensor(np.ones((1, 20)), requires_grad=True)
        drop(x).sum().backward()
        kept = x.grad != 0
        np.testing.assert_allclose(x.grad[kept], 2.0)

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            TemporalDropout(1.0)


class TestSpikingSequential:
    def test_iteration_and_indexing(self, rng):
        seq = SpikingSequential(StepWrapper(Identity()), IFNeuron())
        assert len(seq) == 2
        assert isinstance(seq[1], IFNeuron)
        assert len(list(seq)) == 2

    def test_reset_recurses(self):
        neuron = IFNeuron(v_threshold=1.0)
        seq = SpikingSequential(neuron)
        neuron(Tensor(np.array([0.5])))
        seq.reset_state()
        assert neuron.membrane is None


class TestSpikingResidualBlock:
    def test_identity_shortcut_sums_currents(self, rng):
        conv1 = StepWrapper(Conv2d(2, 2, 3, padding=1, rng=rng))
        conv2 = StepWrapper(Conv2d(2, 2, 3, padding=1, rng=rng))
        block = SpikingResidualBlock(
            conv1,
            IFNeuron(v_threshold=1e6),  # never spikes
            conv2,
            StepWrapper(Identity()),
            IFNeuron(v_threshold=1e-6, beta=1.0),  # always spikes on + input
        )
        x = Tensor(np.ones((1, 2, 4, 4)))
        out = block(x)
        assert out.shape == (1, 2, 4, 4)

    def test_reset_clears_both_neurons(self, rng):
        n1, n2 = IFNeuron(), IFNeuron()
        block = SpikingResidualBlock(
            StepWrapper(Identity()), n1, StepWrapper(Identity()),
            StepWrapper(Identity()), n2,
        )
        block(Tensor(np.ones((1, 2))))
        block.reset_state()
        assert n1.membrane is None and n2.membrane is None


class TestSpikingNetwork:
    def test_output_is_time_average(self, rng):
        snn = conv_snn(timesteps=4)
        x = rng.normal(size=(2, 1, 4, 4))
        out = snn(x)
        assert out.shape == (2, 3)

    def test_state_reset_between_forwards(self, rng):
        snn = conv_snn(timesteps=2)
        x = rng.normal(size=(1, 1, 4, 4))
        first = snn(x).data.copy()
        second = snn(x).data
        np.testing.assert_allclose(first, second)

    def test_more_timesteps_changes_nothing_for_constant_zero(self):
        snn = conv_snn(timesteps=3)
        out = snn(np.zeros((1, 1, 4, 4)))
        np.testing.assert_allclose(out.data, 0.0, atol=1e-12)

    def test_recording_controls(self, rng):
        snn = conv_snn(timesteps=2, v_th=0.01)
        snn.set_recording(True)
        snn(np.abs(rng.normal(size=(1, 1, 4, 4))))
        assert snn.total_spikes() > 0
        snn.reset_spike_stats()
        assert snn.total_spikes() == 0
        snn.set_recording(False)
        snn(np.abs(rng.normal(size=(1, 1, 4, 4))))
        assert snn.total_spikes() == 0

    def test_spiking_neurons_enumeration(self):
        snn = conv_snn()
        assert len(snn.spiking_neurons()) == 1

    def test_invalid_timesteps(self):
        with pytest.raises(ValueError):
            SpikingNetwork(SpikingSequential(), timesteps=0)

    def test_accepts_tensor_input(self, rng):
        snn = conv_snn(timesteps=2)
        out = snn(Tensor(rng.normal(size=(1, 1, 4, 4))))
        assert out.shape == (1, 3)

    def test_bptt_gradients_flow_to_weights(self, rng):
        snn = conv_snn(timesteps=3, v_th=0.5)
        out = snn(np.abs(rng.normal(size=(2, 1, 4, 4))))
        out.sum().backward()
        conv = snn.body[0].inner
        assert conv.weight.grad is not None
        assert np.abs(conv.weight.grad).sum() > 0

    def test_bptt_gradients_flow_to_threshold(self, rng):
        snn = conv_snn(timesteps=3, v_th=0.5)
        out = snn(np.abs(rng.normal(size=(2, 1, 4, 4))) + 0.5)
        out.sum().backward()
        neuron = snn.spiking_neurons()[0]
        assert neuron.v_threshold.grad is not None


class TestSpikingMaxPool:
    def test_binary_in_binary_out(self, rng):
        pool = SpikingMaxPool(2)
        frame = (rng.random((1, 1, 4, 4)) > 0.5).astype(float)
        out = pool(Tensor(frame))
        assert set(np.unique(out.data)) <= {0.0, 1.0}

    def test_rate_converges_to_max(self, rng):
        # Two inputs per window with rates 0.8 and 0.2: the gated pool's
        # long-run output rate must approach max(0.8, 0.2).
        pool = SpikingMaxPool(2)
        steps = 400
        total = 0.0
        rates = np.array([[0.8, 0.2], [0.1, 0.3]])
        for t in range(steps):
            frame = (rng.random((2, 2)) < rates).astype(float)
            out = pool(Tensor(frame.reshape(1, 1, 2, 2)))
            total += out.data[0, 0, 0, 0]
        assert abs(total / steps - 0.8) < 0.08

    def test_naive_max_would_overestimate(self, rng):
        # Sanity: the naive per-step max rate is ~1-(1-r)^4, far above r.
        rates = np.full((2, 2), 0.3)
        steps = 300
        naive = 0.0
        for _ in range(steps):
            frame = (rng.random((2, 2)) < rates).astype(float)
            naive += frame.max()
        assert naive / steps > 0.6  # >> 0.3

    def test_reset_clears_counts(self, rng):
        pool = SpikingMaxPool(2)
        pool(Tensor(np.ones((1, 1, 2, 2))))
        pool.reset_state()
        assert pool._counts is None

    def test_gradient_routes_to_winner(self):
        pool = SpikingMaxPool(2)
        frame = np.array([[[[1.0, 0.0], [0.0, 0.0]]]])
        x = Tensor(frame, requires_grad=True)
        pool(x).sum().backward()
        np.testing.assert_allclose(x.grad, [[[[1.0, 0.0], [0.0, 0.0]]]])

    def test_indivisible_raises(self, rng):
        with pytest.raises(ValueError):
            SpikingMaxPool(2)(Tensor(np.ones((1, 1, 3, 3))))

    def test_invalid_kernel(self):
        with pytest.raises(ValueError):
            SpikingMaxPool(0)


class TestStreamingState:
    def test_fused_scan_warm_starts_from_carried_membrane(self):
        rng = np.random.default_rng(0)
        # T=2 folded batch of N=4 rows; currents below threshold so the
        # carried residual decides whether the second window fires.
        current = Tensor(rng.uniform(0.4, 0.9, size=(8, 3)))
        neuron = SpikingNeuron(v_threshold=1.0, trainable=False)
        with no_grad():
            cold = neuron.forward_fused(current, 2)
            assert neuron.membrane is not None
            warm = neuron.forward_fused(current, 2)  # warm-started
            neuron.reset_state()
            cold_again = neuron.forward_fused(current, 2)
        assert not np.array_equal(cold.data, warm.data)
        np.testing.assert_array_equal(cold.data, cold_again.data)
        # Carried membrane with the wrong batch geometry is an error.
        neuron.membrane = Tensor(np.zeros((5, 3)))
        with pytest.raises(ValueError):
            with no_grad():
                neuron.forward_fused(current, 2)

    def test_streaming_context_carries_then_restores(self):
        snn = tiny_snn()
        snn.eval()
        rng = np.random.default_rng(1)
        x1 = rng.random((3, 1, 6, 6))
        x2 = rng.random((3, 1, 6, 6))
        with no_grad():
            cold = snn(x2).data
            assert snn.carry_state is False
            with snn.streaming():
                assert snn.carry_state is True
                snn(x1)
                carried = [n.membrane is not None
                           for n in snn.spiking_neurons()]
                assert all(carried)
                warm = snn(x2).data
            assert snn.carry_state is False
            assert all(n.membrane is None for n in snn.spiking_neurons())
            assert np.array_equal(snn(x2).data, cold)
        assert not np.array_equal(warm, cold)

    def test_fused_and_stepwise_streaming_agree(self):
        rng = np.random.default_rng(2)
        windows = [rng.random((3, 1, 6, 6)) for _ in range(3)]
        outputs = {}
        for mode in ("fused", "stepwise"):
            snn = tiny_snn()
            snn.mode = mode
            snn.eval()
            with no_grad(), snn.streaming():
                outputs[mode] = [snn(x).data for x in windows]
        for got_fused, got_stepwise in zip(outputs["fused"],
                                           outputs["stepwise"]):
            np.testing.assert_allclose(got_fused, got_stepwise, atol=1e-10)

    def test_both_engines_reject_carried_geometry_change(self):
        # A carried (1, 8) membrane cannot continue into a batch-4
        # window: the fused scan and the stepwise neuron both raise
        # instead of broadcasting.
        for mode in ("fused", "stepwise"):
            rng = np.random.default_rng(0)
            snn = SpikingNetwork(SpikingSequential(
                StepWrapper(Flatten()),
                StepWrapper(Linear(12, 8, rng=rng)),
                IFNeuron(v_threshold=0.5),
                StepWrapper(Linear(8, 3, rng=rng)),
            ), timesteps=2)
            snn.mode = mode
            snn.eval()
            with no_grad(), snn.streaming():
                snn(rng.random((1, 12)))
                with pytest.raises(ValueError, match="carried membrane shape"):
                    snn(rng.random((4, 12)))
