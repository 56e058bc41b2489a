"""Event-driven execution: exact accumulate accounting."""

import numpy as np
import pytest

from repro.conversion import ConversionConfig, convert_dnn_to_snn
from repro.data import DataLoader
from repro.models import vgg11
from repro.nn import Conv2d
from repro.snn import EventDrivenNetwork, conv_fanout_map
from repro.tensor import no_grad


@pytest.fixture(scope="module")
def converted():
    rng = np.random.default_rng(0)
    model = vgg11(
        num_classes=5, image_size=8, width_multiplier=0.125,
        rng=np.random.default_rng(1),
    )
    loader = DataLoader(rng.random((16, 3, 8, 8)), rng.integers(0, 5, 16), 8)
    conversion = convert_dnn_to_snn(model, loader, ConversionConfig(timesteps=3))
    images = rng.random((4, 3, 8, 8))
    return conversion.snn, images


class TestFanoutMap:
    def test_interior_fanout(self):
        layer = Conv2d(2, 4, 3, stride=1, padding=1, rng=np.random.default_rng(0))
        fanout = conv_fanout_map((2, 6, 6), layer)
        # Interior positions are covered by all 9 kernel placements.
        assert fanout[0, 3, 3] == 9 * 4
        # Corners only by 4 placements.
        assert fanout[0, 0, 0] == 4 * 4

    def test_no_padding(self):
        layer = Conv2d(1, 1, 3, stride=1, padding=0, rng=np.random.default_rng(0))
        fanout = conv_fanout_map((1, 5, 5), layer)
        assert fanout[0, 2, 2] == 9
        assert fanout[0, 0, 0] == 1

    def test_total_equals_dense_macs_without_padding(self):
        # With no padding every kernel tap lands on a real input, so the
        # fan-out total equals the dense MAC count exactly.
        layer = Conv2d(3, 8, 3, stride=1, padding=0, rng=np.random.default_rng(0))
        fanout = conv_fanout_map((3, 6, 6), layer)
        dense_macs = 4 * 4 * 8 * 3 * 3 * 3  # out_hw * out_c * in_c * k * k
        assert fanout.sum() == dense_macs

    def test_padding_taps_excluded(self):
        # With padding, dense MACs include multiplications against the
        # zero pad; the event fan-out counts only real-input taps and is
        # therefore strictly smaller.
        layer = Conv2d(3, 8, 3, stride=1, padding=1, rng=np.random.default_rng(0))
        fanout = conv_fanout_map((3, 6, 6), layer)
        dense_macs = 6 * 6 * 8 * 3 * 3 * 3
        assert 0 < fanout.sum() < dense_macs

    def test_strided(self):
        layer = Conv2d(1, 2, 3, stride=2, padding=0, rng=np.random.default_rng(0))
        fanout = conv_fanout_map((1, 9, 9), layer)
        out_hw = 4 * 4
        assert fanout.sum() == out_hw * 2 * 1 * 3 * 3


class TestEventDrivenNetwork:
    def test_outputs_match_dense_simulator(self, converted):
        snn, images = converted
        runner = EventDrivenNetwork(snn)
        logits, _counts = runner.run(images)
        snn.eval()
        with no_grad():
            reference = snn(images)
        np.testing.assert_allclose(logits.data, reference.data, atol=1e-10)

    def test_counts_structure(self, converted):
        snn, images = converted
        _logits, counts = EventDrivenNetwork(snn).run(images)
        assert counts.images == images.shape[0]
        assert len(counts.layer_names) == len(counts.accumulates)
        assert counts.total > 0

    def test_first_layer_counts_scale_with_t_and_batch(self, converted):
        snn, images = converted
        from repro.snn import conv_fanout_map

        _logits, counts = EventDrivenNetwork(snn).run(images)
        first_conv = None
        from repro.nn import Conv2d
        from repro.snn import StepWrapper

        for module in snn.modules():
            if isinstance(module, StepWrapper) and isinstance(module.inner, Conv2d):
                first_conv = module.inner
                break
        expected = (
            conv_fanout_map(images.shape[1:], first_conv).sum()
            * snn.timesteps
            * images.shape[0]
        )
        assert counts.accumulates[0] == pytest.approx(expected)

    def test_rate_estimator_agrees_with_exact_counts(self):
        """The Fig. 4(b) estimator must track event-driven ground truth.

        The estimator assumes uniform fan-out (dense MACs x average
        rate); the exact count excludes padding taps and weights spike
        *positions*.  On realistically-sized feature maps (here 16x16,
        so no degenerate 1x1 stages) the totals must agree within a
        factor well below the order-of-magnitude claims of Fig. 4.
        """
        from repro.data import DataLoader
        from repro.energy import measure_spiking_activity, snn_layer_flops

        rng = np.random.default_rng(5)
        model = vgg11(
            num_classes=5, image_size=16, width_multiplier=0.125,
            rng=np.random.default_rng(1),
        )
        loader = DataLoader(rng.random((8, 3, 16, 16)), rng.integers(0, 5, 8), 8)
        snn = convert_dnn_to_snn(model, loader, ConversionConfig(timesteps=3)).snn
        images = rng.random((4, 3, 16, 16))
        labels = np.zeros(4, dtype=np.int64)
        _logits, counts = EventDrivenNetwork(snn).run(images)
        report = measure_spiking_activity(
            snn, DataLoader(images, labels, batch_size=4)
        )
        records = snn_layer_flops(
            snn, images.shape[1:], report.rates_by_neuron_id(snn)
        )
        estimated_total = sum(r.snn_ops for r in records)
        exact_total = counts.total / counts.images
        assert 0.5 < estimated_total / exact_total < 2.0

    def test_silent_network_counts_only_first_layer(self, converted):
        snn, images = converted
        _logits, counts = EventDrivenNetwork(snn).run(np.zeros_like(images))
        assert counts.accumulates[0] > 0
        assert all(c == 0 for c in counts.accumulates[1:])
