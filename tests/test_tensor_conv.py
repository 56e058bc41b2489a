"""Convolution / pooling correctness against naive reference implementations."""

import numpy as np
import pytest

from repro.tensor import (
    Tensor,
    avg_pool2d,
    check_gradients,
    conv2d,
    conv2d_output_shape,
    global_avg_pool2d,
    max_pool2d,
)


def naive_conv2d(x, w, b, stride, padding):
    """Straightforward loop reference for cross-correlation."""
    n, c_in, h, wdt = x.shape
    c_out, _, k, _ = w.shape
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    out_h = (x.shape[2] - k) // stride + 1
    out_w = (x.shape[3] - k) // stride + 1
    out = np.zeros((n, c_out, out_h, out_w))
    for i in range(out_h):
        for j in range(out_w):
            patch = x[:, :, i * stride : i * stride + k, j * stride : j * stride + k]
            out[:, :, i, j] = np.einsum("nchw,ochw->no", patch, w)
    if b is not None:
        out += b[None, :, None, None]
    return out


class TestConv2d:
    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 0), (2, 1), (3, 2)])
    def test_matches_naive(self, rng, stride, padding):
        x = Tensor(rng.normal(size=(2, 3, 9, 9)))
        w = Tensor(rng.normal(size=(4, 3, 3, 3)))
        b = Tensor(rng.normal(size=(4,)))
        out = conv2d(x, w, b, stride=stride, padding=padding)
        expected = naive_conv2d(x.data, w.data, b.data, stride, padding)
        np.testing.assert_allclose(out.data, expected, atol=1e-10)

    def test_no_bias(self, rng):
        x = Tensor(rng.normal(size=(1, 2, 5, 5)))
        w = Tensor(rng.normal(size=(3, 2, 3, 3)))
        out = conv2d(x, w, None, stride=1, padding=0)
        expected = naive_conv2d(x.data, w.data, None, 1, 0)
        np.testing.assert_allclose(out.data, expected, atol=1e-10)

    def test_1x1_kernel(self, rng):
        x = Tensor(rng.normal(size=(2, 4, 6, 6)))
        w = Tensor(rng.normal(size=(8, 4, 1, 1)))
        out = conv2d(x, w, None, stride=2)
        expected = naive_conv2d(x.data, w.data, None, 2, 0)
        np.testing.assert_allclose(out.data, expected, atol=1e-10)

    def test_gradients(self, rng):
        x = Tensor(rng.normal(size=(2, 2, 6, 6)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 2, 3, 3)) * 0.3, requires_grad=True)
        b = Tensor(rng.normal(size=(3,)), requires_grad=True)
        check_gradients(
            lambda a, ww, bb: conv2d(a, ww, bb, stride=1, padding=1),
            [x, w, b],
            atol=1e-4,
        )
        check_gradients(
            lambda a, ww, bb: conv2d(a, ww, bb, stride=2, padding=0),
            [x, w, b],
            atol=1e-4,
        )

    def test_matches_naive_on_conv_output_layout(self, rng):
        # A conv output is an NCHW view of channels-last memory; a second
        # conv must read that layout correctly.
        x = Tensor(rng.normal(size=(2, 3, 8, 8)))
        w1 = Tensor(rng.normal(size=(5, 3, 3, 3)))
        w2 = Tensor(rng.normal(size=(4, 5, 3, 3)))
        hidden = conv2d(x, w1, None, stride=1, padding=1)
        assert not hidden.data.flags.c_contiguous
        assert hidden.data.transpose(0, 2, 3, 1).flags.c_contiguous
        for stride, padding in [(1, 1), (2, 1), (1, 0)]:
            out = conv2d(hidden, w2, None, stride=stride, padding=padding)
            expected = naive_conv2d(hidden.data, w2.data, None, stride, padding)
            np.testing.assert_allclose(out.data, expected, atol=1e-10)

    def test_matches_naive_on_batch_slice(self, rng):
        full = rng.normal(size=(6, 3, 7, 7))
        x = Tensor(full[1::2])  # strided batch slice, not contiguous
        assert not x.data.flags.c_contiguous
        w = Tensor(rng.normal(size=(4, 3, 3, 3)))
        b = Tensor(rng.normal(size=(4,)))
        for stride, padding in [(1, 1), (2, 0)]:
            out = conv2d(x, w, b, stride=stride, padding=padding)
            expected = naive_conv2d(x.data, w.data, b.data, stride, padding)
            np.testing.assert_allclose(out.data, expected, atol=1e-10)

    @pytest.mark.parametrize(
        "kernel,stride,padding", [(3, 2, 1), (3, 3, 2), (1, 2, 0)]
    )
    def test_gradients_strided(self, rng, kernel, stride, padding):
        # (1, 2, 0) is the ResNet 1x1 stride-2 shortcut.  A random
        # upstream weighting makes every output position's gradient
        # distinct, so a transposed layout cannot pass by symmetry.
        x = Tensor(rng.normal(size=(2, 3, 7, 7)), requires_grad=True)
        w = Tensor(
            rng.normal(size=(4, 3, kernel, kernel)) * 0.3, requires_grad=True
        )
        b = Tensor(rng.normal(size=(4,)), requires_grad=True)
        out_hw = conv2d_output_shape(7, 7, kernel, stride, padding)
        weighting = Tensor(rng.normal(size=(2, 4) + out_hw))
        check_gradients(
            lambda a, ww, bb: conv2d(a, ww, bb, stride=stride, padding=padding)
            * weighting,
            [x, w, b],
            atol=1e-4,
        )

    @pytest.mark.parametrize("size", [2, 1])
    def test_kernel_larger_than_padded_input_raises(self, rng, size):
        # size 2: the kernel is one larger than the input (empty output);
        # size 1: two larger (negative output size).
        x = Tensor(rng.normal(size=(1, 1, size, size)))
        w = Tensor(rng.normal(size=(1, 1, 3, 3)))
        with pytest.raises(ValueError, match="empty output"):
            conv2d(x, w)
        x = Tensor(rng.normal(size=(1, 1, size, size)))
        w = Tensor(rng.normal(size=(1, 1, 5, 5)))
        with pytest.raises(ValueError, match="empty output"):
            conv2d(x, w, padding=1)

    def test_channel_mismatch_raises(self, rng):
        x = Tensor(rng.normal(size=(1, 3, 5, 5)))
        w = Tensor(rng.normal(size=(2, 4, 3, 3)))
        with pytest.raises(ValueError, match="channels"):
            conv2d(x, w)

    def test_rect_kernel_rejected(self, rng):
        x = Tensor(rng.normal(size=(1, 1, 5, 5)))
        w = Tensor(rng.normal(size=(1, 1, 3, 2)))
        with pytest.raises(ValueError, match="square"):
            conv2d(x, w)

    def test_data_input_skips_input_gradient(self, rng, monkeypatch):
        from repro.tensor import conv_ops

        calls = []
        real_col2im = conv_ops._col2im

        def counting_col2im(*args, **kwargs):
            calls.append(1)
            return real_col2im(*args, **kwargs)

        monkeypatch.setattr(conv_ops, "_col2im", counting_col2im)
        x_data = rng.normal(size=(2, 3, 6, 6))
        w_data = rng.normal(size=(4, 3, 3, 3))
        upstream = rng.normal(size=(2, 4, 6, 6))
        grads = {}
        for needs_grad in (False, True):
            calls.clear()
            x = Tensor(x_data.copy(), requires_grad=needs_grad)
            w = Tensor(w_data.copy(), requires_grad=True)
            (conv2d(x, w, padding=1) * Tensor(upstream)).sum().backward()
            assert len(calls) == int(needs_grad)
            assert (x.grad is not None) == needs_grad
            grads[needs_grad] = w.grad
        np.testing.assert_array_equal(grads[False], grads[True])

    def test_output_shape_helper(self):
        assert conv2d_output_shape(32, 32, 3, 1, 1) == (32, 32)
        assert conv2d_output_shape(32, 32, 3, 2, 1) == (16, 16)
        with pytest.raises(ValueError):
            conv2d_output_shape(2, 2, 5, 1, 0)


class TestPooling:
    def test_max_pool_values(self):
        x = Tensor(np.arange(16.0).reshape(1, 1, 4, 4))
        out = max_pool2d(x, 2)
        np.testing.assert_allclose(out.data, [[[[5, 7], [13, 15]]]])

    def test_max_pool_gradient_first_tie_wins(self):
        data = np.zeros((1, 1, 2, 2))
        x = Tensor(data, requires_grad=True)
        max_pool2d(x, 2).sum().backward()
        assert x.grad.sum() == 1.0  # gradient routed to exactly one element

    def test_avg_pool_values(self):
        x = Tensor(np.arange(16.0).reshape(1, 1, 4, 4))
        out = avg_pool2d(x, 2)
        np.testing.assert_allclose(out.data, [[[[2.5, 4.5], [10.5, 12.5]]]])

    def test_pool_gradients(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 4, 4)), requires_grad=True)
        check_gradients(lambda a: max_pool2d(a, 2), [x])
        check_gradients(lambda a: avg_pool2d(a, 2), [x])

    def test_overlapping_pool_rejected(self, rng):
        x = Tensor(rng.normal(size=(1, 1, 4, 4)))
        with pytest.raises(NotImplementedError):
            max_pool2d(x, 2, stride=1)

    def test_indivisible_pool_rejected(self, rng):
        x = Tensor(rng.normal(size=(1, 1, 5, 5)))
        with pytest.raises(ValueError):
            avg_pool2d(x, 2)

    def test_global_avg_pool(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 4, 4)), requires_grad=True)
        out = global_avg_pool2d(x)
        assert out.shape == (2, 3)
        np.testing.assert_allclose(out.data, x.data.mean(axis=(2, 3)))
        check_gradients(lambda a: global_avg_pool2d(a), [x])
