"""Differentiable 2-D convolution and pooling primitives.

Convolution uses the im2col strategy: windows of the (padded) input are
gathered with numpy stride tricks into a matrix, so the convolution
becomes a single GEMM — the standard CPU implementation.  The backward
pass scatters column gradients back with a small KH*KW loop (col2im).

The API is NCHW (inputs, outputs, gradients) with OIHW filters, but the
columns are built channels-last: windows are gathered from an NHWC
padded buffer as ``(N, out_h, out_w, KH, KW, C_in)`` and multiplied by
the filters permuted to ``(C_out, KH*KW*C_in)``.  A conv output is
already an NCHW view of NHWC memory, so the next conv's padding copy is
a block copy and each gathered window row is one contiguous run of
``KW * C_in`` elements.

Pooling is restricted to non-overlapping windows (``stride == kernel``),
which covers the VGG (2x2/2 max pool) and ResNet-20 (8x8 global average)
architectures used in the paper, and keeps both passes fully vectorised.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .tensor import Tensor


def conv2d_output_shape(
    height: int, width: int, kernel: int, stride: int, padding: int
) -> Tuple[int, int]:
    """Spatial output size of a conv/pool with square kernel."""
    out_h = (height + 2 * padding - kernel) // stride + 1
    out_w = (width + 2 * padding - kernel) // stride + 1
    if out_h <= 0 or out_w <= 0:
        raise ValueError(
            f"kernel {kernel} / stride {stride} / padding {padding} "
            f"produce empty output for input {height}x{width}"
        )
    return out_h, out_w


def _im2col(
    x: np.ndarray, kernel: int, stride: int, out_h: int, out_w: int
) -> np.ndarray:
    """Gather conv windows of a padded channels-last (NHWC) array.

    Returns a strided view (no copy) of shape
    ``(N, out_h, out_w, KH, KW, C)``: the trailing ``KW * C`` elements of
    each window row are one contiguous run of ``x``.
    """
    n, _, _, c = x.shape
    sn, sh, sw, sc = x.strides
    return as_strided(
        x,
        shape=(n, out_h, out_w, kernel, kernel, c),
        strides=(sn, sh * stride, sw * stride, sh, sw, sc),
        writeable=False,
    )


def _col2im(
    dcols: np.ndarray,
    padded_shape: Tuple[int, int, int, int],
    kernel: int,
    stride: int,
) -> np.ndarray:
    """Adjoint of :func:`_im2col`: scatter-add column grads to an image.

    ``dcols`` has shape ``(N, out_h, out_w, KH, KW, C)``; the result is a
    channels-last array of the *padded* NHWC shape ``padded_shape``.
    """
    _, out_h, out_w = dcols.shape[:3]
    dx = np.zeros(padded_shape, dtype=dcols.dtype)
    for i in range(kernel):
        row_end = i + stride * out_h
        for j in range(kernel):
            col_end = j + stride * out_w
            dx[:, i:row_end:stride, j:col_end:stride, :] += dcols[:, :, :, i, j, :]
    return dx


def _weight_matrix(weight: np.ndarray) -> np.ndarray:
    """OIHW filters as the ``(C_out, KH * KW * C_in)`` GEMM operand."""
    return weight.transpose(0, 2, 3, 1).reshape(weight.shape[0], -1)


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor = None,
    stride: int = 1,
    padding: int = 0,
) -> Tensor:
    """2-D cross-correlation (the deep-learning "convolution").

    Parameters
    ----------
    x:
        Input of shape ``(N, C_in, H, W)``.
    weight:
        Filters of shape ``(C_out, C_in, K, K)``.
    bias:
        Optional per-filter bias of shape ``(C_out,)``.

    The output (and the input gradient) is an NCHW view of channels-last
    memory, so a following conv reads its input as one block.
    """
    n, c_in, h, w = x.data.shape
    c_out, c_in_w, kh, kw = weight.data.shape
    if c_in != c_in_w:
        raise ValueError(
            f"input has {c_in} channels but weight expects {c_in_w}"
        )
    if kh != kw:
        raise ValueError("only square kernels are supported")
    kernel = kh
    out_h, out_w = conv2d_output_shape(h, w, kernel, stride, padding)

    x_nhwc = x.data.transpose(0, 2, 3, 1)
    if padding:
        # Preallocate + slice-assign: cheaper than np.pad's general
        # machinery, and no allocation at all when padding == 0.
        x_padded = np.zeros(
            (n, h + 2 * padding, w + 2 * padding, c_in), dtype=x.data.dtype
        )
        x_padded[:, padding:padding + h, padding:padding + w, :] = x_nhwc
    else:
        x_padded = x_nhwc
    padded_shape = x_padded.shape
    # Pack the strided window view into one contiguous buffer; this single
    # copy feeds the forward GEMM and is reused verbatim by the
    # weight-gradient GEMM in backward.
    mat_shape = (n * out_h * out_w, kernel * kernel * c_in)
    cols_mat = np.ascontiguousarray(
        _im2col(x_padded, kernel, stride, out_h, out_w)
    ).reshape(mat_shape)
    del x_padded  # free the padded copy before the GEMM allocates
    w_data = weight.data
    out = cols_mat @ _weight_matrix(w_data).T
    if bias is not None:
        np.add(out, bias.data, out=out)  # GEMM output is fresh: add in place
    out = out.reshape(n, out_h, out_w, c_out).transpose(0, 3, 1, 2)

    parents = (x, weight) if bias is None else (x, weight, bias)
    # Data entering the first layer needs no gradient: skip the input
    # GEMM and col2im scatter there (autograd skips ``None`` grads).
    needs_dx = x.requires_grad

    def bwd(g):
        # g: (N, C_out, out_h, out_w) -> (N*out_h*out_w, C_out)
        g_mat = g.transpose(0, 2, 3, 1).reshape(-1, c_out)
        dw = (g_mat.T @ cols_mat).reshape(c_out, kernel, kernel, c_in)
        dw = dw.transpose(0, 3, 1, 2)
        dx = None
        if needs_dx:
            # Rebuilt rather than captured: a captured copy would stay
            # alive once per recorded conv node until backward runs.
            dcols_mat = g_mat @ _weight_matrix(w_data)
            dcols = dcols_mat.reshape(n, out_h, out_w, kernel, kernel, c_in)
            dx = _col2im(dcols, padded_shape, kernel, stride).transpose(0, 3, 1, 2)
            if padding:
                dx = dx[:, :, padding:-padding, padding:-padding]
        if bias is None:
            return (dx, dw)
        db = g_mat.sum(axis=0)
        return (dx, dw, db)

    return Tensor.from_op(out, parents, bwd, "conv2d")


def _check_pool_args(x: Tensor, kernel: int, stride: int) -> None:
    if stride != kernel:
        raise NotImplementedError(
            "pooling supports non-overlapping windows only (stride == kernel)"
        )
    n, c, h, w = x.data.shape
    if h % kernel or w % kernel:
        raise ValueError(
            f"spatial size {h}x{w} not divisible by pool kernel {kernel}"
        )


def max_pool2d(x: Tensor, kernel: int, stride: int = None) -> Tensor:
    """Non-overlapping max pooling over ``kernel x kernel`` windows."""
    stride = kernel if stride is None else stride
    _check_pool_args(x, kernel, stride)
    n, c, h, w = x.data.shape
    out_h, out_w = h // kernel, w // kernel
    windows = x.data.reshape(n, c, out_h, kernel, out_w, kernel)
    out = windows.max(axis=(3, 5))
    mask = windows == out[:, :, :, None, :, None]
    # Break ties: keep only the first max per window so the gradient is
    # routed to exactly one element (matches framework conventions).
    flat = mask.transpose(0, 1, 2, 4, 3, 5).reshape(n, c, out_h, out_w, -1)
    first = flat.cumsum(axis=-1) == 1
    routed = (flat & first).reshape(n, c, out_h, out_w, kernel, kernel)
    routed = routed.transpose(0, 1, 2, 4, 3, 5)

    def bwd(g):
        g_win = g[:, :, :, None, :, None] * routed
        return (g_win.reshape(n, c, h, w),)

    return Tensor.from_op(out, (x,), bwd, "max_pool2d")


def avg_pool2d(x: Tensor, kernel: int, stride: int = None) -> Tensor:
    """Non-overlapping average pooling over ``kernel x kernel`` windows."""
    stride = kernel if stride is None else stride
    _check_pool_args(x, kernel, stride)
    n, c, h, w = x.data.shape
    out_h, out_w = h // kernel, w // kernel
    windows = x.data.reshape(n, c, out_h, kernel, out_w, kernel)
    out = windows.mean(axis=(3, 5))
    inv_area = 1.0 / (kernel * kernel)

    def bwd(g):
        g_win = np.broadcast_to(
            g[:, :, :, None, :, None] * inv_area,
            (n, c, out_h, kernel, out_w, kernel),
        )
        return (g_win.reshape(n, c, h, w).copy(),)

    return Tensor.from_op(out, (x,), bwd, "avg_pool2d")


def global_avg_pool2d(x: Tensor) -> Tensor:
    """Average over all spatial positions, returning ``(N, C)``."""
    return x.mean(axis=(2, 3))
