"""Convolution, dense, and resize primitives on NCHW numpy arrays.

Forward and backward passes are built from a single im2col/col2im pair so
that transposed convolution is exactly the adjoint of convolution.  Columns
are (C*k*k, N*out_h*out_w), so each conv and each backward pass is one gemm
over the batch, whose (C, N*H*W) output is returned as an (N, C, H, W) view.
All functions preserve the dtype of their weight arguments; col2im sums the
taps of each pixel into a float64 zero in ascending (i, j) order.
"""

from __future__ import annotations

import numpy as np


def _taps(k: int, stride: int, out_h: int, out_w: int):
    """(i, j, padded-grid slice) per kernel tap, in ascending (i, j) order."""
    return [(i, j, np.s_[:, :, i:i + stride * out_h:stride, j:j + stride * out_w:stride])
            for i in range(k) for j in range(k)]


def im2col(x: np.ndarray, k: int, stride: int, pad: int) -> np.ndarray:
    """Unfold (N, C, H, W) into (C*k*k, N*out_h*out_w) patch columns."""
    n, c, h, w = x.shape
    out_h = (h + 2 * pad - k) // stride + 1
    out_w = (w + 2 * pad - k) // stride + 1
    xp = np.zeros((c, n, h + 2 * pad, w + 2 * pad), dtype=x.dtype)
    xp[:, :, pad:pad + h, pad:pad + w] = x.transpose(1, 0, 2, 3)
    cols = np.empty((c, k, k, n, out_h, out_w), dtype=x.dtype)
    for i, j, window in _taps(k, stride, out_h, out_w):
        cols[:, i, j] = xp[window]
    return cols.reshape(c * k * k, n * out_h * out_w)


def col2im(cols: np.ndarray, channels: int, height: int, width: int,
           k: int, stride: int, pad: int) -> np.ndarray:
    """Adjoint of :func:`im2col`: sum columns back into (N, C, H, W)."""
    hp, wp = height + 2 * pad, width + 2 * pad
    out_h = (hp - k) // stride + 1
    out_w = (wp - k) // stride + 1
    n = cols.shape[1] // (out_h * out_w)
    taps = cols.reshape(channels, k, k, n, out_h, out_w)
    out = np.zeros((channels, n, hp, wp), dtype=np.float64)
    for i, j, window in _taps(k, stride, out_h, out_w):
        out[window] += taps[:, i, j]
    out = out[:, :, pad:pad + height, pad:pad + width].astype(cols.dtype, copy=False)
    return out.transpose(1, 0, 2, 3)


def conv2d(x: np.ndarray, w: np.ndarray, b: np.ndarray, stride: int,
           pad: int) -> tuple[np.ndarray, np.ndarray]:
    """Strided convolution; weight layout (out_c, in_c, k, k).

    Returns the output and the im2col cache needed by the backward pass.
    """
    n, _, h, width = x.shape
    oc, _, k, _ = w.shape
    cols = im2col(x, k, stride, pad)
    out_h = (h + 2 * pad - k) // stride + 1
    out_w = (width + 2 * pad - k) // stride + 1
    y = w.reshape(oc, -1) @ cols + b[:, None]
    return y.reshape(oc, n, out_h, out_w).transpose(1, 0, 2, 3), cols


def conv2d_backward(dy: np.ndarray, cols: np.ndarray, w: np.ndarray,
                    x_shape: tuple, stride: int, pad: int):
    """Gradients of conv2d w.r.t. input, weight, and bias."""
    n, c, h, width = x_shape
    oc, _, k, _ = w.shape
    # numpy sums in an order set by the memory layout: a C-contiguous copy
    # keeps the bias gradient independent of the layout dy arrives in
    db = np.ascontiguousarray(dy).reshape(n, oc, -1).sum(axis=(0, 2))
    dy_flat = dy.transpose(1, 0, 2, 3).reshape(oc, -1)
    dw = (dy_flat @ cols.T).reshape(w.shape)
    dx = col2im(w.reshape(oc, -1).T @ dy_flat, c, h, width, k, stride, pad)
    return dx, dw, db


def conv_transpose2d(x: np.ndarray, w: np.ndarray, b: np.ndarray,
                     stride: int, pad: int) -> np.ndarray:
    """Transposed convolution; weight layout (in_c, out_c, k, k).

    Output spatial size is (in - 1)*stride - 2*pad + k per dimension.
    """
    ic, ih, iw = x.shape[1:]
    _, oc, k, _ = w.shape
    oh = (ih - 1) * stride - 2 * pad + k
    ow = (iw - 1) * stride - 2 * pad + k
    cols = w.reshape(ic, -1).T @ x.transpose(1, 0, 2, 3).reshape(ic, -1)
    y = col2im(cols, oc, oh, ow, k, stride, pad)
    return y + b[None, :, None, None]


def conv_transpose2d_backward(dy: np.ndarray, x: np.ndarray, w: np.ndarray,
                              stride: int, pad: int):
    """Gradients of conv_transpose2d w.r.t. input, weight, and bias."""
    n, ic, ih, iw = x.shape
    k = w.shape[2]
    gcols = im2col(dy, k, stride, pad)  # (OC*k*k, N*ih*iw)
    dx = (w.reshape(ic, -1) @ gcols).reshape(ic, n, ih, iw).transpose(1, 0, 2, 3)
    dw = (x.transpose(1, 0, 2, 3).reshape(ic, -1) @ gcols.T).reshape(w.shape)
    db = np.ascontiguousarray(dy).sum(axis=(0, 2, 3))  # see conv2d_backward
    return dx, dw, db


def linear(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Affine map; weight layout (out_features, in_features)."""
    return x @ w.T + b


def linear_backward(dy: np.ndarray, x: np.ndarray, w: np.ndarray):
    dx = dy @ w
    dw = dy.T @ x
    db = dy.sum(axis=0)
    return dx, dw, db


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0)


def relu_backward(dy: np.ndarray, x: np.ndarray) -> np.ndarray:
    return dy * (x > 0)


def bilinear_resize(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Resize (C, H, W) with bilinear interpolation on half-pixel centers.

    Sample coordinates follow x_src = (x_out + 0.5) * scale - 0.5 and are
    clamped to the source extent, so a 2x downsample of a linear ramp equals
    the 2x2 block mean.
    """
    c, h, w = img.shape
    if (h, w) == (out_h, out_w):
        return img.copy()
    ys = np.clip((np.arange(out_h) + 0.5) * (h / out_h) - 0.5, 0.0, h - 1.0)
    xs = np.clip((np.arange(out_w) + 0.5) * (w / out_w) - 0.5, 0.0, w - 1.0)
    y0 = np.floor(ys).astype(np.intp)
    x0 = np.floor(xs).astype(np.intp)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = (ys - y0)[None, :, None]
    wx = (xs - x0)[None, None, :]
    src = img.astype(np.float64, copy=False)
    top = (1 - wx) * src[:, y0][:, :, x0] + wx * src[:, y0][:, :, x1]
    bot = (1 - wx) * src[:, y1][:, :, x0] + wx * src[:, y1][:, :, x1]
    out = (1 - wy) * top + wy * bot
    return out.astype(img.dtype, copy=False)
