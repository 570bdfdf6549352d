"""Convolution, dense, and resize primitives on NCHW numpy arrays.

Forward and backward passes are built from a single im2col/col2im pair so
that transposed convolution is exactly the adjoint of convolution.  All
functions preserve the dtype of their weight arguments; col2im accumulates
in float64 via ``np.bincount`` for deterministic summation order.
"""

from __future__ import annotations

import numpy as np

_IDX_CACHE: dict[tuple, tuple] = {}


def _indices(channels: int, height: int, width: int, k: int, stride: int, pad: int):
    """Cached gather/scatter indices for one (shape, kernel) combination."""
    key = (channels, height, width, k, stride, pad)
    hit = _IDX_CACHE.get(key)
    if hit is not None:
        return hit
    out_h = (height + 2 * pad - k) // stride + 1
    out_w = (width + 2 * pad - k) // stride + 1
    hp, wp = height + 2 * pad, width + 2 * pad
    i0 = np.repeat(np.arange(k), k)
    j0 = np.tile(np.arange(k), k)
    i1 = stride * np.repeat(np.arange(out_h), out_w)
    j1 = stride * np.tile(np.arange(out_w), out_h)
    ii = i0[:, None] + i1[None, :]  # (k*k, L)
    jj = j0[:, None] + j1[None, :]
    cc = np.repeat(np.arange(channels), k * k)[:, None]  # (C*k*k, 1)
    flat = ((cc * hp + np.tile(ii, (channels, 1))) * wp
            + np.tile(jj, (channels, 1))).ravel()
    result = (out_h, out_w, hp, wp, flat)
    _IDX_CACHE[key] = result
    return result


def im2col(x: np.ndarray, k: int, stride: int, pad: int) -> np.ndarray:
    """Unfold (N, C, H, W) into (N, C*k*k, out_h*out_w) patch columns."""
    n, c, h, w = x.shape
    out_h, out_w, hp, wp, flat = _indices(c, h, w, k, stride, pad)
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    # take (not fancy indexing) keeps the result C-contiguous for the gemm
    return xp.reshape(n, c * hp * wp).take(flat, axis=1).reshape(
        n, c * k * k, out_h * out_w)


def col2im(cols: np.ndarray, channels: int, height: int, width: int,
           k: int, stride: int, pad: int) -> np.ndarray:
    """Adjoint of :func:`im2col`: scatter-add columns back to (N, C, H, W)."""
    n = cols.shape[0]
    _, _, hp, wp, flat = _indices(channels, height, width, k, stride, pad)
    out = np.empty((n, channels * hp * wp), dtype=np.float64)
    for i in range(n):
        out[i] = np.bincount(flat, weights=cols[i].ravel().astype(np.float64),
                             minlength=channels * hp * wp)
    out = out.reshape(n, channels, hp, wp)
    if pad:
        out = out[:, :, pad:-pad, pad:-pad]
    return np.ascontiguousarray(out, dtype=cols.dtype)


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
    y = np.matmul(w.reshape(oc, -1), cols) + b[:, None]
    return y.reshape(n, oc, out_h, out_w), cols


def conv2d_backward(dy: np.ndarray, cols: np.ndarray, w: np.ndarray,
                    x_shape: tuple, stride: int, pad: int):
    """Gradients of conv2d w.r.t. input, weight, and bias."""
    n, c, h, width = x_shape
    oc, _, k, _ = w.shape
    length = dy.shape[2] * dy.shape[3]
    dyf = dy.reshape(n, oc, length)
    db = dyf.sum(axis=(0, 2))
    # collapse the batch into single gemms; the moveaxis copies are cheap
    dy_flat = np.ascontiguousarray(np.moveaxis(dyf, 1, 0)).reshape(oc, n * length)
    cols_flat = np.ascontiguousarray(np.moveaxis(cols, 1, 0)).reshape(
        cols.shape[1], n * length)
    dw = (dy_flat @ cols_flat.T).reshape(w.shape)
    dcols = np.moveaxis(
        (w.reshape(oc, -1).T @ dy_flat).reshape(cols.shape[1], n, length), 1, 0)
    dx = col2im(np.ascontiguousarray(dcols), c, h, width, k, stride, pad)
    return dx, dw, db


def conv_transpose2d(x: np.ndarray, w: np.ndarray, b: np.ndarray,
                     stride: int, pad: int) -> np.ndarray:
    """Transposed convolution; weight layout (in_c, out_c, k, k).

    Output spatial size is (in - 1)*stride - 2*pad + k per dimension.
    """
    n, ic, ih, iw = x.shape
    _, oc, k, _ = w.shape
    oh = (ih - 1) * stride - 2 * pad + k
    ow = (iw - 1) * stride - 2 * pad + k
    cols = np.matmul(w.reshape(ic, -1).T, x.reshape(n, ic, ih * iw))
    y = col2im(cols, oc, oh, ow, k, stride, pad)
    return y + b[None, :, None, None]


def conv_transpose2d_backward(dy: np.ndarray, x: np.ndarray, w: np.ndarray,
                              stride: int, pad: int):
    """Gradients of conv_transpose2d w.r.t. input, weight, and bias."""
    n, ic, ih, iw = x.shape
    _, oc, k, _ = w.shape
    length = ih * iw
    gcols = im2col(dy, k, stride, pad)  # (N, OC*k*k, ih*iw)
    dx = np.matmul(w.reshape(ic, -1), gcols).reshape(x.shape)
    x_flat = np.ascontiguousarray(np.moveaxis(x.reshape(n, ic, length), 1, 0)
                                  ).reshape(ic, n * length)
    g_flat = np.ascontiguousarray(np.moveaxis(gcols, 1, 0)).reshape(
        gcols.shape[1], n * length)
    dw = (x_flat @ g_flat.T).reshape(w.shape)
    db = dy.sum(axis=(0, 2, 3))
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
