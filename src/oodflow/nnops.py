"""Convolution, dense, and resize primitives on NCHW numpy arrays.

A convolution unfolds its input with im2col, one strided copy, into
(C*k*k, N*out_h*out_w) columns, so each conv and each weight gradient is
one gemm over the batch, whose (C, N*H*W) output is returned as an
(N, C, H, W) view.  Transposed convolution and the input gradient of a
convolution, which is the same map, share one sub-pixel core that sums the
taps of each pixel into a float64 zero in ascending (i, j) order.  Layers
keep the dtype of their weights; bilinear_resize returns float64.
"""

from __future__ import annotations

import numpy as np

# The geometry of every conv of the network: 4x4 taps, stride 2, padding 1.
# KERNEL - 2*PADDING == STRIDE, so a conv halves H and W exactly and a
# transposed conv doubles them (Dumoulin & Visin 2016)
KERNEL = 4
STRIDE = 2
PADDING = 1


def im2col(x: np.ndarray) -> np.ndarray:
    """Unfold (N, C, H, W) into (C*k*k, N*(H/2)*(W/2)) patch columns."""
    n, c, h, w = x.shape
    k, s, pad = KERNEL, STRIDE, PADDING
    out_h, out_w = h // s, w // s
    xp = np.zeros((c, n, h + 2 * pad, w + 2 * pad), dtype=x.dtype)
    xp[:, :, pad:pad + h, pad:pad + w] = x.transpose(1, 0, 2, 3)
    # (C, k, k, N, out_h, out_w): window (i, j) of every output pixel, copied once
    sc, sn, sh, sw = xp.strides
    windows = np.lib.stride_tricks.as_strided(
        xp, (c, k, k, n, out_h, out_w), (sc, sh, sw, sn, s * sh, s * sw),
        writeable=False)
    return np.ascontiguousarray(windows).reshape(c * k * k, n * out_h * out_w)


def _transposed_conv(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Bias-free transposed convolution of (N, IC, ih, iw) by (IC, OC, k, k).

    Sub-pixel form (Dumoulin & Visin 2016; Shi et al. 2016), for k a
    multiple of the stride s and r = k // s.  On the output grid padded by
    PADDING, pixel (s*u + a, s*v + b) receives exactly the r*r taps
    (a + s*di, b + s*dj) from input pixel (u - di, v - dj).  So each parity
    class (a, b) is one gemm of its r*r*OC weight rows against input columns
    that carry r - 1 zero rows and columns per sample, and tap (di, dj) is
    one contiguous add at offset di*pw + dj of the flattened (OC, N, ph, pw)
    plane.  A tap that falls off a sample's edge adds an exact zero from the
    padding, so each pixel sums 0 + its taps in ascending (i, j) order, bit
    for bit what a per-pixel loop computes.
    """
    n, ic, ih, iw = x.shape
    oc = w.shape[1]
    s, r, pad = STRIDE, KERNEL // STRIDE, PADDING
    ph, pw = ih + r - 1, iw + r - 1
    xp = np.zeros((ic, n, ph, pw), dtype=x.dtype)
    xp[:, :, :ih, :iw] = x.transpose(1, 0, 2, 3)
    xp = xp.reshape(ic, -1)
    # (IC, a, b, di, dj, OC) for tap (i, j) = (s*di + a, s*dj + b)
    taps = np.ascontiguousarray(w.reshape(ic, oc, r, s, r, s).transpose(0, 3, 5, 2, 4, 1))
    out = np.empty((oc, n, s * ih, s * iw), dtype=np.result_type(x, w))
    plane = np.empty(oc * xp.shape[1])
    for a in range(s):
        for b in range(s):
            g = taps[:, a, b].reshape(ic, -1).T @ xp
            g = g.reshape(r * r, -1)  # rows (di, dj), each (OC, N, ph, pw)
            np.add(g[0], 0.0, out=plane)  # 0 + t, as for every later tap
            for t in range(1, r * r):
                off = (t // r) * pw + t % r
                plane[off:] += g[t, :-off]
            h0, w0 = (a - pad) % s, (b - pad) % s
            dst = out[:, :, h0::s, w0::s]
            u0, v0 = (h0 + pad) // s, (w0 + pad) // s
            dst[...] = plane.reshape(oc, n, ph, pw)[
                :, :, u0:u0 + dst.shape[2], v0:v0 + dst.shape[3]]
    return out.transpose(1, 0, 2, 3)


def conv2d(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Convolution that halves H and W; weight layout (out_c, in_c, k, k).

    Returns (output, im2col columns): callers drop the columns, and
    perfbench's tracer reads ``result[0]``.  The bias is added in place.
    """
    n, _, h, width = x.shape
    oc = w.shape[0]
    cols = im2col(x)
    y = w.reshape(oc, -1) @ cols
    y += b[:, None]
    return y.reshape(oc, n, h // STRIDE, width // STRIDE).transpose(1, 0, 2, 3), cols


def conv2d_backward(dy: np.ndarray, x: np.ndarray, w: np.ndarray):
    """Gradients of conv2d w.r.t. weight and bias, from the conv's input ``x``."""
    n, oc = dy.shape[0], w.shape[0]
    # numpy sums in an order set by the memory layout: a C-contiguous copy
    # keeps the bias gradient independent of the layout dy arrives in.  It
    # is freed before the columns are built
    db = np.ascontiguousarray(dy).reshape(n, oc, -1).sum(axis=(0, 2))
    cols = im2col(x)
    dy_flat = dy.transpose(1, 0, 2, 3).reshape(oc, -1)
    dw = (dy_flat @ cols.T).reshape(w.shape)
    return dw, db


def conv2d_input_grad(dy: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Gradient of conv2d w.r.t. its input: the transposed conv of dy by w.

    Its spatial size is twice dy's, the conv's input size when that is even.
    """
    return _transposed_conv(dy, w)


def conv_transpose2d(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Transposed convolution that doubles H and W; weight layout (in_c, out_c, k, k)."""
    y = _transposed_conv(x, w)
    y += b[None, :, None, None]
    return y


def conv_transpose2d_backward(dy: np.ndarray, x: np.ndarray, w: np.ndarray):
    """Gradients of conv_transpose2d w.r.t. input, weight, and bias."""
    n, ic, ih, iw = x.shape
    db = np.ascontiguousarray(dy).sum(axis=(0, 2, 3))  # see conv2d_backward
    gcols = im2col(dy)  # (OC*k*k, N*ih*iw)
    dx = (w.reshape(ic, -1) @ gcols).reshape(ic, n, ih, iw).transpose(1, 0, 2, 3)
    dw = (x.transpose(1, 0, 2, 3).reshape(ic, -1) @ gcols.T).reshape(w.shape)
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
    """max(x, 0), written over ``x``; returns ``x``."""
    return np.maximum(x, 0, out=x)


def relu_backward(dy: np.ndarray, x: np.ndarray) -> np.ndarray:
    """dy where x > 0, else 0, written over ``dy``; returns ``dy``.

    ``x`` is the ReLU's output, or equally its pre-activation:
    ``relu(pre) > 0`` holds exactly where ``pre > 0`` does.
    """
    return np.multiply(dy, x > 0, out=dy)


def bilinear_resize(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Resize (C, H, W) with bilinear interpolation on half-pixel centers.

    Sample coordinates follow x_src = (x_out + 0.5) * scale - 0.5 and are
    clamped to the source extent, so a 2x downsample of a linear ramp equals
    the 2x2 block mean.  Returns a new float64 array, converting only the sampled rows.
    """
    c, h, w = img.shape
    if (h, w) == (out_h, out_w):
        return img.astype(np.float64)
    ys = np.clip((np.arange(out_h) + 0.5) * (h / out_h) - 0.5, 0.0, h - 1.0)
    xs = np.clip((np.arange(out_w) + 0.5) * (w / out_w) - 0.5, 0.0, w - 1.0)
    y0 = np.floor(ys).astype(np.intp)
    x0 = np.floor(xs).astype(np.intp)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = (ys - y0)[None, :, None]
    wx = (xs - x0)[None, None, :]
    # blend each sampled source row horizontally once, then the rows vertically
    rows, which = np.unique(np.concatenate([y0, y1]), return_inverse=True)
    src = img[:, rows].astype(np.float64, copy=False)
    blend = (1 - wx) * src[:, :, x0] + wx * src[:, :, x1]
    top = blend[:, which[:out_h]]
    bot = blend[:, which[out_h:]]
    top *= 1 - wy
    bot *= wy
    top += bot
    return top
