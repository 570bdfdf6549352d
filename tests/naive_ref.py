"""Independent reference implementations used as test oracles only:
straightforward float64 forward passes (deliberately unoptimized loops,
no im2col/gemm machinery), a per-pixel col2im and the transposed conv it
makes from one plain gemm, a dense-grid trapezoid integrator for the
mixture martingale, the closed-form tail of its mean under uniform
p-values, and per-pixel Lucas-Kanade flow and bilinear resizing."""

import numpy as np


def log_mix_trapezoid(p_window, steps=10**6):
    """Trapezoid-rule mixture martingale on a uniform grid, shifted log domain."""
    p = np.asarray(p_window, dtype=np.float64)
    k = p.size
    total = np.sum(np.log(p))
    eps = np.linspace(0.0, 1.0, steps + 1)
    with np.errstate(divide="ignore"):
        g = k * np.log(np.maximum(eps, 1e-320)) + (eps - 1.0) * total
    g[0] = -np.inf
    shift = g[np.isfinite(g)].max()
    f = np.where(np.isfinite(g), np.exp(g - shift), 0.0)
    return shift + np.log(np.trapezoid(f, eps))


def mixture_mean_tail(k, c):
    """E[M_k * 1{L > c}] for k iid uniform p-values, where L = -sum(ln p).

    M_k = int_0^1 eps^k exp((1 - eps) L) d eps and L ~ Gamma(k, 1).  By
    Fubini, the inner integral over L > c is eps^-k Q(k, eps c), so the tail
    is int_0^1 Q(k, eps c) d eps = Q(k, c) + (k / c) P(k + 1, c), with P and
    Q the regularized lower and upper incomplete gamma functions.  The whole
    mean is the limit c -> 0, which is 1.
    """
    from scipy.special import gammainc, gammaincc

    return float(gammaincc(k, c) + (k / c) * gammainc(k + 1, c))


def naive_conv2d(x, w, b, stride, pad):
    n, ic, h, width = x.shape
    oc, _, k, _ = w.shape
    oh = (h + 2 * pad - k) // stride + 1
    ow = (width + 2 * pad - k) // stride + 1
    xp = np.pad(x.astype(np.float64), ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    w = w.astype(np.float64)
    out = np.zeros((n, oc, oh, ow))
    for ni in range(n):
        for oi in range(oc):
            for yy in range(oh):
                for xx in range(ow):
                    patch = xp[ni, :, yy * stride:yy * stride + k,
                               xx * stride:xx * stride + k]
                    out[ni, oi, yy, xx] = np.sum(patch * w[oi]) + b[oi]
    return out


def naive_conv_transpose2d(x, w, b, stride, pad):
    n, ic, ih, iw = x.shape
    _, oc, k, _ = w.shape
    oh = (ih - 1) * stride - 2 * pad + k
    ow = (iw - 1) * stride - 2 * pad + k
    x = x.astype(np.float64)
    w = w.astype(np.float64)
    full = np.zeros((n, oc, oh + 2 * pad, ow + 2 * pad))
    for ni in range(n):
        for ci in range(ic):
            for yy in range(ih):
                for xx in range(iw):
                    full[ni, :, yy * stride:yy * stride + k,
                         xx * stride:xx * stride + k] += w[ci] * x[ni, ci, yy, xx]
    out = full[:, :, pad:pad + oh, pad:pad + ow] if pad else full
    return out + np.asarray(b, dtype=np.float64)[None, :, None, None]


def naive_col2im(cols, channels, height, width, k, stride, pad):
    """Reference col2im on (C*k*k, N*out_h*out_w) columns; returns (N, C, H, W).

    Walks each sample, channel and tap (i, j) in ascending order and adds
    every column entry into a float64 zero grid, one pixel at a time.
    """
    hp, wp = height + 2 * pad, width + 2 * pad
    oh = (hp - k) // stride + 1
    ow = (wp - k) // stride + 1
    n = cols.shape[1] // (oh * ow)
    out = np.zeros((n, channels, hp, wp))
    for ni in range(n):
        for c in range(channels):
            for i in range(k):
                for j in range(k):
                    row = (c * k + i) * k + j
                    for yy in range(oh):
                        for xx in range(ow):
                            out[ni, c, i + stride * yy, j + stride * xx] += \
                                cols[row, (ni * oh + yy) * ow + xx]
    return out[:, :, pad:pad + height, pad:pad + width].astype(cols.dtype)


def gemm_col2im_transpose(x, w, stride, pad):
    """Bias-free transposed conv of (N, IC, ih, iw) by (IC, OC, k, k) weights.

    One gemm computes every tap of every input pixel, then
    :func:`naive_col2im` sums them pixel by pixel: the bit-exact reference
    for a transposed conv, and for a conv's input gradient, that sums each
    pixel's taps into a float64 zero in ascending (i, j) order.
    """
    n, ic, ih, iw = x.shape
    _, oc, k, _ = w.shape
    cols = w.reshape(ic, -1).T @ x.transpose(1, 0, 2, 3).reshape(ic, -1)
    return naive_col2im(cols, oc, (ih - 1) * stride - 2 * pad + k,
                        (iw - 1) * stride - 2 * pad + k, k, stride, pad)


def naive_encode(weights, flow):
    """Reference encoder: returns (mu, logvar, last_conv_activations)."""
    arch = weights.arch
    t = {k: v.astype(np.float64) for k, v in weights.tensors.items()}
    h = flow.astype(np.float64)[None]
    for i in range(4):
        h = naive_conv2d(h, t[f"enc{i}_w"], t[f"enc{i}_b"], stride=2, pad=1)
        h = np.maximum(h, 0.0)
    acts = h[0]
    flat = h.reshape(1, -1)
    mu = flat @ t["mu_w"].T + t["mu_b"]
    logvar = np.clip(flat @ t["logvar_w"].T + t["logvar_b"], -10.0, 10.0)
    return mu[0], logvar[0], acts


def naive_decode(weights, z):
    """Reference decoder: returns the (2, S, S) reconstruction."""
    arch = weights.arch
    t = {k: v.astype(np.float64) for k, v in weights.tensors.items()}
    h = np.maximum(np.asarray(z, dtype=np.float64)[None] @ t["dec_w"].T + t["dec_b"], 0.0)
    h = h.reshape(1, arch.conv_channels[-1], arch.grid_size, arch.grid_size)
    for i in range(4):
        h = naive_conv_transpose2d(h, t[f"tdec{i}_w"], t[f"tdec{i}_b"],
                                   stride=2, pad=1)
        if i < 3:
            h = np.maximum(h, 0.0)
    return h[0]


def _clamp(i, n):
    return min(max(i, 0), n - 1)


def _naive_gaussian(img, sigma, truncate=4.0):
    """Separable Gaussian blur, rows then columns, with replicate borders.

    The kernel has radius int(truncate * sigma + 0.5) and sums to 1.
    """
    radius = int(truncate * sigma + 0.5)
    taps = [np.exp(-0.5 * (t / sigma) ** 2) for t in range(-radius, radius + 1)]
    taps = [t / sum(taps) for t in taps]
    h, w = img.shape
    out = img
    for axis in (0, 1):
        src, out = out, np.zeros((h, w))
        for y in range(h):
            for x in range(w):
                for t, wt in zip(range(-radius, radius + 1), taps):
                    yy, xx = (_clamp(y + t, h), x) if axis == 0 else (y, _clamp(x + t, w))
                    out[y, x] += wt * src[yy, xx]
    return out


def naive_lucas_kanade(frame_a, frame_b, radius=2, lam=1e-3, sigma=1.0):
    """Reference regularized Lucas-Kanade flow, one pixel at a time.

    Blur both frames, take central differences of their mean and the frame
    difference (replicate borders), sum the gradient products over a
    (2 radius + 1)^2 window (replicate borders) and solve each 2x2 system
    by Cramer's rule.  Returns the float64 (2, H, W) flow (u, v).
    """
    a = np.asarray(frame_a, dtype=np.float64)
    b = np.asarray(frame_b, dtype=np.float64)
    if sigma > 0:
        a, b = _naive_gaussian(a, sigma), _naive_gaussian(b, sigma)
    h, w = a.shape
    m = 0.5 * (a + b)
    ix, iy, it = np.zeros((h, w)), np.zeros((h, w)), b - a
    for y in range(h):
        for x in range(w):
            ix[y, x] = (m[y, _clamp(x + 1, w)] - m[y, _clamp(x - 1, w)]) / 2
            iy[y, x] = (m[_clamp(y + 1, h), x] - m[_clamp(y - 1, h), x]) / 2
    flow = np.zeros((2, h, w))
    for y in range(h):
        for x in range(w):
            sxx = syy = sxy = sxt = syt = 0.0
            for dy in range(-radius, radius + 1):
                for dx in range(-radius, radius + 1):
                    yy, xx = _clamp(y + dy, h), _clamp(x + dx, w)
                    gx, gy, gt = ix[yy, xx], iy[yy, xx], it[yy, xx]
                    sxx += gx * gx
                    syy += gy * gy
                    sxy += gx * gy
                    sxt += gx * gt
                    syt += gy * gt
            sxx, syy = sxx + lam, syy + lam
            det = sxx * syy - sxy * sxy
            if not det > 0:
                det = 1.0
            flow[0, y, x] = (sxy * syt - syy * sxt) / det
            flow[1, y, x] = (sxy * sxt - sxx * syt) / det
    return flow


def naive_bilinear_resize(img, out_h, out_w):
    """Reference half-pixel-center bilinear resize of (C, H, W), one output
    pixel at a time, in float64, cast back to the input dtype."""
    c, h, w = img.shape
    out = np.zeros((c, out_h, out_w), dtype=img.dtype)
    for i in range(out_h):
        sy = min(max((i + 0.5) * (h / out_h) - 0.5, 0.0), h - 1.0)
        y0 = int(np.floor(sy))
        y1, wy = min(y0 + 1, h - 1), sy - y0
        for j in range(out_w):
            sx = min(max((j + 0.5) * (w / out_w) - 0.5, 0.0), w - 1.0)
            x0 = int(np.floor(sx))
            x1, wx = min(x0 + 1, w - 1), sx - x0
            for ch in range(c):
                p00, p01, p10, p11 = (float(img[ch, y, x]) for y, x in
                                      ((y0, x0), (y0, x1), (y1, x0), (y1, x1)))
                top = (1 - wx) * p00 + wx * p01
                bot = (1 - wx) * p10 + wx * p11
                out[ch, i, j] = (1 - wy) * top + wy * bot
    return out
