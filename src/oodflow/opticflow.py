"""Dense optic flow from the brightness-constancy constraint.

Per-pixel motion (u, v) satisfies ix*u + iy*v + it = 0 up to noise; a
windowed least-squares solve with Tikhonov regularization (Lucas-Kanade
style, single scale) recovers it.  Flat or aperture-limited neighborhoods
are biased toward zero flow by the regularizer instead of blowing up.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.ndimage import gaussian_filter, uniform_filter

from .gridio import frame2d


@dataclass(frozen=True)
class FlowParams:
    """Solver parameters.

    window_radius of 2 means a 5x5 summation window; regularization is the
    Tikhonov weight added to the normal-equation diagonal; presmooth_sigma
    is a Gaussian blur applied to both frames (0 disables it).
    """

    window_radius: int = 2
    regularization: float = 1e-3
    presmooth_sigma: float = 1.0

    def __post_init__(self):
        if self.window_radius < 1:
            raise ValueError("window_radius must be >= 1")
        if self.regularization < 0:
            raise ValueError("regularization must be >= 0")
        if self.presmooth_sigma < 0:
            raise ValueError("presmooth_sigma must be >= 0")


# (sigma, float32 bits, read-only float64 result) of the last frame _blur
# saw; replaced as a whole tuple, so threads never see half an entry
_last_blur = None


def _blur(frame: np.ndarray, sigma: float) -> np.ndarray:
    """A float32 (H, W) frame as float64, Gaussian-smoothed when sigma > 0.

    A stream's frame t ends one pair and starts the next, so the last frame
    is kept; it is matched by its bits, so a frame changed in place is new.
    """
    global _last_blur
    memo = _last_blur
    if (memo is not None and memo[0] == sigma and memo[1].shape == frame.shape
            and np.array_equal(memo[1].view(np.uint32), frame.view(np.uint32))):
        return memo[2]
    out = frame.astype(np.float64)
    if sigma > 0:
        gaussian_filter(out, sigma, mode="nearest", output=out)
    out.flags.writeable = False
    _last_blur = (sigma, frame.copy(), out)
    return out


def _prepare_pair(frame_a, frame_b, params: FlowParams):
    """Both frames as finite, read-only float64 (H, W) arrays of one shape, presmoothed."""
    a, b = frame2d(frame_a), frame2d(frame_b)
    if a.shape != b.shape:
        raise ValueError(f"frame dimensions differ: {a.shape} vs {b.shape}")
    return _blur(a, params.presmooth_sigma), _blur(b, params.presmooth_sigma)


def _derivatives(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(ix, iy, it) in float64 for two prepared frames, as one (3, H, W) block.

    ix and iy are central differences (replicate padding at the borders) of
    the frame average, which keeps them symmetric in the frame pair; it =
    b - a.  Units: intensity per pixel for ix/iy, per frame for it.
    """
    d = np.empty((3,) + a.shape)
    mean = np.add(a, b, out=d[2])
    mean *= 0.5
    padded = np.pad(mean, 1, mode="edge")
    np.subtract(padded[1:-1, 2:], padded[1:-1, :-2], out=d[0])
    np.subtract(padded[2:, 1:-1], padded[:-2, 1:-1], out=d[1])
    d[:2] /= 2.0
    np.subtract(b, a, out=d[2])
    return d


def lucas_kanade(frame_a, frame_b, params: FlowParams = FlowParams()) -> np.ndarray:
    """Dense flow between two frames; returns a (2, H, W) grid of (u, v).

    Solves, per pixel, the regularized 2x2 normal equations

        (S_xx + lam   S_xy      ) (u)   (-S_xt)
        (S_xy         S_yy + lam) (v) = (-S_yt)

    where S_* are sums of gradient products over the window (replicate
    padding at borders).  Output flow is in pixels per frame: u along the
    width axis, v along the height axis.
    """
    d = _derivatives(*_prepare_pair(frame_a, frame_b, params))
    ix, iy, it = d

    # the five window sums as one stack; the filter skips its size-1 axis
    size = 2 * params.window_radius + 1
    s = np.empty((5,) + ix.shape)
    for out, (x, y) in zip(s, ((ix, ix), (iy, iy), (ix, iy), (ix, it), (iy, it))):
        np.multiply(x, y, out=out)
    uniform_filter(s, size=(1, size, size), mode="nearest", output=s)
    s *= float(size * size)
    s[:2] += params.regularization
    sxx, syy, sxy, sxt, syt = s

    # the derivative planes are spent; they hold det and the solve's products
    det, p, q = d
    np.multiply(sxx, syy, out=det)
    det -= np.multiply(sxy, sxy, out=p)
    # det >= lam^2 > 0 whenever regularization is on; the guard only matters
    # for lam == 0 at fully degenerate pixels, where the RHS is zero too.
    np.copyto(det, 1.0, where=~(det > 0))
    # u = (S_xy S_yt - S_xt S_yy) / det and v = (S_xy S_xt - S_xx S_yt) / det
    flow = np.empty((2,) + det.shape, dtype=np.float32)
    for f, (w, x, y, z) in zip(flow, ((sxy, syt, sxt, syy), (sxy, sxt, sxx, syt))):
        np.multiply(w, x, out=p)
        p -= np.multiply(y, z, out=q)
        np.divide(p, det, out=f, casting="same_kind")
    return flow
