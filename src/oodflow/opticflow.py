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


def _prepare_pair(frame_a, frame_b, params: FlowParams):
    """Both frames as finite float64 (H, W) arrays of one shape, presmoothed."""
    a = frame2d(frame_a).astype(np.float64)
    b = frame2d(frame_b).astype(np.float64)
    if a.shape != b.shape:
        raise ValueError(f"frame dimensions differ: {a.shape} vs {b.shape}")
    if params.presmooth_sigma > 0:
        a = gaussian_filter(a, params.presmooth_sigma, mode="nearest")
        b = gaussian_filter(b, params.presmooth_sigma, mode="nearest")
    return a, b


def _derivatives(a: np.ndarray, b: np.ndarray):
    """(ix, iy, it) in float64 for two prepared frames.

    ix and iy are central differences (replicate padding at the borders) of
    the frame average, which keeps them symmetric in the frame pair; it =
    b - a.  Units: intensity per pixel for ix/iy, per frame for it.
    """
    padded = np.pad(0.5 * (a + b), 1, mode="edge")
    ix = (padded[1:-1, 2:] - padded[1:-1, :-2]) / 2.0
    iy = (padded[2:, 1:-1] - padded[:-2, 1:-1]) / 2.0
    return ix, iy, b - a


def lucas_kanade(frame_a, frame_b, params: FlowParams = FlowParams()) -> np.ndarray:
    """Dense flow between two frames; returns a (2, H, W) grid of (u, v).

    Solves, per pixel, the regularized 2x2 normal equations

        (S_xx + lam   S_xy      ) (u)   (-S_xt)
        (S_xy         S_yy + lam) (v) = (-S_yt)

    where S_* are sums of gradient products over the window (replicate
    padding at borders).  Output flow is in pixels per frame: u along the
    width axis, v along the height axis.
    """
    ix, iy, it = _derivatives(*_prepare_pair(frame_a, frame_b, params))

    size = 2 * params.window_radius + 1
    area = float(size * size)

    def wsum(z):
        return uniform_filter(z, size=size, mode="nearest") * area

    lam = params.regularization
    sxx = wsum(ix * ix) + lam
    syy = wsum(iy * iy) + lam
    sxy = wsum(ix * iy)
    sxt = wsum(ix * it)
    syt = wsum(iy * it)

    det = sxx * syy - sxy * sxy
    # det >= lam^2 > 0 whenever regularization is on; the guard only matters
    # for lam == 0 at fully degenerate pixels, where the RHS is zero too.
    det = np.where(det > 0, det, 1.0)
    u = (-sxt * syy + sxy * syt) / det
    v = (sxy * sxt - sxx * syt) / det
    return np.stack([u, v]).astype(np.float32)
