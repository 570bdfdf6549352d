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

from .gridio import _check_int, frame2d


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
        # a fractional radius would widen the window, and NaN passes any `< 0`
        _check_int("window_radius", self.window_radius, 1)
        for name in ("regularization", "presmooth_sigma"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {value}")


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


def _checked(frames) -> list[np.ndarray]:
    """Frames as finite float32 (H, W) arrays of one shape, checked in order:
    each frame, then its shape against the first, so the first bad one decides the error."""
    out = []
    for frame in frames:
        f = frame2d(frame)
        if out and f.shape != out[0].shape:
            raise ValueError(f"frame dimensions differ: {out[0].shape} vs {f.shape}")
        out.append(f)
    return out


def _derivatives(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(ix, iy, it) in float64 for blurred (..., H, W) frames, as one (3, ..., H, W) block.

    ix and iy are central differences (replicate padding at the borders) of
    the frame average, which keeps them symmetric in the frame pair; it =
    b - a.  Units: intensity per pixel for ix/iy, per frame for it.
    """
    d = np.empty((3,) + a.shape)
    mean = np.add(a, b, out=d[2])
    mean *= 0.5
    padded = np.pad(mean, [(0, 0)] * (a.ndim - 2) + [(1, 1), (1, 1)], mode="edge")
    np.subtract(padded[..., 1:-1, 2:], padded[..., 1:-1, :-2], out=d[0])
    np.subtract(padded[..., 2:, 1:-1], padded[..., :-2, 1:-1], out=d[1])
    d[:2] /= 2.0
    np.subtract(b, a, out=d[2])
    return d


def _solve(a: np.ndarray, b: np.ndarray, params: FlowParams) -> np.ndarray:
    """Flow between blurred (..., H, W) frames a and b, as a float32 (..., 2, H, W).

    Every pixel of every pair gets the same float64 arithmetic, so a pair's
    flow does not depend on the stack it is solved in.
    """
    d = _derivatives(a, b)
    ix, iy, it = d

    # the five window sums as one stack; the filter skips its size-1 axes
    size = 2 * params.window_radius + 1
    s = np.empty((5,) + ix.shape)
    for out, (x, y) in zip(s, ((ix, ix), (iy, iy), (ix, iy), (ix, it), (iy, it))):
        np.multiply(x, y, out=out)
    uniform_filter(s, size=(1,) * (s.ndim - 2) + (size, size), mode="nearest", output=s)
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
    lead, plane = det.shape[:-2], det.shape[-2:]
    flow = np.empty(lead + (2,) + plane, dtype=np.float32)
    for i, (w, x, y, z) in enumerate(((sxy, syt, sxt, syy), (sxy, sxt, sxx, syt))):
        np.multiply(w, x, out=p)
        p -= np.multiply(y, z, out=q)
        np.divide(p, det, out=flow[..., i, :, :], casting="same_kind")
    return flow


def lucas_kanade(frame_a, frame_b, params: FlowParams = FlowParams()) -> np.ndarray:
    """Dense flow between two frames; returns a (2, H, W) grid of (u, v).

    Solves, per pixel, the regularized 2x2 normal equations

        (S_xx + lam   S_xy      ) (u)   (-S_xt)
        (S_xy         S_yy + lam) (v) = (-S_yt)

    where S_* are sums of gradient products over the window (replicate
    padding at borders).  Output flow is in pixels per frame: u along the
    width axis, v along the height axis.
    """
    sigma = params.presmooth_sigma
    return _solve(*(_blur(f, sigma) for f in _checked((frame_a, frame_b))), params)


def flow_sequence(frames, params: FlowParams) -> np.ndarray:
    """The flows of every consecutive pair of T >= 2 frames, as a (T-1, 2, H, W) array.

    Pair t's flow is bit for bit ``lucas_kanade(frames[t], frames[t + 1],
    params)``, but each frame is checked and blurred once and all pairs are
    solved together.  Raises the errors :func:`lucas_kanade` raises, for the
    first pair that has one.
    """
    frames = list(frames)
    if len(frames) < 2:
        raise ValueError("need at least 2 frames")
    stack = np.array(_checked(frames), dtype=np.float64)
    sigma = params.presmooth_sigma
    if sigma > 0:
        gaussian_filter(stack, (0, sigma, sigma), mode="nearest", output=stack)
    return _solve(stack[:-1], stack[1:], params)
