"""Spatial localization of detected anomalies from encoder activations.

The last conv layer's activation volume is standardized cell-by-cell
against calibration-set statistics; the per-location squared z-score energy,
summed over channels, is upsampled to frame resolution and max-normalized.
High values mark where the input deviates from calibration activity, which
is then rendered as a red overlay on the grayscale frame.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nnops, vae
from .gridio import frame2d

STD_FLOOR = 1e-6
# flows per float64 summation block; it fixes the order of the sums, so
# another block size would change the statistics' bits.  vae.score_batch
# runs the encoder on vae.SCORE_CHUNK rows per call whatever the block size
STATS_CHUNK = 64


@dataclass(frozen=True)
class ActivationStats:
    """Per-channel, per-location mean and population std over calibration flows."""

    mean: np.ndarray
    std: np.ndarray
    count: int

    def __post_init__(self):
        if self.mean.shape != self.std.shape:
            raise ValueError("mean and std must have identical shapes")
        if self.count < 2:
            raise ValueError("activation statistics need at least 2 samples")
        if not (np.all(np.isfinite(self.mean)) and np.all(np.isfinite(self.std))):
            raise ValueError("activation mean and std must be finite")
        if np.any(self.std < 0):
            raise ValueError("std must be nonnegative")


def activation_stats(weights: vae.VaeWeights, cal_flows) -> ActivationStats:
    """Mean and population std of last-conv activations over >= 2 flows."""
    flows = list(cal_flows)
    if len(flows) < 2:
        raise ValueError("need at least 2 calibration flows")
    total = None
    total_sq = None
    for start in range(0, len(flows), STATS_CHUNK):
        acts = vae.score_batch(weights, np.stack(flows[start:start + STATS_CHUNK]))[2]
        acts = acts.astype(np.float64)
        s = acts.sum(axis=0)
        sq = (acts * acts).sum(axis=0)
        total = s if total is None else total + s
        total_sq = sq if total_sq is None else total_sq + sq
    n = len(flows)
    mean = total / n
    var = np.maximum(total_sq / n - mean * mean, 0.0)
    return ActivationStats(mean=mean, std=np.sqrt(var), count=n)


def overlay(activations: np.ndarray, stats: ActivationStats,
            out_size) -> np.ndarray:
    """Standardized-deviation energy map, upsampled and scaled to [0, 1].

    raw(x, y) = sum_c ((a_c - mean_c) / (std_c + eps))^2, bilinearly
    upsampled to out_size (one int for square output, or an (H, W) pair);
    the maximum maps to exactly 1 (an all-zero map stays zero).
    """
    acts = np.asarray(activations, dtype=np.float64)
    if acts.shape != stats.mean.shape:
        raise ValueError(f"activation shape {acts.shape} does not match "
                         f"statistics shape {stats.mean.shape}")
    out_h, out_w = (out_size, out_size) if np.isscalar(out_size) else out_size
    z = (acts - stats.mean) / (stats.std + STD_FLOOR)
    raw = np.sum(z * z, axis=0)
    up = nnops.bilinear_resize(raw[np.newaxis], out_h, out_w)[0]
    peak = up.max()
    if peak > 0:
        up = up / peak
    return up.astype(np.float32)


def render(frame, overlay_map: np.ndarray, threshold: float) -> np.ndarray:
    """Composite a red overlay onto a grayscale frame; returns (3, H, W).

    Where the map reaches the threshold, the red channel is blended toward
    full red with weight 0.6 * map; green and blue stay at the gray value.
    """
    gray = frame2d(frame).astype(np.float64)
    m = np.asarray(overlay_map, dtype=np.float64)
    if gray.shape != m.shape:
        raise ValueError(f"frame resolution {gray.shape} does not match "
                         f"overlay {m.shape}")
    if not 0.0 <= threshold <= 1.0:
        raise ValueError("threshold must lie in [0, 1]")
    w = np.where(m >= threshold, 0.6 * m, 0.0)
    red = (1.0 - w) * gray + w
    return np.stack([red, gray, gray]).astype(np.float32)
