#!/usr/bin/env python3
"""Dense optic flow on a known translation.

Generates a smooth periodic texture, shifts it by a fractional sub-pixel
displacement, runs the windowed least-squares flow solver, and reports the
endpoint error against the ground-truth motion.  Saves a quiver plot when
matplotlib is available.
"""

import os

import numpy as np

from oodflow import opticflow, synthdata

OUT_DIR = os.path.join(os.path.dirname(__file__), "demo_out")
os.makedirs(OUT_DIR, exist_ok=True)

cfg = synthdata.SceneConfig(size=64, episode_length=2, seed=7)
texture = synthdata.gen_texture(cfg)

dx, dy = 1.3, -0.6  # ground-truth motion, pixels per frame
moved = synthdata._sample_wrapped(texture, dx, dy)

params = opticflow.FlowParams(window_radius=2, presmooth_sigma=1.0)
flow = opticflow.lucas_kanade(texture, moved, params)

epe = np.hypot(flow[0] - dx, flow[1] - dy)
print(f"ground truth      (u, v) = ({dx:+.2f}, {dy:+.2f}) px/frame")
print(f"estimated mean    (u, v) = ({flow[0].mean():+.2f}, {flow[1].mean():+.2f})")
print(f"mean endpoint error      = {epe.mean():.3f} px (max {epe.max():.3f})")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    step = 4
    yy, xx = np.mgrid[0:64:step, 0:64:step]
    fig, axes = plt.subplots(1, 2, figsize=(9, 4.2))
    axes[0].imshow(texture, cmap="gray")
    axes[0].set_title("frame 0")
    axes[1].imshow(moved, cmap="gray")
    axes[1].quiver(xx, yy, flow[0, ::step, ::step], -flow[1, ::step, ::step],
                   color="red", scale=40)
    axes[1].set_title("frame 1 + estimated flow")
    fig.tight_layout()
    out = os.path.join(OUT_DIR, "optic_flow.png")
    fig.savefig(out, dpi=110)
    print(f"saved {out}")
except ImportError:
    print("matplotlib not installed; skipping the quiver plot")
