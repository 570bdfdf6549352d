#!/usr/bin/env python3
"""Localizing a detected anomaly in the frame.

Trains a small model, lets an intruder cut into the scene, and renders the
activation-deviation overlay: the red region should sit on the intruder's
quadrant.  Writes the overlay as FGRID and the composite as a binary PPM.

Takes a minute or two (the VAE trains from scratch).
"""

import os

import numpy as np

from oodflow import (conformal, gridio, localization, opticflow, synthdata,
                     trainer, vae)

OUT_DIR = os.path.join(os.path.dirname(__file__), "demo_out")
os.makedirs(OUT_DIR, exist_ok=True)

SIZE = 64
arch = vae.VaeArchitecture(input_size=SIZE)
flow_params = opticflow.FlowParams()

print("training (6 ID episodes, 12 epochs)...")
flows = []
for i in range(6):
    ep = synthdata.gen_id_episode(synthdata.SceneConfig(size=SIZE, seed=400 + i))
    flows.extend(vae.preprocess(opticflow.flow_sequence(ep.frames, flow_params), arch))
train_part, cal_part = trainer.split_calibration(flows, 0.2, seed=2)
weights, _ = trainer.train(train_part, trainer.TrainConfig(epochs=12, seed=2), arch)
cal = trainer.build_calibration(weights, cal_part)
stats = localization.activation_stats(weights, cal_part)

spec = synthdata.AnomalySpec("intruder_cut", onset=25, magnitude=1.5, region="ne")
episode = synthdata.gen_ood_episode(synthdata.SceneConfig(size=SIZE, seed=888), spec)
cfg = conformal.DetectorConfig()
events, _ = conformal.detect_episode(episode.frames, weights, cal, cfg)
if not events:
    raise SystemExit("no detection; try more training epochs")
frame_idx = events[0].onset_frame + 3
print(f"intruder enters quadrant {spec.region!r} at frame {spec.onset}; "
      f"detector run starts at frame {events[0].onset_frame}")

flow = opticflow.lucas_kanade(episode.frames[frame_idx - 1],
                              episode.frames[frame_idx])
x = vae.preprocess(flow[np.newaxis], arch, weights.max_flow)
acts = vae.score_batch(weights, x)[2][0]
overlay_map = localization.overlay(acts, stats, SIZE)
composite = localization.render(episode.frames[frame_idx], overlay_map,
                                threshold=0.5)

half = SIZE // 2
quadrant_mass = {
    "ne": overlay_map[:half, half:].sum(), "nw": overlay_map[:half, :half].sum(),
    "se": overlay_map[half:, half:].sum(), "sw": overlay_map[half:, :half].sum(),
}
total = sum(quadrant_mass.values())
print(f"overlay mass by quadrant at frame {frame_idx}: "
      + ", ".join(f"{q}={v / total:.0%}" for q, v in quadrant_mass.items()))

gridio.write_fgrid(os.path.join(OUT_DIR, "overlay.fgrid"), overlay_map)
gridio.write_ppm(os.path.join(OUT_DIR, "composite.ppm"), composite)
print(f"wrote {OUT_DIR}/overlay.fgrid and {OUT_DIR}/composite.ppm")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, axes = plt.subplots(1, 3, figsize=(11, 3.8))
    axes[0].imshow(episode.frames[frame_idx], cmap="gray")
    axes[0].set_title(f"frame {frame_idx}")
    axes[1].imshow(overlay_map, cmap="inferno")
    axes[1].set_title("deviation overlay")
    axes[2].imshow(np.moveaxis(composite, 0, -1))
    axes[2].set_title("composite")
    for ax in axes:
        ax.set_xticks([]), ax.set_yticks([])
    fig.tight_layout()
    out_png = os.path.join(OUT_DIR, "localization.png")
    fig.savefig(out_png, dpi=110)
    print(f"saved {out_png}")
except ImportError:
    print("matplotlib not installed; skipping the panel plot")
