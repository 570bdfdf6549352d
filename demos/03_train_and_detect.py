#!/usr/bin/env python3
"""The full detection pipeline at desk scale.

Trains the flow VAE on in-distribution episodes, builds the conformal
calibration set from held-out flows, then streams an anomalous episode
through the detector.  Prints the nonconformity scores, the log-martingale
trace around the anomaly onset, and the resulting detection event; saves
the martingale curve plot when matplotlib is available.

Takes a minute or two (the VAE trains from scratch).
"""

import os

import numpy as np

from oodflow import conformal, opticflow, synthdata, trainer, vae

OUT_DIR = os.path.join(os.path.dirname(__file__), "demo_out")
os.makedirs(OUT_DIR, exist_ok=True)

SIZE = 32
arch = vae.VaeArchitecture(input_size=SIZE)

print("building the training set (flows from 4 ID episodes)...")
flows = []
for i in range(4):
    ep = synthdata.gen_id_episode(synthdata.SceneConfig(size=SIZE, seed=300 + i))
    for a, b in zip(ep.frames, ep.frames[1:]):
        flows.append(vae.preprocess(opticflow.lucas_kanade(a, b), arch))
train_part, cal_part = trainer.split_calibration(flows, 0.2, seed=1)

print(f"training on {len(train_part)} flows, holding out {len(cal_part)}...")
weights, log = trainer.train(train_part, trainer.TrainConfig(epochs=8, seed=1), arch)
print(f"  loss: {log[0].mean_total:.1f} (epoch 0) -> {log[-1].mean_total:.2f} "
      f"(epoch {log[-1].epoch})")

cal = trainer.build_calibration(weights, cal_part)
print(f"calibration: {cal.size} scores in "
      f"[{cal.scores[0]:.3f}, {cal.scores[-1]:.3f}]")

spec = synthdata.AnomalySpec("velocity_reversal", onset=30, magnitude=1.0)
episode = synthdata.gen_ood_episode(
    synthdata.SceneConfig(size=SIZE, seed=555), spec)
cfg = conformal.DetectorConfig(window=10, log_threshold=3.0, consecutive=10)
events, curve = conformal.detect_episode(
    episode.frames, weights, cal, cfg, episode_id="demo-ood")

print(f"\nstreaming a velocity-reversal episode (true onset frame {spec.onset}):")
print(" frame   alpha       p     log M   exceed")
for pt in curve:
    if spec.onset - 3 <= pt.frame <= spec.onset + 14:
        print(f"  {pt.frame:4d}  {pt.alpha:7.3f}  {pt.p:6.3f}  {pt.log_m:8.2f}"
              f"  {pt.exceed_count:5d}")
for ev in events:
    print(f"\nDETECTED: run started at frame {ev.onset_frame}, "
          f"peak log M = {ev.peak_log_m:.1f} "
          f"(threshold {cfg.log_threshold}, persistence {cfg.consecutive})")
if not events:
    print("\nno detection (unexpected for this configuration)")

conformal.write_curve_csv(os.path.join(OUT_DIR, "curve.csv"), curve)
conformal.write_events_jsonl(os.path.join(OUT_DIR, "events.jsonl"), events)
print(f"\nwrote {OUT_DIR}/curve.csv and {OUT_DIR}/events.jsonl")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    frames = [pt.frame for pt in curve]
    fig, (ax1, ax2) = plt.subplots(2, 1, figsize=(8, 5), sharex=True)
    ax1.plot(frames, [pt.alpha for pt in curve])
    ax1.axvline(spec.onset, color="gray", ls=":", label="true onset")
    ax1.set_ylabel("nonconformity")
    ax1.legend()
    ax2.plot(frames, [pt.log_m for pt in curve], color="red")
    ax2.axhline(cfg.log_threshold, color="black", ls="--", label="threshold")
    ax2.axvline(spec.onset, color="gray", ls=":")
    ax2.set_xlabel("frame")
    ax2.set_ylabel("log M")
    ax2.legend()
    fig.tight_layout()
    out = os.path.join(OUT_DIR, "martingale_curve.png")
    fig.savefig(out, dpi=110)
    print(f"saved {out}")
except ImportError:
    print("matplotlib not installed; skipping the curve plot")
