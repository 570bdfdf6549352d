#!/usr/bin/env python3
"""Synthetic episode generation with ground-truth anomaly onsets.

Builds an in-distribution episode and its anomaly-injected twins, shows
where they start to differ, and writes a small labeled corpus (PGM frames
plus JSON manifests) to disk.
"""

import os

import numpy as np

from oodflow import synthdata

OUT_DIR = os.path.join(os.path.dirname(__file__), "demo_out")
os.makedirs(OUT_DIR, exist_ok=True)

scene = synthdata.SceneConfig(size=64, episode_length=60, seed=12)
id_episode = synthdata.gen_id_episode(scene)
print(f"ID episode: {len(id_episode.frames)} frames, "
      f"base velocity {synthdata.BASE_VELOCITY} px/frame + jitter")

for kind, spec in [
    ("velocity_reversal", synthdata.AnomalySpec("velocity_reversal", 30, 1.0)),
    ("speed_spike", synthdata.AnomalySpec("speed_spike", 30, 1.5)),
    ("intruder_cut", synthdata.AnomalySpec("intruder_cut", 30, 1.5, "ne")),
]:
    ood = synthdata.gen_ood_episode(scene, spec)
    first_diff = next(t for t in range(60)
                      if not np.array_equal(id_episode.frames[t], ood.frames[t]))
    changed = np.mean([
        not np.array_equal(id_episode.frames[t], ood.frames[t])
        for t in range(30, 60)])
    print(f"  {kind:18s} onset {spec.onset}: first differing frame {first_diff}, "
          f"{changed:.0%} of post-onset frames altered")

corpus = os.path.join(OUT_DIR, "mini_corpus")
manifests = synthdata.gen_benchmark(corpus, scene, n_id=2, n_ood=3, seed=99)
print(f"\nwrote {len(manifests)} episodes under {corpus}:")
for m in manifests:
    onset = f", onset {m.onset_frame}" if m.onset_frame is not None else ""
    print(f"  {m.id}: label={m.label}{onset}")
