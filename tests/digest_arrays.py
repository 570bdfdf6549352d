"""Print the sha256 of the arrays that training and scoring produce.

    PYTHONPATH=src python tests/digest_arrays.py > digests.txt

Run it in two checkouts and diff the outputs: equal lines mean the two
compute the same bits.  It covers the loss terms and all gradients of one
forward and backward pass at 32 px (N=7) and 64 px (N=32), a 2-epoch
training run's final weights and CSV log, ``encode_batch``,
``activation_stats``, 256 px ``localization.overlay`` maps, the calibration
scores and the ``detect_episode`` events and curves of an ID and an OOD
episode on the trained weights, and the Lucas-Kanade flows of one 256 px
episode, streamed in order, pair by pair in reverse and from
``flow_sequence``, with their ``vae.preprocess`` inputs.
The inputs are synthetic.  pytest does not collect this file.
"""

from __future__ import annotations

import hashlib
import tempfile
from pathlib import Path

import numpy as np

from oodflow import conformal, localization, opticflow, synthdata, trainer, vae


def _sha(arr) -> str:
    arr = np.ascontiguousarray(arr)
    return hashlib.sha256(str(arr.dtype).encode() + str(arr.shape).encode()
                          + arr.tobytes()).hexdigest()


def _flows(size: int, count: int, seed: int) -> np.ndarray:
    arch = vae.VaeArchitecture(input_size=size)
    ep = synthdata.gen_id_episode(synthdata.SceneConfig(size=size, seed=seed))
    flows = [vae.preprocess(opticflow.lucas_kanade(a, b), arch)
             for a, b in zip(ep.frames, ep.frames[1:])]
    return np.stack(flows[:count]).astype(np.float64)


def _step(tag: str, size: int, n: int, seed: int) -> None:
    arch = vae.VaeArchitecture(input_size=size)
    rng = np.random.default_rng(seed)
    params = vae.init_params(arch, rng)
    x = _flows(size, n, seed)
    noise = rng.standard_normal((n, arch.latent_dim))
    total, recon, kl, cache = trainer._forward(params, arch, x, noise, 1.0)
    grads = trainer._backward(params, cache, 1.0)
    for name, arr in (("total", total), ("recon", recon), ("kl", kl)):
        print(f"{tag} loss.{name} {_sha(arr)}")
    for name in sorted(grads):
        print(f"{tag} grad.{name} {_sha(grads[name])}")


def _training(size: int, seed: int) -> None:
    arch = vae.VaeArchitecture(input_size=size)
    flows = list(_flows(size, 59, seed))
    weights, log = trainer.train(flows[:48], trainer.TrainConfig(epochs=2, seed=seed), arch)
    for name in sorted(weights.tensors):
        print(f"train{size} weight.{name} {_sha(weights.tensors[name])}")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "log.csv"
        trainer.write_training_log(path, log)
        print(f"train{size} log.csv {hashlib.sha256(path.read_bytes()).hexdigest()}")
    held_out = flows[48:]
    for name, arr in zip(("mu", "logvar", "acts"),
                         vae.encode_batch(weights, np.stack(held_out))):
        print(f"train{size} encode_batch.{name} {_sha(arr)}")
    stats = localization.activation_stats(weights, held_out)
    print(f"train{size} activation_stats.mean {_sha(stats.mean)}")
    print(f"train{size} activation_stats.std {_sha(stats.std)}")
    for i, acts in enumerate(vae.encode_batch(weights, np.stack(held_out[:3]))[2]):
        print(f"train{size} overlay256.{i} {_sha(localization.overlay(acts, stats, 256))}")
    cal = trainer.build_calibration(weights, held_out)
    print(f"train{size} build_calibration {_sha(cal.scores)}")
    scene = synthdata.SceneConfig(size=size, seed=seed + 100)
    anomaly = synthdata.AnomalySpec("velocity_reversal", 30, 1.0)
    for name, ep in (("id", synthdata.gen_id_episode(scene)),
                     ("ood", synthdata.gen_ood_episode(scene, anomaly))):
        events, curve = conformal.detect_episode(ep.frames, weights, cal,
                                                 conformal.DetectorConfig(), name)
        text = repr((events, curve)).encode()
        print(f"train{size} detect_episode.{name} {hashlib.sha256(text).hexdigest()}")


def _stream(size: int, seed: int) -> None:
    """In order, each pair reuses its first frame's blur; reversed, none does."""
    arch = vae.VaeArchitecture(input_size=64)
    frames = synthdata.gen_id_episode(synthdata.SceneConfig(size=size, seed=seed)).frames
    pairs = list(enumerate(zip(frames, frames[1:])))
    for order, seq in (("in_order", pairs), ("reversed", pairs[::-1])):
        for i, (a, b) in seq:
            flow = opticflow.lucas_kanade(a, b)
            print(f"stream{size} {order}.flow.{i} {_sha(flow)}")
            print(f"stream{size} {order}.preprocess.{i} {_sha(vae.preprocess(flow, arch))}")
    for i, flow in enumerate(opticflow.flow_sequence(frames, opticflow.FlowParams())):
        print(f"stream{size} flow_sequence.flow.{i} {_sha(flow)}")


def main() -> None:
    _step("step32", 32, 7, 11)
    _step("step64", 64, 32, 12)
    _training(32, 13)
    _training(64, 14)
    _stream(256, 15)


if __name__ == "__main__":
    main()
