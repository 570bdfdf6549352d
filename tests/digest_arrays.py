"""Print the sha256 of the arrays that training and scoring produce.

    PYTHONPATH=src python tests/digest_arrays.py > digests.txt

Run it in two checkouts and diff the outputs: equal lines mean the two
compute the same bits.  It covers the loss terms and all gradients of one
forward and backward pass at 32 px (N=7) and 64 px (N=32), in float64 (as
the gradient check runs the network) and again from float32 copies of the
same parameters, flows and noise (as ``train`` runs it), a 2-epoch
training run's final weights and CSV log from float32 flows, a digest of
the same run's weights when its flows are passed as float64, which
``train`` copies into float32 batch by batch, ``score_batch``'s mu, logvar
and activations (labelled ``encode_batch``), ``activation_stats`` and the
calibration scores on 11 held-out flows and again on 94 (one full
``STATS_CHUNK`` block and a partial one, and not a multiple of
``SCORE_CHUNK``), 256 px ``localization.overlay`` maps, the
``detect_episode`` events and curves of an ID and an OOD episode on the
trained weights and the ``evaluate`` and ``grid_search`` results of a
4-episode corpus (scored on worker processes) at thresholds that raise no
alarm and at thresholds that raise some, and the Lucas-Kanade flows
of one 256 px episode, streamed in order, pair by pair in reverse and from
``flow_sequence``, with their ``vae.preprocess`` inputs.
The inputs are synthetic.  pytest does not collect this file.
"""

from __future__ import annotations

import hashlib
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

from oodflow import conformal, harness, localization, opticflow, synthdata, trainer, vae

LOW_THRESHOLDS = (-2.2, -2.0, -1.7, -1.0)


def _sha(arr) -> str:
    arr = np.ascontiguousarray(arr)
    return hashlib.sha256(str(arr.dtype).encode() + str(arr.shape).encode()
                          + arr.tobytes()).hexdigest()


def _flows(size: int, count: int, seed: int) -> np.ndarray:
    """The first ``count`` float32 flows of a seeded ID episode, preprocessed."""
    arch = vae.VaeArchitecture(input_size=size)
    ep = synthdata.gen_id_episode(synthdata.SceneConfig(size=size, seed=seed))
    flows = [vae.preprocess(opticflow.lucas_kanade(a, b), arch)
             for a, b in zip(ep.frames, ep.frames[1:])]
    return np.stack(flows[:count])


def _step(tag: str, size: int, n: int, seed: int) -> None:
    arch = vae.VaeArchitecture(input_size=size)
    rng = np.random.default_rng(seed)
    params = vae.init_params(arch, rng)
    x = _flows(size, n, seed).astype(np.float64)
    noise = rng.standard_normal((n, arch.latent_dim))
    for dtag, dtype in ((tag, np.float64), (f"{tag}_float32", np.float32)):
        typed = {k: v.astype(dtype) for k, v in params.items()}
        total, recon, kl, cache = trainer._forward(typed, arch, x.astype(dtype),
                                                   noise.astype(dtype), 1.0)
        grads = trainer._backward(typed, cache, 1.0)
        for name, arr in (("total", total), ("recon", recon), ("kl", kl)):
            print(f"{dtag} loss.{name} {_sha(arr)}")
        for name in sorted(grads):
            print(f"{dtag} grad.{name} {_sha(grads[name])}")


def _training(size: int, seed: int) -> None:
    arch = vae.VaeArchitecture(input_size=size)
    flows = list(_flows(size, 59, seed))
    weights, log = trainer.train(flows[:48], trainer.TrainConfig(epochs=2, seed=seed), arch)
    for name in sorted(weights.tensors):
        print(f"train{size} weight.{name} {_sha(weights.tensors[name])}")
    # the same run from the flows as float64, copied into float32 batch by
    # batch inside train: one digest over every weight
    weights64, _ = trainer.train([f.astype(np.float64) for f in flows[:48]],
                                 trainer.TrainConfig(epochs=2, seed=seed), arch)
    digest = hashlib.sha256("".join(_sha(weights64.tensors[name])
                                    for name in sorted(weights64.tensors)).encode())
    print(f"train{size} weights_from_float64 {digest.hexdigest()}")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "log.csv"
        trainer.write_training_log(path, log)
        print(f"train{size} log.csv {hashlib.sha256(path.read_bytes()).hexdigest()}")
    held_out = flows[48:]
    for name, arr in zip(("mu", "logvar", "acts"),
                         vae.score_batch(weights, np.stack(held_out))[:3]):
        print(f"train{size} encode_batch.{name} {_sha(arr)}")
    stats = localization.activation_stats(weights, held_out)
    print(f"train{size} activation_stats.mean {_sha(stats.mean)}")
    print(f"train{size} activation_stats.std {_sha(stats.std)}")
    for i, acts in enumerate(vae.score_batch(weights, np.stack(held_out[:3]))[2]):
        print(f"train{size} overlay256.{i} {_sha(localization.overlay(acts, stats, 256))}")
    cal = trainer.build_calibration(weights, held_out)
    print(f"train{size} build_calibration {_sha(cal.scores)}")
    # one full STATS_CHUNK block and a partial one; 94 rows are not a
    # multiple of SCORE_CHUNK either
    many = list(_flows(size, 59, seed + 300)) + list(_flows(size, 35, seed + 301))
    for name, arr in zip(("mu", "logvar", "acts"),
                         vae.score_batch(weights, np.stack(many))[:3]):
        print(f"train{size} encode_batch{len(many)}.{name} {_sha(arr)}")
    stats_many = localization.activation_stats(weights, many)
    print(f"train{size} activation_stats{len(many)}.mean {_sha(stats_many.mean)}")
    print(f"train{size} activation_stats{len(many)}.std {_sha(stats_many.std)}")
    print(f"train{size} build_calibration{len(many)} "
          f"{_sha(trainer.build_calibration(weights, many).scores)}")
    scene = synthdata.SceneConfig(size=size, seed=seed + 100)
    anomaly = synthdata.AnomalySpec("velocity_reversal", 30, 1.0)
    for name, ep in (("id", synthdata.gen_id_episode(scene)),
                     ("ood", synthdata.gen_ood_episode(scene, anomaly))):
        events, curve = conformal.detect_episode(ep.frames, weights, cal,
                                                 conformal.DetectorConfig(), name)
        text = repr((events, curve)).encode()
        print(f"train{size} detect_episode.{name} {hashlib.sha256(text).hexdigest()}")
    cfg = conformal.DetectorConfig()
    with tempfile.TemporaryDirectory() as tmp:
        manifests = synthdata.gen_benchmark(Path(tmp), scene, n_id=2, n_ood=2,
                                            seed=seed + 200)
        text = repr(harness.evaluate(manifests, weights, cal, cfg)).encode()
        print(f"train{size} evaluate {hashlib.sha256(text).hexdigest()}")
        text = repr(harness.grid_search(manifests, weights, cal, (1.0, 3.0, 8.0),
                                        cfg)).encode()
        print(f"train{size} grid_search {hashlib.sha256(text).hexdigest()}")
        # log M never exceeds 1 here, so the thresholds above raise nothing.
        # Each episode's best run of 10 frames stays above a level between
        # -2.27 and -1.56 nats, so at 64 px these raise 3, 2, 1 and 0 alarms,
        # and -1.0 still counts exceedances
        for tau in LOW_THRESHOLDS:
            text = repr(harness.evaluate(manifests, weights, cal,
                                         replace(cfg, log_threshold=tau))).encode()
            print(f"train{size} evaluate@{tau} {hashlib.sha256(text).hexdigest()}")
        text = repr(harness.grid_search(manifests, weights, cal, LOW_THRESHOLDS,
                                        cfg)).encode()
        print(f"train{size} grid_search{LOW_THRESHOLDS} {hashlib.sha256(text).hexdigest()}")


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
