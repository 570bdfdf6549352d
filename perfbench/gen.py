"""Input generator of the oodflow benchmark, run as its own process.

    python3 perfbench/gen.py --workload stream256 --seed 3 --out DIR

Builds the fixtures if this checkout has none yet (weights and calibration
per frame size, trained from fixed seeds; see ``spec.py``), then writes the
workload's inputs for ``--seed`` into DIR and an ``inputs.json`` naming the
fixture and the inputs' digest.  The digest of every (workload, seed) is
recorded under ``perfbench/.work/digests``; generating a seed again must give
the same bytes, otherwise the generator exits with code 1.

It runs apart from the measured process so that the measured set-up time and
peak memory are the program's alone.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

import spec

sys.path.insert(0, str(spec.SRC))

import numpy as np  # noqa: E402

from oodflow import (harness, localization, opticflow, synthdata,  # noqa: E402
                     trainer, vae)


def build_fixture(size: int) -> Path:
    """Train fixture weights and calibration on a fixed corpus of ``size`` px.

    The network input stays 64 px: ``vae.preprocess`` resizes each flow.
    """
    target = spec.fixture_dir(size)
    if (target / "fixture.json").exists():
        return target
    t0 = time.perf_counter()
    tmp = target.with_name(f"{target.name}.tmp{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    scene = synthdata.SceneConfig(size=size, episode_length=spec.EPISODE_LENGTH)
    manifests = synthdata.gen_benchmark(tmp / "corpus", scene, spec.FIXTURE_N_ID,
                                        spec.FIXTURE_N_OOD, spec.FIXTURE_CORPUS_SEED)
    arch = vae.VaeArchitecture(input_size=64)
    flows = harness.corpus_flow_dataset(manifests, opticflow.FlowParams(), arch)
    train_part, cal_part = trainer.split_calibration(flows, spec.CAL_FRACTION,
                                                     spec.TRAIN_SEED)
    weights, log = trainer.train(
        train_part, trainer.TrainConfig(epochs=spec.FIXTURE_EPOCHS,
                                        seed=spec.TRAIN_SEED), arch)
    cal = trainer.build_calibration(weights, cal_part)
    stats = localization.activation_stats(weights, cal_part)
    shutil.rmtree(tmp / "corpus")
    vae.save_weights(tmp / "weights.bin", weights)
    harness.save_calibration(tmp / "cal.json", cal, stats)
    doc = {"frame_size": size, "epochs": spec.FIXTURE_EPOCHS,
           "losses": [e.mean_total for e in log],
           "digest": spec.tree_digest(tmp),
           "build_s": time.perf_counter() - t0}
    (tmp / "fixture.json").write_text(json.dumps(doc, indent=2) + "\n")
    try:
        tmp.rename(target)
    except OSError:  # another process finished the same fixture first
        shutil.rmtree(tmp, ignore_errors=True)
    print(f"gen: fixture s{size} built in {doc['build_s']:.1f} s", file=sys.stderr)
    return target


def _quantize(frame) -> np.ndarray:
    """8-bit frame as a camera (or write_pgm) delivers it."""
    return np.rint(np.clip(frame, 0.0, 1.0) * 255.0).astype(np.uint8)


def gen_stream(out: Path, seed: int) -> None:
    """A shuffled mix of ID episodes and one OOD episode per anomaly kind."""
    rng = spec.rng(seed)
    scene = dict(size=spec.STREAM_SIZE, episode_length=spec.EPISODE_LENGTH)
    episodes = []
    for i in range(spec.STREAM_N_ID):
        cfg = synthdata.SceneConfig(seed=int(rng.integers(0, 2**31)), **scene)
        episodes.append(synthdata.gen_id_episode(cfg, f"id_{i}"))
    for kind in spec.STREAM_KINDS:
        cfg = synthdata.SceneConfig(seed=int(rng.integers(0, 2**31)), **scene)
        onset = int(rng.integers(spec.ONSET_RANGE[0], spec.ONSET_RANGE[1] + 1))
        region = ("ne", "se")[int(rng.integers(0, 2))] if kind == "intruder_cut" else None
        anomaly = synthdata.AnomalySpec(kind=kind, onset=onset,
                                        magnitude=spec.KIND_MAGNITUDE[kind],
                                        region=region)
        episodes.append(synthdata.gen_ood_episode(cfg, anomaly, f"ood_{kind}"))
    order = rng.permutation(len(episodes))
    episodes = [episodes[i] for i in order]
    frames = np.stack([np.stack([_quantize(f) for f in ep.frames]) for ep in episodes])
    np.save(out / "frames.npy", frames)
    meta = [{"id": ep.id, "label": ep.label, "onset_frame": ep.onset_frame}
            for ep in episodes]
    (out / "episodes.json").write_text(json.dumps(meta, indent=2) + "\n")


def _corpus(path: Path, size: int, counts: tuple[int, int], seed: int) -> None:
    scene = synthdata.SceneConfig(size=size, episode_length=spec.EPISODE_LENGTH)
    synthdata.gen_benchmark(path, scene, counts[0], counts[1], seed)


def gen_offline(out: Path, seed: int) -> None:
    rng = spec.rng(seed)
    _corpus(out / "cal_corpus", spec.OFFLINE_SIZE, spec.OFFLINE_CAL_EPISODES,
            int(rng.integers(0, 2**31)))
    _corpus(out / "eval_corpus", spec.OFFLINE_SIZE, spec.OFFLINE_EVAL_EPISODES,
            int(rng.integers(0, 2**31)))


def gen_train(out: Path, seed: int) -> None:
    rng = spec.rng(seed)
    _corpus(out / "train_corpus", spec.TRAIN_SIZE, spec.TRAIN_EPISODES,
            int(rng.integers(0, 2**31)))


GENERATORS = {"stream256": gen_stream, "offline64": gen_offline,
              "train64": gen_train}
FIXTURE_SIZE = {"stream256": spec.STREAM_SIZE, "offline64": spec.OFFLINE_SIZE,
                "train64": None}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=spec.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    # every fixture is built on the first run in a checkout, whichever
    # workload comes first, so later first runs stay short
    fixtures = {size: build_fixture(size)
                for size in (spec.STREAM_SIZE, spec.OFFLINE_SIZE)}

    t0 = time.perf_counter()
    args.out.mkdir(parents=True, exist_ok=False)
    GENERATORS[args.workload](args.out, args.seed)
    digest = spec.tree_digest(args.out)

    record = spec.WORK / "digests" / spec.code_hash() / f"{args.workload}-{args.seed}.json"
    if record.exists():
        known = json.loads(record.read_text())["digest"]
        if known != digest:
            print(f"gen: seed {args.seed} of {args.workload} gave digest {digest}, "
                  f"earlier {known}: the generator is not reproducible",
                  file=sys.stderr)
            return 1
    else:
        record.parent.mkdir(parents=True, exist_ok=True)
        record.write_text(json.dumps({"digest": digest}) + "\n")

    size = FIXTURE_SIZE[args.workload]
    fixture = fixtures[size] if size else None
    doc = {"workload": args.workload, "seed": args.seed, "digest": digest,
           "fixture": str(fixture) if fixture else None,
           "fixture_digest": (json.loads((fixture / "fixture.json").read_text())["digest"]
                              if fixture else None),
           "gen_s": time.perf_counter() - t0}
    (args.out / "inputs.json").write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
