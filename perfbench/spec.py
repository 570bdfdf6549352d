"""Shared constants and paths of the oodflow benchmark.

The benchmark lives in ``perfbench/`` and measures the package under
``src/oodflow`` of the same checkout.  Everything it writes goes under
``perfbench/.work/`` (ignored by git): the fixture cache, per-run inputs,
input digests and trace files.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
PACKAGE = SRC / "oodflow"
WORK = BENCH_DIR / ".work"

WORKLOADS = ("stream256", "offline64", "train64")

# Frames per episode, as in the README's corpora.
EPISODE_LENGTH = 60

# Fixture: weights (and, for stream256, calibration) trained once per checkout
# and frame size from fixed seeds.  They do not depend on the workload seed:
# a training run per seed would cost about a minute per benchmark run.
FIXTURE_CORPUS_SEED = 101
FIXTURE_N_ID = 8
FIXTURE_N_OOD = 1
FIXTURE_EPOCHS = 8
TRAIN_SEED = 7  # README: train/calibrate --seed 7
CAL_FRACTION = 0.2

# stream256: in-memory episodes replayed through one closed-loop stream.
STREAM_SIZE = 256
STREAM_N_ID = 3
STREAM_KINDS = ("intruder_cut", "velocity_reversal", "speed_spike")
KIND_MAGNITUDE = {"intruder_cut": 1.5, "velocity_reversal": 1.0,
                  "speed_spike": 1.5}
ONSET_RANGE = (15, 40)

# offline64: the README's calibrate and eval --grid jobs.
OFFLINE_SIZE = 64
OFFLINE_CAL_EPISODES = (8, 1)     # (ID, OOD)
OFFLINE_EVAL_EPISODES = (30, 30)
GRID = (1, 2, 3, 4, 5, 6, 8, 10, 12)

# train64: trainer.train at batch 32 on a seeded 64 px corpus.
TRAIN_SIZE = 64
TRAIN_EPISODES = (8, 1)
TRAIN_EPOCHS_PER_CALL = 2
TRAIN_BATCH = 32


def code_hash() -> str:
    """Digest of the package sources and of the generator.

    Fixtures and recorded input digests are keyed by it, so a change to the
    program or to the generator never reuses stale files.
    """
    h = hashlib.sha256()
    files = sorted(PACKAGE.glob("*.py")) + [BENCH_DIR / "gen.py",
                                             BENCH_DIR / "spec.py"]
    for path in files:
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def rng(seed: int) -> np.random.Generator:
    """The generator for a workload seed; any integer is accepted."""
    return np.random.default_rng(seed % 2**63)


def tree_digest(directory: Path) -> str:
    """sha256 over every file under ``directory`` (relative names and bytes)."""
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(directory)).encode())
        h.update(b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def fixture_dir(size: int) -> Path:
    return WORK / "fixtures" / code_hash() / f"s{size}"
