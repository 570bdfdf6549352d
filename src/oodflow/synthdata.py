"""Seeded synthetic motion episodes with ground-truth anomaly onsets.

A smooth periodic texture is advected along +x across a toroidal frame at
BASE_VELOCITY with per-frame jitter, as a forward-moving camera sees the
road; anomalies modify the motion from a chosen onset frame on.  Three
anomaly archetypes are supported:

  intruder_cut       a textured square enters the ne or se quadrant from the
                     east edge, moving against the background flow
  velocity_reversal  the global velocity is negated (and scaled)
  speed_spike        the global speed is multiplied by (1 + magnitude)

Everything is a pure function of its configuration and seed, so generated
corpora are byte-reproducible.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .gridio import EpisodeManifest, _check_int, write_manifest, write_pgm

ANOMALY_KINDS = ("intruder_cut", "velocity_reversal", "speed_spike")
BASE_VELOCITY = (1.0, 0.0)  # px/frame, (x, y)
TEXTURE_WAVES = 12
# an intruder moving against the +x flow enters from the east edge
INTRUDER_QUADRANTS = ("ne", "se")


@dataclass(frozen=True)
class SceneConfig:
    size: int = 64
    episode_length: int = 60
    velocity_jitter: float = 0.05
    seed: int = 0

    def __post_init__(self):
        # a fractional count fails in range(), and a non-finite jitter in
        # _sample_wrapped, far from their cause
        for name, low in (("episode_length", 2), ("size", 16)):
            _check_int(name, getattr(self, name), low)
        if not np.isfinite(self.velocity_jitter):
            raise ValueError(f"velocity_jitter must be finite, got {self.velocity_jitter}")


@dataclass(frozen=True)
class AnomalySpec:
    kind: str
    onset: int
    magnitude: float
    region: str | None = None  # quadrant, intruder_cut only

    def __post_init__(self):
        if self.kind not in ANOMALY_KINDS:
            raise ValueError(f"unknown anomaly kind {self.kind!r}")
        # a fractional onset cannot be written to a manifest, and the first
        # decision is made at frame 1
        _check_int("onset", self.onset, 1)
        if not (np.isfinite(self.magnitude) and self.magnitude > 0):
            raise ValueError(f"magnitude must be finite and positive, got {self.magnitude}")
        if self.kind == "intruder_cut":
            if self.region not in INTRUDER_QUADRANTS:
                raise ValueError(f"intruder_cut requires a quadrant in "
                                 f"{INTRUDER_QUADRANTS}, got {self.region!r}")
        elif self.region is not None:
            raise ValueError(f"region is only valid for intruder_cut")


@dataclass
class Episode:
    """In-memory episode: ordered (H, W) float32 frames plus ground truth."""

    id: str
    frames: list[np.ndarray]
    label: str
    onset_frame: int | None = None


def _texture(size: int, waves: int, rng: np.random.Generator) -> np.ndarray:
    """Sum of seeded random sinusoids, normalized to [0, 1].

    Wave vectors are integer cycle counts so the field is exactly periodic
    on the torus (wrap advection introduces no seam); wavelengths are kept
    >= ~10 px so single-scale flow estimation stays accurate.
    """
    max_cycles = max(2, size // 10)
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64)
    f = np.zeros((size, size), dtype=np.float64)
    for _ in range(waves):
        while True:
            n = rng.integers(-max_cycles, max_cycles + 1, size=2)
            if n[0] != 0 or n[1] != 0:
                break
        phase = rng.uniform(0.0, 2.0 * np.pi)
        f += np.sin(2.0 * np.pi * (n[0] * xx + n[1] * yy) / size + phase)
    span = f.max() - f.min()
    if span == 0.0:
        return np.full((size, size), 0.5, dtype=np.float32)
    return ((f - f.min()) / span).astype(np.float32)


def gen_texture(cfg: SceneConfig) -> np.ndarray:
    """Seeded smooth texture; the first draw of every episode generator."""
    return _texture(cfg.size, TEXTURE_WAVES, np.random.default_rng(cfg.seed))


def _sample_wrapped(tex: np.ndarray, dx: float, dy: float) -> np.ndarray:
    """Bilinear sample of the texture shifted by (dx, dy), toroidal wrap."""
    size = tex.shape[0]
    src = tex.astype(np.float64)
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64)
    xs = (xx - dx) % size
    ys = (yy - dy) % size
    x0 = np.floor(xs).astype(np.intp)
    y0 = np.floor(ys).astype(np.intp)
    wx = xs - x0
    wy = ys - y0
    x1 = (x0 + 1) % size
    y1 = (y0 + 1) % size
    out = ((1 - wx) * (1 - wy) * src[y0, x0] + wx * (1 - wy) * src[y0, x1]
           + (1 - wx) * wy * src[y1, x0] + wx * wy * src[y1, x1])
    return out.astype(np.float32)


def _advect(tex: np.ndarray, velocities: np.ndarray) -> list[np.ndarray]:
    """Frames produced by integrating per-step velocities from frame 0 = tex."""
    frames = [tex.copy()]
    disp = np.zeros(2, dtype=np.float64)
    for v in velocities:
        disp += v
        frames.append(_sample_wrapped(tex, disp[0], disp[1]))
    return frames


def _step_velocities(cfg: SceneConfig, rng: np.random.Generator) -> np.ndarray:
    """Per-step jittered velocities; one draw block shared by ID/OOD twins."""
    steps = cfg.episode_length - 1
    jitter = rng.standard_normal((steps, 2)) * cfg.velocity_jitter
    return np.asarray(BASE_VELOCITY, dtype=np.float64)[None, :] + jitter


def gen_id_episode(cfg: SceneConfig, episode_id: str = "id") -> Episode:
    """Texture advected at the base velocity plus jitter; label ID."""
    rng = np.random.default_rng(cfg.seed)
    tex = _texture(cfg.size, TEXTURE_WAVES, rng)
    vel = _step_velocities(cfg, rng)
    return Episode(id=episode_id, frames=_advect(tex, vel), label="id")


def _stamp_intruder(frames: list[np.ndarray], cfg: SceneConfig,
                    spec: AnomalySpec, rng: np.random.Generator) -> None:
    """Overwrite a textured square moving in from the east edge, frames >= onset.

    It travels along its quadrant's lane at ``magnitude`` times the base speed.
    """
    size = cfg.size
    side = size // 4
    itex = _texture(side, TEXTURE_WAVES // 2, rng)
    lane0 = (size // 2 - side) // 2
    yi = lane0 if spec.region == "ne" else size // 2 + lane0
    speed = spec.magnitude * BASE_VELOCITY[0]
    for t in range(spec.onset, cfg.episode_length):
        xi = int(round(size - speed * (t - spec.onset + 1)))
        xs, xe = max(xi, 0), min(xi + side, size)
        if xe > xs:
            frames[t][yi:yi + side, xs:xe] = itex[:, xs - xi:xe - xi]


def gen_ood_episode(cfg: SceneConfig, spec: AnomalySpec,
                    episode_id: str = "ood") -> Episode:
    """ID dynamics until the onset frame, then the specified anomaly.

    Frames before the onset are bit-identical to gen_id_episode with the
    same config (the generators share their draw order).
    """
    if not 0 < spec.onset < cfg.episode_length - 5:
        raise ValueError(
            f"onset {spec.onset} must satisfy 0 < onset < {cfg.episode_length - 5}"
        )
    rng = np.random.default_rng(cfg.seed)
    tex = _texture(cfg.size, TEXTURE_WAVES, rng)
    vel = _step_velocities(cfg, rng)
    base = np.asarray(BASE_VELOCITY, dtype=np.float64)
    jitter = vel - base[None, :]
    # step index t produces frame t+1; frames >= onset are anomalous
    post = np.arange(1, cfg.episode_length)[:, None] >= spec.onset
    if spec.kind == "velocity_reversal":
        vel = np.where(post, -spec.magnitude * base[None, :] + jitter, vel)
    elif spec.kind == "speed_spike":
        vel = np.where(post, (1.0 + spec.magnitude) * base[None, :] + jitter, vel)
    frames = _advect(tex, vel)
    if spec.kind == "intruder_cut":
        _stamp_intruder(frames, cfg, spec, rng)
    return Episode(id=episode_id, frames=frames, label="ood",
                   onset_frame=spec.onset)


# ---------------------------------------------------------------------------
# Benchmark corpus generation
# ---------------------------------------------------------------------------

ONSET_RANGE = (15, 40)  # inclusive; leaves room for window fill and persistence

_KIND_DEFAULTS = {
    "intruder_cut": 1.5,
    "velocity_reversal": 1.0,
    "speed_spike": 1.5,
}


def gen_benchmark(out_dir, cfg: SceneConfig, n_id: int, n_ood: int,
                  seed: int) -> list[EpisodeManifest]:
    """Write a labeled episode corpus of PGM frames plus JSON manifests.

    Layout: <out_dir>/<episode_id>/frame_%04d.pgm and manifest.json per
    episode, plus an index.json at the root listing every manifest.
    Anomaly kinds are cycled, intruders alternate between the ne and se
    quadrants, and onsets are uniform on [15, 40].  Byte-identical for a
    fixed seed.
    """
    if n_id < 1 or n_ood < 1:
        raise ValueError("n_id and n_ood must be >= 1")
    if cfg.episode_length <= ONSET_RANGE[1] + 5:
        raise ValueError(
            f"episode_length must exceed {ONSET_RANGE[1] + 5} to fit the "
            f"onset range {ONSET_RANGE}"
        )
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    manifests: list[EpisodeManifest] = []

    def write_episode(episode: Episode) -> EpisodeManifest:
        ep_dir = out_dir / episode.id
        ep_dir.mkdir(exist_ok=True)
        paths = []
        for i, frame in enumerate(episode.frames):
            p = ep_dir / f"frame_{i:04d}.pgm"
            write_pgm(p, frame)
            paths.append(p)
        manifest = EpisodeManifest(id=episode.id, frame_paths=tuple(paths),
                                   label=episode.label,
                                   onset_frame=episode.onset_frame)
        write_manifest(ep_dir / "manifest.json", manifest)
        return manifest

    for i in range(n_id):
        ep_cfg = replace(cfg, seed=int(rng.integers(0, 2**31)))
        manifests.append(write_episode(gen_id_episode(ep_cfg, f"id_{i:04d}")))

    for i in range(n_ood):
        ep_cfg = replace(cfg, seed=int(rng.integers(0, 2**31)))
        onset = int(rng.integers(ONSET_RANGE[0], ONSET_RANGE[1] + 1))
        kind = ANOMALY_KINDS[i % len(ANOMALY_KINDS)]
        region = INTRUDER_QUADRANTS[i % 2] if kind == "intruder_cut" else None
        spec = AnomalySpec(kind=kind, onset=onset,
                           magnitude=_KIND_DEFAULTS[kind], region=region)
        manifests.append(write_episode(gen_ood_episode(ep_cfg, spec, f"ood_{i:04d}")))

    index = {"episodes": [f"{m.id}/manifest.json" for m in manifests]}
    with open(out_dir / "index.json", "w", encoding="utf-8") as fh:
        json.dump(index, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifests
