import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import chisquare

from oodflow import gridio, opticflow, synthdata
from oodflow.synthdata import AnomalySpec, SceneConfig


# ---------------------------------------------------------------------------
# texture
# ---------------------------------------------------------------------------

def test_texture_deterministic():
    cfg = SceneConfig(seed=5)
    np.testing.assert_array_equal(synthdata.gen_texture(cfg),
                                  synthdata.gen_texture(cfg))


def test_texture_zero_waves_constant_half():
    tex = synthdata._texture(64, 0, np.random.default_rng(1))
    np.testing.assert_array_equal(tex, np.full((64, 64), 0.5, dtype=np.float32))


def test_texture_range_and_contrast():
    for seed in range(10):
        tex = synthdata.gen_texture(SceneConfig(seed=seed))
        assert tex.min() >= 0.0 and tex.max() <= 1.0
        assert tex.std() > 0.05


# ---------------------------------------------------------------------------
# ID episodes
# ---------------------------------------------------------------------------

def test_id_episode_integer_shift_exact():
    cfg = SceneConfig(velocity_jitter=0.0, seed=3, episode_length=10)
    ep = synthdata.gen_id_episode(cfg)
    for t in range(10):
        np.testing.assert_array_equal(ep.frames[t], np.roll(ep.frames[0], t, axis=1))


def test_id_episode_deterministic():
    cfg = SceneConfig(seed=4)
    a = synthdata.gen_id_episode(cfg)
    b = synthdata.gen_id_episode(cfg)
    assert len(a.frames) == cfg.episode_length
    for fa, fb in zip(a.frames, b.frames):
        np.testing.assert_array_equal(fa, fb)


def test_id_episode_flow_matches_base_velocity():
    cfg = SceneConfig(velocity_jitter=0.0, seed=8, episode_length=3)
    ep = synthdata.gen_id_episode(cfg)
    flow = opticflow.lucas_kanade(ep.frames[0], ep.frames[1])
    assert abs(flow[0].mean() - 1.0) <= 0.25
    assert abs(flow[1].mean()) <= 0.1


# ---------------------------------------------------------------------------
# OOD episodes
# ---------------------------------------------------------------------------

def _twin(cfg, spec):
    return synthdata.gen_id_episode(cfg), synthdata.gen_ood_episode(cfg, spec)


@pytest.mark.parametrize("spec", [
    AnomalySpec("velocity_reversal", 20, 1.0),
    AnomalySpec("speed_spike", 20, 1.5),
    AnomalySpec("intruder_cut", 20, 2.0, "ne"),
])
def test_ood_prefix_identical_to_id_twin(spec):
    cfg = SceneConfig(seed=21, episode_length=40)
    id_ep, ood_ep = _twin(cfg, spec)
    for t in range(spec.onset):
        np.testing.assert_array_equal(id_ep.frames[t], ood_ep.frames[t])
    assert ood_ep.label == "ood" and ood_ep.onset_frame == 20
    # the anomaly must actually change something at the onset
    assert any(not np.array_equal(id_ep.frames[t], ood_ep.frames[t])
               for t in range(spec.onset, cfg.episode_length))


def test_intruder_diff_confined_to_lane():
    cfg = SceneConfig(seed=22)
    spec = AnomalySpec("intruder_cut", 30, 3.0, "ne")
    id_ep, ood_ep = _twin(cfg, spec)
    side = cfg.size // 4
    lane_top = (cfg.size // 2 - side) // 2
    for t in range(30, 45):
        diff_rows = np.where(np.any(id_ep.frames[t] != ood_ep.frames[t], axis=1))[0]
        if diff_rows.size:
            assert diff_rows.min() >= lane_top
            assert diff_rows.max() < lane_top + side
    # intruder appears somewhere in the NE quadrant shortly after onset
    d = np.any(id_ep.frames[31] != ood_ep.frames[31], axis=0)
    assert np.where(d)[0].min() >= cfg.size // 2


def test_velocity_reversal_flow_negated():
    cfg = SceneConfig(seed=23, velocity_jitter=0.0)
    spec = AnomalySpec("velocity_reversal", 30, 1.0)
    ep = synthdata.gen_ood_episode(cfg, spec)
    flow = opticflow.lucas_kanade(ep.frames[35], ep.frames[36])
    assert abs(flow[0].mean() - (-1.0)) <= 0.25
    assert abs(flow[1].mean()) <= 0.1


@pytest.mark.parametrize("bad", [
    dict(kind="nope", onset=20, magnitude=1.0),
    dict(kind="speed_spike", onset=20, magnitude=0.0),
    dict(kind="intruder_cut", onset=20, magnitude=1.0),          # missing region
    dict(kind="intruder_cut", onset=20, magnitude=1.0, region="up"),
    dict(kind="velocity_reversal", onset=20, magnitude=1.0, region="ne"),
    dict(kind="speed_spike", onset=20, magnitude=np.nan),
    dict(kind="speed_spike", onset=20, magnitude=np.inf),
    dict(kind="speed_spike", onset=2.5, magnitude=1.0),
    dict(kind="speed_spike", onset=True, magnitude=1.0),   # a bool is no count
])
def test_anomaly_spec_validation(bad):
    with pytest.raises(ValueError):
        AnomalySpec(**bad)


@pytest.mark.parametrize("bad", [
    dict(velocity_jitter=np.nan),
    dict(velocity_jitter=np.inf),
    dict(size=32.5),
    dict(episode_length=10.5),
])
def test_scene_config_validation(bad):
    with pytest.raises(ValueError):
        SceneConfig(**bad)


def test_ood_onset_range_validation():
    cfg = SceneConfig(seed=1, episode_length=30)
    with pytest.raises(ValueError):
        synthdata.gen_ood_episode(cfg, AnomalySpec("speed_spike", 0, 1.0))
    with pytest.raises(ValueError):
        synthdata.gen_ood_episode(cfg, AnomalySpec("speed_spike", 25, 1.0))


def test_intruder_quadrant_must_be_reachable():
    # with rightward base flow the intruder enters from the east side
    cfg = SceneConfig(seed=1)
    with pytest.raises(ValueError, match="quadrant"):
        synthdata.gen_ood_episode(cfg, AnomalySpec("intruder_cut", 20, 1.0, "nw"))


# ---------------------------------------------------------------------------
# benchmark corpus
# ---------------------------------------------------------------------------

def _dir_digest(root: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(root.rglob("*")):
        if p.is_file():
            h.update(p.relative_to(root).as_posix().encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def test_gen_benchmark_layout_and_labels(tmp_path):
    cfg = SceneConfig(size=32, episode_length=46)
    manifests = synthdata.gen_benchmark(tmp_path, cfg, n_id=3, n_ood=3, seed=9)
    assert len(manifests) == 6
    assert sum(m.label == "ood" for m in manifests) == 3
    assert all(m.onset_frame is not None for m in manifests if m.label == "ood")
    index = json.loads((tmp_path / "index.json").read_text())
    assert len(index["episodes"]) == 6
    first = gridio.read_manifest(tmp_path / index["episodes"][0])
    assert len(first.frame_paths) == 46
    assert all(p.exists() for p in first.frame_paths)


def test_gen_benchmark_reproducible_bytes(tmp_path):
    cfg = SceneConfig(size=32, episode_length=46)
    synthdata.gen_benchmark(tmp_path / "a", cfg, 2, 2, seed=77)
    synthdata.gen_benchmark(tmp_path / "b", cfg, 2, 2, seed=77)
    assert _dir_digest(tmp_path / "a") == _dir_digest(tmp_path / "b")
    synthdata.gen_benchmark(tmp_path / "c", cfg, 2, 2, seed=78)
    assert _dir_digest(tmp_path / "a") != _dir_digest(tmp_path / "c")


def test_gen_benchmark_onsets_uniform(tmp_path):
    cfg = SceneConfig(size=16, episode_length=46)
    manifests = synthdata.gen_benchmark(tmp_path, cfg, n_id=1, n_ood=200, seed=4)
    onsets = [m.onset_frame for m in manifests if m.label == "ood"]
    lo, hi = synthdata.ONSET_RANGE
    assert min(onsets) >= lo and max(onsets) <= hi
    counts = np.bincount(np.array(onsets) - lo, minlength=hi - lo + 1)
    assert chisquare(counts).pvalue > 0.01


def test_gen_benchmark_validates_counts(tmp_path):
    with pytest.raises(ValueError):
        synthdata.gen_benchmark(tmp_path, SceneConfig(episode_length=46), 0, 1, seed=0)
