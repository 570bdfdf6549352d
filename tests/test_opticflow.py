import numpy as np
import pytest

from oodflow import opticflow, synthdata
from oodflow.opticflow import FlowParams


NO_SMOOTH = FlowParams(presmooth_sigma=0.0)


def _shifted_pair(seed, size=64):
    """A seeded texture and its bilinear-wrapped translation by (dx, dy)."""
    rng = np.random.default_rng(seed)
    cfg = synthdata.SceneConfig(size=size, episode_length=2, seed=seed)
    tex = synthdata.gen_texture(cfg)
    angle = rng.uniform(0, 2 * np.pi)
    speed = rng.uniform(0, 2.0)
    dx, dy = speed * np.cos(angle), speed * np.sin(angle)
    shifted = synthdata._sample_wrapped(tex, dx, dy)
    return tex, shifted, dx, dy


# ---------------------------------------------------------------------------
# derivatives (the first half of lucas_kanade)
# ---------------------------------------------------------------------------

def _derivatives(a, b):
    """(ix, iy, it) of an unsmoothed frame pair, as lucas_kanade computes them."""
    return opticflow._derivatives(*opticflow._prepare_pair(a, b, NO_SMOOTH))


def test_gradients_constant_frames_all_zero():
    f = np.full((16, 16), 0.5, dtype=np.float32)
    ix, iy, it = _derivatives(f, f)
    assert not ix.any() and not iy.any() and not it.any()


def test_gradients_ramp_analytic():
    w = 32
    frame = (np.arange(w, dtype=np.float64) / w)[None, :].repeat(w, axis=0)
    ix, _, it = _derivatives(frame, frame)
    np.testing.assert_allclose(ix[:, 1:-1], 1.0 / w, rtol=1e-5)
    assert not it.any()
    # replicate padding halves the border derivative
    np.testing.assert_allclose(ix[:, 0], 0.5 / w, rtol=1e-5)


def test_gradients_temporal_shift():
    rng = np.random.default_rng(0)
    a = rng.uniform(size=(12, 12))
    b = a + 0.1
    ix, iy, it = _derivatives(a, b)
    np.testing.assert_allclose(it, 0.1, atol=1e-6)
    ix_a, iy_a, _ = _derivatives(a, a)
    np.testing.assert_allclose(ix, ix_a, atol=1e-6)
    np.testing.assert_allclose(iy, iy_a, atol=1e-6)


def test_gradients_brightness_shift_insensitivity():
    rng = np.random.default_rng(1)
    a = rng.uniform(size=(16, 16))
    b = rng.uniform(size=(16, 16))
    g0 = _derivatives(a, b)
    g1 = _derivatives(a + 0.3, b + 0.3)
    for d1, d0 in zip(g1, g0):
        np.testing.assert_allclose(d1, d0, atol=1e-6)


# ---------------------------------------------------------------------------
# lucas_kanade
# ---------------------------------------------------------------------------

def test_flow_zero_motion_identity():
    rng = np.random.default_rng(2)
    f = rng.uniform(size=(32, 32)).astype(np.float32)
    flow = opticflow.lucas_kanade(f, f)
    assert flow.shape == (2, 32, 32)
    assert not flow.any()  # exactly zero, not just small


def test_flow_textureless_region_regularized_to_zero():
    f = np.full((24, 24), 0.7, dtype=np.float32)
    g = np.full((24, 24), 0.7, dtype=np.float32)
    flow = opticflow.lucas_kanade(f, g)
    assert not flow.any()


def test_flow_output_dims_match_input():
    a = np.random.default_rng(3).uniform(size=(17, 23)).astype(np.float32)
    flow = opticflow.lucas_kanade(a, a)
    assert flow.shape == (2, 17, 23)


def test_flow_translated_texture_recovered():
    tex, shifted, dx, dy = _shifted_pair(seed=11)
    flow = opticflow.lucas_kanade(tex, shifted)
    epe = np.hypot(flow[0] - dx, flow[1] - dy)
    assert epe.mean() <= 0.25


def test_flow_translation_recovery_over_seeds():
    # mirrors the endpoint-error bound checked again in the acceptance suite
    errs = []
    for seed in range(20):
        tex, shifted, dx, dy = _shifted_pair(seed)
        flow = opticflow.lucas_kanade(tex, shifted)
        errs.append(float(np.hypot(flow[0] - dx, flow[1] - dy).mean()))
    assert np.mean(errs) <= 0.25


def test_flow_rejects_bad_input():
    a = np.zeros((8, 8), dtype=np.float32)
    with pytest.raises(ValueError):
        opticflow.lucas_kanade(a, np.zeros((8, 9), dtype=np.float32))
    bad = a.copy()
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        opticflow.lucas_kanade(a, bad)


def test_flow_params_validation():
    with pytest.raises(ValueError):
        FlowParams(window_radius=0)
    with pytest.raises(ValueError):
        FlowParams(regularization=-1.0)
    with pytest.raises(ValueError):
        FlowParams(presmooth_sigma=-0.5)
