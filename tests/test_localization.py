import tracemalloc

import numpy as np
import pytest

from oodflow import conformal, localization, opticflow, synthdata, vae
from oodflow.localization import ActivationStats


def _stats(shape=(4, 2, 2), seed=0):
    rng = np.random.default_rng(seed)
    return ActivationStats(mean=rng.normal(size=shape),
                           std=rng.uniform(0.5, 2.0, size=shape), count=10)


# ---------------------------------------------------------------------------
# activation_stats
# ---------------------------------------------------------------------------

def test_stats_identical_flows_zero_std(trained32):
    flow = trained32["cal_flows"][0]
    stats = localization.activation_stats(trained32["weights"], [flow] * 3)
    np.testing.assert_allclose(stats.std, 0.0, atol=1e-5)
    assert stats.count == 3


def test_stats_two_point_formulas(trained32):
    f1, f2 = trained32["cal_flows"][:2]
    w = trained32["weights"]
    a = vae.encode(w, f1).last_conv_activations.astype(np.float64)
    b = vae.encode(w, f2).last_conv_activations.astype(np.float64)
    stats = localization.activation_stats(w, [f1, f2])
    np.testing.assert_allclose(stats.mean, (a + b) / 2, rtol=1e-4, atol=1e-6)
    np.testing.assert_allclose(stats.std, np.abs(a - b) / 2, rtol=1e-3, atol=1e-5)


def test_stats_permutation_invariant(trained32):
    flows = trained32["cal_flows"][:6]
    a = localization.activation_stats(trained32["weights"], flows)
    b = localization.activation_stats(trained32["weights"], flows[::-1])
    np.testing.assert_allclose(a.mean, b.mean, rtol=1e-6, atol=1e-8)
    np.testing.assert_allclose(a.std, b.std, rtol=1e-5, atol=1e-7)


def test_stats_memory_peak_is_one_encoder_chunk():
    # a full STATS_CHUNK block and one more flow at 64 px; the encoder runs
    # vae.SCORE_CHUNK rows at a time, so no call holds a 64-row im2col
    # (enc1's alone is 32 MiB)
    arch = vae.VaeArchitecture()
    w = vae.init_weights(arch, 1)
    rng = np.random.default_rng(2)
    flows = [rng.uniform(-1, 1, size=(2, 64, 64)).astype(np.float32)
             for _ in range(localization.STATS_CHUNK + 1)]
    tracemalloc.start()
    try:
        stats = localization.activation_stats(w, flows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stats.count == len(flows)
    assert peak < 16 << 20


def test_stats_requires_two_samples(trained32):
    with pytest.raises(ValueError):
        localization.activation_stats(trained32["weights"],
                                      trained32["cal_flows"][:1])


# ---------------------------------------------------------------------------
# overlay
# ---------------------------------------------------------------------------

def test_overlay_zero_at_calibration_mean():
    stats = _stats()
    m = localization.overlay(stats.mean.copy(), stats, out_size=32)
    assert m.shape == (32, 32)
    np.testing.assert_array_equal(m, 0.0)


def test_overlay_single_cell_peak_within_block():
    stats = ActivationStats(mean=np.zeros((3, 4, 4)), std=np.ones((3, 4, 4)),
                            count=5)
    acts = np.zeros((3, 4, 4))
    acts[:, 2, 1] = 3.0
    m = localization.overlay(acts, stats, out_size=64)
    peak = np.unravel_index(np.argmax(m), m.shape)
    assert 32 <= peak[0] < 48 and 16 <= peak[1] < 32
    assert m.max() == pytest.approx(1.0)
    assert m.min() >= 0.0


def test_overlay_std_scaling_cancels_under_normalization():
    stats = _stats(seed=3)
    acts = stats.mean + np.random.default_rng(4).normal(size=stats.mean.shape)
    m1 = localization.overlay(acts, stats, out_size=16)
    doubled = ActivationStats(mean=stats.mean, std=2.0 * stats.std,
                              count=stats.count)
    m2 = localization.overlay(acts, doubled, out_size=16)
    assert np.argmax(m1) == np.argmax(m2)
    np.testing.assert_allclose(m1, m2, rtol=1e-4, atol=1e-6)


def test_overlay_channel_permutation_invariant():
    stats = _stats(seed=5)
    acts = stats.mean + 0.5
    perm = np.random.default_rng(6).permutation(stats.mean.shape[0])
    permuted = ActivationStats(mean=stats.mean[perm], std=stats.std[perm],
                               count=stats.count)
    m1 = localization.overlay(acts, stats, out_size=8)
    m2 = localization.overlay(acts[perm], permuted, out_size=8)
    np.testing.assert_allclose(m1, m2, rtol=1e-6)


def test_overlay_shape_mismatch():
    stats = _stats()
    with pytest.raises(ValueError):
        localization.overlay(np.zeros((4, 3, 3)), stats, out_size=8)


# ---------------------------------------------------------------------------
# render
# ---------------------------------------------------------------------------

def test_render_zero_map_is_gray_replicated():
    rng = np.random.default_rng(7)
    frame = rng.uniform(size=(16, 16)).astype(np.float32)
    out = localization.render(frame, np.zeros((16, 16)), 0.5)
    assert out.shape == (3, 16, 16)
    for c in range(3):
        np.testing.assert_allclose(out[c], frame, atol=1e-6)


def test_render_threshold_zero_proportional():
    frame = np.full((8, 8), 0.5, dtype=np.float32)
    m = np.linspace(0, 1, 64).reshape(8, 8)
    out = localization.render(frame, m, threshold=0.0)
    expected_red = (1 - 0.6 * m) * 0.5 + 0.6 * m
    np.testing.assert_allclose(out[0], expected_red, rtol=1e-5)
    np.testing.assert_allclose(out[1], 0.5, atol=1e-6)


def test_render_red_only_in_masked_quadrant():
    frame = np.full((8, 8), 0.3, dtype=np.float32)
    m = np.zeros((8, 8))
    m[:4, 4:] = 1.0
    out = localization.render(frame, m, threshold=0.5)
    reddened = out[0] > out[1] + 1e-6
    assert reddened[:4, 4:].all()
    assert not reddened[4:, :].any() and not reddened[:, :4].any()


def test_render_validates():
    with pytest.raises(ValueError):
        localization.render(np.zeros((8, 8)), np.zeros((9, 8)), 0.5)
    with pytest.raises(ValueError):
        localization.render(np.zeros((8, 8)), np.zeros((8, 8)), threshold=1.5)


# ---------------------------------------------------------------------------
# end to end: intruder mass concentrates in its quadrant
# ---------------------------------------------------------------------------

def test_intruder_overlay_mass_in_quadrant(trained32):
    # at this scale the activation grid is 2x2, so the check is made at the
    # run-start frame while the intruder is still inside its entry quadrant;
    # the 64x64 acceptance suite averages the mass bound over 20 episodes
    w, cal, stats = trained32["weights"], trained32["cal"], trained32["stats"]
    cfg = trained32["detector"]
    spec = synthdata.AnomalySpec("intruder_cut", 25, 1.5, "ne")
    ep = synthdata.gen_ood_episode(synthdata.SceneConfig(size=32, seed=321), spec)
    events, _ = conformal.detect_episode(ep.frames, w, cal, cfg)
    assert events, "intruder episode must be detected"
    t = events[0].onset_frame
    flow = opticflow.lucas_kanade(ep.frames[t - 1], ep.frames[t])
    out = vae.encode(w, vae.preprocess(flow, w.arch, w.max_flow))
    m = localization.overlay(out.last_conv_activations, stats, out_size=32)
    quads = {"ne": m[:16, 16:].sum(), "nw": m[:16, :16].sum(),
             "se": m[16:, 16:].sum(), "sw": m[16:, :16].sum()}
    assert quads["ne"] / m.sum() >= 0.5
    assert quads["ne"] == max(quads.values())
