import hashlib
import sys
import threading

import numpy as np
import pytest

from oodflow import opticflow, synthdata
from oodflow.opticflow import FlowParams

from naive_ref import naive_lucas_kanade


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


# sha256 of the float32 flow bytes of a seeded random pair, with the default
# parameters and with presmooth_sigma=0, as the per-call implementation that
# blurred both frames and filtered each window sum separately computed them
TINY_FLOWS = {
    (1, 7): ("012f5abee8700b492e6d0ef65e989ddb36545197ccc4072c7d11b5a7b0c110f2",
             "9fe5f90f9d7d7140c3469933bf9c848452da3e96a72c6a457bebf6f816147370"),
    (7, 1): ("d7abc720b10bf30cc9144f3f3c7f8ba5ef0bb271f4d74965ada261302ddcde5e",
             "dc53ae65f3508c7ab3a89e4e9a93a90465cdc6142ce390ebf7984e03a6b7a2d0"),
    (1, 1): ("af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc",
             "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc"),
    (2, 2): ("a4c242e2cd00b0debbb3037c71302b46a159e2b02af82222c45f1c328a7ef904",
             "2f2bfbdced08eaba6d61f3e4dfa78bb3bcb98f88b4f5b6bd6c1b5714e5b765fa"),
}


@pytest.mark.parametrize("shape", list(TINY_FLOWS))
def test_flow_tiny_frames_match_recorded(shape):
    a, b = np.random.default_rng(shape).uniform(size=(2,) + shape).astype(np.float32)
    for params, digest in zip((FlowParams(), NO_SMOOTH), TINY_FLOWS[shape]):
        flow = opticflow.lucas_kanade(a, b, params)
        assert flow.shape == (2,) + shape and flow.dtype == np.float32
        assert hashlib.sha256(flow.tobytes()).hexdigest() == digest


@pytest.mark.parametrize("shape,params", [
    ((16, 16), FlowParams()),
    ((37, 53), FlowParams()),
    ((37, 53), FlowParams(window_radius=3, regularization=0.05, presmooth_sigma=0.6)),
    ((1, 9), FlowParams()),
    ((11, 13), NO_SMOOTH),
])
def test_flow_matches_per_pixel_oracle(shape, params):
    rng = np.random.default_rng(sum(shape))
    a = rng.uniform(size=shape).astype(np.float32)
    b = np.roll(a, 1, axis=-1) + rng.normal(0.0, 0.05, size=shape).astype(np.float32)
    want = naive_lucas_kanade(a, b, radius=params.window_radius,
                              lam=params.regularization, sigma=params.presmooth_sigma)
    np.testing.assert_allclose(opticflow.lucas_kanade(a, b, params), want,
                               rtol=1e-6, atol=1e-6)


# ---------------------------------------------------------------------------
# the blur memo: one blur per streamed frame, never a stale one
# ---------------------------------------------------------------------------

def _episode_frames(seed, size=32):
    cfg = synthdata.SceneConfig(size=size, episode_length=8, seed=seed)
    return [f.astype(np.float32) for f in synthdata.gen_id_episode(cfg).frames]


def _cold(a, b, params=FlowParams()):
    opticflow._last_blur = None
    return opticflow.lucas_kanade(a, b, params)


def _stream(frames, params=FlowParams()):
    return [opticflow.lucas_kanade(a, b, params) for a, b in zip(frames, frames[1:])]


def _assert_same_flows(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()


def test_memo_stream_matches_cold_flows(monkeypatch):
    frames = _episode_frames(seed=21)
    cold = [_cold(frames[i], frames[i + 1]) for i in reversed(range(len(frames) - 1))]
    blurs = []
    blur = opticflow.gaussian_filter

    def counting_blur(*args, **kwargs):
        blurs.append(args[0].shape)
        return blur(*args, **kwargs)

    monkeypatch.setattr(opticflow, "gaussian_filter", counting_blur)
    opticflow._last_blur = None
    _assert_same_flows(_stream(frames), cold[::-1])
    assert len(blurs) == len(frames)  # each streamed frame is blurred once


def test_memo_sees_a_frame_changed_in_place():
    a, b, c = _episode_frames(seed=22)[:3]
    opticflow.lucas_kanade(a, b)
    b[:] = np.flipud(b)  # the memo holds b's old bits
    got = opticflow.lucas_kanade(b, c)
    assert got.tobytes() == _cold(b, c).tobytes()


@pytest.mark.parametrize("second", [FlowParams(presmooth_sigma=2.0), NO_SMOOTH])
def test_memo_never_reuses_another_sigma(second):
    a, b, c = _episode_frames(seed=23)[:3]
    opticflow.lucas_kanade(a, b)
    got = opticflow.lucas_kanade(b, c, second)
    assert got.tobytes() == _cold(b, c, second).tobytes()
    opticflow.lucas_kanade(a, b, second)
    got = opticflow.lucas_kanade(b, c)
    assert got.tobytes() == _cold(b, c).tobytes()


def test_memo_threads_streaming_episodes_match_serial():
    # more threads than cores, switching often; two episodes, each streamed
    # by two threads, so a torn memo entry would pair one frame's bits with
    # another frame's blur
    episodes = [_episode_frames(seed=24), _episode_frames(seed=25)] * 2
    serial = [[f.tobytes() for f in _stream(frames)] for frames in episodes]
    runs, mismatches = [0] * len(episodes), [0] * len(episodes)
    start = threading.Barrier(len(episodes))

    def worker(i):
        start.wait()
        for _ in range(200):
            flows = _stream(episodes[i])
            mismatches[i] += sum(f.tobytes() != w for f, w in zip(flows, serial[i]))
            runs[i] += 1

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(episodes))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert runs == [200] * len(episodes)
    assert mismatches == [0] * len(episodes)


def test_memo_flow_is_fresh_and_writable():
    a, b, c = _episode_frames(seed=26)[:3]
    want = _cold(b, c)
    flow = _cold(a, b)
    memo = opticflow._last_blur
    assert flow.flags.writeable and flow.flags.owndata
    assert not any(np.shares_memory(flow, m) for m in memo[1:])
    assert not memo[2].flags.writeable
    flow[:] = 7.0
    assert opticflow.lucas_kanade(b, c).tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# flow_sequence: every pair of a frame stack, solved together
# ---------------------------------------------------------------------------

def _drifting_frames(count, shape, seed):
    """A seeded texture moving about a pixel per frame, with fresh noise each frame."""
    rng = np.random.default_rng(seed)
    tex = rng.uniform(size=shape)
    return [(np.roll(tex, (t // 3, t), axis=(0, 1))
             + rng.normal(0.0, 0.02, size=shape)).astype(np.float32)
            for t in range(count)]


@pytest.mark.parametrize("shape", [(32, 32), (24, 40)])
@pytest.mark.parametrize("params", [FlowParams(), NO_SMOOTH])
def test_flow_sequence_matches_streamed_pairs(shape, params):
    frames = _drifting_frames(60, shape, seed=sum(shape))
    streamed = _stream(frames, params)
    for count in (2, 9, 10, 60):  # one pair, and either side of chunk edges
        got = opticflow.flow_sequence(frames[:count], params)
        assert got.shape == (count - 1, 2) + shape and got.dtype == np.float32
        assert got.flags.c_contiguous
        _assert_same_flows(list(got), streamed[:count - 1])


def test_flow_sequence_matches_per_pixel_oracle():
    frames = _drifting_frames(3, (11, 13), seed=8)
    got = opticflow.flow_sequence(frames, FlowParams())
    for t, (a, b) in enumerate(zip(frames, frames[1:])):
        np.testing.assert_allclose(got[t], naive_lucas_kanade(a, b), rtol=1e-6, atol=1e-6)


def _error_text(fn, *args):
    with pytest.raises(ValueError) as info:
        fn(*args)
    return str(info.value)


def test_flow_sequence_rejects_what_lucas_kanade_rejects():
    frames = _drifting_frames(4, (8, 8), seed=9)
    wide = np.zeros((8, 9), dtype=np.float32)
    bad = frames[2].copy()
    bad[3, 4] = np.nan
    for broken in (frames[:2] + [wide] + frames[3:], frames[:2] + [bad] + frames[3:]):
        want = _error_text(opticflow.lucas_kanade, broken[1], broken[2])
        assert _error_text(opticflow.flow_sequence, broken, FlowParams()) == want
    for short in ([], frames[:1]):
        assert _error_text(opticflow.flow_sequence, short, FlowParams()) == "need at least 2 frames"
