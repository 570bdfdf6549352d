import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oodflow import conformal, opticflow, synthdata, vae
from oodflow.conformal import CalibrationSet, DetectorConfig, DetectorState


from naive_ref import log_mix_trapezoid

CAL_1234 = CalibrationSet(scores=np.array([1.0, 2.0, 3.0, 4.0]))


# ---------------------------------------------------------------------------
# p_value
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("alpha, expected", [
    (2.5, 0.6),   # 2 scores >= 2.5, plus the test point, over l+1
    (10.0, 0.2),  # nothing above: floor 1/(l+1)
    (0.0, 1.0),   # everything above
    (3.0, 0.6),   # tie counts toward the numerator
])
def test_p_value_counting(alpha, expected):
    assert conformal.p_value(CAL_1234, alpha) == pytest.approx(expected)


def test_p_value_rejects_non_finite():
    with pytest.raises(ValueError):
        conformal.p_value(CAL_1234, float("nan"))


@settings(max_examples=50, deadline=None)
@given(scores=st.lists(st.floats(0, 100, allow_nan=False), min_size=1, max_size=50),
       alpha=st.floats(-10, 200, allow_nan=False))
def test_p_value_bounds(scores, alpha):
    cal = CalibrationSet(scores=np.sort(np.asarray(scores)))
    p = conformal.p_value(cal, alpha)
    assert 1.0 / (cal.size + 1) <= p <= 1.0
    # brute-force count agrees with the binary search
    brute = (np.sum(cal.scores >= alpha) + 1) / (cal.size + 1)
    assert p == pytest.approx(brute)


def test_p_value_sub_uniform():
    """P(p <= t) <= t for exchangeable calibration/test scores.

    Each trial draws a fresh calibration set and one test score from the
    same distribution, so the empirical CDF estimates the marginal law.
    """
    rng = np.random.default_rng(17)
    l, trials = 99, 1000
    ps = np.empty(trials)
    for i in range(trials):
        scores = rng.exponential(size=l + 1)
        cal = CalibrationSet(scores=np.sort(scores[:l]))
        ps[i] = conformal.p_value(cal, scores[l])
    grid = np.arange(0.01, 1.0, 0.01)
    ecdf = (ps[:, None] <= grid[None, :]).mean(axis=0)
    assert np.all(ecdf <= grid + 0.05)


# ---------------------------------------------------------------------------
# log_mixture_martingale
# ---------------------------------------------------------------------------

def test_log_mixture_analytic_values():
    assert conformal.log_mixture_martingale([1.0]) == pytest.approx(np.log(0.5), abs=1e-10)
    assert conformal.log_mixture_martingale([1.0] * 10) == pytest.approx(-np.log(11.0), abs=1e-10)
    a = np.log(0.5)
    closed = 2.0 * (np.exp(a) * (a - 1.0) + 1.0) / a**2
    assert conformal.log_mixture_martingale([0.5]) == pytest.approx(np.log(closed), abs=1e-10)


def test_log_mixture_matches_trapezoid_oracle():
    rng = np.random.default_rng(20)
    for _ in range(10):
        k = int(rng.integers(1, 21))
        p = rng.uniform(1e-4, 1.0, size=k)
        ours = conformal.log_mixture_martingale(p)
        oracle = log_mix_trapezoid(p)
        assert abs(np.expm1(ours - oracle)) < 1e-6  # relative error on M


def test_log_mixture_batch_matches_scalar():
    rng = np.random.default_rng(21)
    p = rng.uniform(0.01, 1.0, size=(5, 7))
    batch = conformal.log_mixture_martingale(p)
    assert batch.shape == (5,)
    for i in range(5):
        assert batch[i] == conformal.log_mixture_martingale(p[i])


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_log_mixture_monotone_in_each_p(data):
    k = data.draw(st.integers(1, 8))
    p = np.array([data.draw(st.floats(0.05, 1.0)) for _ in range(k)])
    i = data.draw(st.integers(0, k - 1))
    shrunk = p.copy()
    shrunk[i] = p[i] * data.draw(st.floats(0.2, 0.95))
    assert (conformal.log_mixture_martingale(shrunk)
            > conformal.log_mixture_martingale(p))


def test_log_mixture_rejects_invalid_p():
    for bad in ([0.0], [1.1], [-0.2], [], [[0.5, 0.0]], np.ones((2, 0)),
                np.ones((2, 2, 2))):
        with pytest.raises(ValueError):
            conformal.log_mixture_martingale(bad)


def test_martingale_truncated_mean_matches_integral_oracle():
    """Estimable form of the unit-mean martingale property.

    The raw sample mean of M over uniform windows is an infinite-variance
    estimator (its expectation of 1 is carried by unobservably rare joint
    small-p windows), so the test checks the truncated expectation
    E[M * 1{all p >= delta}], which the same Fubini step reduces to the
    one-dimensional integral of (1 - delta^eps)^k -- evaluated here by an
    independent adaptive quadrature.
    """
    from scipy.integrate import quad

    delta, k, n = 0.05, 8, 200_000
    oracle = quad(lambda e: (1.0 - delta ** e) ** k, 0.0, 1.0, limit=200)[0] \
        / (1.0 - delta) ** k
    rng = np.random.default_rng(30)
    p = rng.uniform(delta, 1.0, size=(n, k))
    vals = np.exp(conformal.log_mixture_martingale(p))
    se = vals.std() / np.sqrt(n)
    assert vals.mean() == pytest.approx(oracle, abs=4 * se)


def test_ville_bound_small_sim():
    rng = np.random.default_rng(31)
    n, k = 10_000, 10
    p = rng.uniform(size=(n, k))
    lsum = np.cumsum(np.log(p), axis=1)
    max_log = np.full(n, -np.inf)
    for j in range(1, k + 1):
        lm = conformal._log_mix_from_sums(np.full(n, j), lsum[:, j - 1])
        max_log = np.maximum(max_log, lm)
    assert (max_log >= 3.0).mean() <= 0.06


# ---------------------------------------------------------------------------
# step / events
# ---------------------------------------------------------------------------

def _run_stream(alphas, cal, cfg):
    state = DetectorState()
    events, curve = [], []
    for a in alphas:
        state, ev = conformal.step(state, a, cal, cfg)
        curve.append(state.log_m)
        if ev is not None:
            events.append(ev)
    return state, events, curve


def test_step_all_small_scores_never_fires():
    cal = CalibrationSet(scores=np.linspace(1, 2, 50))
    cfg = DetectorConfig()
    state, events, curve = _run_stream([0.5] * 60, cal, cfg)
    assert events == []
    assert max(curve) < 0.0  # all-p=1 window keeps M at 1/(k+1)


def test_step_extreme_stream_fires_at_dth_exceedance():
    l = 99
    cal = CalibrationSet(scores=np.linspace(0, 1, l))
    cfg = DetectorConfig()
    alphas = [0.5] * 20 + [10.0] * 20  # p = 1/(l+1) once extreme
    state, events, curve = _run_stream(alphas, cal, cfg)
    assert len(events) == 1
    ev = events[0]
    exceed_frames = [i for i, lm in enumerate(curve) if lm > cfg.log_threshold]
    assert ev.onset_frame == exceed_frames[0]
    # fired exactly when the run reached cfg.consecutive frames
    emission = ev.onset_frame + cfg.consecutive - 1
    assert all(curve[f] > cfg.log_threshold
               for f in range(ev.onset_frame, emission + 1))
    assert ev.peak_log_m == pytest.approx(max(curve[ev.onset_frame:emission + 1]))


def test_step_immediate_fire_with_trivial_threshold():
    cal = CalibrationSet(scores=np.array([1.0]))
    cfg = DetectorConfig(window=10, log_threshold=-1e9, consecutive=1)
    state, ev = conformal.step(DetectorState(), 0.0, cal, cfg)
    assert ev is not None and ev.onset_frame == 0


def test_step_once_per_sustained_run():
    cal = CalibrationSet(scores=np.linspace(0, 1, 99))
    cfg = DetectorConfig(consecutive=3)
    _, events, _ = _run_stream([10.0] * 30, cal, cfg)
    assert len(events) == 1


def test_events_from_curve_matches_step():
    rng = np.random.default_rng(33)
    cal = CalibrationSet(scores=np.sort(rng.exponential(size=40)))
    cfg = DetectorConfig(window=5, log_threshold=0.5, consecutive=3)
    alphas = rng.exponential(size=100) * rng.choice([1.0, 8.0], size=100, p=[0.8, 0.2])
    _, step_events, curve = _run_stream(alphas, cal, cfg)
    replay = conformal.events_from_curve(curve, cfg, start_frame=0)
    assert [(e.onset_frame, e.peak_log_m) for e in replay] == \
        [(e.onset_frame, e.peak_log_m) for e in step_events]


def test_window_eviction():
    cal = CalibrationSet(scores=np.linspace(0, 1, 9))
    cfg = DetectorConfig(window=3)
    state = DetectorState()
    for a in [0.1, 0.2, 0.3, 0.4, 0.5]:
        state, _ = conformal.step(state, a, cal, cfg)
    assert len(state.p_window) == 3
    assert state.frame_index == 5


def test_detector_config_validation():
    for bad in (dict(window=0), dict(consecutive=0),
                dict(log_threshold=float("nan")), dict(log_threshold=float("inf")),
                dict(log_threshold=-float("inf"))):
        with pytest.raises(ValueError):
            DetectorConfig(**bad)


# ---------------------------------------------------------------------------
# detect_episode
# ---------------------------------------------------------------------------

def test_detect_episode_needs_two_frames(trained32):
    with pytest.raises(ValueError):
        conformal.detect_episode([np.zeros((32, 32), dtype=np.float32)],
                                 trained32["weights"], trained32["cal"],
                                 trained32["detector"])


def _streamed(frames, weights, cal, cfg, episode_id):
    """The live loop: lucas_kanade, score_flow and step, one frame pair at a time."""
    state = conformal.DetectorState(frame_index=1)
    events, curve = [], []
    for a, b in zip(frames, frames[1:]):
        _, alpha = vae.score_flow(weights, opticflow.lucas_kanade(a, b))
        frame = state.frame_index
        state, event = conformal.step(state, alpha, cal, cfg, episode_id)
        curve.append(conformal.CurvePoint(frame, alpha, state.p_window[-1], state.log_m,
                                          state.exceed_count))
        events += [event] if event is not None else []
    return events, curve


@pytest.mark.parametrize("anomaly", [None, "velocity_reversal"])
def test_detect_episode_equals_streamed_loop(trained32, anomaly):
    # chunked scoring gives the live stream's bits, at 64 px frames
    scene = synthdata.SceneConfig(size=64, seed=779)
    ep = (synthdata.gen_id_episode(scene) if anomaly is None else
          synthdata.gen_ood_episode(scene, synthdata.AnomalySpec(anomaly, 30, 1.0)))
    args = (trained32["weights"], trained32["cal"], trained32["detector"], ep.id)
    events, curve = conformal.detect_episode(ep.frames, *args)
    want_events, want_curve = _streamed(ep.frames, *args)
    assert len(curve) == len(ep.frames) - 1
    assert repr(curve) == repr(want_curve) and events == want_events
    assert all(type(pt.alpha) is float for pt in curve)


def test_detect_episode_id_quiet_and_deterministic(trained32):
    ep = synthdata.gen_id_episode(synthdata.SceneConfig(size=32, seed=777))
    events1, curve1 = conformal.detect_episode(
        ep.frames, trained32["weights"], trained32["cal"], trained32["detector"],
        episode_id=ep.id)
    events2, curve2 = conformal.detect_episode(
        ep.frames, trained32["weights"], trained32["cal"], trained32["detector"],
        episode_id=ep.id)
    assert events1 == events2
    assert curve1 == curve2
    assert len(curve1) == len(ep.frames) - 1
    assert curve1[0].frame == 1
    assert events1 == []


def test_detect_episode_ood_onset_within_bound(trained32):
    cfg = trained32["detector"]
    spec = synthdata.AnomalySpec("velocity_reversal", 30, 1.0)
    ep = synthdata.gen_ood_episode(synthdata.SceneConfig(size=32, seed=778), spec)
    events, curve = conformal.detect_episode(
        ep.frames, trained32["weights"], trained32["cal"], cfg, episode_id=ep.id)
    assert len(events) >= 1
    assert 30 <= events[0].onset_frame <= 30 + cfg.window + cfg.consecutive


def test_curve_and_event_files(tmp_path, trained32):
    import csv
    import json

    spec = synthdata.AnomalySpec("velocity_reversal", 25, 1.0)
    ep = synthdata.gen_ood_episode(synthdata.SceneConfig(size=32, seed=900), spec)
    events, curve = conformal.detect_episode(
        ep.frames, trained32["weights"], trained32["cal"], trained32["detector"],
        episode_id="ep-x")
    conformal.write_curve_csv(tmp_path / "curve.csv", curve)
    conformal.write_events_jsonl(tmp_path / "events.jsonl", events)

    with open(tmp_path / "curve.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(curve)
    assert float(rows[0]["log_m"]) == pytest.approx(curve[0].log_m)
    assert set(rows[0]) == {"frame", "alpha", "p", "log_m", "exceed_count"}

    lines = (tmp_path / "events.jsonl").read_text().strip().splitlines()
    assert len(lines) == len(events) >= 1
    first = json.loads(lines[0])
    assert set(first) == {"episode", "onset_frame", "peak_log_m"}
    assert first["episode"] == "ep-x"
