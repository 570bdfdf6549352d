import json

import numpy as np
import pytest

from oodflow import conformal, harness, opticflow, synthdata
from oodflow.harness import Metrics


# ---------------------------------------------------------------------------
# Metrics arithmetic
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("tp,fp,tn,fn", [
    (1, 0, 1, 0), (5, 2, 10, 3), (0, 0, 4, 0), (0, 1, 3, 2),
])
def test_metrics_from_counts_brute_force(tp, fp, tn, fn):
    m = Metrics.from_counts(tp, fp, tn, fn)
    assert m.tpr == (tp / (tp + fn) if tp + fn else 0.0)
    assert m.fpr == (fp / (fp + tn) if fp + tn else 0.0)
    assert m.accuracy == (tp + tn) / (tp + fp + tn + fn)
    if 2 * tp + fp + fn:
        assert m.f1 == 2 * tp / (2 * tp + fp + fn)
        assert not m.degenerate_f1
    else:
        assert m.f1 == 0.0 and m.degenerate_f1


def test_metrics_perfect_pair():
    m = Metrics.from_counts(tp=1, fp=0, tn=1, fn=0)
    assert (m.tpr, m.fpr, m.f1, m.accuracy) == (1.0, 0.0, 1.0, 1.0)


def test_metrics_all_id_never_fires():
    m = Metrics.from_counts(tp=0, fp=0, tn=7, fn=0)
    assert m.fpr == 0.0 and m.accuracy == 1.0
    assert m.f1 == 0.0 and m.degenerate_f1


# ---------------------------------------------------------------------------
# corpus fixtures
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def corpus32(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus32")
    cfg = synthdata.SceneConfig(size=32, episode_length=60)
    manifests = synthdata.gen_benchmark(root, cfg, n_id=3, n_ood=3, seed=50)
    return root, manifests


def test_load_corpus_index_and_fallback(corpus32):
    root, manifests = corpus32
    loaded = harness.load_corpus(root)
    assert [m.id for m in loaded] == [m.id for m in manifests]
    (root / "index.json").rename(root / "index.json.bak")
    try:
        scanned = harness.load_corpus(root)
        assert sorted(m.id for m in scanned) == sorted(m.id for m in manifests)
    finally:
        (root / "index.json.bak").rename(root / "index.json")


def test_corpus_flow_dataset_ids_only(corpus32, trained32, flow_params):
    root, manifests = corpus32
    flows = harness.corpus_flow_dataset(manifests, flow_params,
                                        trained32["arch"])
    assert len(flows) == 3 * 59  # ID episodes only
    assert all(f.shape == (2, 32, 32) for f in flows)


# ---------------------------------------------------------------------------
# evaluate / grid_search
# ---------------------------------------------------------------------------

def test_evaluate_detects_and_is_deterministic(corpus32, trained32):
    root, manifests = corpus32
    m1, records1 = harness.evaluate(manifests, trained32["weights"],
                                    trained32["cal"], trained32["detector"])
    m2, _ = harness.evaluate(manifests, trained32["weights"], trained32["cal"],
                             trained32["detector"])
    assert m1 == m2
    assert len(records1) == 6
    assert m1.tp + m1.fn == 3 and m1.fp + m1.tn == 3
    assert m1.tp >= 2  # the synthetic anomalies are detectable at this scale
    # record bookkeeping matches the confusion matrix
    detected_ood = sum(r.detected for r in records1 if r.label == "ood")
    assert detected_ood == m1.tp


def test_evaluate_skips_unreadable_episode(corpus32, trained32, tmp_path):
    root, manifests = corpus32
    broken_dir = tmp_path / "broken"
    cfg = synthdata.SceneConfig(size=32, episode_length=60)
    broken = synthdata.gen_benchmark(broken_dir, cfg, n_id=2, n_ood=1, seed=51)
    victim = broken[0].frame_paths[5]
    victim.write_bytes(b"P5\n9 9\n255\n")  # truncated payload
    with pytest.warns(UserWarning, match="skipping"):
        metrics, records = harness.evaluate(broken, trained32["weights"],
                                            trained32["cal"],
                                            trained32["detector"])
    bad = [r for r in records if r.error is not None]
    assert len(bad) == 1 and bad[0].episode_id == broken[0].id
    assert metrics.tp + metrics.fp + metrics.tn + metrics.fn == 2


def test_nan_frame_skips_only_its_episode(corpus32, trained32, monkeypatch):
    # frame 30 of one episode turns NaN after it is read: evaluate and
    # grid_search record that episode's error and score the rest unchanged
    _, manifests = corpus32
    args = (trained32["weights"], trained32["cal"])
    cfg = trained32["detector"]
    _, clean = harness.evaluate(manifests, *args, cfg)
    victim = manifests[1].id
    load = harness.load_frames

    def load_with_nan(manifest):
        frames = load(manifest)
        if manifest.id == victim:
            frames[30] = np.full_like(frames[30], np.nan)
        return frames

    monkeypatch.setattr(harness, "load_frames", load_with_nan)
    frames = load_with_nan(manifests[1])
    with pytest.raises(ValueError) as info:
        opticflow.lucas_kanade(frames[29], frames[30])
    for run in (lambda: harness.evaluate(manifests, *args, cfg)[1],
                lambda: harness.grid_search(manifests, *args, [cfg.log_threshold], cfg)[2]):
        with pytest.warns(UserWarning, match=f"skipping unreadable episode {victim}"):
            records = run()
        for rec, want in zip(records, clean):
            if rec.episode_id == victim:
                assert rec.error == str(info.value)
                assert rec.curve == [] and rec.events == []
            else:
                assert repr(rec) == repr(want)


def test_grid_search_single_threshold(corpus32, trained32):
    root, manifests = corpus32
    best, table, _ = harness.grid_search(manifests, trained32["weights"],
                                         trained32["cal"], [3.0],
                                         trained32["detector"])
    assert best == 3.0 and len(table) == 1


def test_grid_search_best_dominates_and_caches_curves(
        corpus32, trained32, monkeypatch):
    root, manifests = corpus32
    calls = {"n": 0}
    orig = conformal.detect_episode

    def counting(*args, **kwargs):
        calls["n"] += 1
        return orig(*args, **kwargs)

    monkeypatch.setattr(conformal, "detect_episode", counting)
    thresholds = [1.0, 2.0, 3.0, 5.0, 8.0, 12.0]
    best, table, _ = harness.grid_search(manifests, trained32["weights"],
                                         trained32["cal"], thresholds,
                                         trained32["detector"])
    assert calls["n"] == len(manifests)  # curves computed once, not per tau
    best_f1 = dict((t, m.f1) for t, m in table)[best]
    assert all(best_f1 >= m.f1 for _, m in table)


def test_grid_search_consistent_with_evaluate(corpus32, trained32):
    root, manifests = corpus32
    _, table, _ = harness.grid_search(manifests, trained32["weights"],
                                      trained32["cal"], [3.0],
                                      trained32["detector"])
    direct, _ = harness.evaluate(manifests, trained32["weights"],
                                 trained32["cal"], trained32["detector"])
    assert table[0][1] == direct


def test_grid_search_empty_thresholds(corpus32, trained32):
    root, manifests = corpus32
    with pytest.raises(ValueError):
        harness.grid_search(manifests, trained32["weights"], trained32["cal"],
                            [], trained32["detector"])


# ---------------------------------------------------------------------------
# latency
# ---------------------------------------------------------------------------

def test_measure_latency_report(trained32):
    ep = synthdata.gen_id_episode(synthdata.SceneConfig(size=32, seed=60,
                                                        episode_length=12))
    rep = harness.measure_latency(ep.frames, trained32["weights"],
                                  trained32["cal"], trained32["detector"],
                                  warmup=2, reps=10)
    assert rep.reps == 10
    for part in (rep.mean_ms, rep.p95_ms, rep.flow_ms, rep.encode_ms,
                 rep.conformal_ms):
        assert part > 0.0
    # stage sums account for the decision time (small slack for loop overhead)
    assert rep.flow_ms + rep.encode_ms + rep.conformal_ms <= rep.mean_ms * 1.05


def test_measure_latency_validation(trained32):
    ep = synthdata.gen_id_episode(synthdata.SceneConfig(size=32, seed=61))
    with pytest.raises(ValueError):
        harness.measure_latency(ep.frames, trained32["weights"],
                                trained32["cal"], trained32["detector"],
                                warmup=0, reps=10)
    with pytest.raises(ValueError):
        harness.measure_latency(ep.frames, trained32["weights"],
                                trained32["cal"], trained32["detector"],
                                warmup=1, reps=5)


# ---------------------------------------------------------------------------
# artifact files
# ---------------------------------------------------------------------------

def test_calibration_file_round_trip(tmp_path, trained32):
    p = tmp_path / "cal.json"
    harness.save_calibration(p, trained32["cal"], trained32["stats"])
    cal, stats = harness.load_calibration(p)
    np.testing.assert_array_equal(cal.scores, trained32["cal"].scores)
    np.testing.assert_array_equal(stats.mean, trained32["stats"].mean)
    np.testing.assert_array_equal(stats.std, trained32["stats"].std)
    assert stats.count == trained32["stats"].count


_CAL_DOC = {"scores": [0.5, 1.0], "activation_shape": [1, 1, 2],
            "activation_mean": [0.0, 0.0], "activation_std": [1.0, 1.0],
            "count": 2}


@pytest.mark.parametrize("text, match", [
    (json.dumps({"scores": [1.0]}), "missing"),
    ('{"scores": [1.0', "not valid JSON"),
    (json.dumps([_CAL_DOC]), "JSON object"),
    (json.dumps({**_CAL_DOC, "scores": {"a": 1.0}}), "'scores'"),
    (json.dumps({**_CAL_DOC, "scores": [0.5, "1"]}), "'scores'"),
    (json.dumps({**_CAL_DOC, "activation_shape": "1,1,2"}), "'activation_shape'"),
    (json.dumps({**_CAL_DOC, "activation_shape": None}), "'activation_shape'"),
    (json.dumps({**_CAL_DOC, "activation_shape": [1, 1, 2.0]}), "'activation_shape'"),
    (json.dumps({**_CAL_DOC, "activation_mean": None}), "'activation_mean'"),
    (json.dumps({**_CAL_DOC, "activation_std": [1.0]}), "reshape"),
    (json.dumps({**_CAL_DOC, "count": [2]}), "'count'"),
    (json.dumps({**_CAL_DOC, "count": True}), "'count'"),
    (json.dumps({**_CAL_DOC, "activation_mean": [float("nan"), 0.0]}), "finite"),
    (json.dumps({**_CAL_DOC, "activation_std": [float("inf"), 1.0]}), "finite"),
], ids=["missing", "not-json", "not-object", "scores-object", "scores-string",
        "shape-string", "shape-null", "shape-float", "mean-null", "std-size",
        "count-list", "count-bool", "mean-nan", "std-infinity"])
def test_calibration_file_missing_field(tmp_path, text, match):
    p = tmp_path / "cal.json"
    p.write_text(text)
    with pytest.raises(ValueError, match=match):
        harness.load_calibration(p)



def test_metrics_json_schema(tmp_path):
    m = Metrics.from_counts(3, 1, 4, 2)
    p = tmp_path / "metrics.json"
    harness.write_metrics_json(p, m, threshold=3.0)
    doc = json.loads(p.read_text())
    assert list(doc) == ["threshold", "tp", "fp", "tn", "fn", "tpr", "fpr",
                         "f1", "accuracy", "degenerate_f1"]
    assert doc["tp"] == 3 and doc["threshold"] == 3.0
    assert isinstance(doc["degenerate_f1"], bool)
