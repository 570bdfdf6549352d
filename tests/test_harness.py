import json
import multiprocessing
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from oodflow import cli, conformal, gridio, harness, opticflow, synthdata, vae
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
    # each flow owns its memory, not a view of a chunk: so a subset, such as
    # a calibration split, keeps no other flow alive
    assert all(f.base is None for f in flows)


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


def test_bad_frame_skips_only_its_episode(corpus32, trained32, tmp_path):
    # frame 30 of one episode is stored at another size, so the flow solve
    # raises mid-episode: evaluate and grid_search record that episode's
    # error and score the rest unchanged
    root, manifests = corpus32
    args = (trained32["weights"], trained32["cal"])
    cfg = trained32["detector"]
    _, clean = harness.evaluate(manifests, *args, cfg)
    shutil.copytree(root, tmp_path / "corpus")
    manifests = harness.load_corpus(tmp_path / "corpus")
    victim = manifests[1]
    gridio.write_pgm(victim.frame_paths[30], np.zeros((33, 32), np.float32))
    frames = harness.load_frames(victim)
    with pytest.raises(ValueError) as info:
        opticflow.lucas_kanade(frames[29], frames[30])
    for run in (lambda: harness.evaluate(manifests, *args, cfg)[1],
                lambda: harness.grid_search(manifests, *args, [cfg.log_threshold], cfg)[2]):
        with pytest.warns(UserWarning, match=f"skipping unreadable episode {victim.id}"):
            records = run()
        for rec, want in zip(records, clean, strict=True):
            if rec.episode_id == victim.id:
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
    scored = []  # the episodes of each scoring pass, counted in the caller
    orig = harness._run_episodes

    def counting(episodes, *args):
        scored.append([m.id for m in episodes])
        return orig(episodes, *args)

    monkeypatch.setattr(harness, "_run_episodes", counting)
    thresholds = [1.0, 2.0, 3.0, 5.0, 8.0, 12.0]
    best, table, records = harness.grid_search(manifests, trained32["weights"],
                                               trained32["cal"], thresholds,
                                               trained32["detector"])
    # curves computed once, not per tau
    assert scored == [[m.id for m in manifests]]
    assert all(len(r.curve) == 59 for r in records)
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


def test_evaluate_and_grid_search_reject_empty_corpus(trained32):
    args = (trained32["weights"], trained32["cal"])
    cfg = trained32["detector"]
    for run in (lambda: harness.evaluate([], *args, cfg),
                lambda: harness.grid_search([], *args, [1.0, 3.0], cfg)):
        with pytest.raises(ValueError, match="corpus must be nonempty"):
            run()


def test_grid_search_empty_thresholds(corpus32, trained32):
    root, manifests = corpus32
    with pytest.raises(ValueError):
        harness.grid_search(manifests, trained32["weights"], trained32["cal"],
                            [], trained32["detector"])


# ---------------------------------------------------------------------------
# parallel scoring: one spawned worker per usable core
# ---------------------------------------------------------------------------

@pytest.fixture()
def two_workers(monkeypatch):
    """The worker path even on one core (a pool already started keeps its size)."""
    monkeypatch.setattr(harness, "_usable_cores", lambda: 2)


def _loop_records(manifests, weights, cal, cfg):
    """The in-process load_frames -> detect_episode loop."""
    records = []
    for m in manifests:
        events, curve = conformal.detect_episode(
            harness.load_frames(m), weights, cal, cfg, episode_id=m.id)
        records.append(harness.EpisodeRecord(m.id, m.label, m.onset_frame,
                                             events, curve))
    return records


def test_worker_records_equal_in_process_loop(corpus32, trained32, two_workers):
    _, manifests = corpus32
    weights, cal, cfg = trained32["weights"], trained32["cal"], trained32["detector"]
    blas_env = {k: os.environ.get(k) for k in harness._BLAS_THREAD_VARS}
    _, records = harness.evaluate(manifests, weights, cal, cfg)
    assert repr(records) == repr(_loop_records(manifests, weights, cal, cfg))
    # the workers run one BLAS thread; this process's environment is restored
    assert {k: os.environ.get(k) for k in harness._BLAS_THREAD_VARS} == blas_env
    for proc in multiprocessing.active_children():
        environ = Path(f"/proc/{proc.pid}/environ")
        if environ.exists():  # the environment the worker started with
            assert {f"{k}=1".encode() for k in harness._BLAS_THREAD_VARS} <= set(
                environ.read_bytes().split(b"\0"))


def test_grid_search_records_at_best_equal_detect_episode(corpus32, trained32,
                                                         two_workers):
    # traced once at cfg's threshold and rescored: events and every curve
    # point's exceed_count are those of detect_episode at the best threshold
    _, manifests = corpus32
    weights, cal, cfg = trained32["weights"], trained32["cal"], trained32["detector"]
    best, _, records = harness.grid_search(manifests, weights, cal,
                                           [1.0, 3.0, 8.0], cfg)
    assert best != cfg.log_threshold
    at_best = _loop_records(manifests, weights, cal, replace(cfg, log_threshold=best))
    assert repr(records) == repr(at_best)
    base = _loop_records(manifests, weights, cal, cfg)
    assert [pt.exceed_count for r in records for pt in r.curve] != [
        pt.exceed_count for r in base for pt in r.curve]


def test_workers_follow_changed_weights(corpus32, trained32, two_workers,
                                        tmp_path, monkeypatch):
    # the workers score with the caller's weights bit for bit: float64
    # tensors that float32 cannot hold and a max_flow float32 rounds both
    # reach them unchanged.  Each change of weights starts a new pool, stops
    # the replaced pool's workers and deletes its weights file, over an
    # uneven split of 5.
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    manifests = corpus32[1][:5]
    cal, cfg = trained32["cal"], trained32["detector"]
    trained = trained32["weights"]
    exact = replace(trained, max_flow=0.1, tensors={
        k: v.astype(np.float64) * (1 + 2.0 ** -40) for k, v in trained.tensors.items()})
    assert float(np.float32(exact.max_flow)) != exact.max_flow
    fresh = vae.init_weights(trained32["arch"], 7)
    executors, replaced, handoffs = [], [], set()
    for weights in (exact, trained, fresh, trained):
        _, records = harness.evaluate(manifests, weights, cal, cfg)
        assert repr(records) == repr(_loop_records(manifests, weights, cal, cfg))
        assert not any(map(_alive, replaced))
        assert all(harness._pool[-1] is not e for e in executors)
        executors.append(harness._pool[-1])
        replaced = [p.pid for p in multiprocessing.active_children()]
        assert len(replaced) == 2
        files = list(tmp_path.iterdir())
        assert len(files) == 1 and files[0] not in handoffs
        handoffs.add(files[0])


def test_worker_numeric_error_reaches_caller(corpus32, trained32, two_workers,
                                             tmp_path):
    # weights scaled until the encoder overflows fail in the workers with the
    # in-process error; `oodflow eval` exits 4, and the next call scores again
    root, manifests = corpus32
    weights, cal, cfg = trained32["weights"], trained32["cal"], trained32["detector"]
    big = replace(weights, tensors={k: v * np.float32(1e10)
                                    for k, v in weights.tensors.items()})
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(vae.NumericError) as local:
            conformal.detect_episode(harness.load_frames(manifests[0]), big, cal, cfg)
    with pytest.raises(vae.NumericError) as remote:
        harness.evaluate(manifests, big, cal, cfg)
    assert str(remote.value) == str(local.value)
    assert "detect_episode" in str(remote.value.__cause__)  # the worker's traceback
    vae.save_weights(tmp_path / "big.bin", big)
    harness.save_calibration(tmp_path / "cal.json", cal, trained32["stats"])
    rc = cli.main(["eval", "--corpus", str(root), "--weights", str(tmp_path / "big.bin"),
                   "--cal", str(tmp_path / "cal.json"), "--out", str(tmp_path / "m.json")])
    assert rc == cli.EXIT_NUMERIC
    _, records = harness.evaluate(manifests, weights, cal, cfg)
    assert repr(records) == repr(_loop_records(manifests, weights, cal, cfg))


def test_dead_worker_fails_the_call_and_the_next_call_rebuilds(
        corpus32, trained32, two_workers):
    manifests = corpus32[1][:2]
    weights, cal, cfg = trained32["weights"], trained32["cal"], trained32["detector"]
    harness.evaluate(manifests, weights, cal, cfg)
    dead = multiprocessing.active_children()[0]
    dead.kill()
    dead.join(timeout=30)
    with pytest.raises(ChildProcessError, match="worker ended unexpectedly"):
        harness.evaluate(manifests, weights, cal, cfg)
    _, records = harness.evaluate(manifests, weights, cal, cfg)
    assert dead not in multiprocessing.active_children()
    assert repr(records) == repr(_loop_records(manifests, weights, cal, cfg))


_SCRIPT = """
import multiprocessing
import os
import signal
import sys

from oodflow import conformal, harness, vae


def main(corpus):
    harness._usable_cores = lambda: 2
    manifests = harness.load_corpus(corpus)[:2]
    weights = vae.init_weights(vae.VaeArchitecture(input_size=32), 1)
    cal = conformal.CalibrationSet(scores=[0.5, 1.0])
    metrics, _ = harness.evaluate(manifests, weights, cal, conformal.DetectorConfig())
    print(*[p.pid for p in multiprocessing.active_children()])
    print(metrics.tp + metrics.fp + metrics.tn + metrics.fn, flush=True)
    if "--terminate" in sys.argv:  # as `kill` ends it: no exit handler runs
        os.kill(os.getpid(), signal.SIGTERM)


if __name__ == "__main__":
    main(sys.argv[1])
"""


_FORK_SCRIPT = """
import os
import sys

from oodflow import conformal, harness, vae


def main(corpus):
    harness._usable_cores = lambda: 2
    manifests = harness.load_corpus(corpus)[:2]
    weights = vae.init_weights(vae.VaeArchitecture(input_size=32), 1)
    cal = conformal.CalibrationSet(scores=[0.5, 1.0])
    cfg = conformal.DetectorConfig()
    _, records = harness.evaluate(manifests, weights, cal, cfg)
    pool = harness._pool
    pid = os.fork()
    if pid == 0:  # the pool belongs to the parent: the child starts its own
        _, again = harness.evaluate(manifests, weights, cal, cfg)
        sys.exit(0 if repr(again) == repr(records) and harness._pool is not pool else 1)
    _, again = harness.evaluate(manifests, weights, cal, cfg)
    same = repr(again) == repr(records) and harness._pool is pool
    print(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]), same)


if __name__ == "__main__":
    main(sys.argv[1])
"""


def _python_env(**env) -> dict:
    """This process's environment, with this package on the path and ``env`` added."""
    src = str(Path(harness.__file__).resolve().parent.parent)
    path = os.pathsep.join([src] + ([os.environ["PYTHONPATH"]]
                                    if os.environ.get("PYTHONPATH") else []))
    return {**os.environ, "PYTHONPATH": path, **env}


def _python(*args, **env) -> subprocess.CompletedProcess:
    """Run a Python process on this package, with ``env`` added to the environment."""
    proc = subprocess.run([sys.executable, *map(str, args)], capture_output=True, text=True,
                          timeout=120, env=_python_env(**env))
    assert proc.returncode == 0, proc.stderr
    return proc


def _run_script(text, tmp_path, *args, **env) -> subprocess.CompletedProcess:
    script = tmp_path / "script.py"
    script.write_text(text)
    return _python(script, *args, **env)


def test_pool_is_rebuilt_after_fork(corpus32, tmp_path):
    proc = _run_script(_FORK_SCRIPT, tmp_path, corpus32[0])
    assert proc.stdout.split() == ["0", "True"]


def _alive(pid: int) -> bool:
    """Whether ``pid`` runs; one that has exited but waits to be reaped does not."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    stat = Path(f"/proc/{pid}/stat")
    try:
        return stat.read_text().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:  # reaped since, unless this platform has no /proc
        return not stat.parent.parent.is_dir()


def test_script_with_workers_exits_cleanly(corpus32, tmp_path):
    # a script that evaluates and returns neither hangs at exit nor leaves
    # its workers running or its weights file behind, and prints no error
    # while it shuts down
    tmp = tmp_path / "tmp"
    tmp.mkdir()
    proc = _run_script(_SCRIPT, tmp_path, corpus32[0], TMPDIR=str(tmp))
    pids, count = proc.stdout.splitlines()
    assert count == "2" and len(pids.split()) == 2
    assert not any(_alive(int(pid)) for pid in pids.split())
    assert list(tmp.iterdir()) == [] and proc.stderr == ""


def test_terminated_script_leaves_no_worker_or_file(corpus32, tmp_path):
    # SIGTERM, as `kill` or a CI cancel sends it, ends the caller with no
    # exit handler run: its workers see the caller gone, delete the weights
    # file and exit
    tmp = tmp_path / "tmp"
    tmp.mkdir()
    script, out, err = (tmp_path / name for name in ("script.py", "out.txt", "err.txt"))
    script.write_text(_SCRIPT)
    # files, not pipes that live workers would hold open
    with open(out, "w") as stdout, open(err, "w") as stderr:
        proc = subprocess.run([sys.executable, script, corpus32[0], "--terminate"],
                              stdout=stdout, stderr=stderr, timeout=120,
                              env=_python_env(TMPDIR=str(tmp)))
    pids = [int(pid) for pid in out.read_text().split()[:-1]]
    try:
        assert proc.returncode == -signal.SIGTERM and len(pids) == 2, err.read_text()
        deadline = time.monotonic() + 10
        while (any(map(_alive, pids)) or any(tmp.iterdir())) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(_alive, pids))
        assert list(tmp.iterdir()) == []
    finally:  # a worker left running is stopped here, not left to the machine
        for pid in filter(_alive, pids):
            os.kill(pid, signal.SIGKILL)


def test_import_starts_no_multiprocessing():
    # workers start lazily: importing the package stays as light as before
    code = "import sys, oodflow; print('multiprocessing' in sys.modules)"
    assert _python("-c", code).stdout.strip() == "False"


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
    for warmup, reps in ((1.5, 10), (1, 10.5)):
        with pytest.raises(ValueError, match="must be an integer"):
            harness.measure_latency(ep.frames, trained32["weights"],
                                    trained32["cal"], trained32["detector"],
                                    warmup=warmup, reps=reps)


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
