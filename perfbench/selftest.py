"""Self-tests of the benchmark itself (not of oodflow).

    python3 -m pytest -q perfbench/selftest.py

They check BENCHMARK.json against the metric names the benchmark emits, that
every correctness check rejects a deliberately corrupted output, that the
tracer leaves no wrapper behind and that an untraced run refuses to run with
one installed, and that the input generator reproduces its bytes.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

import gen  # noqa: E402
import measure  # noqa: E402
import spec  # noqa: E402
import tracing  # noqa: E402
from oodflow import (harness, localization, opticflow, synthdata,  # noqa: E402
                     trainer, vae)

BENCH = json.loads((spec.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# ---------------------------------------------------------------------------
# BENCHMARK.json and metric names
# ---------------------------------------------------------------------------

def test_benchmark_json_shape():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert tuple(w["name"] for w in BENCH["workloads"]) == spec.WORKLOADS
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200
               and "\n" not in w["why"] for w in BENCH["workloads"])
    names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    names += [w["name"] for w in BENCH["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]
    for m in BENCH["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25 and UNIT.match(m["unit"])
    for m in BENCH["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and UNIT.match(m["unit"])
    setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])


def test_emitted_names_match_benchmark_json():
    loop = {"wall_s": 1.0, "work": 10, "lat": [0.1] * 10}
    e2e = set(measure.end_to_end(loop, 1.0)) | {"setup_s"}
    assert e2e == {m["name"] for m in BENCH["end_to_end"]}
    layers = set(tracing.layer_metrics(tracing.Tracer(), 0)) | {"trace.overhead_ratio"}
    assert layers == {m["name"] for m in BENCH["per_layer"]}


def test_tail_percentile_keeps_ten_samples_beyond():
    assert measure.tail_percentile(list(range(1000))) == np.percentile(range(1000), 95)
    xs = list(range(100))
    q = measure.tail_percentile(xs)
    assert q > np.percentile(xs, 85) and sum(x > q for x in xs) >= 10
    assert measure.tail_percentile([3.0, 1.0]) == 3.0


# ---------------------------------------------------------------------------
# A small fixture and inputs at 64 px, built once
# ---------------------------------------------------------------------------

def _frames_u8(episode):
    return np.stack([gen._quantize(f) for f in episode.frames])


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """Untrained weights and a calibration that every score exceeds, so that
    the martingale grows and every episode raises events."""
    root = tmp_path_factory.mktemp("tiny")
    fixture = root / "fixture"
    fixture.mkdir()
    arch = vae.VaeArchitecture(input_size=64)
    weights = vae.init_weights(arch, seed=0)
    ep = synthdata.gen_id_episode(synthdata.SceneConfig(size=64, seed=1), "id_0")
    flows = [vae.preprocess(opticflow.lucas_kanade(a, b), arch)
             for a, b in zip(ep.frames[:5], ep.frames[1:5])]
    stats = localization.activation_stats(weights, flows)
    cal = trainer.CalibrationSet(scores=np.zeros(19))
    vae.save_weights(fixture / "weights.bin", weights)
    harness.save_calibration(fixture / "cal.json", cal, stats)

    stream = root / "stream"
    stream.mkdir()
    ood = synthdata.gen_ood_episode(
        synthdata.SceneConfig(size=64, seed=2),
        synthdata.AnomalySpec("speed_spike", onset=20, magnitude=1.5), "ood_0")
    np.save(stream / "frames.npy", np.stack([_frames_u8(ep), _frames_u8(ood)]))
    (stream / "episodes.json").write_text(json.dumps(
        [{"id": "id_0", "label": "id", "onset_frame": None},
         {"id": "ood_0", "label": "ood", "onset_frame": 20}]))
    (stream / "inputs.json").write_text(json.dumps(
        {"seed": 5, "fixture": str(fixture), "digest": "", "fixture_digest": ""}))

    offline = root / "offline"
    scene = synthdata.SceneConfig(size=64, episode_length=spec.EPISODE_LENGTH)
    synthdata.gen_benchmark(offline / "cal_corpus", scene, 1, 1, 3)
    synthdata.gen_benchmark(offline / "eval_corpus", scene, 1, 2, 4)
    return {"root": root, "fixture": fixture, "stream": stream, "offline": offline}


def _stream(tiny):
    wl = measure.Stream256(tiny["stream"], seed=5)
    wl.setup(tiny["fixture"])
    wl.prepare()
    for _ in range(2 * (spec.EPISODE_LENGTH - 1)):
        wl.unit()
    return wl


def _offline(tiny):
    wl = measure.Offline64(tiny["offline"], seed=5)
    wl.setup(tiny["fixture"])
    wl.prepare()
    wl.unit()
    return wl


# ---------------------------------------------------------------------------
# Each correctness check rejects a corrupted output
# ---------------------------------------------------------------------------

def test_stream_checks_pass_then_catch_corruption(tiny):
    wl = _stream(tiny)
    assert wl.check() == []
    assert all(rec["events"] for rec in wl.records)
    ordinal, (r, t, mu, logvar, ov) = sorted(wl.kept.items())[-1]
    rec = wl.records[r]

    def corrupted(mutate, expect):
        saved_rec, saved_kept = copy.deepcopy(rec), dict(wl.kept)
        mutate()
        problems = wl.check()
        rec.update(saved_rec)
        wl.kept = saved_kept
        assert any(expect in p for p in problems), problems

    corrupted(lambda: rec["events"].pop(), "events_from_curve")
    corrupted(lambda: rec["alpha"].__setitem__(t - 1, rec["alpha"][t - 1] * (1 + 1e-9)),
              "KL of mu/logvar")
    corrupted(lambda: wl.kept.__setitem__(ordinal, (r, t, mu + 1e-3, logvar, ov)),
              "loop oracle")
    corrupted(lambda: rec["p"].__setitem__(t - 1, rec["p"][t - 1] + 1e-12),
              "calibration rank")
    corrupted(lambda: rec["log_m"].__setitem__(t - 1, rec["log_m"][t - 1] + 1e-3),
              "trapezoid oracle")
    corrupted(lambda: wl.kept.__setitem__(ordinal, (r, t, mu, logvar, ov * 0.5)),
              "overlay")
    assert wl.check() == []


def test_offline_checks_pass_then_catch_corruption(tiny):
    wl = _offline(tiny)
    assert wl.check() == []
    records = wl.records
    rec = next(r for r in records if r.curve)
    pt = rec.curve[5]
    rec.curve[5] = dataclasses.replace(pt, alpha=pt.alpha + 1e-12)
    assert any("streaming loop" in p for p in wl.check())
    rec.curve[5] = pt
    rec.error = "unreadable"
    assert any("skipped" in p for p in wl.check())
    rec.error = None
    wl.job_files.append(("other", "files"))
    assert any("different calibration" in p for p in wl.check())


def test_train_checks_catch_corruption(tmp_path):
    wl = measure.Train64(tmp_path, seed=5)
    wl.record = tmp_path / "weights.json"
    wl.calls = [([10.0, 5.0], "a"), ([10.0, 5.0], "a")]
    assert wl.check() == []
    assert json.loads(wl.record.read_text())["digest"] == "a"
    wl.calls = [([10.0, 5.0], "b")]
    assert any("earlier run" in p for p in wl.check())
    wl.calls = [([10.0, 5.0], "a"), ([10.0, 5.0], "b")]
    assert any("different final weights" in p for p in wl.check())
    wl.calls = [([10.0, 12.0], "a")]
    assert any("did not fall" in p for p in wl.check())
    wl.calls = [([10.0, float("nan")], "a")]
    assert any("non-finite" in p for p in wl.check())


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------

def test_tracer_installs_and_leaves_no_wrapper(tiny):
    assert tracing.wrapped_functions() == []
    original = opticflow.lucas_kanade
    tr = tracing.Tracer()
    tr.install()
    try:
        assert "oodflow.opticflow.lucas_kanade" in tracing.wrapped_functions()
        assert "oodflow.trainer.kl_score" in tracing.wrapped_functions()  # alias
        tr.begin_phase("timed")
        wl = measure.Offline64(tiny["offline"], seed=5)
        wl.setup(tiny["fixture"])  # its warm-up flow is not a timed call
        wl.prepare()
        tr.unit_id = 0
        pairs, _, _ = wl.unit()
        tr.end_phase()
    finally:
        tr.uninstall()
    assert tracing.wrapped_functions() == []
    assert opticflow.lucas_kanade is original
    roots = [i for i, p in enumerate(tr.parent) if p < 0]
    assert sum(tr.self_s) == pytest.approx(sum(tr.end[i] - tr.start[i] for i in roots))
    phase = tr.phases[0]
    assert 0.0 <= phase["unattributed_s"] < phase["wall_s"]
    m = tracing.layer_metrics(tr, pairs)
    assert m["harness.trace_reuse"] == len(spec.GRID)
    # one flow per frame pair; one row per encode while scoring episodes,
    # although activation_stats encodes in chunks of several rows
    assert m["opticflow.lucas_kanade.calls_per_item"] == 1.0
    assert m["vae.encode_batch.rows"] == 1.0
    assert max(tr.work[i]["rows"] for i in tr.by_name()["vae.encode_batch"]) > 1.0
    assert m["nnops.conv2d.enc0.gflops"] > 0 and m["nnops.im2col.mb"] > 0
    assert wl.check() == []


def test_untraced_run_refuses_installed_wrappers(tiny, capsys):
    args = ["--workload", "stream256", "--inputs", str(tiny["stream"]),
            "--seconds", "0.2", "--trace", "0"]
    assert measure.main(args) == 0
    tr = tracing.Tracer()
    tr.install()
    try:
        assert measure.main(args) == 1
    finally:
        tr.uninstall()
    assert "tracing wrappers installed" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Input generator and command line
# ---------------------------------------------------------------------------

def test_generator_reproduces_its_bytes(tmp_path):
    for name, seed in (("a", 9), ("b", 9), ("c", 10)):
        (tmp_path / name).mkdir()
        gen.gen_train(tmp_path / name, seed)
    digests = [spec.tree_digest(tmp_path / n) for n in "abc"]
    assert digests[0] == digests[1] != digests[2]


def test_run_refuses_a_checkout_without_the_package(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in spec.BENCH_DIR.glob("*.py"):
        (bench / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCH))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "train64",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
