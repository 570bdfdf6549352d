"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  The shared 64x64 benchmark (training corpus,
trained weights, calibration, evaluation corpus) is built once per session.
"""

import hashlib
import json
import time
from pathlib import Path

import numpy as np
import pytest

from oodflow import (cli, conformal, harness, localization, opticflow,
                     synthdata, trainer, vae)
from oodflow.conformal import CalibrationSet

from gradcheck import gradient_check
from naive_ref import log_mix_trapezoid, mixture_mean_tail


def report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")
    return ok


# ---------------------------------------------------------------------------
# shared 64x64 benchmark
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def benchmark64(tmp_path_factory, flow_params):
    root = tmp_path_factory.mktemp("bench64")
    t0 = time.perf_counter()

    train_dir = root / "train_corpus"
    cfg = synthdata.SceneConfig(size=64, episode_length=60)
    train_manifests = synthdata.gen_benchmark(train_dir, cfg, n_id=8, n_ood=1,
                                              seed=101)
    arch = vae.VaeArchitecture(input_size=64, latent_dim=24)
    dataset = harness.corpus_flow_dataset(train_manifests, flow_params, arch)
    assert len(dataset) >= 250
    train_part, cal_part = trainer.split_calibration(dataset, 0.2, seed=7)
    assert len(train_part) >= 200  # the VAE must see at least 200 ID flows
    weights, log = trainer.train(
        train_part, trainer.TrainConfig(epochs=15, seed=7), arch)
    assert log[-1].mean_total < 0.5 * log[0].mean_total  # training took hold
    cal = trainer.build_calibration(weights, cal_part)
    stats = localization.activation_stats(weights, cal_part)
    train_seconds = time.perf_counter() - t0

    eval_dir = root / "eval_corpus"
    eval_manifests = synthdata.gen_benchmark(eval_dir, cfg, n_id=30, n_ood=30,
                                             seed=202)
    return {
        "arch": arch,
        "weights": weights,
        "cal": cal,
        "stats": stats,
        "eval_manifests": eval_manifests,
        "train_seconds": train_seconds,
        "detector": conformal.DetectorConfig(window=10, log_threshold=3.0,
                                             consecutive=10),
    }


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_c01_kl_closed_form_vs_monte_carlo():
    """KL nonconformity score: closed form vs 10^6-sample MC, 20 posteriors."""
    t0 = time.perf_counter()
    exact_cases = [
        (np.zeros(24), np.zeros(24), 0.0),
        (np.array([1.0]), np.array([0.0]), 0.5),
        (np.array([0.0]), np.array([1.0]), 0.5 * (np.e - 2.0)),
    ]
    ok = all(vae.kl_score(vae.LatentPosterior(mu, lv)) == pytest.approx(want, abs=1e-12)
             for mu, lv, want in exact_cases)

    # latent sizes near the production m=24 keep the KL values large enough
    # for a 1e6-sample MC oracle to resolve them at 1% relative
    rng = np.random.default_rng(1)
    worst = 0.0
    for i in range(20):
        m = int(rng.integers(4, 25))
        post = vae.LatentPosterior(mu=rng.normal(size=m),
                                   logvar=rng.uniform(-1.5, 1.5, size=m))
        std = np.exp(0.5 * post.logvar)
        z = post.mu + std * np.random.default_rng(100 + i).standard_normal((10**6, m))
        log_q = -0.5 * (((z - post.mu) / std) ** 2 + post.logvar + np.log(2 * np.pi))
        log_p = -0.5 * (z ** 2 + np.log(2 * np.pi))
        mc = float((log_q - log_p).sum(axis=1).mean())
        worst = max(worst, abs(vae.kl_score(post) - mc) / max(mc, 1e-12))
    elapsed = time.perf_counter() - t0
    ok = ok and worst <= 0.01 and elapsed < 60.0
    assert report("1 (KL closed form, Eq-level oracle)", ok,
                  f"worst MC deviation {worst:.4%}, {elapsed:.1f}s")


def test_c02_martingale_validity():
    """E[M10] = 1 over 1e5 uniform windows, and the Ville exceedance bound.

    M10 depends on a window only through L = -sum(ln p), which is
    Gamma(10, 1) under uniform p-values.  The mean of M10 over windows with
    L > c is about 10 / c, so the plain sample mean cannot reach 1: 1e5
    windows reach only L ~ 31, where the covered part of the mean is about
    0.68, and the last 5% of it sits at L > 200 (probability ~1e-72).  The
    estimator is therefore censored at c = 20: the sample mean of
    M10 * 1{L <= c}, which has finite variance, plus the closed-form tail
    E[M10 * 1{L > c}].  It is unbiased for E[M10].  Besides the band on the
    total, the sampled part must lie within 4 standard errors of its
    independent oracle 1 - tail, so a mis-scaled M cannot hide in the band.
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    p = rng.uniform(size=(10**5, 10))
    log_sums = np.cumsum(np.log(p), axis=1)
    m10 = np.exp(conformal.log_mixture_martingale(p))
    cut = 20.0
    censored = m10 * (-log_sums[:, -1] <= cut)
    sampled = float(censored.mean())
    se = float(censored.std() / np.sqrt(censored.size))
    tail = mixture_mean_tail(10, cut)
    mean_m10 = sampled + tail
    z = (sampled - (1.0 - tail)) / se
    max_log = np.full(p.shape[0], -np.inf)
    for k in range(1, 11):
        lm = conformal._log_mix_from_sums(np.full(p.shape[0], k),
                                          log_sums[:, k - 1])
        max_log = np.maximum(max_log, lm)
    ville = float((max_log >= 3.0).mean())
    elapsed = time.perf_counter() - t0

    mean_ok = 0.95 <= mean_m10 <= 1.05 and abs(z) <= 4.0
    ville_ok = ville <= 0.06 and elapsed < 120.0
    report("2a (mean M10 in [0.95, 1.05])", mean_ok,
           f"measured {mean_m10:.4f} over 1e5 windows = sampled part "
           f"{sampled:.5f} (oracle {1.0 - tail:.5f}, se {se:.5f}, "
           f"z {z:+.2f}) + tail {tail:.5f} beyond L = {cut:g}")
    report("2b (Ville bound P(max log M >= 3) <= 0.06)", ville_ok,
           f"measured {ville:.4f}, {elapsed:.1f}s")
    assert ville_ok
    assert mean_ok


def test_c03_quadrature_vs_trapezoid_oracle():
    """64-node quadrature within 1e-6 relative of a 1e6-step trapezoid."""
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(100):
        k = int(rng.integers(1, 21))
        window = np.clip(rng.uniform(size=k), 1e-12, 1.0)
        ours = conformal.log_mixture_martingale(window)
        oracle = log_mix_trapezoid(window)
        worst = max(worst, abs(np.expm1(ours - oracle)))
    ok = worst <= 1e-6
    assert report("3 (quadrature vs 1e6-step trapezoid)", ok,
                  f"worst relative error {worst:.2e} over 100 windows")


def test_c04_p_value_sub_uniformity():
    """Empirical CDF of conformal p-values stays below t + 0.05."""
    rng = np.random.default_rng(4)
    l, trials = 99, 1000
    ps = np.empty(trials)
    for i in range(trials):
        scores = rng.exponential(size=l + 1)
        cal = CalibrationSet(scores=np.sort(scores[:l]))
        ps[i] = conformal.p_value(cal, scores[l])
    grid = np.arange(0.01, 1.0, 0.01)
    ecdf = (ps[:, None] <= grid[None, :]).mean(axis=0)
    excess = float(np.max(ecdf - grid))
    ok = bool(np.all(ecdf <= grid + 0.05))
    assert report("4 (p-value sub-uniformity)", ok,
                  f"max CDF excess {excess:+.4f} (limit +0.05), l={l}, "
                  f"{trials} trials")


def test_c05_optic_flow_endpoint_error(flow_params):
    """Mean endpoint error <= 0.25 px on seeded translations, |v| <= 2."""
    errs = []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        cfg = synthdata.SceneConfig(size=64, episode_length=2,
                                    velocity_jitter=0.0, seed=seed)
        tex = synthdata.gen_texture(cfg)
        angle = rng.uniform(0, 2 * np.pi)
        speed = rng.uniform(0, 2.0)
        dx, dy = speed * np.cos(angle), speed * np.sin(angle)
        moved = synthdata._sample_wrapped(tex, dx, dy)
        flow = opticflow.lucas_kanade(tex, moved, flow_params)
        errs.append(float(np.hypot(flow[0] - dx, flow[1] - dy).mean()))
    mean_epe = float(np.mean(errs))
    ok = mean_epe <= 0.25
    assert report("5 (optic flow endpoint error)", ok,
                  f"mean EPE {mean_epe:.3f} px over 20 seeds (max "
                  f"{max(errs):.3f})")


def test_c06_backprop_gradient_check():
    """Analytic gradients vs 64-bit central differences on a tiny net."""
    arch = vae.VaeArchitecture(input_size=16, latent_dim=6)
    weights = vae.init_weights(arch, 2024)
    rng = np.random.default_rng(5)
    sample = rng.uniform(-0.5, 0.5, size=(2, 16, 16)).astype(np.float32)
    err_full = gradient_check(weights, sample, n_params=120, seed=0)
    err_recon = gradient_check(weights, sample, n_params=120, seed=1, beta_kl=0.0)
    ok = err_full < 1e-3 and err_recon < 1e-3
    assert report("6 (backprop vs finite differences)", ok,
                  f"max relative error {err_full:.2e} (full), "
                  f"{err_recon:.2e} (beta_kl=0), 120 params each")


def test_c07_end_to_end_detection(benchmark64):
    """30 ID + 30 OOD episodes at tau=3, n=10, d=10: F1 >= 0.90, FPR <= 0.10."""
    t0 = time.perf_counter()
    metrics, records = harness.evaluate(
        benchmark64["eval_manifests"], benchmark64["weights"],
        benchmark64["cal"], benchmark64["detector"])
    eval_seconds = time.perf_counter() - t0
    total = benchmark64["train_seconds"] + eval_seconds
    ok = metrics.f1 >= 0.90 and metrics.fpr <= 0.10 and total <= 1800.0
    assert report(
        "7 (end-to-end detection)", ok,
        f"F1 {metrics.f1:.3f} (>=0.90), FPR {metrics.fpr:.3f} (<=0.10), "
        f"TPR {metrics.tpr:.3f}, acc {metrics.accuracy:.3f}; "
        f"train {benchmark64['train_seconds']:.0f}s + eval {eval_seconds:.0f}s")


def test_c08_localization_mass(benchmark64):
    """>= 50% of overlay mass in the intruder's quadrant on detection frames."""
    weights, cal, stats = (benchmark64["weights"], benchmark64["cal"],
                           benchmark64["stats"])
    cfg = benchmark64["detector"]
    rng = np.random.default_rng(88)
    fractions = []
    misses = 0
    for i in range(20):
        quad = ("ne", "se")[i % 2]
        onset = int(rng.integers(15, 41))
        scene = synthdata.SceneConfig(size=64, episode_length=60, seed=9100 + i)
        spec = synthdata.AnomalySpec("intruder_cut", onset, 1.5, quad)
        ep = synthdata.gen_ood_episode(scene, spec)
        events, _ = conformal.detect_episode(ep.frames, weights, cal, cfg)
        if not events:
            misses += 1
            continue
        run = range(events[0].onset_frame,
                    events[0].onset_frame + cfg.consecutive)
        rows = slice(0, 32) if quad[0] == "n" else slice(32, 64)
        cols = slice(32, 64) if quad[1] == "e" else slice(0, 32)
        for t in run:
            flow = opticflow.lucas_kanade(ep.frames[t - 1], ep.frames[t])
            x = vae.preprocess(flow[np.newaxis], weights.arch, weights.max_flow)
            m = localization.overlay(vae.score_batch(weights, x)[2][0], stats, 64)
            fractions.append(float(m[rows, cols].sum() / max(m.sum(), 1e-12)))
    mean_frac = float(np.mean(fractions))
    ok = misses == 0 and mean_frac >= 0.5
    assert report("8 (localization quadrant mass)", ok,
                  f"mean in-quadrant fraction {mean_frac:.3f} over 20 episodes "
                  f"({misses} undetected)")


def test_c09_decision_latency(benchmark64):
    """Mean per-decision latency <= 200 ms at 64x64 with breakdown fields."""
    ep = synthdata.gen_id_episode(synthdata.SceneConfig(size=64, seed=77))
    rep = harness.measure_latency(ep.frames, benchmark64["weights"],
                                  benchmark64["cal"], benchmark64["detector"],
                                  warmup=5, reps=50)
    breakdown_ok = all(v > 0 for v in (rep.flow_ms, rep.encode_ms,
                                       rep.conformal_ms))
    ok = rep.mean_ms <= 200.0 and breakdown_ok
    assert report(
        "9 (decision latency)", ok,
        f"mean {rep.mean_ms:.1f} ms (limit 200), p95 {rep.p95_ms:.1f} ms "
        f"(flow {rep.flow_ms:.1f} + encode {rep.encode_ms:.1f} + conformal "
        f"{rep.conformal_ms:.2f})")


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(root.rglob("*")):
        if p.is_file():
            h.update(p.relative_to(root).as_posix().encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def test_c10_determinism(tmp_path):
    """synth/train/calibrate/eval repeated with fixed seeds are bit-identical."""

    def run(tag: str) -> dict[str, str]:
        base = tmp_path / tag
        corpus = base / "corpus"
        weights = base / "weights.bin"
        cal = base / "cal.json"
        metrics = base / "metrics.json"
        base.mkdir()
        for args in (
            ["synth", "--out", str(corpus), "--n-id", "2", "--n-ood", "2",
             "--seed", "11", "--size", "32", "--length", "60"],
            ["train", "--corpus", str(corpus), "--out", str(weights),
             "--epochs", "2", "--seed", "4", "--input-size", "32"],
            ["calibrate", "--corpus", str(corpus), "--weights", str(weights),
             "--out", str(cal), "--seed", "4"],
            ["eval", "--corpus", str(corpus), "--weights", str(weights),
             "--cal", str(cal), "--out", str(metrics)],
        ):
            assert cli.main(args) == 0
        return {"corpus": _tree_digest(corpus), "weights": _digest(weights),
                "cal": _digest(cal), "metrics": _digest(metrics)}

    first = run("a")
    second = run("b")
    ok = first == second
    assert report("10 (bit-identical reruns)", ok,
                  "corpus/weights/calibration/metrics digests all equal"
                  if ok else f"digest mismatch: {first} vs {second}")
