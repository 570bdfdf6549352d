"""Corpus evaluation, threshold search, latency measurement, and artifact files.

An episode counts as a positive when the detector emits at least one event
anywhere in it; metrics are episode-level confusion counts.  Threshold grid
searches reuse each episode's log-martingale trace, which does not depend
on the threshold.  Episodes are scored on one spawned worker process per
usable core.
"""

from __future__ import annotations

import atexit
import hashlib
import json
import os
import tempfile
import time
import warnings
from contextlib import contextmanager, suppress
from dataclasses import asdict, dataclass, field, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import conformal, gridio, localization, opticflow, vae
from .gridio import EpisodeManifest
from .conformal import CalibrationSet


@dataclass(frozen=True)
class Metrics:
    tp: int
    fp: int
    tn: int
    fn: int
    tpr: float
    fpr: float
    f1: float
    accuracy: float
    degenerate_f1: bool

    @classmethod
    def from_counts(cls, tp: int, fp: int, tn: int, fn: int) -> "Metrics":
        """Confusion-count arithmetic with explicit degenerate-F1 flagging."""
        total = tp + fp + tn + fn
        tpr = tp / (tp + fn) if tp + fn > 0 else 0.0
        fpr = fp / (fp + tn) if fp + tn > 0 else 0.0
        degenerate = (2 * tp + fp + fn) == 0
        f1 = 0.0 if degenerate else 2 * tp / (2 * tp + fp + fn)
        accuracy = (tp + tn) / total if total > 0 else 0.0
        return cls(tp=tp, fp=fp, tn=tn, fn=fn, tpr=tpr, fpr=fpr, f1=f1,
                   accuracy=accuracy, degenerate_f1=degenerate)


@dataclass
class EpisodeRecord:
    """Per-episode evaluation outcome, including the martingale trace."""

    episode_id: str
    label: str
    gt_onset: int | None
    events: list[conformal.DetectionEvent] = field(default_factory=list)
    curve: list[conformal.CurvePoint] = field(default_factory=list)
    error: str | None = None

    @property
    def detected(self) -> bool:
        return len(self.events) > 0


@dataclass(frozen=True)
class LatencyReport:
    mean_ms: float
    p95_ms: float
    flow_ms: float
    encode_ms: float
    conformal_ms: float
    reps: int


def load_corpus(corpus_dir) -> list[EpisodeManifest]:
    """Load every manifest listed in a corpus index.json (or by scanning).

    Raises FormatError when index.json is not JSON and ValueError when it is
    not an object whose "episodes" is a list of strings.
    """
    corpus_dir = Path(corpus_dir)
    index_path = corpus_dir / "index.json"
    if index_path.exists():
        rel_paths = gridio._read_json_object(index_path, "corpus index").get("episodes", [])
        if not (isinstance(rel_paths, list) and all(isinstance(r, str) for r in rel_paths)):
            raise ValueError("corpus index field 'episodes' must be a list of strings")
        paths = [corpus_dir / rel for rel in rel_paths]
    else:
        paths = sorted(corpus_dir.glob("*/manifest.json"))
    if not paths:
        raise ValueError(f"no episode manifests found under {corpus_dir}")
    return [gridio.read_manifest(p) for p in paths]


def load_frames(manifest: EpisodeManifest) -> list[np.ndarray]:
    """Read an episode's frames as (H, W) float32 arrays."""
    return [gridio.read_pgm(p)[0] for p in manifest.frame_paths]


def corpus_flow_dataset(manifests, flow_params: opticflow.FlowParams,
                        arch: vae.VaeArchitecture,
                        max_flow: float = vae.DEFAULT_MAX_FLOW) -> list[np.ndarray]:
    """Preprocessed flow grids from every consecutive frame pair.

    Only ID-labeled episodes contribute, which is what both training and
    calibration require.  Flows are solved vae.SCORE_CHUNK pairs at a time,
    and each grid is an array of its own, so a split keeps no other alive.
    """
    dataset: list[np.ndarray] = []
    for manifest in manifests:
        if manifest.label != gridio.LABEL_ID:
            continue
        for flows in conformal._flow_chunks(load_frames(manifest), flow_params):
            dataset.extend(row.copy() for row in vae.preprocess(flows, arch, max_flow))
    return dataset


# ---------------------------------------------------------------------------
# Evaluation and threshold search
# ---------------------------------------------------------------------------

def _score_episode(manifest, weights, cal, cfg) -> EpisodeRecord:
    """Score one episode; an unreadable one keeps its error in its record."""
    record = EpisodeRecord(episode_id=manifest.id, label=manifest.label,
                           gt_onset=manifest.onset_frame)
    try:
        record.events, record.curve = conformal.detect_episode(
            load_frames(manifest), weights, cal, cfg, episode_id=manifest.id)
    except (OSError, EOFError, ValueError) as exc:
        record.error = str(exc)
    return record


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


# one BLAS thread per worker, as joblib/loky do against oversubscription
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@contextmanager
def _one_blas_thread():
    """Set the BLAS thread counts to 1 in this process's environment, then restore them."""
    saved = {k: os.environ.get(k) for k in _BLAS_THREAD_VARS}
    os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))
    try:
        yield
    finally:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k)
            else:
                os.environ[k] = v


def _weights_key(weights: vae.VaeWeights) -> str:
    """A digest of everything the weights hold."""
    h = hashlib.sha256(repr((weights.arch, weights.max_flow)).encode())
    for name in sorted(weights.tensors):
        t = np.ascontiguousarray(weights.tensors[name])
        h.update(f"{name} {t.dtype}".encode())
        h.update(t)
    return h.hexdigest()


_worker_weights: vae.VaeWeights | None = None  # in a worker: the weights it scores with


def _load_worker_weights(arch, max_flow, path) -> None:
    """A worker's initializer: the caller's tensors, with every dtype and bit,
    and a watch that deletes the file and exits once the caller is gone,
    even ended by a signal that runs no exit handler."""
    import threading
    from multiprocessing import connection, parent_process

    def exit_with_caller():  # the sentinel turns readable once the caller exits
        connection.wait([parent_process().sentinel])
        with suppress(FileNotFoundError):  # another worker deleted it first
            os.remove(path)
        os._exit(1)

    global _worker_weights
    with np.load(path) as saved:
        _worker_weights = vae.VaeWeights(arch, max_flow, {k: saved[k] for k in saved.files})
    threading.Thread(target=exit_with_caller, daemon=True).start()


def _score_in_worker(manifest, cal, cfg) -> EpisodeRecord:
    return _score_episode(manifest, _worker_weights, cal, cfg)


# (pid, weights digest, weights file, executor) of this process's pool
_pool = None


def _drop_pool() -> None:
    """Stop this process's pool and delete its weights file; a pool
    inherited through a fork is the parent's, and is only forgotten."""
    global _pool
    if _pool is not None and _pool[0] == os.getpid():
        _pool[3].shutdown(cancel_futures=True)
        os.remove(_pool[2])
    _pool = None


atexit.register(_drop_pool)


def _executor(weights: vae.VaeWeights):
    """This process's pool for ``weights``: one spawned worker per usable core.

    Replaced after a fork, a dead worker or a change of weights.  The weights
    cross once, as a private .npz file that each worker loads as it starts;
    the caller deletes it with the pool, or the workers once the caller is gone.
    """
    global _pool
    key = _weights_key(weights)
    if _pool is None or _pool[:2] != (os.getpid(), key):
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        _drop_pool()
        fd, path = tempfile.mkstemp(prefix="oodflow-weights-", suffix=".npz")
        with open(fd, "wb") as fh:
            np.savez(fh, **weights.tensors)
        executor = ProcessPoolExecutor(
            _usable_cores(), multiprocessing.get_context("spawn"),
            initializer=_load_worker_weights,
            initargs=(weights.arch, weights.max_flow, path))
        _pool = (os.getpid(), key, path, executor)
    return _pool[3]


def _run_episodes(manifests, weights, cal, cfg) -> list[EpisodeRecord]:
    if len(manifests) > 1 and _usable_cores() > 1:
        from concurrent.futures.process import BrokenProcessPool

        try:
            # a spawn-context executor starts its workers in submit, with
            # this process's environment
            with _one_blas_thread():
                results = _executor(weights).map(
                    partial(_score_in_worker, cal=cal, cfg=cfg), manifests)
            records = list(results)
        except BrokenProcessPool as exc:
            _drop_pool()
            raise ChildProcessError("an evaluation worker ended unexpectedly") from exc
    else:
        records = [_score_episode(m, weights, cal, cfg) for m in manifests]
    for r in records:
        if r.error is not None:
            warnings.warn(f"skipping unreadable episode {r.episode_id}: {r.error}")
    return records


def metrics_from_records(records: list[EpisodeRecord]) -> Metrics:
    tp = fp = tn = fn = 0
    for r in records:
        if r.error is not None:
            continue
        positive = r.detected
        if r.label == gridio.LABEL_OOD:
            tp, fn = tp + positive, fn + (not positive)
        else:
            fp, tn = fp + positive, tn + (not positive)
    return Metrics.from_counts(tp, fp, tn, fn)


def evaluate(manifests, weights, cal: CalibrationSet, cfg: conformal.DetectorConfig):
    """Episode-level confusion metrics over a labeled corpus.

    Returns (Metrics, per-episode records).  Unreadable episodes are skipped
    with a warning and carry their error in the record.
    """
    if not manifests:
        raise ValueError("corpus must be nonempty")
    records = _run_episodes(manifests, weights, cal, cfg)
    return metrics_from_records(records), records


def rescore_records(records: list[EpisodeRecord], cfg: conformal.DetectorConfig):
    """Re-run the exceedance rule on cached traces for a new threshold.

    Each record's events and each curve point's exceed_count become those
    that detect_episode gives at ``cfg``; a skipped episode has no trace.
    """
    rescored: list[EpisodeRecord] = []
    for r in records:
        events, curve = [], []
        if r.curve:
            runs = conformal.replay([pt.log_m for pt in r.curve], cfg,
                                    r.episode_id, r.curve[0].frame)
            for pt, (count, event) in zip(r.curve, runs):
                # points are frozen, so an unchanged one is shared
                curve.append(pt if pt.exceed_count == count
                             else replace(pt, exceed_count=count))
                if event is not None:
                    events.append(event)
        rescored.append(replace(r, events=events, curve=curve))
    return rescored


def grid_search(manifests, weights, cal: CalibrationSet, thresholds,
                cfg: conformal.DetectorConfig):
    """Evaluate each threshold on shared traces; pick the best by F1.

    Ties prefer lower FPR, then lower threshold.  Returns
    (best_threshold, [(threshold, Metrics), ...], records_at_best).
    """
    # built first, so that an invalid threshold fails before any episode runs
    configs = [replace(cfg, log_threshold=tau) for tau in thresholds]
    if not configs:
        raise ValueError("thresholds must be nonempty")
    _, base_records = evaluate(manifests, weights, cal, cfg)
    table: list[tuple[float, Metrics]] = []
    best = None  # (key, threshold, records)
    for tau_cfg in configs:
        tau = tau_cfg.log_threshold
        records = rescore_records(base_records, tau_cfg)
        metrics = metrics_from_records(records)
        table.append((tau, metrics))
        key = (metrics.f1, -metrics.fpr, -tau)
        if best is None or key > best[0]:
            best = (key, tau, records)
    return best[1], table, best[2]


# ---------------------------------------------------------------------------
# Latency
# ---------------------------------------------------------------------------

def measure_latency(frames, weights, cal: CalibrationSet,
                    cfg: conformal.DetectorConfig,
                    warmup: int, reps: int) -> LatencyReport:
    """Wall-clock time of per-frame detection decisions.

    A decision is flow + preprocessing + encoding + KL + p-value +
    martingale on one frame pair.  The first ``warmup`` decisions are
    discarded; frame pairs are cycled to reach ``reps`` measurements.
    Breakdown buckets: flow (optic flow), encode (preprocess/encoder/KL),
    conformal (p-value and martingale update).
    """
    gridio._check_int("warmup", warmup, 1)
    gridio._check_int("reps", reps, 10)
    frames = list(frames)
    if len(frames) < 2:
        raise ValueError("need at least 2 frames")

    pairs = list(zip(frames, frames[1:]))
    state = conformal.DetectorState()
    stage_ms = np.empty((reps, 3))  # flow, encode, conformal, per decision
    for i in range(warmup + reps):
        a, b = pairs[i % len(pairs)]
        t0 = time.perf_counter()
        flow = opticflow.lucas_kanade(a, b)
        t1 = time.perf_counter()
        x = vae.preprocess(flow[np.newaxis], weights.arch, weights.max_flow)
        alpha = float(vae.score_batch(weights, x)[3][0])
        t2 = time.perf_counter()
        state, _ = conformal.step(state, alpha, cal, cfg)
        t3 = time.perf_counter()
        if i >= warmup:
            stage_ms[i - warmup] = np.diff([t0, t1, t2, t3]) * 1e3
    totals = stage_ms.sum(axis=1)
    flow_ms, encode_ms, conformal_ms = stage_ms.mean(axis=0).tolist()
    return LatencyReport(mean_ms=float(totals.mean()), p95_ms=float(np.percentile(totals, 95)),
                         flow_ms=flow_ms, encode_ms=encode_ms, conformal_ms=conformal_ms,
                         reps=reps)


# ---------------------------------------------------------------------------
# Artifact files
# ---------------------------------------------------------------------------

_CALIBRATION_FIELDS = ("scores", "activation_shape", "activation_mean",
                       "activation_std", "count")


def save_calibration(path, cal: CalibrationSet,
                     stats: localization.ActivationStats) -> None:
    """Write calibration scores plus activation statistics as one JSON file."""
    doc = dict(zip(_CALIBRATION_FIELDS, (
        [float(s) for s in cal.scores], list(stats.mean.shape),
        stats.mean.ravel().tolist(), stats.std.ravel().tolist(), stats.count)))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")


def _numbers(doc: dict, key: str) -> np.ndarray:
    values = doc[key]
    # float first: nearly every value is one, and _is_int's ABC check is slower
    if not isinstance(values, list) or not all(
            isinstance(v, float) or gridio._is_int(v) for v in values):
        raise ValueError(f"calibration field {key!r} must be a list of numbers")
    return np.asarray(values, dtype=np.float64)


def load_calibration(path):
    """Read back (CalibrationSet, ActivationStats) written by save_calibration.

    Raises FormatError when the file is not JSON and ValueError when a field
    is missing or has the wrong type or shape.
    """
    doc = gridio._read_json_object(path, "calibration file")
    for key in _CALIBRATION_FIELDS:
        if key not in doc:
            raise ValueError(f"calibration file missing field {key!r}")
    shape = doc["activation_shape"]
    if not isinstance(shape, list) or not all(gridio._is_int(d) and d >= 1 for d in shape):
        raise ValueError("calibration field 'activation_shape' must be a list of "
                         "positive integers")
    if not gridio._is_int(doc["count"]):
        raise ValueError("calibration field 'count' must be an integer")
    stats = localization.ActivationStats(
        mean=_numbers(doc, "activation_mean").reshape(shape),
        std=_numbers(doc, "activation_std").reshape(shape),
        count=doc["count"],
    )
    return CalibrationSet(scores=_numbers(doc, "scores")), stats


def _write_json(path, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def write_metrics_json(path, metrics: Metrics, threshold: float) -> None:
    """Emit the evaluation summary: the threshold, then every Metrics field."""
    _write_json(path, {"threshold": threshold, **asdict(metrics)})


def write_latency_json(path, report: LatencyReport) -> None:
    """Emit the latency report: every LatencyReport field, in order."""
    _write_json(path, asdict(report))
