"""Corpus evaluation, threshold search, latency measurement, and artifact files.

An episode counts as a positive when the detector emits at least one event
anywhere in it; metrics are episode-level confusion counts.  Threshold grid
searches reuse each episode's log-martingale trace, which does not depend
on the threshold.
"""

from __future__ import annotations

import json
import time
import warnings
from dataclasses import asdict, dataclass, field, replace
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
    calibration require.  Flows are solved vae.SCORE_CHUNK pairs at a time.
    """
    dataset: list[np.ndarray] = []
    for manifest in manifests:
        if manifest.label != gridio.LABEL_ID:
            continue
        for flows in conformal._flow_chunks(load_frames(manifest), flow_params):
            dataset.extend(vae.preprocess(flows, arch, max_flow))
    return dataset


# ---------------------------------------------------------------------------
# Evaluation and threshold search
# ---------------------------------------------------------------------------

def _run_episodes(manifests, weights, cal, cfg) -> list[EpisodeRecord]:
    records: list[EpisodeRecord] = []
    for manifest in manifests:
        record = EpisodeRecord(episode_id=manifest.id, label=manifest.label,
                               gt_onset=manifest.onset_frame)
        try:
            frames = load_frames(manifest)
            record.events, record.curve = conformal.detect_episode(
                frames, weights, cal, cfg, episode_id=manifest.id)
        except (OSError, EOFError, ValueError) as exc:
            warnings.warn(f"skipping unreadable episode {manifest.id}: {exc}")
            record.error = str(exc)
        records.append(record)
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
    """Re-run the exceedance rule on cached traces for a new threshold."""
    rescored: list[EpisodeRecord] = []
    for r in records:
        events = []
        if r.curve:  # a skipped episode has no trace
            events = conformal.events_from_curve(
                [pt.log_m for pt in r.curve], cfg, episode_id=r.episode_id,
                start_frame=r.curve[0].frame)
        rescored.append(replace(r, events=events))
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
    base_records = _run_episodes(manifests, weights, cal, cfg)
    table: list[tuple[float, Metrics]] = []
    best = None
    best_records = None
    for tau_cfg in configs:
        tau = tau_cfg.log_threshold
        records = rescore_records(base_records, tau_cfg)
        metrics = metrics_from_records(records)
        table.append((tau, metrics))
        key = (metrics.f1, -metrics.fpr, -tau)
        if best is None or key > best[0]:
            best = (key, tau)
            best_records = records
    return best[1], table, best_records


# ---------------------------------------------------------------------------
# Latency
# ---------------------------------------------------------------------------

def measure_latency(frames, weights, cal: CalibrationSet,
                    cfg: conformal.DetectorConfig,
                    warmup: int = 3, reps: int = 50) -> LatencyReport:
    """Wall-clock time of per-frame detection decisions.

    A decision is flow + preprocessing + encoding + KL + p-value +
    martingale on one frame pair.  The first ``warmup`` decisions are
    discarded; frame pairs are cycled to reach ``reps`` measurements.
    Breakdown buckets: flow (optic flow), encode (preprocess/encoder/KL),
    conformal (p-value and martingale update).
    """
    if warmup < 1:
        raise ValueError("warmup must be >= 1")
    if reps < 10:
        raise ValueError("reps must be >= 10")
    frames = list(frames)
    if len(frames) < 2:
        raise ValueError("need at least 2 frames")

    pairs = list(zip(frames, frames[1:]))
    state = conformal.DetectorState()
    totals, flows_t, encodes_t, conformals_t = [], [], [], []
    for i in range(warmup + reps):
        a, b = pairs[i % len(pairs)]
        t0 = time.perf_counter()
        flow = opticflow.lucas_kanade(a, b)
        t1 = time.perf_counter()
        _, alpha = vae.score_flow(weights, flow)
        t2 = time.perf_counter()
        state, _ = conformal.step(state, alpha, cal, cfg)
        t3 = time.perf_counter()
        if i >= warmup:
            totals.append((t3 - t0) * 1e3)
            flows_t.append((t1 - t0) * 1e3)
            encodes_t.append((t2 - t1) * 1e3)
            conformals_t.append((t3 - t2) * 1e3)
    return LatencyReport(
        mean_ms=float(np.mean(totals)),
        p95_ms=float(np.percentile(totals, 95)),
        flow_ms=float(np.mean(flows_t)),
        encode_ms=float(np.mean(encodes_t)),
        conformal_ms=float(np.mean(conformals_t)),
        reps=reps,
    )


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
    if not isinstance(values, list) or not all(
            gridio._is_int(v) or isinstance(v, float) for v in values):
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
