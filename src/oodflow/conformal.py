"""Inductive conformal anomaly detection over streaming nonconformity scores.

Each frame's score is converted to a p-value against a fixed calibration
set; a mixture martingale over the last few p-values grows when the stream
stops looking exchangeable with calibration.  An anomaly is declared when
the log-martingale stays above a threshold for a required number of
consecutive frames.

The martingale over a window of p-values p_1..p_k mixes power bets over the
betting parameter:

    M = integral_0^1 prod_i (eps * p_i^(eps - 1)) d(eps)
      = integral_0^1 eps^k * exp((eps - 1) * sum_i ln p_i) d(eps)

which is evaluated with fixed-node Gauss-Legendre quadrature in the log
domain (max-shift stabilized), since the integrand spans hundreds of orders
of magnitude for small p-values.
"""

from __future__ import annotations

import json
from dataclasses import astuple, dataclass, fields

import numpy as np

from . import opticflow, vae
from .gridio import _check_int

# 64-node Gauss-Legendre rule on [0, 1] for the mixture integral
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(64)
_EPS, _LOG_W = 0.5 * (_NODES + 1.0), np.log(0.5 * _WEIGHTS)


@dataclass(frozen=True)
class CalibrationSet:
    """Ascending nonconformity scores of held-out in-distribution samples."""

    scores: np.ndarray

    def __post_init__(self):
        scores = np.asarray(self.scores, dtype=np.float64)
        object.__setattr__(self, "scores", scores)
        if scores.ndim != 1 or scores.size < 1:
            raise ValueError("calibration set needs at least one score")
        if not np.all(np.isfinite(scores)):
            raise ValueError("calibration scores must be finite")
        if np.any(np.diff(scores) < 0):
            raise ValueError("calibration scores must be sorted ascending")

    @property
    def size(self) -> int:
        return int(self.scores.size)


@dataclass(frozen=True)
class DetectorConfig:
    """Sliding-window detector parameters.

    window: number of most recent p-values the martingale is computed over.
    log_threshold: detection threshold on ln(M), in nats.
    consecutive: frames the threshold must be exceeded in a row to declare.
    """

    window: int = 10
    log_threshold: float = 3.0
    consecutive: int = 10

    def __post_init__(self):
        # a fractional window breaks slicing, and a fractional run never ends
        for name in ("window", "consecutive"):
            _check_int(name, getattr(self, name), 1)
        # NaN would never alarm, and neither value can be written as JSON
        if not np.isfinite(self.log_threshold):
            raise ValueError(f"log_threshold must be finite, got {self.log_threshold}")


@dataclass(frozen=True)
class DetectorState:
    """Streaming state: recent p-values, current log-martingale, run bookkeeping."""

    p_window: tuple[float, ...] = ()
    log_m: float = float("-inf")
    exceed_count: int = 0
    frame_index: int = 0
    run_start: int | None = None
    run_peak: float = float("-inf")


@dataclass(frozen=True)
class DetectionEvent:
    """A sustained exceedance: onset_frame is the first frame of the run."""

    episode_id: str
    onset_frame: int
    peak_log_m: float


@dataclass(frozen=True)
class CurvePoint:
    frame: int
    alpha: float
    p: float
    log_m: float
    exceed_count: int


def p_value(cal: CalibrationSet, alpha: float) -> float:
    """Conformal p-value of a test score against the calibration set.

    p = (#{calibration scores >= alpha} + 1) / (l + 1); the test point
    counts itself, so p is always in [1/(l+1), 1] and never zero.  Ties
    count toward the numerator (>= comparison).  Computed by binary search
    on the sorted score array.
    """
    if not np.isfinite(alpha):
        raise ValueError(f"nonconformity score must be finite, got {alpha}")
    l = cal.size
    idx = int(np.searchsorted(cal.scores, alpha, side="left"))
    return (l - idx + 1) / (l + 1)


def _log_mix_from_sums(k, log_sum):
    """ln M for window length(s) k and sum-of-log-p value(s), vectorized."""
    k = np.asarray(k, dtype=np.float64)
    log_sum = np.asarray(log_sum, dtype=np.float64)
    g = (_LOG_W + k[..., None] * np.log(_EPS)
         + (_EPS - 1.0) * log_sum[..., None])
    shift = g.max(axis=-1)
    return shift + np.log(np.exp(g - shift[..., None]).sum(axis=-1))


def log_mixture_martingale(p_window):
    """ln of the mixture martingale over a window of p-values.

    Takes one (k,) window and returns a float, or an (N, k) array of windows
    and returns their (N,) values.  All p-values must lie in (0, 1].
    Accurate to well below 1e-6 relative for windows up to a few dozen
    frames.
    """
    p = np.asarray(p_window, dtype=np.float64)
    if p.ndim not in (1, 2) or p.shape[-1] < 1:
        raise ValueError("p_window must be a nonempty (k,) or (N, k) array")
    if np.any(p <= 0.0) or np.any(p > 1.0):
        raise ValueError("p-values must lie in (0, 1]")
    log_m = _log_mix_from_sums(p.shape[-1], np.sum(np.log(p), axis=-1))
    return float(log_m) if p.ndim == 1 else log_m


def _advance_run(run: tuple, log_m: float, frame: int, cfg: DetectorConfig,
                 episode_id: str):
    """The consecutive-exceedance rule for one frame's log M.

    ``run`` is (length, start frame, peak log M) of the run above the
    threshold.  Returns (new_run, event): a DetectionEvent exactly when the
    length reaches cfg.consecutive, so at most once per sustained run.
    """
    length, start, peak = run
    if log_m > cfg.log_threshold:
        if length == 0:
            start, peak = frame, log_m
        else:
            peak = max(peak, log_m)
        length += 1
    else:
        length, start, peak = 0, None, float("-inf")
    event = None
    if length == cfg.consecutive:
        event = DetectionEvent(episode_id=episode_id, onset_frame=start,
                               peak_log_m=float(peak))
    return (length, start, peak), event


def step(state: DetectorState, alpha: float, cal: CalibrationSet,
         cfg: DetectorConfig, episode_id: str = ""):
    """Advance the detector by one frame's nonconformity score.

    Appends the new p-value (evicting beyond the window), recomputes the
    log-martingale over the current window, and updates the consecutive-
    exceedance run.  Returns (new_state, event); see :func:`_advance_run`.
    """
    p = p_value(cal, alpha)
    window = (state.p_window + (p,))[-cfg.window:]
    log_m = log_mixture_martingale(window)
    frame = state.frame_index
    (exceed, run_start, run_peak), event = _advance_run(
        (state.exceed_count, state.run_start, state.run_peak), log_m, frame,
        cfg, episode_id)
    new_state = DetectorState(p_window=window, log_m=log_m, exceed_count=exceed,
                              frame_index=frame + 1, run_start=run_start,
                              run_peak=run_peak)
    return new_state, event


def replay(log_ms, cfg: DetectorConfig, episode_id: str, start_frame: int):
    """Replay the exceedance rule over a precomputed log-martingale trace.

    Yields (exceed_count, event or None) for each log M in turn, the frames
    numbered from ``start_frame``.  The trace itself does not depend on the
    threshold, so grid searches can reuse one trace across thresholds.
    """
    run = (0, None, float("-inf"))
    for offset, lm in enumerate(log_ms):
        run, event = _advance_run(run, lm, start_frame + offset, cfg, episode_id)
        yield run[0], event


def events_from_curve(log_ms, cfg: DetectorConfig, episode_id: str = "",
                      start_frame: int = 0) -> list[DetectionEvent]:
    """The events of :func:`replay` over a precomputed log-martingale trace."""
    return [event for _, event in replay(log_ms, cfg, episode_id, start_frame)
            if event is not None]


def _flow_chunks(frames: list, params: opticflow.FlowParams):
    """The flows of consecutive frame pairs, vae.SCORE_CHUNK pairs at a time."""
    for start in range(0, len(frames) - 1, vae.SCORE_CHUNK):
        yield opticflow.flow_sequence(frames[start:start + vae.SCORE_CHUNK + 1], params)


def detect_episode(frames, weights, cal: CalibrationSet, cfg: DetectorConfig,
                   episode_id: str = ""):
    """Run the full pipeline over an ordered frame sequence.

    For each consecutive frame pair: optic flow, preprocessing, encoding,
    KL scoring, detector step.  Pairs are scored vae.SCORE_CHUNK at a time,
    with one flow solve and one encoder batch per chunk, and then stepped in
    order; every number is bit for bit what the one-pair calls give.
    Decisions are indexed by the later frame of each pair (the first curve
    point is frame 1).  Returns (events, curve).
    """
    frames = list(frames)
    if len(frames) < 2:
        raise ValueError("an episode needs at least 2 frames")
    state = DetectorState(frame_index=1)
    events: list[DetectionEvent] = []
    curve: list[CurvePoint] = []
    for flows in _flow_chunks(frames, opticflow.FlowParams()):
        x = vae.preprocess(flows, weights.arch, weights.max_flow)
        for alpha in vae.score_batch(weights, x)[3].tolist():
            frame_label = state.frame_index
            state, event = step(state, alpha, cal, cfg, episode_id)
            curve.append(CurvePoint(frame=frame_label, alpha=alpha,
                                    p=state.p_window[-1], log_m=state.log_m,
                                    exceed_count=state.exceed_count))
            if event is not None:
                events.append(event)
    return events, curve


def write_curve_csv(path, curve: list[CurvePoint]) -> None:
    """Dump a per-frame trace as CSV, one column per CurvePoint field."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(f.name for f in fields(CurvePoint)) + "\n")
        for pt in curve:
            fh.write(",".join(map(repr, astuple(pt))) + "\n")


def write_events_jsonl(path, events: list[DetectionEvent]) -> None:
    """Dump detection events as JSON lines."""
    with open(path, "w", encoding="utf-8") as fh:
        for ev in events:
            fh.write(json.dumps({"episode": ev.episode_id,
                                 "onset_frame": ev.onset_frame,
                                 "peak_log_m": ev.peak_log_m}) + "\n")
