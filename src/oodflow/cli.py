"""Command-line surface: synth, train, calibrate, detect, localize, eval, bench.

Exit codes: 0 success, 2 validation error, 3 I/O error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import conformal, gridio, harness, localization, opticflow, synthdata
from . import trainer as trainer_mod
from . import vae
from .gridio import FormatError
from .vae import NumericError

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_IO = 3
EXIT_NUMERIC = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oodflow",
        description="Streaming out-of-distribution motion detection.")
    sub = parser.add_subparsers(dest="command", required=True)
    # shared flags, each declared once: a model, an episode to run it on, the
    # detector's settings, and the corpus split that train and calibrate share
    model = argparse.ArgumentParser(add_help=False)
    model.add_argument("--weights", required=True)
    model.add_argument("--cal", required=True)
    episode = argparse.ArgumentParser(add_help=False, parents=[model])
    episode.add_argument("--episode", required=True)
    detector = argparse.ArgumentParser(add_help=False)
    detector.add_argument("--threshold", type=float,
                          default=conformal.DetectorConfig.log_threshold)
    detector.add_argument("--window", type=int, default=conformal.DetectorConfig.window)
    detector.add_argument("--consecutive", type=int,
                          default=conformal.DetectorConfig.consecutive)
    split = argparse.ArgumentParser(add_help=False)
    split.add_argument("--corpus", required=True)
    split.add_argument("--seed", type=int, required=True,
                       help="seed of the holdout split (calibrate's must be train's)")
    split.add_argument("--fraction", type=float, default=0.2,
                       help="calibration holdout fraction (calibrate's must be train's)")

    p = sub.add_parser("synth", help="generate a synthetic labeled episode corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--n-id", type=int, required=True)
    p.add_argument("--n-ood", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", type=int, default=synthdata.SceneConfig.size)
    p.add_argument("--length", type=int, default=synthdata.SceneConfig.episode_length)

    p = sub.add_parser("train", help="train the VAE on a corpus's ID episodes",
                       parents=[split])
    p.add_argument("--out", required=True)
    p.add_argument("--epochs", type=int, required=True)
    p.add_argument("--latent", type=int, default=vae.VaeArchitecture.latent_dim)
    p.add_argument("--input-size", type=int, default=vae.VaeArchitecture.input_size)
    p.add_argument("--max-flow", type=float, default=vae.DEFAULT_MAX_FLOW)
    p.add_argument("--batch-size", type=int, default=trainer_mod.TrainConfig.batch_size)
    p.add_argument("--log", default=None, help="optional training-log CSV path")

    p = sub.add_parser("calibrate", help="build the calibration file from held-out flows",
                       parents=[split])
    p.add_argument("--weights", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("detect", help="run the detector over one episode",
                       parents=[episode, detector])
    p.add_argument("--out-curve", required=True)
    p.add_argument("--out-events", required=True)

    p = sub.add_parser("localize", help="write an anomaly overlay for one frame",
                       parents=[episode])
    p.add_argument("--frame", type=int, required=True)
    p.add_argument("--out-overlay", required=True)
    p.add_argument("--out-composite", required=True)
    p.add_argument("--overlay-threshold", type=float, default=0.5)

    p = sub.add_parser("eval", help="episode-level metrics over a corpus",
                       parents=[model, detector])
    p.add_argument("--corpus", required=True)
    p.add_argument("--grid", default=None,
                   help="comma-separated thresholds to search (best by F1); "
                        "without it, --threshold alone")
    p.add_argument("--out", required=True)

    p = sub.add_parser("bench", help="measure per-decision latency", parents=[episode])
    p.add_argument("--reps", type=int, default=50)
    p.add_argument("--warmup", type=int, default=3)
    p.add_argument("--out", required=True)

    return parser


def _cmd_synth(args) -> None:
    cfg = synthdata.SceneConfig(size=args.size, episode_length=args.length)
    manifests = synthdata.gen_benchmark(args.out, cfg, args.n_id, args.n_ood,
                                        args.seed)
    print(f"wrote {len(manifests)} episodes under {args.out}")


def _split_corpus(args, arch: vae.VaeArchitecture, max_flow: float):
    """(train, calibration) parts of the preprocessed ID flows of ``--corpus``.

    The corpus is read only once split_calibration has checked
    ``--fraction``, so a bad fraction fails before any flow is solved.
    """
    def flows():
        dataset = harness.corpus_flow_dataset(harness.load_corpus(args.corpus),
                                              opticflow.FlowParams(), arch, max_flow)
        if not dataset:
            raise ValueError("corpus contains no ID flow pairs")
        yield from dataset

    return trainer_mod.split_calibration(flows(), args.fraction, args.seed)


def _cmd_train(args) -> None:
    arch = vae.VaeArchitecture(input_size=args.input_size, latent_dim=args.latent)
    train_part, _ = _split_corpus(args, arch, args.max_flow)
    config = trainer_mod.TrainConfig(epochs=args.epochs, seed=args.seed,
                                     batch_size=args.batch_size)
    weights, log = trainer_mod.train(train_part, config, arch, args.max_flow)
    vae.save_weights(args.out, weights)
    if args.log:
        trainer_mod.write_training_log(args.log, log)
    final = log[-1].mean_total if log else float("nan")
    print(f"trained on {len(train_part)} flows for {args.epochs} epochs "
          f"(final mean loss {final:.4f}); weights -> {args.out}")


def _cmd_calibrate(args) -> None:
    weights = vae.load_weights(args.weights)
    _, cal_part = _split_corpus(args, weights.arch, weights.max_flow)
    cal = trainer_mod.build_calibration(weights, cal_part)
    stats = localization.activation_stats(weights, cal_part)
    harness.save_calibration(args.out, cal, stats)
    print(f"calibration set of {cal.size} scores -> {args.out}")


def _detector_config(args) -> conformal.DetectorConfig:
    return conformal.DetectorConfig(window=args.window,
                                    log_threshold=args.threshold,
                                    consecutive=args.consecutive)


def _load_episode_inputs(args):
    """(weights, calibration, activation stats, manifest, frames), read in that order."""
    weights = vae.load_weights(args.weights)
    cal, stats = harness.load_calibration(args.cal)
    manifest = gridio.read_manifest(args.episode)
    return weights, cal, stats, manifest, harness.load_frames(manifest)


def _cmd_detect(args) -> None:
    weights, cal, _, manifest, frames = _load_episode_inputs(args)
    events, curve = conformal.detect_episode(frames, weights, cal, _detector_config(args),
                                             episode_id=manifest.id)
    conformal.write_curve_csv(args.out_curve, curve)
    conformal.write_events_jsonl(args.out_events, events)
    print(f"{manifest.id}: {len(events)} event(s); "
          f"peak log M = {max(pt.log_m for pt in curve):.3f}")


def _cmd_localize(args) -> None:
    weights, _, stats, _, frames = _load_episode_inputs(args)
    if not 1 <= args.frame < len(frames):
        raise ValueError(f"--frame must be in [1, {len(frames) - 1}] "
                         f"(a decision needs the preceding frame)")
    flow = opticflow.lucas_kanade(frames[args.frame - 1], frames[args.frame])
    x = vae.preprocess(flow[np.newaxis], weights.arch, weights.max_flow)
    acts = vae.score_batch(weights, x)[2][0]
    frame = frames[args.frame]
    overlay_map = localization.overlay(acts, stats, frame.shape)
    composite = localization.render(frame, overlay_map, args.overlay_threshold)
    gridio.write_fgrid(args.out_overlay, overlay_map)
    gridio.write_ppm(args.out_composite, composite)
    print(f"overlay -> {args.out_overlay}; composite -> {args.out_composite}")


def _cmd_eval(args) -> None:
    weights = vae.load_weights(args.weights)
    cal, _ = harness.load_calibration(args.cal)
    manifests = harness.load_corpus(args.corpus)
    if args.grid:
        thresholds = [float(t) for t in args.grid.split(",") if t.strip()]
    else:
        thresholds = [args.threshold]
    best_tau, table, records = harness.grid_search(
        manifests, weights, cal, thresholds, _detector_config(args))
    print("threshold  f1      fpr     tpr     accuracy")
    for tau, m in table:
        print(f"{tau:9.3f}  {m.f1:.4f}  {m.fpr:.4f}  {m.tpr:.4f}  {m.accuracy:.4f}")
    harness.write_metrics_json(args.out, harness.metrics_from_records(records), best_tau)
    print(f"best threshold {best_tau} -> {args.out}")


def _cmd_bench(args) -> None:
    weights, cal, _, _, frames = _load_episode_inputs(args)
    report = harness.measure_latency(frames, weights, cal,
                                     conformal.DetectorConfig(),
                                     warmup=args.warmup, reps=args.reps)
    harness.write_latency_json(args.out, report)
    print(f"mean {report.mean_ms:.2f} ms/decision (p95 {report.p95_ms:.2f}); "
          f"flow {report.flow_ms:.2f}, encode {report.encode_ms:.2f}, "
          f"conformal {report.conformal_ms:.2f}")


_COMMANDS = {
    "synth": _cmd_synth,
    "train": _cmd_train,
    "calibrate": _cmd_calibrate,
    "detect": _cmd_detect,
    "localize": _cmd_localize,
    "eval": _cmd_eval,
    "bench": _cmd_bench,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _COMMANDS[args.command](args)
    # FormatError is a ValueError, so it must be caught first
    except (FormatError, OSError, EOFError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
