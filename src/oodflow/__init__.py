"""Streaming out-of-distribution motion detection for image sequences.

Pipeline: dense optic flow between consecutive frames, a convolutional VAE
whose posterior KL from the prior scores each flow field's nonconformity,
and a conformal mixture martingale over the resulting p-values that flags
sustained departures from the calibration distribution.  A companion
overlay localizes the anomaly from encoder activations.
"""

from .conformal import (CalibrationSet, CurvePoint, DetectionEvent,
                        DetectorConfig, DetectorState, detect_episode,
                        events_from_curve, log_mixture_martingale, p_value,
                        step)
from .gridio import (EpisodeManifest, FormatError, as_grid, read_fgrid,
                     read_manifest, read_pgm, write_fgrid, write_manifest,
                     write_pgm, write_ppm)
from .harness import (LatencyReport, Metrics, evaluate, grid_search,
                      load_corpus, measure_latency)
from .localization import ActivationStats, activation_stats, overlay, render
from .opticflow import FlowParams, lucas_kanade
from .synthdata import (AnomalySpec, Episode, SceneConfig, gen_benchmark,
                        gen_id_episode, gen_ood_episode, gen_texture)
from .trainer import TrainConfig, build_calibration, split_calibration, train
from .vae import (EncodeOutput, LatentPosterior, NumericError,
                  VaeArchitecture, VaeWeights, encode, init_weights, kl_score,
                  load_weights, preprocess, save_weights, score_batch)

__version__ = "0.1.0"
