"""VAE training with hand-derived backpropagation, plus calibration-set building.

The objective per sample is the sum-of-squares reconstruction error plus
beta_kl times the posterior KL from the standard-normal prior; batches are
averaged.  Everything is computed in float64 from a single seeded generator
(init draws, epoch shuffles, reparameterization noise), so a (dataset,
config) pair fixes the resulting weights bit-exactly.
"""

from __future__ import annotations

import csv
from dataclasses import astuple, dataclass, fields

import numpy as np

from . import nnops, vae
from .conformal import CalibrationSet
# kl_score is not called here; perfbench's tracer checks that it wraps this alias
from .vae import NumericError, VaeArchitecture, VaeWeights, kl_score  # noqa: F401

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    batch_size: int = 32
    learning_rate: float = 1e-3
    beta_kl: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    mean_total: float
    mean_recon: float
    mean_kl: float


# ---------------------------------------------------------------------------
# Loss and gradients through the shared network (float64)
# ---------------------------------------------------------------------------

def _forward(params: dict[str, np.ndarray], arch: VaeArchitecture,
             x: np.ndarray, noise: np.ndarray, beta_kl: float):
    """Full VAE forward; returns per-sample loss terms and backprop caches."""
    enc_tape, dec_tape = [], []
    mu, logvar_raw, acts = vae.encoder(params, x, enc_tape)
    logvar = np.clip(logvar_raw, vae.LOGVAR_MIN, vae.LOGVAR_MAX)
    std = np.exp(0.5 * logvar)
    z = mu + std * noise
    recon = vae.decoder(params, arch, z, dec_tape)

    diff = recon - x
    recon_per = np.sum(diff * diff, axis=(1, 2, 3))
    kl_per = vae._kl(mu, logvar)
    total_per = recon_per + beta_kl * kl_per

    cache = dict(enc_tape=enc_tape, dec_tape=dec_tape,
                 flat=acts.reshape(acts.shape[0], -1), mu=mu,
                 logvar_raw=logvar_raw, logvar=logvar, std=std, noise=noise,
                 diff=diff)
    return total_per, recon_per, kl_per, cache


def _backward(params: dict[str, np.ndarray], cache: dict,
              beta_kl: float) -> dict[str, np.ndarray]:
    """Gradients of mean per-sample total loss w.r.t. every parameter."""
    s, p = vae.STRIDE, vae.PADDING
    enc_tape, dec_tape = cache["enc_tape"], cache["dec_tape"]
    n = cache["diff"].shape[0]
    grads: dict[str, np.ndarray] = {}

    # dec_tape[0] is the dense layer, dec_tape[i + 1] transposed conv i
    g = 2.0 * cache["diff"] / n
    for i in range(3, -1, -1):
        dx, grads[f"tdec{i}_w"], grads[f"tdec{i}_b"] = nnops.conv_transpose2d_backward(
            g, dec_tape[i + 1][0], params[f"tdec{i}_w"], s, p)
        pre = dec_tape[i][1]
        g = nnops.relu_backward(dx.reshape(pre.shape), pre)
    dz, grads["dec_w"], grads["dec_b"] = nnops.linear_backward(
        g, dec_tape[0][0], params["dec_w"])

    mu, logvar, std, noise = cache["mu"], cache["logvar"], cache["std"], cache["noise"]
    dmu = dz + (beta_kl / n) * mu
    dlogvar = dz * (0.5 * std * noise) + (beta_kl / n) * 0.5 * (np.exp(logvar) - 1.0)
    clamp_open = (cache["logvar_raw"] > vae.LOGVAR_MIN) & (cache["logvar_raw"] < vae.LOGVAR_MAX)
    dlogvar_raw = dlogvar * clamp_open

    dflat_mu, grads["mu_w"], grads["mu_b"] = nnops.linear_backward(
        dmu, cache["flat"], params["mu_w"])
    dflat_lv, grads["logvar_w"], grads["logvar_b"] = nnops.linear_backward(
        dlogvar_raw, cache["flat"], params["logvar_w"])
    g = (dflat_mu + dflat_lv).reshape(enc_tape[3][1].shape)

    for i in range(3, -1, -1):
        cols, pre = enc_tape[i]
        g = nnops.relu_backward(g, pre)
        grads[f"enc{i}_w"], grads[f"enc{i}_b"] = nnops.conv2d_backward(
            g, cols, params[f"enc{i}_w"])
        if i > 0:  # the input of enc0 is the data, which needs no gradient
            g = nnops.conv2d_input_grad(g, params[f"enc{i}_w"], s, p)
    return grads


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------

def train(dataset, config: TrainConfig, arch: VaeArchitecture,
          max_flow: float = vae.DEFAULT_MAX_FLOW):
    """Adam-optimize the VAE on preprocessed flow grids.

    Returns (VaeWeights, per-epoch EpochStats list).  With epochs == 0 the
    seeded initial weights are returned untouched.  Raises NumericError if a
    batch loss goes non-finite.
    """
    if len(dataset) == 0:
        raise ValueError("dataset must be nonempty")
    x_all = np.stack([np.asarray(d, dtype=np.float64) for d in dataset])
    expected = (vae.INPUT_CHANNELS, arch.input_size, arch.input_size)
    if x_all.shape[1:] != expected:
        raise ValueError(f"dataset items must have shape {expected}, got {x_all.shape[1:]}")

    rng = np.random.default_rng(config.seed)
    params = vae.init_params(arch, rng)
    m_state = {k: np.zeros_like(v) for k, v in params.items()}
    v_state = {k: np.zeros_like(v) for k, v in params.items()}
    step = 0
    n = x_all.shape[0]
    log: list[EpochStats] = []

    for epoch in range(config.epochs):
        perm = rng.permutation(n)
        tot_sum = rec_sum = kl_sum = 0.0
        for start in range(0, n, config.batch_size):
            batch_idx = perm[start:start + config.batch_size]
            xb = x_all[batch_idx]
            noise = rng.standard_normal((xb.shape[0], arch.latent_dim))
            total_per, recon_per, kl_per, cache = _forward(
                params, arch, xb, noise, config.beta_kl)
            loss = float(total_per.mean())
            if not np.isfinite(loss):
                raise NumericError(
                    f"non-finite loss at epoch {epoch}, batch starting {start}: "
                    f"total={loss}"
                )
            tot_sum += float(total_per.sum())
            rec_sum += float(recon_per.sum())
            kl_sum += float(kl_per.sum())
            grads = _backward(params, cache, config.beta_kl)
            step += 1
            b1c = 1.0 - ADAM_BETA1 ** step
            b2c = 1.0 - ADAM_BETA2 ** step
            for name, p in params.items():
                # m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g and
                # p -= lr * (m/b1c) / (sqrt(v/b2c) + eps), in place, in this order
                g, m, v = grads[name], m_state[name], v_state[name]
                t1, t2 = (1 - ADAM_BETA1) * g, (1 - ADAM_BETA2) * g
                m *= ADAM_BETA1
                m += t1
                t2 *= g
                v *= ADAM_BETA2
                v += t2
                np.divide(m, b1c, out=t1)
                t1 *= config.learning_rate
                np.sqrt(np.divide(v, b2c, out=t2), out=t2)
                t2 += ADAM_EPSILON
                t1 /= t2
                p -= t1
        log.append(EpochStats(epoch=epoch, mean_total=tot_sum / n,
                              mean_recon=rec_sum / n, mean_kl=kl_sum / n))

    tensors = {k: v.astype(np.float32) for k, v in params.items()}
    return VaeWeights(arch=arch, max_flow=max_flow, tensors=tensors), log


def write_training_log(path, log: list[EpochStats]) -> None:
    """Emit the per-epoch loss log as CSV, one column per EpochStats field."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(f.name for f in fields(EpochStats))
        writer.writerows(map(repr, astuple(row)) for row in log)


# ---------------------------------------------------------------------------
# Verification and calibration
# ---------------------------------------------------------------------------

def gradient_check(weights: VaeWeights, sample, n_params: int = 120,
                   seed: int = 0, beta_kl: float = 1.0,
                   indices: list[tuple[str, int]] | None = None) -> float:
    """Compare analytic gradients against central finite differences.

    Runs in float64 with reparameterization noise fixed to zero; perturbation
    h = 1e-5 * max(1, |w|).  Returns the maximum relative error over the
    checked parameters (random unless ``indices`` names them explicitly).
    """
    arch = weights.arch
    params = {k: v.astype(np.float64) for k, v in weights.tensors.items()}
    x = np.asarray(sample, dtype=np.float64)[np.newaxis]
    noise = np.zeros((1, arch.latent_dim))

    _, _, _, cache = _forward(params, arch, x, noise, beta_kl)
    grads = _backward(params, cache, beta_kl)

    if indices is None:
        names = list(params)
        sizes = np.array([params[k].size for k in names])
        offsets = np.concatenate([[0], np.cumsum(sizes)])
        rng = np.random.default_rng(seed)
        chosen = rng.choice(offsets[-1], size=min(n_params, offsets[-1]), replace=False)
        indices = []
        for flat in np.sort(chosen):
            t = int(np.searchsorted(offsets, flat, side="right")) - 1
            indices.append((names[t], int(flat - offsets[t])))

    worst = 0.0
    for name, idx in indices:
        w0 = params[name].flat[idx]
        h = 1e-5 * max(1.0, abs(w0))
        params[name].flat[idx] = w0 + h
        loss_p = _forward(params, arch, x, noise, beta_kl)[0].mean()
        params[name].flat[idx] = w0 - h
        loss_m = _forward(params, arch, x, noise, beta_kl)[0].mean()
        params[name].flat[idx] = w0
        numeric = (loss_p - loss_m) / (2.0 * h)
        analytic = grads[name].flat[idx]
        rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8)
        worst = max(worst, rel)
    return worst


def split_calibration(dataset, fraction: float, seed: int):
    """Seeded shuffle then split into (train_part, calibration_part)."""
    if not 0.0 < fraction < 1.0:
        raise ValueError("fraction must be in (0, 1)")
    items = list(dataset)
    n = len(items)
    n_cal = int(round(n * fraction))
    if n_cal == 0 or n_cal == n:
        raise ValueError(f"split of {n} items at fraction {fraction} leaves an empty part")
    perm = np.random.default_rng(seed).permutation(n)
    shuffled = [items[i] for i in perm]
    return shuffled[:n - n_cal], shuffled[n - n_cal:]


def build_calibration(weights: VaeWeights, cal_flows) -> CalibrationSet:
    """Score held-out flows via encode + KL and sort ascending.

    Flows are encoded vae.SCORE_CHUNK at a time.  The inference encoder
    gives each row the bits it gives the row alone, so the calibration set
    is exactly permutation-invariant in its inputs.
    """
    flows = list(cal_flows)
    if not flows:
        raise ValueError("calibration flows must be nonempty")
    scores = [vae.score_batch(weights, np.stack(flows[start:start + vae.SCORE_CHUNK]))[3]
              for start in range(0, len(flows), vae.SCORE_CHUNK)]
    return CalibrationSet(scores=np.sort(np.concatenate(scores)))
