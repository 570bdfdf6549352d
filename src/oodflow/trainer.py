"""VAE training with hand-derived backpropagation, plus calibration-set building.

The objective per sample is the sum-of-squares reconstruction error plus
beta_kl times the posterior KL from the standard-normal prior; batches are
averaged.  The forward and backward passes, the parameters and Adam's
moments are all float32, the dtype that weights files store and inference
runs in.  A single seeded generator draws everything (init, epoch shuffles,
reparameterization noise), so a (dataset, config) pair fixes the resulting
weights bit-exactly.
"""

from __future__ import annotations

import csv
from dataclasses import astuple, dataclass, fields

import numpy as np

from . import nnops, vae
from .conformal import CalibrationSet
from .gridio import _check_int
# kl_score is not called here; perfbench's tracer checks that it wraps this alias
from .vae import NumericError, VaeArchitecture, VaeWeights, kl_score  # noqa: F401

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8
# elements per Adam chunk: 128 KiB per float32 temporary
ADAM_CHUNK = 32 * 1024


@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    batch_size: int = 32
    learning_rate: float = 1e-3
    beta_kl: float = 1.0
    seed: int = 0

    def __post_init__(self):
        # a fractional count fails in range(), and a non-finite learning rate
        # or KL weight only once training has run
        for name, low in (("epochs", 0), ("batch_size", 1)):
            _check_int(name, getattr(self, name), low)
        for name in ("learning_rate", "beta_kl"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    mean_total: float
    mean_recon: float
    mean_kl: float


# ---------------------------------------------------------------------------
# Loss and gradients through the shared network (in the parameters' dtype)
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

    cache = dict(enc_tape=enc_tape, dec_tape=dec_tape, acts=acts, mu=mu,
                 logvar_raw=logvar_raw, logvar=logvar, std=std, noise=noise,
                 diff=diff)
    return total_per, recon_per, kl_per, cache


def _backward(params: dict[str, np.ndarray], cache: dict,
              beta_kl: float) -> dict[str, np.ndarray]:
    """Gradients of mean per-sample total loss w.r.t. every parameter.

    Empties the tapes in ``cache``: each entry is dropped once it is used.
    """
    enc_tape, dec_tape, acts = cache["enc_tape"], cache["dec_tape"], cache["acts"]
    n = acts.shape[0]
    grads: dict[str, np.ndarray] = {}

    # dec_tape[0] is z and dec_tape[i + 1] the input of transposed conv i,
    # which is the output of the ReLU below it: its mask
    g = 2.0 * cache["diff"] / n
    for i in range(3, -1, -1):
        h = dec_tape.pop()
        g, grads[f"tdec{i}_w"], grads[f"tdec{i}_b"] = nnops.conv_transpose2d_backward(
            g, h, params[f"tdec{i}_w"])
        g = nnops.relu_backward(g, h)
    # the reshape copies g: free h and the 4-D g before the next gemm, since
    # the free order moves peak RSS
    del h
    g = g.reshape(n, -1)
    dz, grads["dec_w"], grads["dec_b"] = nnops.linear_backward(
        g, dec_tape.pop(), params["dec_w"])

    mu, logvar, std, noise = cache["mu"], cache["logvar"], cache["std"], cache["noise"]
    dmu = dz + (beta_kl / n) * mu
    dlogvar = dz * (0.5 * std * noise) + (beta_kl / n) * 0.5 * (np.exp(logvar) - 1.0)
    clamp_open = (cache["logvar_raw"] > vae.LOGVAR_MIN) & (cache["logvar_raw"] < vae.LOGVAR_MAX)
    dlogvar_raw = dlogvar * clamp_open

    flat = acts.reshape(n, -1)
    dflat_mu, grads["mu_w"], grads["mu_b"] = nnops.linear_backward(
        dmu, flat, params["mu_w"])
    dflat_lv, grads["logvar_w"], grads["logvar_b"] = nnops.linear_backward(
        dlogvar_raw, flat, params["logvar_w"])
    g = (dflat_mu + dflat_lv).reshape(acts.shape)

    # conv i's ReLU output, its mask, is conv i + 1's input (acts for enc3).
    # conv2d_backward builds conv i's columns from its input, one at a time
    out = acts
    for i in range(3, -1, -1):
        g = nnops.relu_backward(g, out)
        out = enc_tape.pop()
        grads[f"enc{i}_w"], grads[f"enc{i}_b"] = nnops.conv2d_backward(
            g, out, params[f"enc{i}_w"])
        if i > 0:  # the input of enc0 is the data, which needs no gradient
            g = nnops.conv2d_input_grad(g, params[f"enc{i}_w"])
    return grads


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------

def train(dataset, config: TrainConfig, arch: VaeArchitecture,
          max_flow: float = vae.DEFAULT_MAX_FLOW):
    """Adam-optimize the VAE on preprocessed flow grids, in float32.

    Returns (VaeWeights, per-epoch EpochStats list).  With epochs == 0 the
    seeded initial weights are returned untouched.  Raises NumericError if a
    batch loss goes non-finite.
    """
    vae._check_max_flow(max_flow)  # VaeWeights would reject it only after training
    items = [np.asarray(d) for d in dataset]
    if not items:
        raise ValueError("dataset must be nonempty")
    expected = (vae.INPUT_CHANNELS, arch.input_size, arch.input_size)
    for d in items:
        if d.shape != expected:
            raise ValueError(f"dataset items must have shape {expected}, got {d.shape}")

    rng = np.random.default_rng(config.seed)
    params = {k: v.astype(np.float32) for k, v in vae.init_params(arch, rng).items()}
    m_state = {k: np.zeros_like(v) for k, v in params.items()}
    v_state = {k: np.zeros_like(v) for k, v in params.items()}
    # Adam's two temporaries, for one chunk of a tensor at a time
    chunk1, chunk2 = np.empty(ADAM_CHUNK, np.float32), np.empty(ADAM_CHUNK, np.float32)
    step = 0
    n = len(items)
    log: list[EpochStats] = []
    grads = None

    for epoch in range(config.epochs):
        perm = rng.permutation(n)
        tot_sum = rec_sum = kl_sum = 0.0
        for start in range(0, n, config.batch_size):
            batch_idx = perm[start:start + config.batch_size]
            # each item is copied into a float32 batch: vae.preprocess gives
            # float32 flows, and no copy of the data set is kept
            xb = np.empty((len(batch_idx),) + expected, np.float32)
            for row, i in enumerate(batch_idx):
                xb[row] = items[i]
            # drawn in float64 and rounded, so the stream of draws is the
            # one a float64 run takes
            noise = rng.standard_normal((xb.shape[0], arch.latent_dim)).astype(np.float32)
            total_per, recon_per, kl_per, cache = _forward(
                params, arch, xb, noise, config.beta_kl)
            # free the previous step's gradients now, below this step's tape,
            # where _backward reuses their memory.  Per 2-epoch call on 378
            # flows at 64 px, freed with the tape they let glibc trim the heap
            # (140k minor faults against 24k), and freed when _backward
            # returns they added 2-7 MB to peak RSS
            grads = None
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
            del cache, xb  # one tape per step: free it before the next forward
            step += 1
            b1c = 1.0 - ADAM_BETA1 ** step
            b2c = 1.0 - ADAM_BETA2 ** step
            for name, p in params.items():
                p, g = p.reshape(-1), grads[name].reshape(-1)
                m, v = m_state[name].reshape(-1), v_state[name].reshape(-1)
                # m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g and
                # p -= lr * (m/b1c) / (sqrt(v/b2c) + eps), in place, in this
                # order, one chunk at a time so that t1 and t2 stay in cache
                for lo in range(0, p.size, ADAM_CHUNK):
                    hi = lo + ADAM_CHUNK
                    gc, mc, vc = g[lo:hi], m[lo:hi], v[lo:hi]
                    t1, t2 = chunk1[:gc.size], chunk2[:gc.size]
                    np.multiply(1 - ADAM_BETA1, gc, out=t1)
                    np.multiply(1 - ADAM_BETA2, gc, out=t2)
                    mc *= ADAM_BETA1
                    mc += t1
                    t2 *= gc
                    vc *= ADAM_BETA2
                    vc += t2
                    np.divide(mc, b1c, out=t1)
                    t1 *= config.learning_rate
                    np.sqrt(np.divide(vc, b2c, out=t2), out=t2)
                    t2 += ADAM_EPSILON
                    t1 /= t2
                    p[lo:hi] -= t1
        log.append(EpochStats(epoch=epoch, mean_total=tot_sum / n,
                              mean_recon=rec_sum / n, mean_kl=kl_sum / n))

    return VaeWeights(arch=arch, max_flow=max_flow, tensors=params), log


def write_training_log(path, log: list[EpochStats]) -> None:
    """Emit the per-epoch loss log as CSV, one column per EpochStats field."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(f.name for f in fields(EpochStats))
        writer.writerows(map(repr, astuple(row)) for row in log)


# ---------------------------------------------------------------------------
# Calibration
# ---------------------------------------------------------------------------

def split_calibration(dataset, fraction: float, seed: int):
    """Seeded shuffle then split into (train_part, calibration_part).

    ``fraction`` is checked before ``dataset`` is read, so a lazy iterable
    is not consumed when the fraction is bad.
    """
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
    """Score held-out flows with vae.score_batch and sort ascending.

    score_batch gives each row the bits it gives the row alone, so the
    calibration set is exactly permutation-invariant in its inputs.  Flows
    are stacked vae.SCORE_CHUNK at a time: one call on the whole stack gives
    the same bits, but raised the calibrate job's peak RSS by about 0.3 MB.
    """
    flows = list(cal_flows)
    if not flows:
        raise ValueError("calibration flows must be nonempty")
    scores = [vae.score_batch(weights, np.stack(flows[start:start + vae.SCORE_CHUNK]))[3]
              for start in range(0, len(flows), vae.SCORE_CHUNK)]
    return CalibrationSet(scores=np.sort(np.concatenate(scores)))
