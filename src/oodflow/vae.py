"""Convolutional VAE forward passes, nonconformity scoring, and weight files.

The encoder maps a 2-channel flow field through four stride-2 convolutions
(ReLU) to a diagonal-Gaussian latent posterior; the decoder mirrors it with
transposed convolutions.  :func:`encoder` and :func:`decoder` define them
once for any float dtype: inference runs the encoder in float32 and
training runs both in float32 (the gradient check of the tests runs them in
float64).  The nonconformity score of an input is the KL
divergence of its posterior from the standard-normal prior, summed over
latent dimensions: small for motion resembling the training data, large for
out-of-distribution motion.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from . import nnops
from .gridio import FormatError, _check_int

WEIGHTS_MAGIC = b"VAEW"
WEIGHTS_VERSION = 1

LOGVAR_MIN = -10.0
LOGVAR_MAX = 10.0

DEFAULT_MAX_FLOW = 8.0

# rows per inference encoder call: score_batch runs the encoder on slices of
# at most this many rows, so no call builds a larger im2col however many rows
# it is given (enc1's columns are 4 MiB at 8 rows of 64 px, 32 MiB at 64).
# Scoring 64 px episodes on 2 vCPUs took 0.96 ms per pair at 8 or 16 rows,
# 1.03 ms at 4 or 59 and 1.53 ms at 1
SCORE_CHUNK = 8

# The weights header does not record it, so it is not an architecture field.
INPUT_CHANNELS = 2  # flow (u, v)


class NumericError(ArithmeticError):
    """A computation produced non-finite values."""


def _check_max_flow(max_flow: float) -> None:
    # inf would scale every flow to zero, and NaN every flow to NaN; the
    # weights file stores float32, which turns 1e39 into inf and 1e-50 into 0
    with np.errstate(over="ignore"):
        stored = np.float32(max_flow)
    if not (stored > 0 and np.isfinite(stored)):
        raise ValueError(f"max_flow must be finite and positive in float32, got {max_flow}")


@dataclass(frozen=True)
class VaeArchitecture:
    """Fixed 4-layer conv family in the conv geometry of :mod:`nnops`.

    Each encoder layer halves the spatial size, so input_size must be
    divisible by 16; the last conv volume is conv_channels[-1] channels at
    input_size/16 resolution.
    """

    input_size: int = 64
    latent_dim: int = 24
    conv_channels: tuple[int, int, int, int] = (32, 64, 128, 256)

    def __post_init__(self):
        if len(self.conv_channels) != 4:
            raise ValueError("conv_channels must list exactly 4 layer widths")
        for i, width in enumerate(self.conv_channels):
            _check_int(f"conv_channels[{i}]", width, 1)
        _check_int("input_size", self.input_size, 16)
        if self.input_size % 16 != 0:
            raise ValueError("input_size must be a multiple of 16")
        _check_int("latent_dim", self.latent_dim, 1)

    @property
    def grid_size(self) -> int:
        return self.input_size // 16

    @property
    def flat_dim(self) -> int:
        return self.conv_channels[-1] * self.grid_size * self.grid_size

    def tensor_shapes(self) -> dict[str, tuple[int, ...]]:
        """Shapes of all weight tensors, in canonical serialization order."""
        chans = (INPUT_CHANNELS,) + tuple(self.conv_channels)
        k = nnops.KERNEL
        shapes: dict[str, tuple[int, ...]] = {}
        for i in range(4):
            shapes[f"enc{i}_w"] = (chans[i + 1], chans[i], k, k)
            shapes[f"enc{i}_b"] = (chans[i + 1],)
        shapes["mu_w"] = (self.latent_dim, self.flat_dim)
        shapes["mu_b"] = (self.latent_dim,)
        shapes["logvar_w"] = (self.latent_dim, self.flat_dim)
        shapes["logvar_b"] = (self.latent_dim,)
        shapes["dec_w"] = (self.flat_dim, self.latent_dim)
        shapes["dec_b"] = (self.flat_dim,)
        rev = tuple(reversed(chans))  # (256, 128, 64, 32, 2) for defaults
        for i in range(4):
            shapes[f"tdec{i}_w"] = (rev[i], rev[i + 1], k, k)
            shapes[f"tdec{i}_b"] = (rev[i + 1],)
        return shapes


@dataclass
class VaeWeights:
    """All network parameters plus the preprocessing range they were trained with."""

    arch: VaeArchitecture
    max_flow: float
    tensors: dict[str, np.ndarray] = field(repr=False)

    def __post_init__(self):
        _check_max_flow(self.max_flow)
        shapes = self.arch.tensor_shapes()
        if set(self.tensors) != set(shapes):
            missing = set(shapes) - set(self.tensors)
            extra = set(self.tensors) - set(shapes)
            raise ValueError(f"tensor set mismatch: missing {missing}, extra {extra}")
        for name, shape in shapes.items():
            t = self.tensors[name]
            if t.shape != shape:
                raise ValueError(f"tensor {name} has shape {t.shape}, expected {shape}")
            if not np.all(np.isfinite(t)):
                raise ValueError(f"tensor {name} contains non-finite values")


def init_params(arch: VaeArchitecture,
                seed: int | np.random.Generator) -> dict[str, np.ndarray]:
    """Seeded fan-in-scaled uniform init (bound sqrt(6/fan_in)), zero biases.

    Returns float64 tensors in canonical order; the draw order is part of
    the determinism contract.  ``seed`` may be an existing Generator so a
    caller can keep init and later draws on one stream.
    """
    rng = np.random.default_rng(seed)
    params: dict[str, np.ndarray] = {}
    for name, shape in arch.tensor_shapes().items():
        if name.endswith("_b"):
            params[name] = np.zeros(shape, dtype=np.float64)
            continue
        if name.endswith("_w") and len(shape) == 4:
            fan_in = shape[1] * shape[2] * shape[3]
        else:
            fan_in = shape[1]
        bound = np.sqrt(6.0 / fan_in)
        params[name] = rng.uniform(-bound, bound, size=shape)
    return params


def init_weights(arch: VaeArchitecture, seed: int) -> VaeWeights:
    """Freshly initialized float32 weights (see :func:`init_params`)."""
    params = init_params(arch, seed)
    tensors = {k: v.astype(np.float32) for k, v in params.items()}
    return VaeWeights(arch=arch, max_flow=DEFAULT_MAX_FLOW, tensors=tensors)


def _check_finite(name: str, arr: np.ndarray) -> None:
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"non-finite values in {name}")


def encoder(tensors: dict[str, np.ndarray], x: np.ndarray,
            tape: list | None = None):
    """The encoder network on (N, C, S, S) inputs, in the dtype of ``tensors``.

    Returns (mu, raw logvar, last-conv volume); callers clamp logvar.  With
    a ``tape``, each conv layer appends its input, from which the backward
    pass rebuilds the layer's im2col columns (four times its size); a
    layer's ReLU output, the next entry or the returned volume, gives its
    mask.  Each ReLU writes over its pre-activation.  Without a tape, every
    row's outputs are bit for bit those of the row encoded alone.
    """
    h = x
    for i in range(4):
        if tape is not None:
            tape.append(h)
        # conv2d's columns are dropped here, before the next im2col
        h = nnops.relu(nnops.conv2d(h, tensors[f"enc{i}_w"], tensors[f"enc{i}_b"])[0])
    # C-contiguous, so that sums over the volume keep a fixed order
    h = np.ascontiguousarray(h)
    n = h.shape[0]
    flat = h.reshape(n, -1)
    if tape is None:
        # one (1, F) @ (F, m) product per row, the one a lone input makes, so
        # that no row's heads depend on its batch; training keeps one gemm
        flat = flat[:, np.newaxis, :]
    mu = nnops.linear(flat, tensors["mu_w"], tensors["mu_b"]).reshape(n, -1)
    logvar = nnops.linear(flat, tensors["logvar_w"], tensors["logvar_b"]).reshape(n, -1)
    return mu, logvar, h


def decoder(tensors: dict[str, np.ndarray], arch: VaeArchitecture,
            z: np.ndarray, tape: list) -> np.ndarray:
    """The decoder network on (N, m) latents; returns a C-contiguous (N, C, S, S).

    For the backward pass, the dense layer and each transposed conv append
    their input to ``tape``.  Every layer but tdec3, whose output is the
    reconstruction, ends in a ReLU written over its pre-activation.
    """
    tape.append(z)
    h = nnops.relu(nnops.linear(z, tensors["dec_w"], tensors["dec_b"])).reshape(
        z.shape[0], arch.conv_channels[-1], arch.grid_size, arch.grid_size)
    for i in range(4):
        tape.append(h)
        h = nnops.conv_transpose2d(h, tensors[f"tdec{i}_w"], tensors[f"tdec{i}_b"])
        if i < 3:
            h = nnops.relu(h)
    return np.ascontiguousarray(h)


def _kl(mu: np.ndarray, logvar: np.ndarray):
    """KL(N(mu, exp(logvar)) || N(0, I)) summed over the last axis.

    Closed form per dimension: 0.5 * (mu^2 + exp(logvar) - logvar - 1).
    Zero exactly when the posterior is standard normal, positive otherwise.
    """
    return 0.5 * np.sum(mu * mu + np.exp(logvar) - logvar - 1.0, axis=-1)


def score_batch(weights: VaeWeights, x: np.ndarray):
    """Encode preprocessed (N, 2, S, S) inputs in float32 and score each row by its KL.

    Returns (mu, logvar, activations, alphas): (N, m) and (N, m) with logvar
    clamped, the post-ReLU volume of the fourth conv layer
    (N, C4, S/16, S/16), and the (N,) float64 KL divergences from the prior.
    The encoder runs on SCORE_CHUNK rows at a time, which keeps every bit,
    since each row's numbers are those of the row scored alone.
    """
    arch = weights.arch
    x = np.ascontiguousarray(x, dtype=np.float32)
    expected = (INPUT_CHANNELS, arch.input_size, arch.input_size)
    if x.ndim != 4 or x.shape[1:] != expected or len(x) == 0:
        raise ValueError(f"encoder input must be (N, {expected[0]}, {expected[1]}, "
                         f"{expected[2]}) with N >= 1, got {x.shape}")
    parts = [encoder(weights.tensors, x[start:start + SCORE_CHUNK])
             for start in range(0, len(x), SCORE_CHUNK)]
    mu, logvar, acts = (np.concatenate(outs) for outs in zip(*parts))
    logvar = np.clip(logvar, LOGVAR_MIN, LOGVAR_MAX)
    _check_finite("encoder outputs", mu)
    _check_finite("encoder outputs", logvar)
    _check_finite("encoder activations", acts)
    return mu, logvar, acts, _kl(mu.astype(np.float64), logvar.astype(np.float64))


def preprocess(flow: np.ndarray, arch: VaeArchitecture,
               max_flow: float = DEFAULT_MAX_FLOW) -> np.ndarray:
    """Resize (..., 2, H, W) flow fields to the encoder input and scale to [-1, 1].

    Bilinear resize to input_size, clamp to [-max_flow, max_flow], divide by
    max_flow, each plane on its own.  The same max_flow must be used at
    training and inference; it is recorded in the weights file.
    """
    _check_max_flow(max_flow)
    f = np.asarray(flow)
    if f.ndim < 3 or f.shape[-3] != INPUT_CHANNELS:
        raise ValueError(f"flow must be (..., {INPUT_CHANNELS}, H, W), got {f.shape}")
    size = arch.input_size
    # float64 from the rows the resize samples, not from the whole flow
    resized = nnops.bilinear_resize(f.reshape((-1,) + f.shape[-2:]), size, size)
    clipped = np.clip(resized.reshape(f.shape[:-2] + (size, size)), -max_flow, max_flow)
    return (clipped / max_flow).astype(np.float32)


# ---------------------------------------------------------------------------
# One-row API.  Outside tests only perfbench calls it: its decision and
# warm-up run encode then kl_score, and its tracer checks that it wraps the
# trainer.kl_score alias.  ROADMAP item 2 deletes this block once perfbench's
# decide() calls score_batch on one row.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LatentPosterior:
    """Diagonal-Gaussian posterior parameters: per-dimension mean and log-variance."""

    mu: np.ndarray
    logvar: np.ndarray

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=np.float64)
        logvar = np.asarray(self.logvar, dtype=np.float64)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "logvar", logvar)
        if mu.ndim != 1 or logvar.ndim != 1 or mu.shape != logvar.shape:
            raise ValueError("mu and logvar must be 1-D arrays of equal length")
        if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(logvar))):
            raise ValueError("posterior parameters must be finite")
        if np.any(logvar < LOGVAR_MIN) or np.any(logvar > LOGVAR_MAX):
            raise ValueError(f"logvar must lie in [{LOGVAR_MIN}, {LOGVAR_MAX}]")


@dataclass(frozen=True)
class EncodeOutput:
    posterior: LatentPosterior
    last_conv_activations: np.ndarray  # (conv_channels[-1], s/16, s/16)


def encode(weights: VaeWeights, flow: np.ndarray) -> EncodeOutput:
    """Encode one preprocessed (2, S, S) flow: the one-row case of score_batch."""
    mu, logvar, acts, _ = score_batch(weights, np.asarray(flow)[np.newaxis])
    return EncodeOutput(LatentPosterior(mu[0], logvar[0]), acts[0])


def kl_score(posterior: LatentPosterior) -> float:
    """Nonconformity score of one posterior, as score_batch computes it."""
    return float(_kl(posterior.mu, posterior.logvar))


# ---------------------------------------------------------------------------
# Weight serialization
# ---------------------------------------------------------------------------

def save_weights(path, weights: VaeWeights) -> None:
    """Write weights with a self-describing architecture header.

    Layout: magic ``VAEW``, u32 version, u32 input_size, u32 latent_dim,
    f32 max_flow, u32 conv layer count, u32 channel widths, then every
    tensor in canonical order as little-endian float32.
    """
    arch = weights.arch
    with open(path, "wb") as fh:
        fh.write(WEIGHTS_MAGIC)
        fh.write(struct.pack("<II", WEIGHTS_VERSION, arch.input_size))
        fh.write(struct.pack("<If", arch.latent_dim, weights.max_flow))
        fh.write(struct.pack("<I", len(arch.conv_channels)))
        fh.write(struct.pack(f"<{len(arch.conv_channels)}I", *arch.conv_channels))
        for name in arch.tensor_shapes():
            fh.write(np.ascontiguousarray(weights.tensors[name], dtype="<f4").tobytes())


def load_weights(path) -> VaeWeights:
    """Read a weights file and the architecture its header describes.

    Raises FormatError on a bad magic, version, architecture, max_flow or
    tensor value, or trailing bytes, and EOFError when the file is truncated
    (no partial weights are returned).
    """
    # checked against the bytes left before reading, so a corrupt header
    # cannot make the loader allocate more than the file holds
    def take(fh, n: int, what: str) -> bytes:
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        if n > left:
            raise EOFError(f"truncated weights file: {what} needs {n} bytes, "
                           f"{left} left")
        return fh.read(n)

    with open(path, "rb") as fh:
        magic = take(fh, 4, "magic")
        if magic != WEIGHTS_MAGIC:
            raise FormatError(f"bad weights magic {magic!r}")
        version, input_size = struct.unpack("<II", take(fh, 8, "header"))
        if version != WEIGHTS_VERSION:
            raise FormatError(f"unsupported weights version {version}")
        latent_dim, max_flow = struct.unpack("<If", take(fh, 8, "header"))
        (n_conv,) = struct.unpack("<I", take(fh, 4, "header"))
        channels = struct.unpack(f"<{n_conv}I", take(fh, 4 * n_conv, "header"))
        try:
            arch = VaeArchitecture(input_size=input_size, latent_dim=latent_dim,
                                   conv_channels=tuple(channels))
        except ValueError as exc:
            raise FormatError(f"invalid architecture in weights header: {exc}") from exc
        shapes = arch.tensor_shapes()
        sizes = [math.prod(shape) for shape in shapes.values()]
        flat = np.frombuffer(take(fh, 4 * sum(sizes), "the tensors"), dtype="<f4")
        parts = np.split(flat.astype(np.float32), np.cumsum(sizes)[:-1])
        tensors = {name: part.reshape(shape)
                   for (name, shape), part in zip(shapes.items(), parts)}
        trailing = fh.read(1)
        if trailing:
            raise FormatError("trailing bytes after final tensor")
    try:
        return VaeWeights(arch=arch, max_flow=float(max_flow), tensors=tensors)
    except ValueError as exc:
        raise FormatError(f"invalid weights file: {exc}") from exc
