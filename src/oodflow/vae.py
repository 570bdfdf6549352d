"""Convolutional VAE forward passes, nonconformity scoring, and weight files.

The encoder maps a 2-channel flow field through four stride-2 convolutions
(ReLU) to a diagonal-Gaussian latent posterior; the decoder mirrors it with
transposed convolutions.  :func:`encoder` and :func:`decoder` define them
once for any float dtype: inference runs the encoder in float32, training
runs both in float64.  The nonconformity score of an input is the KL
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

WEIGHTS_MAGIC = b"VAEW"
WEIGHTS_VERSION = 1

LOGVAR_MIN = -10.0
LOGVAR_MAX = 10.0

DEFAULT_MAX_FLOW = 8.0

# rows per encoder batch when scoring offline.  Scoring 64 px episodes on
# 2 vCPUs took 0.96 ms per pair at 8 or 16 rows, 1.03 ms at 4 or 59 and
# 1.53 ms at 1; 8 keeps a batch's im2col columns the smaller
SCORE_CHUNK = 8

# The weights header records none of these, so they are not architecture fields.
KERNEL = 4
STRIDE = 2
PADDING = 1
INPUT_CHANNELS = 2  # flow (u, v)


class NumericError(ArithmeticError):
    """A computation produced non-finite values."""


def _check_max_flow(max_flow: float) -> None:
    # inf would scale every flow to zero, and NaN every flow to NaN
    if not (max_flow > 0 and math.isfinite(max_flow)):
        raise ValueError(f"max_flow must be finite and positive, got {max_flow}")


@dataclass(frozen=True)
class VaeArchitecture:
    """Fixed 4-layer conv family: kernel 4, stride 2, padding 1 per layer.

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
        if self.input_size < 16 or self.input_size % 16 != 0:
            raise ValueError("input_size must be a positive multiple of 16")
        if self.latent_dim < 1:
            raise ValueError("latent_dim must be >= 1")

    @property
    def grid_size(self) -> int:
        return self.input_size // 16

    @property
    def flat_dim(self) -> int:
        return self.conv_channels[-1] * self.grid_size * self.grid_size

    def tensor_shapes(self) -> dict[str, tuple[int, ...]]:
        """Shapes of all weight tensors, in canonical serialization order."""
        chans = (INPUT_CHANNELS,) + tuple(self.conv_channels)
        k = KERNEL
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
    a ``tape``, each conv layer appends (im2col columns, pre-activation)
    for the backward pass.  Without one, every row's outputs are bit for
    bit those of the row encoded alone.
    """
    h = x
    for i in range(4):
        y, cols = nnops.conv2d(h, tensors[f"enc{i}_w"], tensors[f"enc{i}_b"],
                               STRIDE, PADDING)
        if tape is not None:
            tape.append((cols, y))
        h = nnops.relu(y)
        del y, cols  # without a tape, free them before the next im2col
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
            z: np.ndarray, tape: list | None = None) -> np.ndarray:
    """The decoder network on (N, m) latents; returns a C-contiguous (N, C, S, S).

    With a ``tape``, the dense layer and then each transposed conv append
    (input, pre-activation) for the backward pass.
    """
    pre = nnops.linear(z, tensors["dec_w"], tensors["dec_b"])
    if tape is not None:
        tape.append((z, pre))
    h = nnops.relu(pre).reshape(z.shape[0], arch.conv_channels[-1],
                                arch.grid_size, arch.grid_size)
    for i in range(4):
        y = nnops.conv_transpose2d(h, tensors[f"tdec{i}_w"], tensors[f"tdec{i}_b"],
                                   STRIDE, PADDING)
        if tape is not None:
            tape.append((h, y))
        h = nnops.relu(y) if i < 3 else y
    return np.ascontiguousarray(h)


def encode_batch(weights: VaeWeights, flows: np.ndarray):
    """Forward the encoder on (N, 2, S, S) inputs in float32.

    Returns (mu, logvar, activations): (N, m), (N, m) with logvar clamped,
    and the post-ReLU volume of the fourth conv layer (N, C4, S/16, S/16).
    """
    arch = weights.arch
    x = np.ascontiguousarray(flows, dtype=np.float32)
    expected = (INPUT_CHANNELS, arch.input_size, arch.input_size)
    if x.ndim != 4 or x.shape[1:] != expected:
        raise ValueError(f"encoder input must be (N, {expected[0]}, {expected[1]}, "
                         f"{expected[2]}), got {x.shape}")
    mu, logvar, acts = encoder(weights.tensors, x)
    logvar = np.clip(logvar, LOGVAR_MIN, LOGVAR_MAX)
    _check_finite("encoder outputs", mu)
    _check_finite("encoder outputs", logvar)
    _check_finite("encoder activations", acts)
    return mu, logvar, acts


def encode(weights: VaeWeights, flow: np.ndarray) -> EncodeOutput:
    """Encode one preprocessed flow field into its latent posterior.

    Also exposes the last conv layer's activation volume, which the
    localization overlay compares against calibration statistics.
    """
    flow = np.asarray(flow)
    if flow.ndim != 3:
        raise ValueError(f"flow must be (C, H, W), got shape {flow.shape}")
    mu, logvar, acts = encode_batch(weights, flow[np.newaxis])
    return EncodeOutput(
        posterior=LatentPosterior(mu=mu[0], logvar=logvar[0]),
        last_conv_activations=acts[0],
    )


def _kl(mu: np.ndarray, logvar: np.ndarray):
    """KL(N(mu, exp(logvar)) || N(0, I)) summed over the last axis."""
    return 0.5 * np.sum(mu * mu + np.exp(logvar) - logvar - 1.0, axis=-1)


def kl_score(posterior: LatentPosterior) -> float:
    """Nonconformity score: KL(q(z|x) || N(0, I)) summed over dimensions.

    Closed form per dimension: 0.5 * (mu^2 + exp(logvar) - logvar - 1).
    Zero exactly when the posterior is standard normal, positive otherwise.
    """
    return float(_kl(posterior.mu, posterior.logvar))


def score_batch(weights: VaeWeights, x: np.ndarray):
    """Encode preprocessed (N, 2, S, S) inputs and score each row by its KL.

    Returns (mu, logvar, activations, alphas) with the first three as
    :func:`encode_batch` gives them and alphas the (N,) float64 scores.
    Each row's numbers are bit for bit those of the row scored alone.
    """
    mu, logvar, acts = encode_batch(weights, x)
    return mu, logvar, acts, _kl(mu.astype(np.float64), logvar.astype(np.float64))


def score_flow(weights: VaeWeights, flow: np.ndarray):
    """Score one raw (2, H, W) flow field: preprocess, encode, KL.

    The one-row case of :func:`score_batch`.  Returns (EncodeOutput,
    alpha); the encoder output feeds the overlay.
    """
    x = preprocess(flow, weights.arch, weights.max_flow)[np.newaxis]
    mu, logvar, acts, alphas = score_batch(weights, x)
    out = EncodeOutput(posterior=LatentPosterior(mu=mu[0], logvar=logvar[0]),
                       last_conv_activations=acts[0])
    return out, float(alphas[0])


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
    resized = nnops.bilinear_resize(f.reshape((-1,) + f.shape[-2:]).astype(np.float64),
                                    size, size)
    clipped = np.clip(resized.reshape(f.shape[:-2] + (size, size)), -max_flow, max_flow)
    return (clipped / max_flow).astype(np.float32)


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

    Raises FormatError on magic/version/shape mismatch and EOFError when the
    file is truncated (no partial weights are returned).
    """
    from .gridio import FormatError

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
    return VaeWeights(arch=arch, max_flow=float(max_flow), tensors=tensors)
