"""File formats for frames, flow fields, activation volumes, and episode manifests.

All in-memory grids are numpy arrays of shape (channels, height, width) with
32-bit float values; single-channel helpers also accept plain (H, W) arrays.
Two disk formats are supported: binary PGM (P5, maxval 255) for 8-bit frames
and the FGRID container for exact 32-bit float payloads.  Episode manifests
are JSON documents listing frame files and ground-truth labels.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass
from numbers import Integral
from pathlib import Path

import numpy as np

FGRID_MAGIC = b"FGRD"
FGRID_VERSION = 1

LABEL_ID = "id"
LABEL_OOD = "ood"


class FormatError(ValueError):
    """A file's header or payload does not match its declared format."""


def as_grid(data, channels: int | None = None) -> np.ndarray:
    """Coerce ``data`` to the canonical (C, H, W) float32 grid layout.

    A 2-D array is promoted to a single-channel grid.  Raises ``ValueError``
    if the array is not 2- or 3-dimensional, contains non-finite values, or
    (when ``channels`` is given) has the wrong channel count.
    """
    arr = np.asarray(data, dtype=np.float32)
    if arr.ndim == 2:
        arr = arr[np.newaxis, :, :]
    if arr.ndim != 3:
        raise ValueError(f"grid must be 2- or 3-dimensional, got shape {arr.shape}")
    if channels is not None and arr.shape[0] != channels:
        raise ValueError(f"expected {channels} channels, got {arr.shape[0]}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("grid contains non-finite values")
    return arr


def frame2d(grid) -> np.ndarray:
    """Return a single-channel grid as a 2-D (H, W) float32 array."""
    return as_grid(grid, channels=1)[0]


# ---------------------------------------------------------------------------
# PGM (binary P5, maxval 255)
# ---------------------------------------------------------------------------

def _read_pgm_tokens(fh, count: int) -> list[bytes]:
    """Read whitespace-separated header tokens, skipping '#' comments."""
    tokens: list[bytes] = []
    tok = b""
    while len(tokens) < count:
        c = fh.read(1)
        if not c:
            raise FormatError("unexpected end of file in PGM header")
        if c == b"#":
            while c and c != b"\n":
                c = fh.read(1)
            c = b" "
        if c.isspace():
            if tok:
                tokens.append(tok)
                tok = b""
        else:
            tok += c
    return tokens


def read_pgm(path) -> np.ndarray:
    """Read a binary PGM (P5, maxval 255) file as a (1, H, W) grid in [0, 1]."""
    with open(path, "rb") as fh:
        magic = fh.read(2)
        if magic != b"P5":
            raise FormatError(f"not a binary PGM file (magic {magic!r})")
        width_s, height_s, maxval_s = _read_pgm_tokens(fh, 3)
        try:
            width, height, maxval = int(width_s), int(height_s), int(maxval_s)
        except ValueError as exc:
            raise FormatError(f"malformed PGM header: {exc}") from exc
        if width <= 0 or height <= 0:
            raise FormatError(f"invalid PGM dimensions {width}x{height}")
        if maxval != 255:
            raise FormatError(f"unsupported PGM maxval {maxval} (expected 255)")
        # checked before reading: a huge header would make read() fail otherwise
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        if width * height > left:
            raise EOFError(f"truncated PGM payload: expected {width * height} "
                           f"bytes, got {left}")
        payload = fh.read(width * height)
    data = np.frombuffer(payload, dtype=np.uint8).reshape(height, width)
    return (data.astype(np.float32) / 255.0)[np.newaxis, :, :]


def _write_pnm(path, magic: bytes, img: np.ndarray) -> None:
    """Write (H, W) or pixel-major (H, W, 3) values in [0, 1] as 8-bit PNM."""
    q = np.rint(np.clip(img, 0.0, 1.0) * 255.0).astype(np.uint8)
    height, width = q.shape[:2]
    with open(path, "wb") as fh:
        fh.write(b"%s\n%d %d\n255\n" % (magic, width, height))
        fh.write(q.tobytes())


def write_pgm(path, grid) -> None:
    """Write a single-channel grid as binary PGM, quantizing [0, 1] to 8 bits."""
    _write_pnm(path, b"P5", frame2d(grid))


def write_ppm(path, rgb) -> None:
    """Write a 3-channel grid in [0, 1] as binary PPM (P6, maxval 255)."""
    _write_pnm(path, b"P6", np.moveaxis(as_grid(rgb, channels=3), 0, -1))


# ---------------------------------------------------------------------------
# FGRID: exact 32-bit float container
# ---------------------------------------------------------------------------

def write_fgrid(path, grid) -> None:
    """Write a grid to the FGRID container (exact float32 round-trip).

    Layout: magic ``FGRD``, u32 version=1, u32 channels, u32 height,
    u32 width (little-endian), then channels*height*width little-endian
    float32 values, channel-major, row-major within each channel.
    """
    g = as_grid(grid)
    channels, height, width = g.shape
    with open(path, "wb") as fh:
        fh.write(FGRID_MAGIC)
        fh.write(struct.pack("<IIII", FGRID_VERSION, channels, height, width))
        fh.write(np.ascontiguousarray(g, dtype="<f4").tobytes())


def read_fgrid(path) -> np.ndarray:
    """Read an FGRID file back into a (C, H, W) float32 grid."""
    with open(path, "rb") as fh:
        header = fh.read(20)
        if len(header) < 20:
            raise FormatError("truncated FGRID header")
        if header[:4] != FGRID_MAGIC:
            raise FormatError(f"bad FGRID magic {header[:4]!r}")
        version, channels, height, width = struct.unpack("<IIII", header[4:])
        if version != FGRID_VERSION:
            raise FormatError(f"unsupported FGRID version {version}")
        payload = fh.read()
    expected = channels * height * width * 4
    if len(payload) != expected:
        raise FormatError(
            f"FGRID payload size mismatch: header implies {expected} bytes, "
            f"found {len(payload)}"
        )
    data = np.frombuffer(payload, dtype="<f4").reshape(channels, height, width)
    return data.astype(np.float32)


# ---------------------------------------------------------------------------
# Episode manifests
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EpisodeManifest:
    """An ordered frame sequence with its ground-truth label.

    ``frame_paths`` are absolute (resolved against the manifest's directory
    when read from disk).  ``onset_frame`` is present exactly when the label
    is OOD and indexes the first anomalous frame.
    """

    id: str
    frame_paths: tuple[Path, ...]
    label: str
    onset_frame: int | None = None

    def __post_init__(self):
        if self.label not in (LABEL_ID, LABEL_OOD):
            raise ValueError(f"label must be '{LABEL_ID}' or '{LABEL_OOD}', got {self.label!r}")
        if len(self.frame_paths) < 2:
            raise ValueError("manifest must list at least 2 frames")
        if self.label == LABEL_OOD:
            if self.onset_frame is None:
                raise ValueError("OOD manifest requires onset_frame")
            if not 0 <= self.onset_frame < len(self.frame_paths):
                raise ValueError(
                    f"onset_frame {self.onset_frame} out of range for "
                    f"{len(self.frame_paths)} frames"
                )
        elif self.onset_frame is not None:
            raise ValueError("onset_frame is only valid on OOD manifests")


def _is_int(x) -> bool:
    # bool is an Integral, but True is not a count
    return isinstance(x, Integral) and not isinstance(x, bool)


def _check_int(name: str, value, low: int) -> None:
    """Raise ValueError unless ``value`` is an integer >= ``low``."""
    if not (_is_int(value) and value >= low):
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


def _read_json_object(path, what: str) -> dict:
    """The JSON object in ``path``, where ``what`` names the file in errors.

    Raises FormatError when the file is not JSON and ValueError when the
    document is not an object.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{what} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be a JSON object")
    return doc


def read_manifest(path) -> EpisodeManifest:
    """Read and validate an episode manifest JSON document.

    Relative frame paths are resolved against the manifest's directory.
    """
    path = Path(path)
    doc = _read_json_object(path, "manifest")
    for field in ("id", "frames", "label"):
        if field not in doc:
            raise ValueError(f"manifest missing required field {field!r}")
    frames = doc["frames"]
    if not isinstance(frames, list) or not all(isinstance(f, str) for f in frames):
        raise ValueError("manifest 'frames' must be a list of paths")
    onset = doc.get("onset_frame")
    if onset is not None and not _is_int(onset):
        raise ValueError("onset_frame must be an integer")
    # joining an absolute path keeps it as it is
    resolved = tuple(path.parent / f for f in frames)
    return EpisodeManifest(id=str(doc["id"]), frame_paths=resolved, label=doc["label"],
                           onset_frame=onset)


def write_manifest(path, manifest: EpisodeManifest) -> None:
    """Write a manifest as JSON with frame paths relative to its directory."""
    base = Path(path).parent
    frames = map(Path, manifest.frame_paths)
    doc = {"id": manifest.id, "label": manifest.label,
           "frames": [(p.relative_to(base) if p.is_relative_to(base) else p).as_posix()
                      for p in frames]}
    if manifest.onset_frame is not None:
        doc["onset_frame"] = manifest.onset_frame
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
