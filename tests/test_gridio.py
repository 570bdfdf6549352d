import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oodflow import gridio
from oodflow.gridio import FormatError


# ---------------------------------------------------------------------------
# PGM
# ---------------------------------------------------------------------------

def test_read_pgm_scales_bytes(tmp_path):
    p = tmp_path / "t.pgm"
    p.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 255, 128, 64]))
    g = gridio.read_pgm(p)
    assert g.shape == (1, 2, 2)
    assert g.dtype == np.float32
    expected = np.array([[0.0, 1.0], [128 / 255, 64 / 255]], dtype=np.float32)
    np.testing.assert_array_equal(g[0], expected)


def test_read_pgm_all_zero(tmp_path):
    p = tmp_path / "z.pgm"
    p.write_bytes(b"P5\n3 2\n255\n" + bytes(6))
    assert not gridio.read_pgm(p).any()


def test_read_pgm_header_comments(tmp_path):
    p = tmp_path / "c.pgm"
    p.write_bytes(b"P5\n# a comment\n2 1 # trailing\n255\n" + bytes([7, 9]))
    g = gridio.read_pgm(p)
    np.testing.assert_allclose(g[0], [[7 / 255, 9 / 255]], rtol=1e-6)


def test_pgm_round_trip_error_bound(tmp_path):
    rng = np.random.default_rng(0)
    img = rng.uniform(0, 1, size=(1, 9, 13)).astype(np.float32)
    p = tmp_path / "r.pgm"
    gridio.write_pgm(p, img)
    back = gridio.read_pgm(p)
    assert np.max(np.abs(back - img)) <= 0.5 / 255 + 1e-7


def test_pgm_quantized_values_round_trip_exactly(tmp_path):
    img = (np.arange(16, dtype=np.float32).reshape(1, 4, 4) * 7) / 255.0
    p = tmp_path / "q.pgm"
    gridio.write_pgm(p, img)
    np.testing.assert_allclose(gridio.read_pgm(p), img, atol=1e-7)


@pytest.mark.parametrize("payload, err", [
    (b"P2\n2 2\n255\n" + bytes(4), FormatError),          # ascii magic
    (b"P5\n2 2\n65535\n" + bytes(8), FormatError),        # wrong maxval
    (b"P5\n2 x\n255\n" + bytes(4), FormatError),          # bad token
    (b"P5\n2 2\n255\n" + bytes(3), EOFError),             # truncated payload
    (b"P5\n100000000000 100000000000\n255\n" + bytes(4), EOFError),  # huge header
])
def test_read_pgm_errors(tmp_path, payload, err):
    p = tmp_path / "bad.pgm"
    p.write_bytes(payload)
    with pytest.raises(err):
        gridio.read_pgm(p)


def test_write_ppm_golden_bytes(tmp_path):
    levels = np.arange(12, dtype=np.float32).reshape(3, 2, 2) * 20 / 255
    p = tmp_path / "rgb.ppm"
    gridio.write_ppm(p, levels)
    # pixel-major: (r, g, b) of (0, 0), (0, 1), (1, 0), (1, 1)
    payload = bytes(20 * (c * 4 + y * 2 + x)
                    for y in range(2) for x in range(2) for c in range(3))
    assert p.read_bytes() == b"P6\n2 2\n255\n" + payload


# ---------------------------------------------------------------------------
# FGRID
# ---------------------------------------------------------------------------

def test_fgrid_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(1)
    g = rng.normal(scale=10, size=(2, 5, 7)).astype(np.float32)
    p = tmp_path / "f.fgrid"
    gridio.write_fgrid(p, g)
    back = gridio.read_fgrid(p)
    assert back.shape == g.shape
    assert np.array_equal(back, g)


@settings(max_examples=25, deadline=None)
@given(
    c=st.integers(1, 4), h=st.integers(1, 8), w=st.integers(1, 8),
    seed=st.integers(0, 2**16),
)
def test_fgrid_round_trip_property(tmp_path_factory, c, h, w, seed):
    rng = np.random.default_rng(seed)
    g = rng.normal(scale=100, size=(c, h, w)).astype(np.float32)
    p = tmp_path_factory.mktemp("fg") / "x.fgrid"
    gridio.write_fgrid(p, g)
    assert np.array_equal(gridio.read_fgrid(p), g)


def test_fgrid_file_size_layout(tmp_path):
    p = tmp_path / "flow.fgrid"
    gridio.write_fgrid(p, np.zeros((2, 4, 4), dtype=np.float32))
    # 4-byte magic + 4 u32 header words, then 2*4*4 float32 payload
    assert p.stat().st_size == 20 + 2 * 4 * 4 * 4


def test_fgrid_payload_size_mismatch(tmp_path):
    p = tmp_path / "short.fgrid"
    header = b"FGRD" + struct.pack("<IIII", 1, 2, 4, 4)
    p.write_bytes(header + b"\x00" * (31 * 4))  # header implies 32 values
    with pytest.raises(FormatError, match="size mismatch"):
        gridio.read_fgrid(p)


def test_fgrid_bad_magic_and_version(tmp_path):
    p = tmp_path / "bad.fgrid"
    p.write_bytes(b"NOPE" + struct.pack("<IIII", 1, 1, 1, 1) + b"\x00" * 4)
    with pytest.raises(FormatError, match="magic"):
        gridio.read_fgrid(p)
    p.write_bytes(b"FGRD" + struct.pack("<IIII", 9, 1, 1, 1) + b"\x00" * 4)
    with pytest.raises(FormatError, match="version"):
        gridio.read_fgrid(p)


def test_write_fgrid_rejects_non_finite(tmp_path):
    g = np.zeros((1, 2, 2), dtype=np.float32)
    g[0, 0, 0] = np.nan
    with pytest.raises(ValueError):
        gridio.write_fgrid(tmp_path / "nan.fgrid", g)


# ---------------------------------------------------------------------------
# Manifests
# ---------------------------------------------------------------------------

def _manifest_doc(n_frames=60, label="id", **extra):
    doc = {"id": "ep0", "frames": [f"frame_{i:04d}.pgm" for i in range(n_frames)],
           "label": label}
    doc.update(extra)
    return doc


def _write(tmp_path, doc):
    p = tmp_path / "manifest.json"
    p.write_text(json.dumps(doc))
    return p


def test_read_manifest_minimal_id(tmp_path):
    m = gridio.read_manifest(_write(tmp_path, _manifest_doc()))
    assert m.label == "id"
    assert m.onset_frame is None
    assert len(m.frame_paths) == 60
    assert m.frame_paths[0] == tmp_path / "frame_0000.pgm"


def test_read_manifest_ood_with_onset(tmp_path):
    m = gridio.read_manifest(_write(tmp_path, _manifest_doc(label="ood", onset_frame=30)))
    assert m.label == "ood"
    assert m.onset_frame == 30


@pytest.mark.parametrize("doc", [
    _manifest_doc(label="ood"),                      # missing onset
    _manifest_doc(onset_frame=10),                   # onset on ID episode
    _manifest_doc(label="ood", onset_frame=60),      # out of range
    _manifest_doc(label="ood", onset_frame=-1),
    _manifest_doc(n_frames=1),                       # too few frames
    _manifest_doc(label="weird"),
    {"frames": ["a", "b"], "label": "id"},           # missing id
    {"id": "x", "label": "id"},                      # missing frames
    {"id": "x", "frames": ["a", "b"]},               # missing label
    _manifest_doc(label="ood", onset_frame=True),    # JSON booleans
])
def test_read_manifest_rejects_invalid(tmp_path, doc):
    with pytest.raises(ValueError):
        gridio.read_manifest(_write(tmp_path, doc))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_manifest_random_corruptions_rejected(tmp_path_factory, data):
    doc = _manifest_doc(label="ood", onset_frame=30)
    corruption = data.draw(st.sampled_from(
        ["drop_id", "drop_frames", "drop_label", "drop_onset_frame", "bad_label",
         "onset_high", "onset_negative", "single_frame"]))
    if corruption.startswith("drop_"):
        del doc[corruption[5:]]
    elif corruption == "bad_label":
        doc["label"] = data.draw(st.text(min_size=1, max_size=6).filter(
            lambda s: s not in ("id", "ood")))
    elif corruption == "onset_high":
        doc["onset_frame"] = data.draw(st.integers(60, 1000))
    elif corruption == "onset_negative":
        doc["onset_frame"] = data.draw(st.integers(-1000, -1))
    elif corruption == "single_frame":
        doc["frames"] = doc["frames"][:1]
    p = tmp_path_factory.mktemp("mf") / "manifest.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(ValueError):
        gridio.read_manifest(p)


def test_read_manifest_invalid_json(tmp_path):
    p = tmp_path / "manifest.json"
    p.write_text("{not json")
    with pytest.raises(FormatError):
        gridio.read_manifest(p)


def test_manifest_write_read_round_trip(tmp_path):
    m = gridio.EpisodeManifest(
        id="ep1",
        frame_paths=tuple(tmp_path / f"f{i}.pgm" for i in range(3)),
        label="ood", onset_frame=1)
    gridio.write_manifest(tmp_path / "manifest.json", m)
    back = gridio.read_manifest(tmp_path / "manifest.json")
    assert back == m


# ---------------------------------------------------------------------------
# Grid coercion
# ---------------------------------------------------------------------------

def test_as_grid_promotes_2d():
    g = gridio.as_grid(np.ones((3, 4)))
    assert g.shape == (1, 3, 4) and g.dtype == np.float32


def test_as_grid_validates():
    with pytest.raises(ValueError):
        gridio.as_grid(np.ones(5))
    with pytest.raises(ValueError):
        gridio.as_grid(np.ones((2, 3, 4)), channels=1)
    with pytest.raises(ValueError):
        gridio.as_grid(np.full((1, 2, 2), np.inf))
