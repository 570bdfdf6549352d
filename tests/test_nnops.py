import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oodflow import nnops

from naive_ref import (gemm_col2im_transpose, naive_bilinear_resize, naive_conv2d,
                       naive_conv_transpose2d)


def _rand(shape, seed, dtype=np.float64):
    return np.random.default_rng(seed).normal(size=shape).astype(dtype)


@pytest.mark.parametrize("n,ic,oc,size", [(2, 2, 5, 8), (1, 3, 4, 16), (3, 1, 2, 6)])
def test_conv2d_matches_naive(n, ic, oc, size):
    x = _rand((n, ic, size, size), 0)
    w = _rand((oc, ic, 4, 4), 1)
    b = _rand((oc,), 2)
    y, _ = nnops.conv2d(x, w, b)
    ref = naive_conv2d(x, w, b, stride=2, pad=1)
    np.testing.assert_allclose(y, ref, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("n,ic,oc,size", [(2, 4, 3, 4), (1, 2, 2, 8)])
def test_conv_transpose2d_matches_naive(n, ic, oc, size):
    x = _rand((n, ic, size, size), 3)
    w = _rand((ic, oc, 4, 4), 4)
    b = _rand((oc,), 5)
    y = nnops.conv_transpose2d(x, w, b)
    ref = naive_conv_transpose2d(x, w, b, stride=2, pad=1)
    assert y.shape == (n, oc, 2 * size, 2 * size)
    np.testing.assert_allclose(y, ref, rtol=1e-12, atol=1e-12)


# (in channels, out channels, input size) of each layer of the default
# 64 px network
ENCODER_LAYERS = [(2, 32, 64), (32, 64, 32), (64, 128, 16), (128, 256, 8)]
DECODER_LAYERS = [(256, 128, 4), (128, 64, 8), (64, 32, 16), (32, 2, 32)]


def _transposed_conv_case(layer, n, seed, dtype):
    """Input and (IC, OC, 4, 4) weights of a transposed conv of the 64 px net.

    The input gradient of encoder layer i is the transposed conv of its
    (N, out channels, size/2, size/2) output gradient by its own weights.
    """
    kind, i = layer[:-1], int(layer[-1])
    if kind == "enc":
        c, oc, size = ENCODER_LAYERS[i]
        x_shape, w_shape = (n, oc, size // 2, size // 2), (oc, c, 4, 4)
    else:
        ic, oc, size = DECODER_LAYERS[i]
        x_shape, w_shape = (n, ic, size, size), (ic, oc, 4, 4)
    return _rand(x_shape, seed, dtype), _rand(w_shape, seed + 1, dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("layer", [f"{kind}{i}" for kind in ("enc", "tdec")
                                   for i in range(4)])
def test_transposed_conv_matches_gemm_oracle(layer, dtype):
    # every layer's input gradient (enc) and forward pass (tdec) at N=3, bit
    # for bit against one gemm plus per-pixel adds in ascending (i, j) order
    x, w = _transposed_conv_case(layer, 3, 11, dtype)
    want = gemm_col2im_transpose(x, w, 2, 1)
    if layer.startswith("enc"):
        got = nnops.conv2d_input_grad(x, w)
    else:
        b = _rand((w.shape[1],), 13, dtype)
        got = nnops.conv_transpose2d(x, w, b)
        want = want + b[None, :, None, None]
    assert got.dtype == dtype and got.shape == want.shape
    assert np.array_equal(got, want)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 3), ic=st.integers(1, 6), oc=st.integers(1, 6),
       ih=st.integers(1, 6), iw=st.integers(1, 6), seed=st.integers(0, 2**16),
       dtype=st.sampled_from([np.float32, np.float64]))
def test_transposed_conv_matches_gemm_oracle_any_shape(n, ic, oc, ih, iw, seed, dtype):
    assume(ih != iw)
    x = _rand((n, ic, ih, iw), seed, dtype)
    w = _rand((ic, oc, 4, 4), seed + 1, dtype)
    b = _rand((oc,), seed + 2, dtype)
    want = gemm_col2im_transpose(x, w, 2, 1)
    assert np.array_equal(nnops.conv2d_input_grad(x, w), want)
    assert np.array_equal(nnops.conv_transpose2d(x, w, b),
                          want + b[None, :, None, None])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("layer", range(4))
def test_conv_outputs_batch_invariant(layer, dtype):
    # each sample of an N=5 batch comes out exactly as it does alone
    ic, oc, size = ENCODER_LAYERS[layer]
    x = _rand((5, ic, size, size), 12, dtype)
    w = _rand((oc, ic, 4, 4), 13, dtype)
    b = _rand((oc,), 14, dtype)
    y, _ = nnops.conv2d(x, w, b)
    for i in range(5):
        assert np.array_equal(y[i:i + 1], nnops.conv2d(x[i:i + 1], w, b)[0])
    ic, oc, size = DECODER_LAYERS[layer]
    x = _rand((5, ic, size, size), 15, dtype)
    w = _rand((ic, oc, 4, 4), 16, dtype)
    b = _rand((oc,), 17, dtype)
    y = nnops.conv_transpose2d(x, w, b)
    assert y.dtype == dtype
    for i in range(5):
        assert np.array_equal(y[i:i + 1], nnops.conv_transpose2d(x[i:i + 1], w, b))


def test_conv2d_backward_adjoint_and_fd():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(2, 2, 8, 8))
    w = rng.normal(size=(3, 2, 4, 4))
    b = rng.normal(size=3)
    y, cols = nnops.conv2d(x, w, b)
    r = rng.normal(size=y.shape)  # loss = <y, r>
    dw, db = nnops.conv2d_backward(r, x, w)
    # the weight gradient is the gemm of dy with the columns conv2d built
    r_flat = r.transpose(1, 0, 2, 3).reshape(3, -1)
    assert np.array_equal(dw, (r_flat @ cols.T).reshape(w.shape))
    dx = nnops.conv2d_input_grad(r, w)
    assert dx.shape == x.shape
    # adjoint identity for the input gradient
    assert abs(np.sum(y * r) - np.sum(x * dx) - np.sum(b * db)) < 1e-9
    # finite differences for a few weight entries
    for name, arr, grad in [("w", w, dw), ("b", b, db)]:
        flat = arr.reshape(-1)
        for idx in [0, flat.size // 2, flat.size - 1]:
            h = 1e-6
            old = flat[idx]
            flat[idx] = old + h
            yp, _ = nnops.conv2d(x, w, b)
            flat[idx] = old - h
            ym, _ = nnops.conv2d(x, w, b)
            flat[idx] = old
            fd = np.sum((yp - ym) * r) / (2 * h)
            assert abs(fd - grad.reshape(-1)[idx]) < 1e-6


def test_conv_transpose2d_backward_fd():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(2, 3, 4, 4))
    w = rng.normal(size=(3, 2, 4, 4))
    b = rng.normal(size=2)
    y = nnops.conv_transpose2d(x, w, b)
    r = rng.normal(size=y.shape)
    dx, dw, db = nnops.conv_transpose2d_backward(r, x, w)
    assert abs(np.sum(y * r) - np.sum(x * dx) - np.sum(b * db)) < 1e-9
    flat_w = w.reshape(-1)
    for idx in [0, flat_w.size // 3, flat_w.size - 1]:
        h = 1e-6
        old = flat_w[idx]
        flat_w[idx] = old + h
        yp = nnops.conv_transpose2d(x, w, b)
        flat_w[idx] = old - h
        ym = nnops.conv_transpose2d(x, w, b)
        flat_w[idx] = old
        fd = np.sum((yp - ym) * r) / (2 * h)
        assert abs(fd - dw.reshape(-1)[idx]) < 1e-6


def test_linear_backward_exact():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(4, 6))
    w = rng.normal(size=(3, 6))
    b = rng.normal(size=3)
    r = rng.normal(size=(4, 3))
    dx, dw, db = nnops.linear_backward(r, x, w)
    np.testing.assert_allclose(dx, r @ w)
    np.testing.assert_allclose(dw, r.T @ x)
    np.testing.assert_allclose(db, r.sum(0))


def test_relu_and_backward():
    x = np.array([-1.0, 0.0, 2.0])
    mask = x > 0
    np.testing.assert_array_equal(nnops.relu_backward(np.ones(3), x), [0, 0, 1])
    np.testing.assert_array_equal(nnops.relu_backward(np.ones(3), mask), [0, 0, 1])
    y = nnops.relu(x)
    assert y is x  # written over its input
    np.testing.assert_array_equal(y, [0, 0, 2])
    np.testing.assert_array_equal(nnops.relu_backward(np.ones(3), y), [0, 0, 1])


# ---------------------------------------------------------------------------
# bilinear_resize
# ---------------------------------------------------------------------------

def test_bilinear_downsample_equals_block_mean_on_ramp():
    # on a constant-gradient field, half-pixel-centered 2x downsampling
    # reproduces the 2x2 block mean exactly
    yy, xx = np.mgrid[0:128, 0:128].astype(np.float64)
    field = (0.3 * xx + 0.7 * yy + 1.5)[None]
    small = nnops.bilinear_resize(field, 64, 64)
    blocks = field[0].reshape(64, 2, 64, 2).mean(axis=(1, 3))
    np.testing.assert_allclose(small[0], blocks, rtol=1e-12)


def test_bilinear_identity_when_same_size():
    img = np.random.default_rng(10).normal(size=(2, 8, 8))
    np.testing.assert_array_equal(nnops.bilinear_resize(img, 8, 8), img)


@pytest.mark.parametrize("out", [(8, 8), (3, 5)])
def test_bilinear_core_is_float64_of_the_resize(out):
    # a float32 input, as preprocess passes: float64 bits of the float64
    # resize, and a new array even at the same size
    img = np.random.default_rng(11).normal(size=(2, 8, 8)).astype(np.float32)
    got = nnops.bilinear_resize(img, *out)
    assert got.dtype == np.float64 and not np.shares_memory(got, img)
    np.testing.assert_array_equal(got, nnops.bilinear_resize(img.astype(np.float64), *out))


def test_bilinear_upsample_delta_peak_in_block():
    img = np.zeros((1, 4, 4))
    img[0, 1, 2] = 1.0
    up = nnops.bilinear_resize(img, 64, 64)[0]
    peak = np.unravel_index(np.argmax(up), up.shape)
    assert 16 <= peak[0] < 32 and 32 <= peak[1] < 48


def test_bilinear_preserves_constants():
    img = np.full((3, 5, 5), 2.5)
    out = nnops.bilinear_resize(img, 17, 9)
    np.testing.assert_allclose(out, 2.5, rtol=1e-12)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("src,out", [
    ((1, 4, 4), (64, 64)),  # up, as the overlay does
    ((2, 32, 32), (8, 8)),  # down, as preprocess does
    ((2, 9, 14), (5, 23)),  # non-square, down in y and up in x
    ((3, 6, 5), (13, 4)),
    ((1, 1, 1), (3, 5)),  # 1-pixel source
    ((2, 1, 7), (4, 3)),
    ((1, 7, 1), (2, 6)),
    ((2, 8, 6), (1, 1)),  # 1-pixel output
    ((1, 5, 9), (1, 4)),
    ((1, 5, 9), (6, 1)),
])
def test_bilinear_matches_per_pixel_oracle(src, out, dtype):
    img = _rand(src, seed=sum(src) + sum(out), dtype=dtype)
    got = nnops.bilinear_resize(img, *out)
    assert got.dtype == np.float64  # whatever the input dtype
    np.testing.assert_array_equal(got, naive_bilinear_resize(img.astype(np.float64), *out))
