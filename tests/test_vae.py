import struct
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from oodflow import gridio, trainer, vae
from oodflow.vae import LatentPosterior, VaeArchitecture

from naive_ref import naive_decode, naive_encode


def _zero_weights(arch, max_flow=8.0):
    tensors = {k: np.zeros(s, dtype=np.float32)
               for k, s in arch.tensor_shapes().items()}
    return vae.VaeWeights(arch=arch, max_flow=max_flow, tensors=tensors)


def _rand_flow(arch, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(-1, 1, size=(2, arch.input_size, arch.input_size)
                       ).astype(np.float32)


# ---------------------------------------------------------------------------
# architecture
# ---------------------------------------------------------------------------

def test_architecture_validation():
    with pytest.raises(ValueError):
        VaeArchitecture(input_size=20)      # not divisible by 16
    with pytest.raises(ValueError):
        VaeArchitecture(latent_dim=0)
    with pytest.raises(ValueError):
        VaeArchitecture(conv_channels=(8, 16))
    # sizes it cannot build
    for bad in (dict(input_size=64.0), dict(latent_dim=2.5), dict(latent_dim=True),
                dict(conv_channels=(32, 64, 128, 0))):
        with pytest.raises(ValueError):
            VaeArchitecture(**bad)


def test_architecture_downsampling_chain():
    arch = VaeArchitecture()
    shapes = arch.tensor_shapes()
    # channel progression 2 -> 32 -> 64 -> 128 -> 256, kernel 4
    assert shapes["enc0_w"] == (32, 2, 4, 4)
    assert shapes["enc1_w"] == (64, 32, 4, 4)
    assert shapes["enc2_w"] == (128, 64, 4, 4)
    assert shapes["enc3_w"] == (256, 128, 4, 4)
    assert arch.grid_size == 4 and arch.flat_dim == 256 * 16
    # spatial halving per layer
    w = vae.init_weights(arch, 0)
    acts = vae.score_batch(w, _rand_flow(arch)[None])[2]
    assert acts.shape == (1, 256, 4, 4)


# ---------------------------------------------------------------------------
# encode / decode
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def batch64():
    arch = VaeArchitecture()
    w = vae.init_weights(arch, 3)
    flows = np.stack([_rand_flow(arch, seed) for seed in range(59)])
    return w, flows, [vae.score_batch(w, flows[i:i + 1]) for i in range(59)]


def test_encode_batch_volume_batch_invariant(batch64):
    # mu, logvar, the last-conv volume and the score of each flow in a batch
    # equal the flow's own, bit for bit, so batched scores equal streamed ones
    w, flows, alone = batch64
    for n in (2, 5, 16, 2 * vae.SCORE_CHUNK + 3, 59):
        batched = vae.score_batch(w, flows[:n])
        assert batched[2].flags.c_contiguous
        for i in range(n):
            for name, got, want in zip(("mu", "logvar", "volume", "alpha"), batched,
                                       alone[i]):
                assert np.array_equal(got[i:i + 1], want), f"{name} of row {i} at N={n}"


def test_encode_batch_runs_encoder_on_score_chunk_rows(batch64, monkeypatch):
    # two full SCORE_CHUNK slices and a partial one; the rows' values are
    # checked against the one-row calls above
    w, flows, _ = batch64
    rows = []
    encoder = vae.encoder

    def counting(tensors, x, tape=None):
        rows.append(len(x))
        return encoder(tensors, x, tape)

    monkeypatch.setattr(vae, "encoder", counting)
    vae.score_batch(w, flows[:2 * vae.SCORE_CHUNK + 3])
    assert rows == [vae.SCORE_CHUNK, vae.SCORE_CHUNK, 3]


def test_encode_batch_rejects_empty_batch(batch64):
    w, flows, _ = batch64
    with pytest.raises(ValueError, match="N >= 1"):
        vae.score_batch(w, flows[:0])


def test_score_batch_rows_match_one_row_calls(batch64):
    # each row of a batch is the one-row score_batch of its raw flow, and the
    # one-row encode and kl_score give its numbers bit for bit
    w, _, _ = batch64
    raw = np.random.default_rng(4).uniform(-9, 9, size=(11, 2, 40, 40)).astype(np.float32)
    x = vae.preprocess(raw, w.arch, w.max_flow)
    mu, logvar, acts, alphas = vae.score_batch(w, x)
    assert alphas.dtype == np.float64 and alphas.shape == (11,)
    for i, flow in enumerate(raw):
        one = vae.score_batch(w, vae.preprocess(flow[np.newaxis], w.arch, w.max_flow))
        for got, want in zip(one, (mu, logvar, acts, alphas)):
            assert np.array_equal(got, want[i:i + 1])
        out = vae.encode(w, x[i])
        assert vae.kl_score(out.posterior) == alphas[i]
        assert np.array_equal(out.posterior.mu, mu[i])
        assert np.array_equal(out.posterior.logvar, logvar[i])
        assert np.array_equal(out.last_conv_activations, acts[i])


def test_encode_zero_weights_passes_biases(tiny_arch):
    w = _zero_weights(tiny_arch)
    w.tensors["mu_b"][:] = np.arange(tiny_arch.latent_dim)
    w.tensors["logvar_b"][:] = -1.0
    out = vae.encode(w, _rand_flow(tiny_arch))
    np.testing.assert_allclose(out.posterior.mu, np.arange(tiny_arch.latent_dim))
    np.testing.assert_allclose(out.posterior.logvar, -1.0)


def test_encode_deterministic(tiny_arch):
    w = vae.init_weights(tiny_arch, 5)
    x = np.zeros((2, 16, 16), dtype=np.float32)
    a = vae.encode(w, x)
    b = vae.encode(w, x)
    np.testing.assert_array_equal(a.posterior.mu, b.posterior.mu)
    np.testing.assert_array_equal(a.last_conv_activations, b.last_conv_activations)


def test_encode_matches_reference_forward(tiny_arch):
    w = vae.init_weights(tiny_arch, 42)
    x = _rand_flow(tiny_arch, seed=7)
    out = vae.encode(w, x)
    ref_mu, ref_logvar, ref_acts = naive_encode(w, x)
    np.testing.assert_allclose(out.posterior.mu, ref_mu, rtol=1e-4)
    np.testing.assert_allclose(out.posterior.logvar, ref_logvar, rtol=1e-4)
    np.testing.assert_allclose(out.last_conv_activations, ref_acts,
                               rtol=1e-4, atol=1e-6)


def test_decode_zero_weights_zero_output(tiny_arch):
    w = _zero_weights(tiny_arch)
    out = vae.decoder(w.tensors, tiny_arch, np.ones((1, tiny_arch.latent_dim)), [])
    assert out.shape == (1, 2, 16, 16)
    assert not out.any()


def test_decode_matches_reference_forward(tiny_arch):
    """Each row of a float64 latent batch decodes as the reference does alone."""
    w = vae.init_weights(tiny_arch, 43)
    params = {k: v.astype(np.float64) for k, v in w.tensors.items()}
    z = np.random.default_rng(3).normal(size=(3, tiny_arch.latent_dim))
    out = vae.decoder(params, tiny_arch, z, [])
    for i in range(3):
        np.testing.assert_allclose(out[i], naive_decode(w, z[i]),
                                   rtol=1e-9, atol=1e-12)


def test_float64_network_matches_reference_forward(tiny_arch):
    """The shared encoder/decoder on float64 params, as training runs them."""
    w = vae.init_weights(tiny_arch, 44)
    params = {k: v.astype(np.float64) for k, v in w.tensors.items()}
    x = _rand_flow(tiny_arch, seed=8)
    mu, logvar, acts = vae.encoder(params, x.astype(np.float64)[None])
    ref_mu, ref_logvar, ref_acts = naive_encode(w, x)
    tol = dict(rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(mu[0], ref_mu, **tol)
    np.testing.assert_allclose(np.clip(logvar[0], vae.LOGVAR_MIN, vae.LOGVAR_MAX),
                               ref_logvar, **tol)
    np.testing.assert_allclose(acts[0], ref_acts, **tol)
    z = np.random.default_rng(4).normal(size=tiny_arch.latent_dim)
    recon = vae.decoder(params, tiny_arch, z[None], [])
    assert recon.dtype == np.float64
    np.testing.assert_allclose(recon[0], naive_decode(w, z), **tol)


def test_encode_rejects_wrong_shape(tiny_arch):
    w = vae.init_weights(tiny_arch, 0)
    with pytest.raises(ValueError):
        vae.encode(w, np.zeros((2, 8, 8), dtype=np.float32))
    with pytest.raises(ValueError):
        vae.encode(w, np.zeros((3, 16, 16), dtype=np.float32))


# ---------------------------------------------------------------------------
# reparameterization, as training draws it
# ---------------------------------------------------------------------------

def test_reparameterize_examples(tiny_arch):
    """The decoder's input is z = mu + exp(logvar / 2) * noise."""
    params = {k: np.zeros(s) for k, s in tiny_arch.tensor_shapes().items()}
    params["mu_b"][:] = [1.0, -2.0, 0.0, 0.0, 3.0, 0.5]
    params["logvar_b"][:] = [0.0, 0.0, 2 * np.log(2.0), 0.0, 2 * np.log(0.5), 0.0]
    noise = np.array([[0.0, 1.0, 1.0, 0.0, 2.0, -1.0]])
    x = np.zeros((1, 2, 16, 16))
    _, _, _, cache = trainer._forward(params, tiny_arch, x, noise, 1.0)
    z = cache["dec_tape"][0]  # the dense layer's input
    np.testing.assert_allclose(z, [[1.0, -1.0, 2.0, 0.0, 4.0, -0.5]])


# ---------------------------------------------------------------------------
# kl_score
# ---------------------------------------------------------------------------

def test_kl_score_closed_forms():
    m = 24
    assert vae.kl_score(LatentPosterior(np.zeros(m), np.zeros(m))) == 0.0
    assert vae.kl_score(LatentPosterior(np.array([1.0]), np.array([0.0]))) == pytest.approx(0.5)
    assert vae.kl_score(LatentPosterior(np.array([0.0]), np.array([1.0]))) == pytest.approx(
        0.5 * (np.e - 2.0))


def _mc_kl(post, n=10**6, seed=0):
    """Monte-Carlo KL(q || N(0,1)) estimate, summed over dimensions."""
    rng = np.random.default_rng(seed)
    std = np.exp(0.5 * post.logvar)
    z = post.mu + std * rng.standard_normal((n, post.mu.size))
    log_q = -0.5 * (((z - post.mu) / std) ** 2 + post.logvar + np.log(2 * np.pi))
    log_p = -0.5 * (z ** 2 + np.log(2 * np.pi))
    return float((log_q - log_p).sum(axis=1).mean())


def test_kl_score_matches_monte_carlo():
    rng = np.random.default_rng(12)
    for i in range(3):
        post = LatentPosterior(mu=rng.normal(size=4), logvar=rng.uniform(-1, 1, 4))
        exact = vae.kl_score(post)
        assert exact == pytest.approx(_mc_kl(post, seed=i), rel=0.01)


def test_kl_score_invariances():
    rng = np.random.default_rng(13)
    mu, logvar = rng.normal(size=6), rng.uniform(-1, 1, 6)
    base = vae.kl_score(LatentPosterior(mu, logvar))
    perm = rng.permutation(6)
    assert vae.kl_score(LatentPosterior(mu[perm], logvar[perm])) == pytest.approx(base)
    # additive over dimensions
    parts = sum(vae.kl_score(LatentPosterior(mu[i:i + 1], logvar[i:i + 1]))
                for i in range(6))
    assert parts == pytest.approx(base)
    # strictly convex in mu at fixed logvar (midpoint inequality)
    mu2 = mu + rng.normal(size=6)
    mid = vae.kl_score(LatentPosterior((mu + mu2) / 2, logvar))
    avg = 0.5 * (base + vae.kl_score(LatentPosterior(mu2, logvar)))
    assert mid < avg


def test_posterior_validation():
    with pytest.raises(ValueError):
        LatentPosterior(np.zeros(3), np.zeros(2))
    with pytest.raises(ValueError):
        LatentPosterior(np.array([np.nan]), np.zeros(1))
    with pytest.raises(ValueError):
        LatentPosterior(np.zeros(1), np.array([11.0]))  # beyond the clamp range


# ---------------------------------------------------------------------------
# preprocess
# ---------------------------------------------------------------------------

def test_preprocess_zero_flow(tiny_arch):
    out = vae.preprocess(np.zeros((2, 32, 32), dtype=np.float32), tiny_arch)
    assert out.shape == (2, 16, 16)
    assert not out.any()


def test_preprocess_clamp_boundary(tiny_arch):
    flow = np.zeros((2, 16, 16), dtype=np.float32)
    flow[0] = 8.0
    out = vae.preprocess(flow, tiny_arch, max_flow=8.0)
    np.testing.assert_allclose(out[0], 1.0)
    np.testing.assert_allclose(out[1], 0.0)
    flow[0] = 50.0  # beyond the clamp
    np.testing.assert_allclose(vae.preprocess(flow, tiny_arch, 8.0)[0], 1.0)


def test_preprocess_stack_matches_each_flow(tiny_arch):
    flows = np.random.default_rng(6).uniform(-12, 12, size=(3, 4, 2, 20, 28))
    got = vae.preprocess(flows, tiny_arch)
    assert got.shape == (3, 4, 2, 16, 16) and got.dtype == np.float32
    for idx in np.ndindex(3, 4):
        assert got[idx].tobytes() == vae.preprocess(flows[idx], tiny_arch).tobytes()
    with pytest.raises(ValueError, match="flow must be"):
        vae.preprocess(np.zeros((3, 20, 28)), tiny_arch)


def test_preprocess_downsample_block_mean():
    arch = VaeArchitecture(input_size=64)
    yy, xx = np.mgrid[0:128, 0:128].astype(np.float64)
    flow = np.stack([0.01 * xx, 0.02 * yy]).astype(np.float32)
    out = vae.preprocess(flow, arch, max_flow=8.0)
    blocks = flow[0].reshape(64, 2, 64, 2).mean(axis=(1, 3)) / 8.0
    np.testing.assert_allclose(out[0], blocks, rtol=1e-5, atol=1e-7)


@pytest.mark.parametrize("max_flow", [0.0, -1.0, np.inf, np.nan, 1e39, 1e-50],
                         ids=["zero", "negative", "inf", "nan", "float32_inf", "float32_zero"])
def test_preprocess_rejects_bad_max_flow(tiny_arch, max_flow):
    with pytest.raises(ValueError, match="max_flow"):
        vae.preprocess(np.zeros((2, 16, 16), dtype=np.float32), tiny_arch, max_flow)


# ---------------------------------------------------------------------------
# weight files
# ---------------------------------------------------------------------------

def test_weights_round_trip_bit_exact(tmp_path, tiny_arch):
    w = replace(vae.init_weights(tiny_arch, 99), max_flow=4.0)
    p = tmp_path / "w.bin"
    vae.save_weights(p, w)
    back = vae.load_weights(p)
    assert back.arch == tiny_arch
    assert back.max_flow == 4.0
    for name in w.tensors:
        assert np.array_equal(back.tensors[name], w.tensors[name])


def test_load_weights_truncated(tmp_path, tiny_arch):
    p = tmp_path / "w.bin"
    vae.save_weights(p, vae.init_weights(tiny_arch, 0))
    data = p.read_bytes()
    p.write_bytes(data[:len(data) // 2])
    with pytest.raises(EOFError):
        vae.load_weights(p)


@pytest.mark.parametrize("header", [
    struct.pack("<IIIfI", 1, 64, 24, 8.0, 2 ** 22),  # 16 MB of widths
    struct.pack("<IIIfI4I", 1, 16 * 4096, 24, 8.0, 4, 32, 64, 128, 256),  # 1.25 TB of tensors
], ids=["widths", "tensors"])
def test_load_weights_checks_header_sizes_before_reading(tmp_path, header):
    p = tmp_path / "w.bin"
    p.write_bytes(vae.WEIGHTS_MAGIC + header)
    tracemalloc.start()
    try:
        with pytest.raises(EOFError):
            vae.load_weights(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("max_flow", [0.0, np.inf, np.nan], ids=["zero", "inf", "nan"])
def test_load_weights_rejects_bad_max_flow(tmp_path, tiny_arch, max_flow):
    p = tmp_path / "w.bin"
    vae.save_weights(p, vae.init_weights(tiny_arch, 0))
    data = bytearray(p.read_bytes())
    data[16:20] = struct.pack("<f", max_flow)  # after magic, version, size, latent
    p.write_bytes(bytes(data))
    with pytest.raises(gridio.FormatError, match="max_flow"):
        vae.load_weights(p)


def test_load_weights_rejects_non_finite_tensor(tmp_path, tiny_arch):
    p = tmp_path / "w.bin"
    vae.save_weights(p, vae.init_weights(tiny_arch, 0))
    data = bytearray(p.read_bytes())
    data[-4:] = struct.pack("<f", np.inf)  # the last value of the last tensor
    p.write_bytes(bytes(data))
    with pytest.raises(gridio.FormatError, match="non-finite"):
        vae.load_weights(p)


def test_load_weights_bad_magic_and_trailing(tmp_path, tiny_arch):
    p = tmp_path / "w.bin"
    vae.save_weights(p, vae.init_weights(tiny_arch, 0))
    data = p.read_bytes()
    p.write_bytes(b"XXXX" + data[4:])
    with pytest.raises(gridio.FormatError, match="magic"):
        vae.load_weights(p)
    p.write_bytes(data + b"\x00")
    with pytest.raises(gridio.FormatError, match="trailing"):
        vae.load_weights(p)


def test_init_weights_deterministic(tiny_arch):
    a = vae.init_weights(tiny_arch, 7)
    b = vae.init_weights(tiny_arch, 7)
    for name in a.tensors:
        assert np.array_equal(a.tensors[name], b.tensors[name])
    c = vae.init_weights(tiny_arch, 8)
    assert any(not np.array_equal(a.tensors[n], c.tensors[n]) for n in a.tensors)
