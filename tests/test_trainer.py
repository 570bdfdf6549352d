import tracemalloc

import numpy as np
import pytest

from oodflow import nnops, trainer, vae
from oodflow.conformal import CalibrationSet
from oodflow.trainer import TrainConfig
from oodflow.vae import NumericError, VaeArchitecture

from gradcheck import gradient_check
from naive_ref import gemm_col2im_transpose, naive_decode, naive_encode


def _flow_dataset(arch, n, seed=0):
    rng = np.random.default_rng(seed)
    base = rng.uniform(-0.3, 0.3, size=(2, arch.input_size, arch.input_size)
                       ).astype(np.float32)
    return [base + rng.normal(scale=0.02, size=base.shape).astype(np.float32)
            for _ in range(n)]


# ---------------------------------------------------------------------------
# training loss (trainer._forward)
# ---------------------------------------------------------------------------

def _zero_params(arch):
    return {k: np.zeros(shape) for k, shape in arch.tensor_shapes().items()}


def _sample_loss(params, arch, x, beta_kl=1.0):
    """Per-sample (total, recon, kl) of one (2, S, S) sample, zero noise."""
    total, recon, kl, _ = trainer._forward(
        params, arch, np.asarray(x, dtype=np.float64)[None],
        np.zeros((1, arch.latent_dim)), beta_kl)
    return total[0], recon[0], kl[0]


def test_elbo_zero_for_perfect_fit(tiny_arch):
    # zero weights give a standard-normal posterior and reconstruct zeros
    x = np.zeros((2, 16, 16))
    total, recon, kl = _sample_loss(_zero_params(tiny_arch), tiny_arch, x)
    assert total == 0.0 and recon == 0.0 and kl == 0.0


def test_elbo_single_element_difference(tiny_arch):
    x = np.zeros((2, 16, 16))
    x[0, 0, 0] = 0.1
    total, recon, kl = _sample_loss(_zero_params(tiny_arch), tiny_arch, x)
    assert total == pytest.approx(0.01)
    assert recon == pytest.approx(0.01) and kl == 0.0


def test_elbo_beta_zero_drops_kl(tiny_arch):
    params = _zero_params(tiny_arch)
    params["mu_b"][:] = 1.0
    x = np.full((2, 16, 16), 0.5)
    total, recon, kl = _sample_loss(params, tiny_arch, x, beta_kl=0.0)
    assert total == recon and kl > 0.0


@pytest.mark.parametrize("beta_kl", [1.0, 0.0])
def test_training_loss_matches_reference(tiny_arch, beta_kl):
    """The loss train() descends, against the float64 reference network.

    z = mu + exp(logvar / 2) * noise with nonzero noise, so the
    reparameterization and the decoder both shape the reconstruction term.
    """
    weights = vae.init_weights(tiny_arch, 45)
    params = {k: v.astype(np.float64) for k, v in weights.tensors.items()}
    xs = _flow_dataset(tiny_arch, 2, seed=9)
    noise = np.random.default_rng(10).normal(size=(2, tiny_arch.latent_dim))
    total, recon, kl, _ = trainer._forward(
        params, tiny_arch, np.stack(xs).astype(np.float64), noise, beta_kl)
    for i, x in enumerate(xs):
        mu, logvar, _ = naive_encode(weights, x)
        z = mu + np.exp(0.5 * logvar) * noise[i]
        ref_recon = np.sum((naive_decode(weights, z) - x.astype(np.float64)) ** 2)
        ref_kl = 0.5 * np.sum(mu ** 2 + np.exp(logvar) - logvar - 1.0)
        assert recon[i] == pytest.approx(ref_recon, rel=1e-9)
        assert kl[i] == pytest.approx(ref_kl, rel=1e-9)
        assert total[i] == pytest.approx(ref_recon + beta_kl * ref_kl, rel=1e-9)


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def test_train_zero_epochs_returns_init(tiny_arch):
    data = _flow_dataset(tiny_arch, 4)
    weights, log = trainer.train(data, TrainConfig(epochs=0, seed=11), tiny_arch)
    assert log == []
    init = vae.init_weights(tiny_arch, 11)
    for name in weights.tensors:
        assert np.array_equal(weights.tensors[name], init.tensors[name])


def test_train_deterministic(tiny_arch):
    data = _flow_dataset(tiny_arch, 6)
    cfg = TrainConfig(epochs=2, seed=5, batch_size=4)
    w1, log1 = trainer.train(data, cfg, tiny_arch)
    w2, log2 = trainer.train(data, cfg, tiny_arch)
    assert log1 == log2
    for name in w1.tensors:
        assert np.array_equal(w1.tensors[name], w2.tensors[name])


def test_train_reduces_loss(tiny_arch):
    data = _flow_dataset(tiny_arch, 30, seed=2)
    _, log = trainer.train(data, TrainConfig(epochs=6, seed=7), tiny_arch)
    assert log[-1].mean_total < 0.5 * log[0].mean_total


def test_train_recon_strictly_decreases_with_beta_zero(tiny_arch):
    data = _flow_dataset(tiny_arch, 10, seed=3)
    _, log = trainer.train(
        data, TrainConfig(epochs=5, seed=1, beta_kl=0.0, batch_size=4), tiny_arch)
    recons = [e.mean_recon for e in log]
    assert all(b < a for a, b in zip(recons, recons[1:]))


def test_train_rejects_empty_dataset(tiny_arch):
    with pytest.raises(ValueError):
        trainer.train([], TrainConfig(epochs=1), tiny_arch)


def test_train_rejects_wrong_and_mixed_shapes(tiny_arch):
    data = _flow_dataset(tiny_arch, 3)
    with pytest.raises(ValueError, match="dataset items must have shape"):
        trainer.train([d[:, :8] for d in data], TrainConfig(epochs=1), tiny_arch)
    with pytest.raises(ValueError, match="dataset items must have shape"):
        trainer.train(data + [data[0][:, :8]], TrainConfig(epochs=1), tiny_arch)


def test_train_converts_items_to_float32_exactly(tiny_arch):
    # each batch is copied into float32 as it is gathered: a list of float32
    # flows trains to the bits of the same flows as one stacked float32
    # array, as one float64 array or as a list of float64 arrays
    data = _flow_dataset(tiny_arch, 6)
    cfg = TrainConfig(epochs=2, seed=5, batch_size=4)
    w1, log1 = trainer.train(data, cfg, tiny_arch)
    for same in (np.stack(data), np.stack(data).astype(np.float64),
                 [d.astype(np.float64) for d in data]):
        w2, log2 = trainer.train(same, cfg, tiny_arch)
        assert log1 == log2
        for name in w1.tensors:
            assert np.array_equal(w1.tensors[name], w2.tensors[name])


def test_train_returns_its_float32_parameters(tiny_arch, monkeypatch):
    # every step runs on float32 parameters, and train returns those
    # parameters as they stand after the last update: no cast on the way out
    seen = []
    forward = trainer._forward

    def spy(params, *args):
        seen.append(params)
        return forward(params, *args)

    monkeypatch.setattr(trainer, "_forward", spy)
    data = _flow_dataset(tiny_arch, 6)
    weights, _ = trainer.train(data, TrainConfig(epochs=2, seed=5, batch_size=4),
                               tiny_arch)
    assert len(seen) == 4 and all(p is seen[0] for p in seen)
    for name, tensor in weights.tensors.items():
        assert tensor.dtype == np.float32 and seen[0][name].dtype == np.float32
        assert np.array_equal(tensor, seen[0][name]), name


def test_float32_step_matches_float64_step():
    # one 64 px, N=32 step on float32 parameters, batch and noise against
    # the same values in float64: every gradient stays float32 and is within
    # 1e-5 of its float64 counterpart, relative to the tensor's largest
    arch = VaeArchitecture(input_size=64)
    rng = np.random.default_rng(25)
    p32 = {k: v.astype(np.float32) for k, v in vae.init_params(arch, rng).items()}
    x32 = np.stack(_flow_dataset(arch, 32, seed=8))
    n32 = rng.standard_normal((32, arch.latent_dim)).astype(np.float32)

    def step(params, x, noise):
        total, recon, kl, cache = trainer._forward(params, arch, x, noise, 1.0)
        return (total, recon, kl), trainer._backward(params, cache, 1.0)

    loss32, g32 = step(p32, x32, n32)
    loss64, g64 = step({k: v.astype(np.float64) for k, v in p32.items()},
                       x32.astype(np.float64), n32.astype(np.float64))
    for got, want in zip(loss32, loss64):
        assert got.dtype == np.float32
        np.testing.assert_allclose(got, want, rtol=1e-5)
    assert sorted(g32) == sorted(arch.tensor_shapes())
    for name, g in g32.items():
        assert g.dtype == np.float32, name
        err = np.abs(g.astype(np.float64) - g64[name]).max() / np.abs(g64[name]).max()
        assert err <= 1e-5, (name, err)


def test_train_peak_memory_holds_one_slim_tape():
    # one epoch at 64 px, batch 32: three steps.  In float64, keeping the
    # previous step's tape alive through the next forward, with its
    # pre-activations, peaked at 300 MiB; a tape of im2col columns and ReLU
    # masks per step at about 190 MiB; a tape of conv inputs and masks, with
    # each layer's columns rebuilt in the backward pass, at about 121 MiB.
    # The same tape in float32 peaked at about 62 MiB, and a float32 tape of
    # layer inputs alone, with no masks, at about 57 MiB
    arch = VaeArchitecture(input_size=64)
    data = _flow_dataset(arch, 96, seed=4)
    tracemalloc.start()
    try:
        trainer.train(data, TrainConfig(epochs=1, batch_size=32, seed=0), arch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 60 * 2 ** 20


@pytest.mark.parametrize("max_flow", [-1.0, 0.0, np.nan], ids=["negative", "zero", "nan"])
def test_train_checks_max_flow_before_training(tiny_arch, monkeypatch, max_flow):
    # the weights would reject it, but only after every epoch had run
    def forward(*args):
        raise AssertionError("a training step ran")

    monkeypatch.setattr(trainer, "_forward", forward)
    with pytest.raises(ValueError, match="max_flow"):
        trainer.train(_flow_dataset(tiny_arch, 4), TrainConfig(epochs=50, batch_size=4),
                      tiny_arch, max_flow)


def test_train_aborts_on_divergence(tiny_arch):
    # a step this large overflows the next forward pass to non-finite values
    data = _flow_dataset(tiny_arch, 8)
    cfg = TrainConfig(epochs=5, seed=0, learning_rate=1e200, batch_size=4)
    with np.errstate(all="ignore"), pytest.raises(NumericError):
        trainer.train(data, cfg, tiny_arch)


def test_train_config_validation():
    for bad in (dict(epochs=-1), dict(epochs=1, batch_size=0), dict(epochs=1.5),
                dict(epochs=1, batch_size=2.5), dict(epochs=True),
                dict(epochs=1, learning_rate=np.nan),
                dict(epochs=1, beta_kl=np.nan)):
        with pytest.raises(ValueError):
            TrainConfig(**bad)


def test_training_log_csv(tmp_path, tiny_arch):
    data = _flow_dataset(tiny_arch, 4)
    _, log = trainer.train(data, TrainConfig(epochs=2, seed=0, batch_size=4),
                           tiny_arch)
    p = tmp_path / "log.csv"
    trainer.write_training_log(p, log)
    lines = p.read_text().strip().splitlines()
    assert lines[0] == "epoch,mean_total,mean_recon,mean_kl"
    assert len(lines) == 3
    assert float(lines[1].split(",")[1]) == pytest.approx(log[0].mean_total)


# ---------------------------------------------------------------------------
# gradient_check (tests/gradcheck.py)
# ---------------------------------------------------------------------------

def test_gradient_check_full_objective(tiny_arch):
    weights = vae.init_weights(tiny_arch, 21)
    sample = _flow_dataset(tiny_arch, 1, seed=4)[0]
    err = gradient_check(weights, sample, n_params=120, seed=0)
    assert err < 1e-3


def test_gradient_check_recon_only(tiny_arch):
    weights = vae.init_weights(tiny_arch, 22)
    sample = _flow_dataset(tiny_arch, 1, seed=5)[0]
    err = gradient_check(weights, sample, n_params=120, seed=1, beta_kl=0.0)
    assert err < 1e-3


def test_linear_layer_gradients_near_exact():
    # quadratic loss through a lone dense layer: analytic == numeric up to
    # finite-difference truncation
    rng = np.random.default_rng(6)
    x = rng.normal(size=(3, 5))
    w = rng.normal(size=(4, 5))
    b = rng.normal(size=4)
    target = rng.normal(size=(3, 4))

    def loss(wm):
        return float(np.sum((nnops.linear(x, wm, b) - target) ** 2))

    dy = 2.0 * (nnops.linear(x, w, b) - target)
    _, dw, _ = nnops.linear_backward(dy, x, w)
    worst = 0.0
    for idx in range(w.size):
        h = 1e-5 * max(1.0, abs(w.flat[idx]))
        old = w.flat[idx]
        w.flat[idx] = old + h
        lp = loss(w)
        w.flat[idx] = old - h
        lm = loss(w)
        w.flat[idx] = old
        fd = (lp - lm) / (2 * h)
        worst = max(worst, abs(fd - dw.flat[idx]) / max(abs(fd), abs(dw.flat[idx]), 1e-8))
    assert worst < 1e-6


def test_gradient_check_explicit_indices(tiny_arch):
    weights = vae.init_weights(tiny_arch, 23)
    sample = _flow_dataset(tiny_arch, 1, seed=6)[0]
    err = gradient_check(weights, sample,
                         indices=[("mu_w", 0), ("dec_b", 3), ("enc0_w", 10)])
    assert err < 1e-3


def test_backward_matches_gemm_col2im_oracle(monkeypatch):
    # every gradient of one 32 px, N=7 step, bit for bit against the same
    # step with each transposed conv (decoder forward, encoder input
    # gradients) computed as one gemm plus per-pixel adds
    arch = VaeArchitecture(input_size=32)
    rng = np.random.default_rng(24)
    params = vae.init_params(arch, rng)
    x = np.stack(_flow_dataset(arch, 7, seed=7)).astype(np.float64)
    noise = rng.standard_normal((7, arch.latent_dim))

    def step():
        cache = trainer._forward(params, arch, x, noise, 1.0)[3]
        return trainer._backward(params, cache, 1.0)

    got = step()
    monkeypatch.setattr(nnops, "conv2d_input_grad",
                        lambda g, w: gemm_col2im_transpose(g, w, 2, 1))
    monkeypatch.setattr(nnops, "conv_transpose2d", lambda h, w, b: (
        gemm_col2im_transpose(h, w, 2, 1) + b[None, :, None, None]))
    want = step()
    assert sorted(got) == sorted(arch.tensor_shapes())
    for name in want:
        assert np.array_equal(got[name], want[name]), name


def test_tape_holds_layer_inputs_and_backward_empties_it(tiny_arch, monkeypatch):
    # each entry is the very array its layer was given; each ReLU's mask,
    # read off the next entry (the last-conv volume for enc3), is where a
    # recomputed pre-activation is positive; the backward pass empties both
    params = vae.init_params(tiny_arch, 3)
    x = np.stack(_flow_dataset(tiny_arch, 2)).astype(np.float64)
    noise = np.random.default_rng(4).standard_normal((2, tiny_arch.latent_dim))
    given = []  # (weight, input) of every layer call

    def spy(fn):
        def layer(h, w, *args):
            given.append((w, h))
            return fn(h, w, *args)
        return layer

    for name in ("conv2d", "linear", "conv_transpose2d"):
        monkeypatch.setattr(nnops, name, spy(getattr(nnops, name)))
    cache = trainer._forward(params, tiny_arch, x, noise, 1.0)[3]
    monkeypatch.undo()
    inputs = {id(w): h for w, h in given}
    enc_tape, dec_tape = cache["enc_tape"], cache["dec_tape"]
    assert len(enc_tape) == 4 and len(dec_tape) == 5
    assert enc_tape[0] is x
    for i in range(4):
        assert enc_tape[i] is inputs[id(params[f"enc{i}_w"])]
        assert dec_tape[i + 1] is inputs[id(params[f"tdec{i}_w"])]
    assert dec_tape[0] is inputs[id(params["dec_w"])]

    outs = enc_tape[1:] + [cache["acts"]]
    for i in range(4):
        pre = nnops.conv2d(enc_tape[i], params[f"enc{i}_w"], params[f"enc{i}_b"])[0]
        assert np.array_equal(outs[i] > 0, pre > 0)
    pre = nnops.linear(dec_tape[0], params["dec_w"], params["dec_b"])
    assert np.array_equal(dec_tape[1] > 0, (pre > 0).reshape(dec_tape[1].shape))
    for i in range(3):
        pre = nnops.conv_transpose2d(dec_tape[i + 1], params[f"tdec{i}_w"],
                                     params[f"tdec{i}_b"])
        assert np.array_equal(dec_tape[i + 2] > 0, pre > 0)
    # every mask has both signs, so the comparisons above can fail
    for out in outs + dec_tape[1:]:
        assert 0 < np.count_nonzero(out > 0) < out.size
    trainer._backward(params, cache, 1.0)
    assert enc_tape == [] and dec_tape == []


# ---------------------------------------------------------------------------
# split_calibration / build_calibration
# ---------------------------------------------------------------------------

def test_split_sizes_and_determinism():
    data = list(range(100))
    train_part, cal_part = trainer.split_calibration(data, 0.2, seed=9)
    assert len(train_part) == 80 and len(cal_part) == 20
    assert sorted(train_part + cal_part) == data
    t2, c2 = trainer.split_calibration(data, 0.2, seed=9)
    assert train_part == t2 and cal_part == c2


def test_split_different_seeds_differ():
    data = list(range(50))
    differing = sum(
        trainer.split_calibration(data, 0.2, seed=s)[1]
        != trainer.split_calibration(data, 0.2, seed=s + 1000)[1]
        for s in range(20))
    assert differing >= 19


def test_split_rejects_degenerate():
    with pytest.raises(ValueError):
        trainer.split_calibration([1, 2], 0.2, seed=0)  # rounds to empty part
    with pytest.raises(ValueError):
        trainer.split_calibration(list(range(10)), 0.0, seed=0)


def test_build_calibration_single_and_ties(tiny_arch):
    weights = vae.init_weights(tiny_arch, 30)
    flow = _flow_dataset(tiny_arch, 1, seed=8)[0]
    single = trainer.build_calibration(weights, [flow])
    assert single.size == 1
    assert single.scores[0] == pytest.approx(
        vae.kl_score(vae.encode(weights, flow).posterior), rel=1e-6)
    doubled = trainer.build_calibration(weights, [flow, flow])
    assert doubled.size == 2
    assert doubled.scores[0] == doubled.scores[1]


def test_build_calibration_permutation_invariant(tiny_arch):
    weights = vae.init_weights(tiny_arch, 31)
    flows = _flow_dataset(tiny_arch, 7, seed=9)
    a = trainer.build_calibration(weights, flows)
    b = trainer.build_calibration(weights, flows[::-1])
    np.testing.assert_array_equal(a.scores, b.scores)


def test_build_calibration_empty():
    with pytest.raises(ValueError):
        trainer.build_calibration(vae.init_weights(VaeArchitecture(input_size=16), 0), [])


def test_calibration_set_validation():
    with pytest.raises(ValueError):
        CalibrationSet(scores=np.array([3.0, 1.0]))
    with pytest.raises(ValueError):
        CalibrationSet(scores=np.array([]))
    with pytest.raises(ValueError):
        CalibrationSet(scores=np.array([np.inf]))
