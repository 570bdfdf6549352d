"""Finite-difference check of the hand-derived backward pass.

The verifier of ``trainer._backward`` that C06 and ``test_trainer`` run.
It drives the training network in float64, while ``trainer.train`` runs it
in float32: ``_forward`` and ``_backward`` compute in the dtype of the
parameters they are given.
"""

import numpy as np

from oodflow import trainer


def gradient_check(weights, sample, n_params=120, seed=0, beta_kl=1.0, indices=None):
    """Compare analytic gradients against central finite differences.

    Runs in float64 with reparameterization noise fixed to zero; perturbation
    h = 1e-5 * max(1, |w|).  Returns the maximum relative error over the
    checked parameters (random unless ``indices`` names them explicitly).
    """
    arch = weights.arch
    params = {k: v.astype(np.float64) for k, v in weights.tensors.items()}
    x = np.asarray(sample, dtype=np.float64)[np.newaxis]
    noise = np.zeros((1, arch.latent_dim))

    _, _, _, cache = trainer._forward(params, arch, x, noise, beta_kl)
    grads = trainer._backward(params, cache, beta_kl)

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
        loss_p = trainer._forward(params, arch, x, noise, beta_kl)[0].mean()
        params[name].flat[idx] = w0 - h
        loss_m = trainer._forward(params, arch, x, noise, beta_kl)[0].mean()
        params[name].flat[idx] = w0
        numeric = (loss_p - loss_m) / (2.0 * h)
        analytic = grads[name].flat[idx]
        rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8)
        worst = max(worst, rel)
    return worst
