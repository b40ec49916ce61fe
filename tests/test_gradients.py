"""Finite-difference verification of the analytic gradients."""

import numpy as np

from danet.network import (
    ArchSpec,
    TINY_NET,
    batch_loss_and_grads,
    estimate_masks,
    finite_difference_check,
    forward_embed,
    init_params,
    reconstruction_loss,
    train_attractors,
)


def test_tiny_net_full_check():
    max_err, per_tensor = finite_difference_check(TINY_NET, seed=0, step=1e-5)
    assert set(per_tensor) == set(init_params(TINY_NET, 0).tensors)
    assert max_err < 1e-4, f"worst tensors: {sorted(per_tensor.items(), key=lambda kv: -kv[1])[:3]}"


def test_two_layer_check():
    arch = ArchSpec(input_dim=3, num_layers=2, hidden_per_direction=2, embed_dim=2)
    max_err, _ = finite_difference_check(arch, seed=4, step=1e-5)
    assert max_err < 1e-4


def test_explicit_fd_on_fc_bias():
    # Local re-derivation of the check for one tensor, independent of
    # finite_difference_check itself.
    arch = TINY_NET
    rng = np.random.default_rng(9)
    params = init_params(arch, 9)
    feats = rng.normal(size=(arch.input_dim, 4))
    mag = rng.uniform(0.2, 1.5, size=(arch.input_dim, 4))
    owner = rng.integers(0, 2, size=(arch.input_dim, 4))
    masks = [(owner == i).astype(float) for i in range(2)]

    def loss_now():
        V = forward_embed(feats, params)
        est = estimate_masks(V, train_attractors(V, masks), arch.input_dim)
        return reconstruction_loss(mag, masks, est)

    _, grads = batch_loss_and_grads([feats], [mag], [masks], params)
    bias = params.tensors["fc.b"]
    step = 1e-5
    for idx in range(bias.size):
        orig = bias[idx]
        bias[idx] = orig + step
        plus = loss_now()
        bias[idx] = orig - step
        minus = loss_now()
        bias[idx] = orig
        numeric = (plus - minus) / (2 * step)
        analytic = grads["fc.b"][idx]
        assert abs(analytic - numeric) <= 1e-4 * max(abs(analytic), abs(numeric), 1e-5)


def test_padded_batch_check():
    # Unequal lengths, so padded frames and the m_f * b_f term of the folded
    # attractors both enter; every tensor, fc.W and fc.b included.
    arch = ArchSpec(input_dim=3, num_layers=2, hidden_per_direction=2, embed_dim=2)
    max_err, per_tensor = finite_difference_check(arch, seed=12, step=1e-5, lengths=(3, 6))
    assert set(per_tensor) == set(init_params(arch, 12).tensors)
    assert max_err < 1e-4, f"worst tensors: {sorted(per_tensor.items(), key=lambda kv: -kv[1])[:3]}"
