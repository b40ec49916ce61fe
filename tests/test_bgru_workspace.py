"""The workspace BGRU passes and the in-place head against a frozen copy of
the fresh-array code.

`_reference_*` below are the padding, the recurrences and the training head
as they were before the passes wrote into a `Workspace` and the head reused
its temporaries: every step allocated its own temporaries, the bw direction
was stacked reversed with `np.stack`, and no step skipped the masked blend.
The live code must match them byte for byte: layer outputs, loss, every
gradient and `forward_embed`; and it must leave the caller's batch as it was.
"""

import tracemalloc

import numpy as np
import pytest
from scipy.special import expit as _sigmoid

from danet import network
from danet.network import (
    CELL_TENSORS,
    DIRECTIONS,
    ArchSpec,
    Workspace,
    batch_loss,
    batch_loss_and_grads,
    forward_embed,
    init_params,
)

DESK = ArchSpec(input_dim=129, num_layers=2, hidden_per_direction=64, embed_dim=10)
SMALL = ArchSpec(input_dim=7, num_layers=3, hidden_per_direction=5, embed_dim=3)


def _reference_reverse_bw(pair):
    return np.stack((pair[0], pair[1][:, ::-1]))


def _reference_stacked_cell(params, layer):
    cells = [params.cell(layer, d) for d in DIRECTIONS]
    return [np.stack([cell[k] for cell in cells]) for k in CELL_TENSORS]


def _reference_run_layer(x_seq, frame_mask, params, layer, keep_cache):
    W, U, b_i, b_h = _reference_stacked_cell(params, layer)
    B, T, _ = x_seq.shape
    h_dim = U.shape[2]
    a_in = _reference_reverse_bw([x_seq @ W[d].T + b_i[d] for d in range(2)])
    mask = _reference_reverse_bw((frame_mask, frame_mask))[..., None]
    U_T = U.transpose(0, 2, 1)
    b_h = b_h[:, None, :]

    h_seq = np.empty((2, B, T, h_dim))
    if keep_cache:
        z, r, n, rn = (np.empty((2, B, T, h_dim)) for _ in range(4))
    h = np.zeros((2, B, h_dim))
    for t in range(T):
        rec = h @ U_T + b_h
        z_t = _sigmoid(a_in[:, :, t, :h_dim] + rec[..., :h_dim])
        r_t = _sigmoid(a_in[:, :, t, h_dim:2 * h_dim] + rec[..., h_dim:2 * h_dim])
        rn_t = rec[..., 2 * h_dim:]
        n_t = np.tanh(a_in[:, :, t, 2 * h_dim:] + r_t * rn_t)
        h_new = (1.0 - z_t) * n_t + z_t * h
        m = mask[:, :, t]
        if keep_cache:
            z[:, :, t], r[:, :, t], n[:, :, t], rn[:, :, t] = z_t, r_t, n_t, rn_t
        h_seq[:, :, t] = h = m * h_new + (1.0 - m) * h
    out = np.concatenate(_reference_reverse_bw(h_seq), axis=2)
    return out, ((x_seq, mask, z, r, n, rn, h_seq) if keep_cache else None)


def _reference_backward_layer(d_out, params, layer, cache):
    x_seq, mask, z, r, n, rn, h_seq = cache
    W, U, _, _ = _reference_stacked_cell(params, layer)
    _, B, T, h_dim = h_seq.shape
    d_out = _reference_reverse_bw(np.split(d_out, 2, axis=2))
    h_prev = np.zeros_like(h_seq)
    h_prev[:, :, 1:] = h_seq[:, :, :-1]
    d_rec = np.empty((2, B, T, 3 * h_dim))
    d_an = np.empty((2, B, T, h_dim))

    carry = np.zeros((2, B, h_dim))
    for t in range(T - 1, -1, -1):
        g = d_out[:, :, t] + carry
        m = mask[:, :, t]
        d_new = g * m
        z_t, r_t, n_t, rn_t = z[:, :, t], r[:, :, t], n[:, :, t], rn[:, :, t]

        d_hp = d_new * z_t + g * (1.0 - m)
        dan = d_an[:, :, t] = d_new * (1.0 - z_t) * (1.0 - n_t * n_t)
        d_rec[:, :, t, :h_dim] = d_new * (h_prev[:, :, t] - n_t) * z_t * (1.0 - z_t)
        d_rec[:, :, t, h_dim:2 * h_dim] = dan * rn_t * r_t * (1.0 - r_t)
        d_rec[:, :, t, 2 * h_dim:] = dan * r_t
        carry = d_hp + d_rec[:, :, t] @ U

    d_rec, d_an, h_prev = (_reference_reverse_bw(d_rec), _reference_reverse_bw(d_an),
                           _reference_reverse_bw(h_prev))
    d_a = np.concatenate((d_rec[..., :2 * h_dim], d_an), axis=3)
    flat_a = d_a.reshape(2, B * T, 3 * h_dim)
    flat_rec = d_rec.reshape(2, B * T, 3 * h_dim)
    stacked = {
        "W": flat_a.transpose(0, 2, 1) @ x_seq.reshape(B * T, -1),
        "U": flat_rec.transpose(0, 2, 1) @ h_prev.reshape(2, B * T, h_dim),
        "b_i": flat_a.sum(axis=1),
        "b_h": flat_rec.sum(axis=1),
    }
    grads = {f"l{layer}.{d}.{key}": g[i]
             for i, d in enumerate(DIRECTIONS) for key, g in stacked.items()}
    dx_seq = d_a[0] @ W[0] + d_a[1] @ W[1]
    return dx_seq, grads


def _reference_forward(x, frame_mask, params, keep_cache):
    caches = []
    seq = x
    for layer in range(params.arch.num_layers):
        seq, cache = _reference_run_layer(seq, frame_mask, params, layer, keep_cache)
        caches.append(cache)
    return seq, caches


def _reference_fc_factors(params):
    F, K = params.arch.input_dim, params.arch.embed_dim
    W = params.tensors["fc.W"]
    return (W.reshape(F, K, -1).transpose(1, 0, 2).reshape(K, -1),
            params.tensors["fc.b"].reshape(F, K).T)


def _reference_pad_batch(features, mix_mags, ideal_masks, arch):
    B = len(features)
    n_spk = len(ideal_masks[0])
    F = arch.input_dim
    lengths = [f.shape[1] for f in features]
    T = max(lengths)
    x = np.zeros((B, T, F))
    X = np.zeros((B, F, T))
    M = np.zeros((B, n_spk, F, T))
    frame_mask = np.zeros((B, T))
    for b in range(B):
        t_b = lengths[b]
        x[b, :t_b] = np.asarray(features[b]).T
        X[b, :, :t_b] = mix_mags[b]
        frame_mask[b, :t_b] = 1.0
        for i, mask in enumerate(ideal_masks[b]):
            M[b, i, :, :t_b] = mask
    return x, X, M, frame_mask, n_spk


def _reference_loss(features, mix_mags, ideal_masks, params, keep_cache=False):
    x, X, M, frame_mask, n_spk = _reference_pad_batch(features, mix_mags, ideal_masks,
                                                      params.arch)
    s, caches = _reference_forward(x, frame_mask, params, keep_cache)
    Wk, bk = _reference_fc_factors(params)
    B, _, F, T = M.shape
    m = M.sum(axis=3).reshape(B * n_spk, F)
    mass = m.sum(axis=1, keepdims=True)
    P = (M.reshape(B, n_spk * F, T) @ s).reshape(B * n_spk, -1)
    attractors = (P @ Wk.T + m @ bk.T) / mass
    G = attractors @ Wk
    c = attractors @ bk
    scores = G.reshape(B, n_spk * F, -1) @ s.transpose(0, 2, 1)
    scores += c.reshape(B, n_spk * F, 1)
    m_hat = _sigmoid(scores).reshape(M.shape)
    Xsq = X * X
    err = M - m_hat
    count = n_spk * len(features)
    loss = float(np.sum(Xsq[:, None] * err * err)) / count
    return loss, (caches, s, M, m, mass, P, attractors, G, Xsq, count, m_hat)


def _reference_loss_and_grads(features, mix_mags, ideal_masks, params):
    loss, (caches, s, M, m, mass, P, attractors, G, Xsq, count, m_hat) = _reference_loss(
        features, mix_mags, ideal_masks, params, keep_cache=True)
    Wk, bk = _reference_fc_factors(params)
    B, n_spk, F, T = M.shape
    by_bin = (B, n_spk * F, -1)
    d_mhat = (2.0 / count) * Xsq[:, None] * (m_hat - M)
    d_scores = (d_mhat * m_hat * (1.0 - m_hat)).reshape(by_bin)
    dG = (d_scores @ s).reshape(P.shape)
    dc = d_scores.sum(axis=2).reshape(m.shape)
    d_attr = (dG @ Wk.T + dc @ bk.T) / mass
    dP = d_attr @ Wk
    dWk = attractors.T @ dG
    dWk += d_attr.T @ P
    dbk = attractors.T @ dc + d_attr.T @ m
    K = params.arch.embed_dim
    grads = {"fc.W": dWk.reshape(K, F, -1).transpose(1, 0, 2).reshape(F * K, -1),
             "fc.b": dbk.T.ravel()}
    d_seq = d_scores.transpose(0, 2, 1) @ G.reshape(by_bin)
    d_seq += M.reshape(by_bin).transpose(0, 2, 1) @ dP.reshape(by_bin)
    for layer in range(params.arch.num_layers - 1, -1, -1):
        d_seq, layer_grads = _reference_backward_layer(d_seq, params, layer, caches[layer])
        grads.update(layer_grads)
    return loss, {name: grads[name] for name in params.tensors}


def _reference_embed(features, params):
    T = features.shape[1]
    seq, _ = _reference_forward(features.T[None, :, :], np.ones((1, T)), params, False)
    y = seq @ params.tensors["fc.W"].T + params.tensors["fc.b"]
    return y[0].reshape(T * features.shape[0], params.arch.embed_dim).T


def _batch(arch, lengths, seed, n_spk=2):
    """Features, magnitudes and binary n_spk-speaker masks, one per length."""
    rng = np.random.default_rng(seed)
    F = arch.input_dim
    feats, mags, masks = [], [], []
    for T in lengths:
        owner = rng.integers(0, n_spk, size=(F, T))
        owner[:n_spk, 0] = np.arange(n_spk)  # no mask is all-zero
        feats.append(rng.normal(size=(F, T)))
        mags.append(rng.uniform(0.1, 2.0, size=(F, T)))
        masks.append([owner == i for i in range(n_spk)])
    return feats, mags, masks


def _batch_bytes(batch):
    feats, mags, masks = batch
    return ([f.tobytes() for f in feats], [m.tobytes() for m in mags],
            [[m.tobytes() for m in ms] for ms in masks])


def _assert_same(loss, grads, ref_loss, ref_grads):
    assert loss == ref_loss
    assert list(grads) == list(ref_grads)
    for name, g in grads.items():
        assert g.tobytes() == ref_grads[name].tobytes(), name


def _check_batch(arch, lengths, seed, workspace=None, n_spk=2):
    params = init_params(arch, seed)
    batch = _batch(arch, lengths, seed, n_spk)
    given = _batch_bytes(batch)
    x, _, _, frame_mask, _ = _reference_pad_batch(*batch, arch)
    ref_s, _ = _reference_forward(x, frame_mask, params, keep_cache=False)
    for keep_cache in (False, True):
        s, _ = network._forward_batch(x, frame_mask, params, workspace, keep_cache)
        assert s.tobytes() == ref_s.tobytes()
    assert batch_loss(*batch, params, workspace) == _reference_loss(*batch, params)[0]
    _assert_same(*batch_loss_and_grads(*batch, params, workspace),
                 *_reference_loss_and_grads(*batch, params))
    assert _batch_bytes(batch) == given  # the head writes over its own copies only


@pytest.mark.parametrize("arch", [DESK, SMALL], ids=["desk", "small"])
@pytest.mark.parametrize("B", [1, 3, 8])
@pytest.mark.parametrize("T", [1, 2, 66])
def test_all_valid_batch_matches_reference(arch, B, T):
    _check_batch(arch, [T] * B, seed=B * 100 + T)


@pytest.mark.parametrize("arch", [DESK, SMALL], ids=["desk", "small"])
@pytest.mark.parametrize("B", [3, 8])
@pytest.mark.parametrize("T", [2, 66])
def test_mixed_length_batch_matches_reference(arch, B, T):
    lengths = [T] + [1 + (7 * b) % T for b in range(1, B)]
    _check_batch(arch, lengths, seed=B * 100 + T + 1)


@pytest.mark.parametrize("arch", [DESK, SMALL], ids=["desk", "small"])
@pytest.mark.parametrize("lengths", [[66] * 4, [66, 40, 1, 66, 23]], ids=["equal", "mixed"])
def test_three_speaker_batch_matches_reference(arch, lengths):
    _check_batch(arch, lengths, seed=len(lengths) + 50, n_spk=3)


@pytest.mark.parametrize("arch", [DESK, SMALL], ids=["desk", "small"])
def test_one_padded_frame_matches_reference(arch):
    # Only frame 65 of the last utterance is padding: steps 65 (fw) and 0
    # (bw) blend, every other step skips the blend.
    _check_batch(arch, [66, 66, 65], seed=7)


@pytest.mark.parametrize("arch", [DESK, SMALL], ids=["desk", "small"])
def test_one_workspace_serves_long_short_long_batches(arch):
    workspace = Workspace(arch, batch=8, frames=66)
    for i, lengths in enumerate(([66, 40, 66, 12, 66, 66, 50, 3], [5, 9, 2], [66] * 8)):
        _check_batch(arch, lengths, seed=20 + i, workspace=workspace)


@pytest.mark.parametrize("arch", [DESK, SMALL], ids=["desk", "small"])
@pytest.mark.parametrize("T", [1, 2, 66])
def test_forward_embed_matches_reference(arch, T):
    params = init_params(arch, T)
    features = np.random.default_rng(T).normal(size=(arch.input_dim, T))
    expected = _reference_embed(features, params)
    assert forward_embed(features, params).tobytes() == expected.tobytes()


def test_workspace_grows_for_a_larger_batch():
    workspace = Workspace(SMALL, batch=2, frames=4)
    _check_batch(SMALL, [9, 3, 9], seed=30, workspace=workspace)


def test_results_do_not_alias_the_workspace():
    params = init_params(SMALL, 40)
    workspace = Workspace(SMALL, batch=3, frames=12)
    _, grads = batch_loss_and_grads(*_batch(SMALL, [12, 7, 12], 41), params, workspace)
    kept = {name: g.copy() for name, g in grads.items()}
    features = np.random.default_rng(42).normal(size=(SMALL.input_dim, 12))
    V = forward_embed(features, params, workspace)
    V_kept = V.copy()
    batch_loss_and_grads(*_batch(SMALL, [9, 12, 4], 43), params, workspace)
    forward_embed(2.0 * features, params, workspace)
    for name, g in grads.items():
        assert np.array_equal(g, kept[name]), name
    assert np.array_equal(V, V_kept)


def test_one_desk_step_peaks_below_its_bound():
    # tracemalloc counts numpy's allocations, so the peak repeats exactly. On
    # this batch the step peaked at 12,241,582 bytes with the head reusing its
    # temporaries (21,034,520 when each was a fresh array); the bound is that
    # measurement plus 10%.
    params = init_params(DESK, 60)
    batch = _batch(DESK, [66] * 8, 60)
    workspace = Workspace(DESK, batch=8, frames=66)
    batch_loss_and_grads(*batch, params, workspace)
    tracemalloc.start()
    try:
        batch_loss_and_grads(*batch, params, workspace)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 13_465_740, peak
