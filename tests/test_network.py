"""Embedding network tests: cell math, forward pass, attractors, loss, counts."""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from scipy.special import expit

from danet.network import (
    ArchSpec,
    ModelParams,
    batch_loss,
    batch_loss_and_grads,
    count_params,
    estimate_masks,
    flatten_tf,
    forward_embed,
    init_params,
    reconstruction_loss,
    tensor_shapes,
    train_attractors,
    unflatten_tf,
)


def gru_cell(x: np.ndarray, h_prev: np.ndarray, cell: dict[str, np.ndarray]) -> np.ndarray:
    """Reference GRU step, one direction at a time.

    z = sig(W_z x + U_z h + b_iz + b_hz), r likewise,
    n = tanh(W_n x + b_in + r * (U_n h + b_hn)), out = (1-z)*n + z*h.
    """
    h = h_prev.shape[-1]
    if x.shape[-1] != cell["W"].shape[1] or 3 * h != cell["U"].shape[0]:
        raise ValueError(f"dimension mismatch: x {x.shape}, h_prev {h_prev.shape}, "
                         f"W {cell['W'].shape}, U {cell['U'].shape}")
    a = x @ cell["W"].T + cell["b_i"]
    rec = h_prev @ cell["U"].T + cell["b_h"]
    z = expit(a[..., :h] + rec[..., :h])
    r = expit(a[..., h:2 * h] + rec[..., h:2 * h])
    n = np.tanh(a[..., 2 * h:] + r * rec[..., 2 * h:])
    return (1.0 - z) * n + z * h_prev


def zero_params(arch: ArchSpec) -> ModelParams:
    return ModelParams(arch, {k: np.zeros(s) for k, s in tensor_shapes(arch).items()})


def scalar_sigmoid(v):
    return 1.0 / (1.0 + math.exp(-v))


class TestGruCell:
    def cell_of(self, W, U, b_i, b_h):
        return {"W": np.asarray(W, float), "U": np.asarray(U, float),
                "b_i": np.asarray(b_i, float), "b_h": np.asarray(b_h, float)}

    def test_zero_params_halve_state(self):
        cell = self.cell_of(np.zeros((6, 2)), np.zeros((6, 2)), np.zeros(6), np.zeros(6))
        v = np.array([0.3, -1.2])
        out = gru_cell(np.array([5.0, -2.0]), v, cell)
        assert np.allclose(out, 0.5 * v, atol=1e-15)

    def test_zero_state_zero_params(self):
        cell = self.cell_of(np.zeros((6, 2)), np.zeros((6, 2)), np.zeros(6), np.zeros(6))
        out = gru_cell(np.array([1.0, 1.0]), np.zeros(2), cell)
        assert np.all(out == 0)

    def test_matches_scalar_evaluation(self):
        # Step-by-step scalar oracle on a hidden=2, in=2 cell.
        rng = np.random.default_rng(21)
        W = rng.normal(size=(6, 2))
        U = rng.normal(size=(6, 2))
        b_i = rng.normal(size=6)
        b_h = rng.normal(size=6)
        x = rng.normal(size=2)
        hp = rng.normal(size=2)

        expected = np.zeros(2)
        for j in range(2):
            az = W[j, 0] * x[0] + W[j, 1] * x[1] + U[j, 0] * hp[0] + U[j, 1] * hp[1] \
                + b_i[j] + b_h[j]
            ar = W[2 + j, 0] * x[0] + W[2 + j, 1] * x[1] \
                + U[2 + j, 0] * hp[0] + U[2 + j, 1] * hp[1] + b_i[2 + j] + b_h[2 + j]
            rec_n = U[4 + j, 0] * hp[0] + U[4 + j, 1] * hp[1] + b_h[4 + j]
            z = scalar_sigmoid(az)
            r = scalar_sigmoid(ar)
            n = math.tanh(W[4 + j, 0] * x[0] + W[4 + j, 1] * x[1] + b_i[4 + j] + r * rec_n)
            expected[j] = (1.0 - z) * n + z * hp[j]

        out = gru_cell(x, hp, self.cell_of(W, U, b_i, b_h))
        assert np.allclose(out, expected, atol=1e-14)

    def test_dimension_mismatch(self):
        cell = self.cell_of(np.zeros((6, 2)), np.zeros((6, 2)), np.zeros(6), np.zeros(6))
        with pytest.raises(ValueError, match="mismatch"):
            gru_cell(np.zeros(3), np.zeros(2), cell)


class TestLayout:
    def test_flatten_column_order(self):
        mat = np.arange(6.0).reshape(3, 2)  # F=3, T=2
        flat = flatten_tf(mat)
        for t in range(2):
            for f in range(3):
                assert flat[t * 3 + f] == mat[f, t]
        assert np.array_equal(unflatten_tf(flat, 3), mat)


class TestForwardEmbed:
    def test_zero_params_yield_bias(self):
        arch = ArchSpec(input_dim=3, num_layers=2, hidden_per_direction=4, embed_dim=2)
        params = zero_params(arch)
        params.tensors["fc.b"][:] = np.arange(6.0)
        V = forward_embed(np.random.default_rng(0).normal(size=(3, 1)), params)
        assert np.array_equal(V, np.arange(6.0).reshape(3, 2).T)

    @pytest.mark.parametrize("T", [1, 2, 9])
    def test_shape_contract(self, T):
        arch = ArchSpec(input_dim=4, num_layers=1, hidden_per_direction=3, embed_dim=5)
        params = init_params(arch, 1)
        V = forward_embed(np.random.default_rng(T).normal(size=(4, T)), params)
        assert V.shape == (5, 4 * T)

    @pytest.mark.parametrize("layers, T", [(1, 2), (2, 5)])
    def test_matches_unrolled_sequential_evaluation(self, layers, T):
        # Independent plain-loop oracle: hidden=2/dir, F=3, K=2.
        arch = ArchSpec(input_dim=3, num_layers=layers, hidden_per_direction=2, embed_dim=2)
        rng = np.random.default_rng(22)
        params = init_params(arch, 22)
        feats = rng.normal(size=(3, T))

        def run_dir(seq, layer, direction, order):
            cell = params.cell(layer, direction)
            h = np.zeros(2)
            outs = {}
            for t in order:
                h = gru_cell(seq[t], h, cell)
                outs[t] = h
            return outs

        seq = list(feats.T)
        for layer in range(layers):
            fw = run_dir(seq, layer, "fw", range(T))
            bw = run_dir(seq, layer, "bw", reversed(range(T)))
            seq = [np.concatenate([fw[t], bw[t]]) for t in range(T)]
        expected_cols = []
        for o in seq:
            y = params.tensors["fc.W"] @ o + params.tensors["fc.b"]
            block = y.reshape(3, 2)  # (F, K) for this frame
            for f in range(3):
                expected_cols.append(block[f])
        expected = np.stack(expected_cols, axis=1)

        assert np.allclose(forward_embed(feats, params), expected, atol=1e-12)

    def test_rejects_wrong_feature_rows(self):
        arch = ArchSpec(input_dim=4, num_layers=1, hidden_per_direction=3, embed_dim=2)
        with pytest.raises(ValueError, match="feature rows"):
            forward_embed(np.zeros((5, 2)), init_params(arch, 0))

    def test_nan_params_raise(self):
        arch = ArchSpec(input_dim=3, num_layers=1, hidden_per_direction=2, embed_dim=2)
        params = init_params(arch, 3)
        params.tensors["fc.W"][0, 0] = np.nan
        with pytest.raises(FloatingPointError):
            forward_embed(np.zeros((3, 2)), params)


class TestAttractors:
    def test_all_ones_mask_gives_column_mean(self):
        rng = np.random.default_rng(23)
        V = rng.normal(size=(3, 8))  # K=3, F*T=8 (F=2, T=4)
        mask = np.ones((2, 4))
        A = train_attractors(V, [mask])
        assert np.allclose(A[0], V.mean(axis=1), atol=1e-14)

    def test_one_hot_mask_picks_column(self):
        rng = np.random.default_rng(24)
        V = rng.normal(size=(3, 6))
        mask = np.zeros((2, 3))
        mask[1, 2] = 1.0  # f=1, t=2 -> column 2*2+1 = 5
        A = train_attractors(V, [mask])
        assert np.allclose(A[0], V[:, 5], atol=1e-15)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(25)
        V = rng.normal(size=(3, 5))
        mask = (rng.uniform(size=(1, 5)) > 0.4).astype(float)
        mask[0, 0] = 1.0
        A = train_attractors(V, [mask])
        flat = flatten_tf(mask)
        expected = np.zeros(3)
        for k in range(3):
            expected[k] = sum(flat[j] * V[k, j] for j in range(5)) / flat.sum()
        assert np.allclose(A[0], expected, atol=1e-14)

    def test_all_zero_mask_rejected(self):
        with pytest.raises(ValueError, match="all-zero"):
            train_attractors(np.ones((2, 4)), [np.zeros((2, 2))])


class TestEstimateMasks:
    def test_zero_attractor_gives_half(self):
        V = np.random.default_rng(26).normal(size=(3, 4))
        masks = estimate_masks(V, np.zeros((1, 3)), num_freqs=2)
        assert np.allclose(masks[0], 0.5)

    def test_scores_scale_linearly_with_embeddings(self):
        rng = np.random.default_rng(27)
        V = rng.normal(size=(2, 6))
        A = rng.normal(size=(2, 2))
        logit = lambda m: np.log(m / (1 - m))
        base = estimate_masks(V, A, num_freqs=3)
        scaled = estimate_masks(2.5 * V, A, num_freqs=3)
        for m0, m1 in zip(base, scaled):
            assert np.allclose(logit(m1), 2.5 * logit(m0), atol=1e-9)

    def test_matches_direct_oracle(self):
        rng = np.random.default_rng(28)
        V = rng.normal(size=(2, 3))  # K=2, FT=3 (F=3, T=1)
        A = rng.normal(size=(1, 2))
        masks = estimate_masks(V, A, num_freqs=3)
        for j in range(3):
            d = A[0, 0] * V[0, j] + A[0, 1] * V[1, j]
            assert masks[0][j, 0] == pytest.approx(scalar_sigmoid(d), abs=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dim"):
            estimate_masks(np.ones((3, 4)), np.ones((2, 2)), num_freqs=2)


class TestLoss:
    def test_exact_match_is_zero(self):
        rng = np.random.default_rng(29)
        m = rng.uniform(size=(2, 3))
        assert reconstruction_loss(rng.uniform(size=(2, 3)), [m], [m.copy()]) == 0.0

    def test_unit_case(self):
        X = np.ones((2, 3))
        m = np.ones((2, 3))
        m_hat = np.zeros((2, 3))
        assert reconstruction_loss(X, [m], [m_hat]) == pytest.approx(6.0)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(30)
        X = rng.uniform(size=(3, 4))
        ideal = [rng.uniform(size=(3, 4)) for _ in range(2)]
        est = [rng.uniform(size=(3, 4)) for _ in range(2)]
        expected = 0.0
        for i in range(2):
            for f in range(3):
                for t in range(4):
                    expected += (X[f, t] * (ideal[i][f, t] - est[i][f, t])) ** 2
        expected /= 2
        assert reconstruction_loss(X, ideal, est) == pytest.approx(expected, rel=1e-12)


class TestBackward:
    def test_gradient_vanishes_when_masks_saturate(self):
        # Zero weights and a bias chosen so the estimated masks equal the
        # ideal ones to ~1e-17: a stationary point of a squared loss.
        arch = ArchSpec(input_dim=2, num_layers=1, hidden_per_direction=2, embed_dim=2)
        params = zero_params(arch)
        c = math.sqrt(20.0)
        params.tensors["fc.b"][:] = [c, -c, -c, c]
        masks = [np.array([[1.0, 1.0], [0.0, 0.0]]), np.array([[0.0, 0.0], [1.0, 1.0]])]
        feats = np.zeros((2, 2))
        mag = np.ones((2, 2))
        loss, grads = batch_loss_and_grads([feats], [mag], [masks], params)
        assert loss < 1e-12
        norm = np.sqrt(sum(np.sum(g * g) for g in grads.values()))
        assert norm < 1e-8

    def test_scaling_magnitude_scales_loss_and_grads_by_four(self):
        arch = ArchSpec(input_dim=3, num_layers=1, hidden_per_direction=3, embed_dim=2)
        params = init_params(arch, 31)
        rng = np.random.default_rng(31)
        feats = rng.normal(size=(3, 4))
        mag = rng.uniform(0.1, 1.0, size=(3, 4))
        owner = rng.integers(0, 2, size=(3, 4))
        masks = [(owner == i).astype(float) for i in range(2)]
        loss1, grads1 = batch_loss_and_grads([feats], [mag], [masks], params)
        loss2, grads2 = batch_loss_and_grads([feats], [2.0 * mag], [masks], params)
        assert loss2 == 4.0 * loss1
        for name in grads1:
            assert np.array_equal(grads2[name], 4.0 * grads1[name])

    def test_batch_equals_mean_of_single_utterances(self):
        # Padded-batch gradients must agree with averaging per-utterance runs,
        # which exercises the frame-mask handling for unequal lengths.
        arch = ArchSpec(input_dim=3, num_layers=2, hidden_per_direction=3, embed_dim=2)
        params = init_params(arch, 32)
        rng = np.random.default_rng(32)
        utts = []
        for T in (3, 7):
            feats = rng.normal(size=(3, T))
            mag = rng.uniform(0.1, 1.0, size=(3, T))
            owner = rng.integers(0, 2, size=(3, T))
            masks = [(owner == i).astype(float) for i in range(2)]
            utts.append((feats, mag, masks))

        loss_b, grads_b = batch_loss_and_grads(
            [u[0] for u in utts], [u[1] for u in utts], [u[2] for u in utts], params)
        singles = [batch_loss_and_grads([f], [m], [masks], params) for f, m, masks in utts]
        assert loss_b == pytest.approx(np.mean([s[0] for s in singles]), rel=1e-13)
        for name in grads_b:
            mean_grad = (singles[0][1][name] + singles[1][1][name]) / 2.0
            np.testing.assert_allclose(grads_b[name], mean_grad, rtol=1e-11, atol=1e-13)

    def test_folded_loss_equals_explicit_chain_at_desk_width(self):
        # The training head never forms V; at F=129, K=10 its loss on a padded
        # batch must still be the mean loss of the explicit per-utterance chain.
        arch = ArchSpec(input_dim=129, num_layers=2, hidden_per_direction=8, embed_dim=10)
        params = init_params(arch, 34)
        rng = np.random.default_rng(34)
        utts = []
        for T in (5, 11, 8):
            owner = rng.integers(0, 2, size=(129, T))
            utts.append((rng.normal(size=(129, T)), rng.uniform(0.1, 2.0, size=(129, T)),
                         [(owner == i).astype(float) for i in range(2)]))
        explicit = []
        for feats, mag, masks in utts:
            V = forward_embed(feats, params)
            est = estimate_masks(V, train_attractors(V, masks), 129)
            explicit.append(reconstruction_loss(mag, masks, est))
        folded = batch_loss(*map(list, zip(*utts)), params)
        assert folded == pytest.approx(np.mean(explicit), rel=1e-12)

    def test_deterministic(self):
        arch = ArchSpec(input_dim=3, num_layers=1, hidden_per_direction=2, embed_dim=2)
        params = init_params(arch, 33)
        rng = np.random.default_rng(33)
        feats = rng.normal(size=(3, 5))
        mag = rng.uniform(0.1, 1.0, size=(3, 5))
        owner = rng.integers(0, 2, size=(3, 5))
        masks = [(owner == i).astype(float) for i in range(2)]
        first = batch_loss_and_grads([feats], [mag], [masks], params)
        second = batch_loss_and_grads([feats], [mag], [masks], params)
        assert first[0] == second[0]
        for name in first[1]:
            assert np.array_equal(first[1][name], second[1][name])


def closed_form_count(arch: ArchSpec) -> int:
    """Per layer and direction, gates * (in*h + h*h + 2h) with 3 gates for GRU
    and 4 for LSTM; the linear map adds 2h * (K*F) weights and K*F biases."""
    gates = 3 if arch.cell_kind == "gru" else 4
    h = arch.hidden_per_direction
    fc_output = arch.embed_dim * arch.input_dim
    total = 2 * h * fc_output + fc_output
    for layer in range(arch.num_layers):
        d_in = arch.input_dim if layer == 0 else 2 * h
        total += 2 * gates * (d_in * h + h * h + 2 * h)
    return total


class TestCountParams:
    def test_sum_of_declared_shapes_equals_the_closed_form(self):
        for cell_kind, input_dim, num_layers, h, K in itertools.product(
                ("gru", "lstm"), (1, 129), range(1, 5), (1, 8, 300), (0, 20)):
            arch = ArchSpec(input_dim, num_layers, h, K, cell_kind)
            assert count_params(arch) == closed_form_count(arch), arch

    def test_lstm_declares_the_gru_tensors_with_four_gates(self):
        gru = ArchSpec(input_dim=5, num_layers=2, hidden_per_direction=3, embed_dim=2)
        gru_shapes = tensor_shapes(gru)
        lstm_shapes = tensor_shapes(dataclasses.replace(gru, cell_kind="lstm"))
        assert list(lstm_shapes) == list(gru_shapes)
        for name, (rows, *rest) in gru_shapes.items():
            if not name.startswith("fc."):
                rows = rows // 3 * 4
            assert lstm_shapes[name] == (rows, *rest), name

    def test_only_gru_cells_are_trainable(self):
        arch = ArchSpec(input_dim=5, num_layers=1, hidden_per_direction=3, embed_dim=2,
                        cell_kind="lstm")
        with pytest.raises(ValueError, match="only GRU cells are trainable"):
            init_params(arch, 0)
        with pytest.raises(ValueError, match="only GRU cells are trainable"):
            ModelParams(arch, {k: np.zeros(s) for k, s in tensor_shapes(arch).items()})

    def test_gru_full_size(self):
        assert count_params(ArchSpec()) == 7_197_180

    def test_lstm_full_size(self):
        assert count_params(ArchSpec(cell_kind="lstm")) == 9_079_380

    def test_tiny_no_fc(self):
        arch = ArchSpec(input_dim=1, num_layers=1, hidden_per_direction=1, embed_dim=0)
        assert count_params(arch) == 24

    def test_init_matches_count(self):
        arch = ArchSpec(input_dim=7, num_layers=2, hidden_per_direction=5, embed_dim=3)
        params = init_params(arch, 0)
        assert sum(t.size for t in params.tensors.values()) == count_params(arch)


class TestInit:
    def test_seeded_determinism(self):
        a = init_params(ArchSpec(input_dim=4, num_layers=1, hidden_per_direction=3,
                                 embed_dim=2), seed=5)
        b = init_params(ArchSpec(input_dim=4, num_layers=1, hidden_per_direction=3,
                                 embed_dim=2), seed=5)
        for name in a.tensors:
            assert np.array_equal(a.tensors[name], b.tensors[name])

    def test_bound(self):
        arch = ArchSpec(input_dim=4, num_layers=1, hidden_per_direction=4, embed_dim=2)
        params = init_params(arch, 6)
        bound = 1.0 / np.sqrt(4)
        for t in params.tensors.values():
            assert np.all(np.abs(t) <= bound)
