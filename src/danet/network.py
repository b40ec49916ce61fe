"""Embedding network and attractor math.

A stack of bidirectional GRU layers followed by one linear map produces a
K-dimensional embedding per time-frequency bin. Attractors are mask-weighted
embedding means; dot products against them drive sigmoid masks and a
magnitude-weighted reconstruction loss. Both the forward pass and the exact
gradients are implemented here in plain numpy.

Training never forms the embeddings. V(t,f) = W_f s(t) + b_f is linear in
the top BGRU output s, so the attractor head contracts s directly: the
mask-weighted sums over frames are taken before the map, and the scores are
s(t).(a W_f) + a.b_f (see `_scored_batch`). `forward_embed` forms V, because
clustering at inference needs it.

Embedding layout: V is K x (F*T) with column index t*F + f (frequency-major
within each frame). An F x T matrix M flattens to that layout via
M.ravel(order="F").
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit as _sigmoid

DIRECTIONS = ("fw", "bw")  # stacking order in the layer code and in checkpoints
CELL_TENSORS = ("W", "U", "b_i", "b_h")
CELL_KINDS = ("gru", "lstm")


@dataclass(frozen=True)
class ArchSpec:
    """Network dimensions. cell_kind 'lstm' exists for parameter counting only."""

    input_dim: int = 129
    num_layers: int = 4
    hidden_per_direction: int = 300
    embed_dim: int = 20
    cell_kind: str = "gru"

    def __post_init__(self):
        if min(self.input_dim, self.num_layers, self.hidden_per_direction) < 1:
            raise ValueError(f"non-positive architecture dimension in {self}")
        if self.embed_dim < 0:
            raise ValueError(f"embed_dim must be >= 0, got {self.embed_dim}")
        if self.cell_kind not in CELL_KINDS:
            raise ValueError(f"cell_kind must be {' or '.join(map(repr, CELL_KINDS))}, "
                             f"got {self.cell_kind!r}")

    @property
    def fc_output(self) -> int:
        return self.embed_dim * self.input_dim

    def layer_input(self, layer: int) -> int:
        return self.input_dim if layer == 0 else 2 * self.hidden_per_direction


def count_params(arch: ArchSpec) -> int:
    """Closed-form trainable-parameter count.

    Per direction and layer: gates * (in*h + h*h + 2h) with 3 gates for GRU
    and 4 for LSTM; both an input and a recurrent bias per gate. The final
    linear map adds 2h * (K*F) weights plus K*F biases.
    """
    gates = 3 if arch.cell_kind == "gru" else 4
    h = arch.hidden_per_direction
    total = 0
    for layer in range(arch.num_layers):
        per_direction = gates * (arch.layer_input(layer) * h + h * h + 2 * h)
        total += 2 * per_direction
    total += 2 * h * arch.fc_output + arch.fc_output
    return total


@dataclass
class ModelParams:
    """Named parameter tensors plus the frozen feature statistics.

    Tensor order is the serialization contract: for each layer, for each
    direction (fw, bw): W (3h x in), U (3h x h), b_i (3h), b_h (3h), with
    gate rows stacked z, r, n; then fc.W (K*F x 2h) and fc.b (K*F).
    """

    arch: ArchSpec
    tensors: dict[str, np.ndarray]
    feat_mean: np.ndarray = field(default=None)
    feat_std: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.feat_mean is None:
            self.feat_mean = np.zeros(self.arch.input_dim)
        if self.feat_std is None:
            self.feat_std = np.ones(self.arch.input_dim)
        expected = tensor_shapes(self.arch)
        if list(self.tensors.keys()) != list(expected.keys()):
            raise ValueError("parameter tensor names/order do not match architecture")
        for name, shape in expected.items():
            if self.tensors[name].shape != shape:
                raise ValueError(f"{name}: expected shape {shape}, "
                                 f"got {self.tensors[name].shape}")

    def cell(self, layer: int, direction: str) -> dict[str, np.ndarray]:
        prefix = f"l{layer}.{direction}."
        return {k: self.tensors[prefix + k] for k in CELL_TENSORS}

    def copy(self) -> "ModelParams":
        return ModelParams(self.arch, {k: v.copy() for k, v in self.tensors.items()},
                           self.feat_mean.copy(), self.feat_std.copy())


def tensor_shapes(arch: ArchSpec) -> dict[str, tuple]:
    if arch.cell_kind != "gru":
        raise ValueError("only GRU cells are trainable")
    h = arch.hidden_per_direction
    shapes: dict[str, tuple] = {}
    for layer in range(arch.num_layers):
        d_in = arch.layer_input(layer)
        for direction in DIRECTIONS:
            prefix = f"l{layer}.{direction}."
            shapes[prefix + "W"] = (3 * h, d_in)
            shapes[prefix + "U"] = (3 * h, h)
            shapes[prefix + "b_i"] = (3 * h,)
            shapes[prefix + "b_h"] = (3 * h,)
    shapes["fc.W"] = (arch.fc_output, 2 * h)
    shapes["fc.b"] = (arch.fc_output,)
    return shapes


def init_params(arch: ArchSpec, seed: int) -> ModelParams:
    """Uniform init in [-1/sqrt(h), 1/sqrt(h)] per tensor, seeded."""
    rng = np.random.default_rng(seed)
    bound = 1.0 / np.sqrt(arch.hidden_per_direction)
    tensors = {name: rng.uniform(-bound, bound, size=shape)
               for name, shape in tensor_shapes(arch).items()}
    return ModelParams(arch, tensors)


def gru_cell(x: np.ndarray, h_prev: np.ndarray, cell: dict[str, np.ndarray]) -> np.ndarray:
    """One GRU step.

    z = sig(W_z x + U_z h + b_iz + b_hz), r likewise,
    n = tanh(W_n x + b_in + r * (U_n h + b_hn)), out = (1-z)*n + z*h.
    """
    h = h_prev.shape[-1]
    if x.shape[-1] != cell["W"].shape[1] or 3 * h != cell["U"].shape[0]:
        raise ValueError(f"dimension mismatch: x {x.shape}, h_prev {h_prev.shape}, "
                         f"W {cell['W'].shape}, U {cell['U'].shape}")
    a = x @ cell["W"].T + cell["b_i"]
    rec = h_prev @ cell["U"].T + cell["b_h"]
    z = _sigmoid(a[..., :h] + rec[..., :h])
    r = _sigmoid(a[..., h:2 * h] + rec[..., h:2 * h])
    n = np.tanh(a[..., 2 * h:] + r * rec[..., 2 * h:])
    return (1.0 - z) * n + z * h_prev


def _reverse_bw(pair) -> np.ndarray:
    """Stack a (fw, bw) pair of (B, T, ...) arrays with the bw time axis reversed.

    The bw direction runs forward in time over the reversed sequence; this
    maps between that order and the original one in either direction.
    """
    return np.stack((pair[0], pair[1][:, ::-1]))


def _stacked_cell(params: ModelParams, layer: int):
    """W, U, b_i, b_h of one layer, each stacked over DIRECTIONS."""
    cells = [params.cell(layer, d) for d in DIRECTIONS]
    return [np.stack([cell[k] for cell in cells]) for k in CELL_TENSORS]


def _run_layer(x_seq: np.ndarray, frame_mask: np.ndarray, params: ModelParams, layer: int,
               keep_cache: bool):
    """Run both GRU directions of one layer over a padded batch in one time loop.

    State and activations are stacked (2, B, ...) over DIRECTIONS, the bw half
    in reversed time. Padded steps (frame_mask 0) carry the hidden state
    through unchanged, so the bw direction of a short utterance starts from
    zeros at its true last frame rather than from padding.
    Returns the (B, T, 2h) output and, with keep_cache, the cache for
    `_backward_layer` (else None).
    """
    W, U, b_i, b_h = _stacked_cell(params, layer)
    B, T, _ = x_seq.shape
    h_dim = U.shape[2]
    a_in = _reverse_bw([x_seq @ W[d].T + b_i[d] for d in range(2)])
    mask = _reverse_bw((frame_mask, frame_mask))[..., None]
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
    out = np.concatenate(_reverse_bw(h_seq), axis=2)
    return out, ((x_seq, mask, z, r, n, rn, h_seq) if keep_cache else None)


def _backward_layer(d_out: np.ndarray, params: ModelParams, layer: int, cache):
    """BPTT through both directions of one layer in one reverse-time loop.

    Returns d loss / d layer input and the layer's W/U/b_i/b_h gradients by
    tensor name.
    """
    x_seq, mask, z, r, n, rn, h_seq = cache
    W, U, _, _ = _stacked_cell(params, layer)
    _, B, T, h_dim = h_seq.shape
    d_out = _reverse_bw(np.split(d_out, 2, axis=2))
    h_prev = np.zeros_like(h_seq)  # state seen as input at each step
    h_prev[:, :, 1:] = h_seq[:, :, :-1]
    d_rec = np.empty((2, B, T, 3 * h_dim))  # pre-activation grads, recurrent side (z, r, n)
    d_an = np.empty((2, B, T, h_dim))       # input-side n; its z and r equal d_rec's

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

    # Back to the original time order, so the sums over time match a
    # reverse-time bw loop term for term.
    d_rec, d_an, h_prev = _reverse_bw(d_rec), _reverse_bw(d_an), _reverse_bw(h_prev)
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


def _forward_batch(x: np.ndarray, frame_mask: np.ndarray, params: ModelParams,
                   keep_cache: bool):
    """The BGRU stack on a padded batch.

    x: (B, T, F) features, frame_mask: (B, T) in {0, 1}.
    Returns the top layer's output s (B, T, 2h) and the per-layer caches for
    the backward pass (None each without keep_cache).
    """
    layer_caches = []
    seq = x
    for layer in range(params.arch.num_layers):
        seq, layer_cache = _run_layer(seq, frame_mask, params, layer, keep_cache)
        layer_caches.append(layer_cache)
    return seq, layer_caches


def forward_embed(features: np.ndarray, params: ModelParams) -> np.ndarray:
    """Embed one utterance: (F, T) features -> V of shape (K, F*T)."""
    features = np.asarray(features, dtype=np.float64)
    if features.shape[0] != params.arch.input_dim:
        raise ValueError(f"expected {params.arch.input_dim} feature rows, "
                         f"got {features.shape[0]}")
    T = features.shape[1]
    seq, _ = _forward_batch(features.T[None, :, :], np.ones((1, T)), params, keep_cache=False)
    y = seq @ params.tensors["fc.W"].T + params.tensors["fc.b"]
    V = y[0].reshape(T * features.shape[0], params.arch.embed_dim).T
    if not np.all(np.isfinite(V)):
        raise FloatingPointError("non-finite activations in forward pass")
    return V


def flatten_tf(mat: np.ndarray) -> np.ndarray:
    """F x T matrix -> length F*T vector in embedding column order (t*F + f)."""
    return np.asarray(mat).ravel(order="F")


def unflatten_tf(vec: np.ndarray, num_freqs: int) -> np.ndarray:
    """Inverse of flatten_tf: length F*T vector -> F x T matrix."""
    return np.asarray(vec).reshape(-1, num_freqs).T


def train_attractors(V: np.ndarray, ideal_masks: list[np.ndarray]) -> np.ndarray:
    """Mask-weighted embedding means, one K-vector row per speaker."""
    rows = []
    for i, mask in enumerate(ideal_masks):
        flat = flatten_tf(mask)
        if flat.size != V.shape[1]:
            raise ValueError(f"mask {i} has {flat.size} bins, embeddings have {V.shape[1]}")
        weight = flat.sum()
        if weight == 0:
            raise ValueError(f"mask {i} is all-zero; attractor undefined")
        rows.append((flat @ V.T) / weight)
    return np.stack(rows)


def estimate_masks(V: np.ndarray, attractors: np.ndarray, num_freqs: int) -> list[np.ndarray]:
    """Sigmoid of attractor--embedding dot products, reshaped to F x T."""
    attractors = np.atleast_2d(np.asarray(attractors, dtype=np.float64))
    if attractors.shape[1] != V.shape[0]:
        raise ValueError(f"attractor dim {attractors.shape[1]} != embedding dim {V.shape[0]}")
    scores = attractors @ V
    return [unflatten_tf(_sigmoid(row), num_freqs) for row in scores]


def reconstruction_loss(mix_mag: np.ndarray, ideal_masks: list[np.ndarray],
                        est_masks: list[np.ndarray]) -> float:
    """Mean over speakers of the squared magnitude-weighted mask error."""
    if len(ideal_masks) != len(est_masks):
        raise ValueError(f"{len(ideal_masks)} ideal masks vs {len(est_masks)} estimates")
    mix_mag = np.asarray(mix_mag, dtype=np.float64)
    total = 0.0
    for m, m_hat in zip(ideal_masks, est_masks):
        if m.shape != mix_mag.shape or m_hat.shape != mix_mag.shape:
            raise ValueError("mask shape does not match magnitude shape")
        diff = mix_mag * (np.asarray(m) - np.asarray(m_hat))
        total += float(np.sum(diff * diff))
    return total / len(ideal_masks)


def _pad_batch(features, mix_mags, ideal_masks, arch):
    """Zero-pad a batch to its longest utterance: features x (B, T, F),
    magnitudes X (B, F, T), ideal masks M (B, I, F, T) and the frame mask."""
    B = len(features)
    if not (B == len(mix_mags) == len(ideal_masks)):
        raise ValueError("features, magnitudes and masks must align")
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
        if len(ideal_masks[b]) != n_spk:
            raise ValueError("speaker count differs across the batch")
        for i, mask in enumerate(ideal_masks[b]):
            M[b, i, :, :t_b] = mask
    return x, X, M, frame_mask, n_spk


def _fc_factors(params: ModelParams):
    """The linear map as Wk (K, F*2h), Wk[k, f*2h + d] = W_f[k, d], and bk (K, F)."""
    F, K = params.arch.input_dim, params.arch.embed_dim
    W = params.tensors["fc.W"]
    return (W.reshape(F, K, -1).transpose(1, 0, 2).reshape(K, -1),
            params.tensors["fc.b"].reshape(F, K).T)


def _scored_batch(features, mix_mags, ideal_masks, params: ModelParams, keep_cache: bool):
    """Pad, run the BGRU stack and score a batch: the mean per-utterance loss,
    plus what its gradient needs.

    The embeddings V(t,f) = W_f s(t) + b_f are never formed. With
    P(i,f) = sum_t M(i,t,f) s(t) and m(i,f) = sum_t M(i,t,f), utterance i's
    attractor is a = (sum_f W_f P + m b_f) / sum_f m, and its scores are
    s(t).G(f) + c(f) with G = a W_f and c = a b_f. Every product is a GEMM
    over rows (b, i) or over frames.
    """
    x, X, M, frame_mask, n_spk = _pad_batch(features, mix_mags, ideal_masks, params.arch)
    s, caches = _forward_batch(x, frame_mask, params, keep_cache)
    Wk, bk = _fc_factors(params)
    B, _, F, T = M.shape
    m = M.sum(axis=3).reshape(B * n_spk, F)
    mass = m.sum(axis=1, keepdims=True)
    if np.any(mass == 0):
        raise ValueError("an utterance has an all-zero ideal mask; attractor undefined")
    P = (M.reshape(B, n_spk * F, T) @ s).reshape(B * n_spk, -1)   # rows (b, i)
    attractors = (P @ Wk.T + m @ bk.T) / mass
    G = attractors @ Wk
    c = attractors @ bk
    scores = G.reshape(B, n_spk * F, -1) @ s.transpose(0, 2, 1)
    scores += c.reshape(B, n_spk * F, 1)
    if not np.all(np.isfinite(scores)):
        raise FloatingPointError("non-finite activations in forward pass")
    m_hat = _sigmoid(scores).reshape(M.shape)
    Xsq = X * X
    err = M - m_hat
    count = n_spk * len(features)
    loss = float(np.sum(Xsq[:, None] * err * err)) / count
    return loss, (caches, s, M, m, mass, P, attractors, G, Xsq, count, m_hat)


def batch_loss(features: list[np.ndarray], mix_mags: list[np.ndarray],
               ideal_masks: list[list[np.ndarray]], params: ModelParams) -> float:
    """Mean per-utterance loss over a padded batch, forward pass only."""
    return _scored_batch(features, mix_mags, ideal_masks, params, keep_cache=False)[0]


def batch_loss_and_grads(features: list[np.ndarray], mix_mags: list[np.ndarray],
                         ideal_masks: list[list[np.ndarray]], params: ModelParams):
    """Mean per-utterance loss and its exact parameter gradients.

    Utterances are zero-padded to a common frame count; a per-utterance frame
    mask keeps padded frames out of the recurrences and out of the loss.
    """
    loss, (caches, s, M, m, mass, P, attractors, G, Xsq, count, m_hat) = _scored_batch(
        features, mix_mags, ideal_masks, params, keep_cache=True)
    Wk, bk = _fc_factors(params)
    B, n_spk, F, T = M.shape
    by_bin = (B, n_spk * F, -1)

    # Back through the fold: dG = sum_t dS s, dc = sum_t dS, da = (dG.W_f +
    # dc b_f) / mass and dP = da W_f; fc.W gets a dG + da P, fc.b a dc + da m,
    # and s(t) gets dS G + M dP.
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
        d_seq, layer_grads = _backward_layer(d_seq, params, layer, caches[layer])
        grads.update(layer_grads)
    grads = {name: grads[name] for name in params.tensors}
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise FloatingPointError(f"non-finite gradient for {name}")
    return loss, grads


def backward(features: np.ndarray, mix_mag: np.ndarray,
             ideal_masks: list[np.ndarray], params: ModelParams):
    """Single-utterance loss and exact gradients for every parameter tensor."""
    return batch_loss_and_grads([features], [mix_mag], [ideal_masks], params)


TINY_NET = ArchSpec(input_dim=5, num_layers=1, hidden_per_direction=4, embed_dim=3)


def finite_difference_check(arch: ArchSpec = TINY_NET, seed: int = 0, step: float = 1e-5,
                            lengths: tuple[int, ...] = (4,)) -> tuple[float, dict[str, float]]:
    """Compare analytic gradients against central finite differences.

    The analytic side is `batch_loss_and_grads` on one padded batch of
    two-speaker utterances with the given frame counts. The numeric side
    re-evaluates the mean loss through the single-utterance operation chain
    (embed, attractors, masks, loss) and never touches the analytic backward
    pass. Returns the overall max relative error and the per-tensor maxima.
    """
    rng = np.random.default_rng(seed)
    n_spk = 2
    params = init_params(arch, seed)
    utts = []
    for T in lengths:
        features = rng.normal(size=(arch.input_dim, T))
        mix_mag = rng.uniform(0.2, 1.5, size=(arch.input_dim, T))
        owner = rng.integers(0, n_spk, size=(arch.input_dim, T))
        utts.append((features, mix_mag, [(owner == i).astype(float) for i in range(n_spk)]))

    def loss_at() -> float:
        total = 0.0
        for features, mix_mag, masks in utts:
            V = forward_embed(features, params)
            est = estimate_masks(V, train_attractors(V, masks), arch.input_dim)
            total += reconstruction_loss(mix_mag, masks, est)
        return total / len(utts)

    _, analytic = batch_loss_and_grads(*map(list, zip(*utts)), params)

    per_tensor: dict[str, float] = {}
    for name, tensor in params.tensors.items():
        flat = tensor.ravel()
        a_flat = analytic[name].ravel()
        worst = 0.0
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + step
            plus = loss_at()
            flat[idx] = orig - step
            minus = loss_at()
            flat[idx] = orig
            numeric = (plus - minus) / (2.0 * step)
            denom = max(abs(a_flat[idx]), abs(numeric), 1e-5)
            worst = max(worst, abs(a_flat[idx] - numeric) / denom)
        per_tensor[name] = worst
    return max(per_tensor.values()), per_tensor


def global_grad_norm(grads: dict[str, np.ndarray]) -> float:
    return float(np.sqrt(sum(float(np.sum(g * g)) for g in grads.values())))


def clip_grads(grads: dict[str, np.ndarray], max_norm: float) -> float:
    """Scale all gradients so the global norm is at most max_norm; returns the norm."""
    norm = global_grad_norm(grads)
    if norm > max_norm:
        scale = max_norm / norm
        for g in grads.values():
            g *= scale
    return norm
