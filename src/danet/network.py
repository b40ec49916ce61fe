"""Embedding network and attractor math.

A stack of bidirectional GRU layers followed by one linear map produces a
K-dimensional embedding per time-frequency bin. Attractors are mask-weighted
embedding means; dot products against them drive sigmoid masks and a
magnitude-weighted reconstruction loss. Both the forward pass and the exact
gradients are implemented here in plain numpy.

Training never forms the embeddings. V(t,f) = W_f s(t) + b_f is linear in
the top BGRU output s, so the attractor head contracts s directly: the
mask-weighted sums over frames are taken before the map, and the scores are
s(t).(a W_f) + a.b_f (see `_objective`). `forward_embed` forms V, because
clustering at inference needs it.

Embedding layout: V is K x (F*T) with column index t*F + f (frequency-major
within each frame). An F x T matrix M flattens to that layout via
M.ravel(order="F").
"""

import math
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


def count_params(arch: ArchSpec) -> int:
    """Trainable-parameter count: the sizes of the tensors `tensor_shapes` declares."""
    return sum(math.prod(shape) for shape in tensor_shapes(arch).values())


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
        if self.arch.cell_kind != "gru":
            raise ValueError("only GRU cells are trainable")
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


def tensor_shapes(arch: ArchSpec) -> dict[str, tuple]:
    """Name -> shape of each parameter tensor, in `ModelParams` order. An
    LSTM cell has the GRU's tensors with four gates' rows instead of three,
    and both an input and a recurrent bias per gate."""
    h = arch.hidden_per_direction
    rows = (3 if arch.cell_kind == "gru" else 4) * h
    shapes: dict[str, tuple] = {}
    for layer in range(arch.num_layers):
        d_in = arch.input_dim if layer == 0 else 2 * h
        for direction in DIRECTIONS:
            prefix = f"l{layer}.{direction}."
            shapes[prefix + "W"] = (rows, d_in)
            shapes[prefix + "U"] = (rows, h)
            shapes[prefix + "b_i"] = (rows,)
            shapes[prefix + "b_h"] = (rows,)
    fc_output = arch.embed_dim * arch.input_dim
    shapes["fc.W"] = (fc_output, 2 * h)
    shapes["fc.b"] = (fc_output,)
    return shapes


def init_params(arch: ArchSpec, seed: int) -> ModelParams:
    """Uniform init in [-1/sqrt(h), 1/sqrt(h)] per tensor, seeded, drawn into
    a skeleton that ModelParams has accepted, so a refused cell draws nothing."""
    params = ModelParams(arch, {name: np.empty(shape)
                                for name, shape in tensor_shapes(arch).items()})
    rng = np.random.default_rng(seed)
    bound = 1.0 / np.sqrt(arch.hidden_per_direction)
    for tensor in params.tensors.values():
        tensor[...] = rng.uniform(-bound, bound, size=tensor.shape)
    return params


# Buffers that reuse another buffer's memory, each written only once the
# owner's contents are dead: BPTT's per-step gradients (drec), and after
# them their input-side copy (flat_a), reuse the forward's projections (a);
# the recurrent-side copy (flat_rec) reuses BPTT's factors (fac), as the
# forward's projection before its reordering (proj) does; the input gradient
# (dx) reuses [d_new, dan] (gdan), and h_prev the output gradient (d).
_HOME = {"drec": "a", "flat_a": "a", "flat_rec": "fac", "proj": "fac", "dx": "gdan",
         "h_prev": "d"}


def _buffer_shapes(arch: ArchSpec, B: int, T: int, keep_cache: bool) -> dict[str, tuple]:
    """Name -> shape of each workspace buffer a (B, T) batch uses.

    Time-major buffers are (T, [slot,] 2, B, h): step t holds the fw
    direction at frame t and the bw direction at frame T-1-t, and a slot
    axis ahead of the direction keeps each gate's (2, B, h) block
    contiguous. Layer caches are per layer when BPTT needs them; a
    forward-only pass shares one set across layers and alternates two
    output buffers.
    """
    h = arch.hidden_per_direction
    step = (2, B, h)
    tm = (T,) + step
    shapes = {"a": (T, 3) + step, "proj": (B, T, 3 * h), "mask": (T, 2, B, 1),
              "unmask": (T, 2, B, 1), "h_zero": step, "b_h": (2, B, 3 * h),
              "rec": (2, B, 3 * h), "n_in": step, "keep": step, "new": step}
    num_layers = arch.num_layers
    for slot in range(num_layers if keep_cache else 1):
        shapes |= {f"gates{slot}": (T, 4) + step, f"h{slot}": tm}  # z, r, rn, n
    for slot in range(num_layers if keep_cache else min(num_layers, 2)):
        shapes[f"out{slot}"] = (B, T, 2 * h)
    if keep_cache:
        shapes |= {"d": tm, "gdan": (T, 2) + step, "fac": (T, 3) + step,
                   "drec": (T, 2, B, 3 * h), "flat_rec": (2, B, T, 3 * h),
                   "flat_a": (2, B, T, 3 * h), "h_prev": (2, B, T, h),
                   "dx": (2, B, T, 2 * h), "carry": step, "g": step, "d_hp": step,
                   "leak": step, "chain": (2,) + step}
    return shapes


class Workspace:
    """Buffers the BGRU passes write into, reused by every call given it.

    Each buffer is one flat float64 array, and a call takes C-contiguous
    views of its own (B, T) shapes from the front of it, so each view has the
    layout a fresh array of that shape would have. A buffer too small for a
    call is replaced by a larger one, so a workspace made for the largest
    batch of a run allocates nothing after it is made. No array a public
    function returns is a view of a workspace.
    """

    def __init__(self, arch: ArchSpec | None = None, batch: int = 0, frames: int = 0):
        self._flat: dict[str, np.ndarray] = {}
        if arch is not None:
            self.take(arch, batch, frames, keep_cache=True)

    def take(self, arch: ArchSpec, B: int, T: int, keep_cache: bool) -> dict[str, np.ndarray]:
        shapes = _buffer_shapes(arch, B, T, keep_cache)
        need: dict[str, int] = {}
        for name, shape in shapes.items():
            home = _HOME.get(name, name)
            need[home] = max(need.get(home, 0), math.prod(shape))
        for home, size in need.items():
            if home not in self._flat or self._flat[home].size < size:
                self._flat[home] = np.zeros(size)  # "h_zero" relies on the zeros
        return {name: self._flat[_HOME.get(name, name)][:math.prod(shape)].reshape(shape)
                for name, shape in shapes.items()}


def _batch_major(tm: np.ndarray, fw: np.ndarray, bw: np.ndarray) -> None:
    """Copy a time-major (T, 2, B, .) buffer into (B, T, .) fw and bw views,
    the bw half back in original time order."""
    fw[...] = tm[:, 0].transpose(1, 0, 2)
    bw[...] = tm[::-1, 1].transpose(1, 0, 2)


def _stacked_cell(params: ModelParams, layer: int):
    """W, U, b_i, b_h of one layer, each stacked over DIRECTIONS."""
    cells = [params.cell(layer, d) for d in DIRECTIONS]
    return [np.stack([cell[k] for cell in cells]) for k in CELL_TENSORS]


def _time_steps(frame_mask: np.ndarray, bufs: dict[str, np.ndarray]):
    """Per step: whether every row is valid in both directions, then the
    (T, 2, B, 1) frame mask m and 1 - m in time-major order."""
    mask, unmask = bufs["mask"], bufs["unmask"]
    mask[:, 0, :, 0] = frame_mask.T
    mask[:, 1, :, 0] = frame_mask[:, ::-1].T
    np.subtract(1.0, mask, out=unmask)
    valid = frame_mask.all(axis=0)
    return (valid & valid[::-1]).tolist(), mask, unmask


def _gates(interleaved: np.ndarray) -> np.ndarray:
    """A (..., 2, B, 3h) array of [z | r | n] rows as a (..., 3, 2, B, h) view."""
    *lead, two, B, width = interleaved.shape
    gated = interleaved.reshape(*lead, two, B, 3, width // 3)
    return np.moveaxis(gated, -2, len(lead))


def _run_layer(x_seq: np.ndarray, cell, steps, bufs: dict[str, np.ndarray], slot: int,
               out: np.ndarray) -> None:
    """Run both GRU directions of one layer over a padded batch in one time loop,
    writing the (B, T, 2h) output into `out` and the cache into slot `slot`.

    The bw direction runs over the reversed sequence. Padded steps (frame
    mask 0) carry the hidden state through unchanged, so the bw direction of
    a short utterance starts from zeros at its true last frame. A step where
    every row is valid in both directions skips that blend m h' + (1-m) h,
    which with m = 1 only adds a zero. Every value is computed by the same
    operations on the same operands as in a fresh-array loop, so the bits do
    not depend on the workspace.
    """
    W, U, b_i, b_h = cell
    h_dim = U.shape[2]
    full, mask, unmask = steps
    a, proj = bufs["a"], bufs["proj"]  # a: input projections, (T, gate, 2, B, h)
    B, T, _ = proj.shape
    for d in range(2):
        np.matmul(x_seq, W[d].T, out=proj)
        rows = proj[:, ::-1] if d else proj  # the bw half in reversed time
        a[:, :, d] = rows.reshape(B, T, 3, h_dim).transpose(1, 2, 0, 3)
    a += _gates(b_i[:, None, :])
    a_zr, a_n = a[:, :2], a[:, 2]
    bias = bufs["b_h"]
    bias[...] = b_h[:, None, :]
    U_T = U.transpose(0, 2, 1)  # a transposed view: OpenBLAS's kernel choice rides on it

    gates, h_seq = bufs[f"gates{slot}"], bufs[f"h{slot}"]
    zrn, zr = gates[:, :3], gates[:, :2]
    z, r, rn, n = gates.transpose(1, 0, 2, 3, 4)
    rec, n_in, keep, new = (bufs[k] for k in ("rec", "n_in", "keep", "new"))
    rec_g = _gates(rec)
    h = bufs["h_zero"]
    for t in range(len(full)):
        np.matmul(h, U_T, out=rec)
        rec += bias
        zrn[t] = rec_g  # z and r pre-activations less a, and rn
        zr[t] += a_zr[t]
        _sigmoid(zr[t], out=zr[t])
        np.multiply(r[t], rn[t], out=n_in)
        n_in += a_n[t]
        np.tanh(n_in, out=n[t])
        h_new = h_seq[t] if full[t] else new
        np.subtract(1.0, z[t], out=keep)
        keep *= n[t]
        np.multiply(z[t], h, out=h_new)
        np.add(keep, h_new, out=h_new)
        if not full[t]:
            new *= mask[t]
            np.multiply(unmask[t], h, out=keep)
            np.add(new, keep, out=h_seq[t])
        h = h_seq[t]
    _batch_major(h_seq, out[..., :h_dim], out[..., h_dim:])


def _backward_layer(x_seq: np.ndarray, cell, steps, bufs: dict[str, np.ndarray], layer: int,
                    input_grad: bool) -> dict[str, np.ndarray]:
    """BPTT through both directions of one layer in one reverse-time loop.

    Reads d loss / d output from the time-major "d" buffer and, with
    input_grad, leaves d loss / d layer input there. Consumes the layer's
    cache (n becomes h_prev - n). Returns the W/U/b_i/b_h gradients by tensor
    name. Each product keeps the left-to-right order of the per-step
    formulas, and gates that share a factor are multiplied in one call. The
    factors 1-z, 1-r, 1-n^2 and h_prev - n are elementwise, so forming them
    for all steps at once changes no bit.
    """
    W, U, _, _ = cell
    full, mask, unmask = steps
    gates, h_seq = bufs[f"gates{layer}"], bufs[f"h{layer}"]
    T, _, B, h_dim = h_seq.shape
    zr = gates[:, :2]
    z, r, _, n = gates.transpose(1, 0, 2, 3, 4)
    hpn_rn = gates[:, 3:1:-1]  # [n, rn], then [h_prev - n, rn]
    fac = bufs["fac"]  # [1-z, 1-r, 1-n^2]
    omzr, omz, omn2 = fac[:, :2], fac[:, 0], fac[:, 2]
    np.subtract(1.0, zr, out=omzr)
    np.multiply(n, n, out=omn2)
    np.subtract(1.0, omn2, out=omn2)
    np.subtract(h_seq[:-1], n[1:], out=n[1:])  # h_prev is zeros at step 0
    np.subtract(0.0, n[0], out=n[0])

    d, gdan, drec = bufs["d"], bufs["gdan"], bufs["drec"]
    d_new, dan = gdan[:, 0], gdan[:, 1]
    drec_zr, drec_n = _gates(drec)[:, :2], _gates(drec)[:, 2]  # [z | r | n] rows
    carry, g, d_hp, leak, chain = (bufs[k] for k in ("carry", "g", "d_hp", "leak", "chain"))
    carry.fill(0.0)
    for t in range(T - 1, -1, -1):
        if full[t]:
            np.add(d[t], carry, out=d_new[t])
            np.multiply(d_new[t], z[t], out=d_hp)
        else:
            np.add(d[t], carry, out=g)
            np.multiply(g, mask[t], out=d_new[t])
            np.multiply(d_new[t], z[t], out=d_hp)
            d_hp += np.multiply(g, unmask[t], out=leak)
        np.multiply(d_new[t], omz[t], out=dan[t])
        dan[t] *= omn2[t]
        np.multiply(gdan[t], hpn_rn[t], out=chain)  # z and r pre-activation grads
        chain *= zr[t]
        np.multiply(chain, omzr[t], out=drec_zr[t])
        np.multiply(dan[t], r[t], out=drec_n[t])
        np.matmul(drec[t], U, out=carry)
        carry += d_hp

    # Batch-major and in original time order, so the sums over (b, t) match
    # a reverse-time bw loop term for term.
    flat_rec, flat_a, h_prev = bufs["flat_rec"], bufs["flat_a"], bufs["h_prev"]
    _batch_major(drec, flat_rec[0], flat_rec[1])
    flat_a[..., :2 * h_dim] = flat_rec[..., :2 * h_dim]  # input side; its n part is dan
    _batch_major(dan, flat_a[0, ..., 2 * h_dim:], flat_a[1, ..., 2 * h_dim:])
    h_prev[0, :, 0] = h_prev[1, :, -1] = 0.0
    h_prev[0, :, 1:] = h_seq[:-1, 0].transpose(1, 0, 2)
    h_prev[1, :, :-1] = h_seq[:-1, 1][::-1].transpose(1, 0, 2)
    rows_a = flat_a.reshape(2, B * T, 3 * h_dim)
    rows_rec = flat_rec.reshape(2, B * T, 3 * h_dim)
    stacked = {
        "W": rows_a.transpose(0, 2, 1) @ x_seq.reshape(B * T, -1),
        "U": rows_rec.transpose(0, 2, 1) @ h_prev.reshape(2, B * T, h_dim),
        "b_i": rows_a.sum(axis=1),
        "b_h": rows_rec.sum(axis=1),
    }
    if input_grad:
        dx = bufs["dx"]
        np.matmul(flat_a[0], W[0], out=dx[0])
        np.matmul(flat_a[1], W[1], out=dx[1])
        np.add(dx[0, ..., :h_dim], dx[1, ..., :h_dim], out=d[:, 0].transpose(1, 0, 2))
        np.add(dx[0, :, ::-1, h_dim:], dx[1, :, ::-1, h_dim:], out=d[:, 1].transpose(1, 0, 2))
    return {f"l{layer}.{d}.{key}": g[i]
            for i, d in enumerate(DIRECTIONS) for key, g in stacked.items()}


def _forward_batch(x: np.ndarray, frame_mask: np.ndarray, params: ModelParams,
                   workspace: Workspace | None, keep_cache: bool):
    """The BGRU stack on a padded batch.

    x: (B, T, F) features, frame_mask: (B, T) in {0, 1}. Returns the top
    layer's output s (B, T, 2h), a view of the workspace, and what
    `_backward_layer` needs: each layer's `_stacked_cell`, the per-step masks
    and the workspace views. Without a workspace the call makes its own.
    """
    arch = params.arch
    B, T, _ = x.shape
    bufs = (workspace or Workspace()).take(arch, B, T, keep_cache)
    cells = [_stacked_cell(params, layer) for layer in range(arch.num_layers)]
    steps = _time_steps(frame_mask, bufs)
    seq = x
    for layer in range(arch.num_layers):
        out = bufs[f"out{layer if keep_cache else layer % 2}"]
        _run_layer(seq, cells[layer], steps, bufs, layer if keep_cache else 0, out)
        seq = out
    return seq, (cells, steps, bufs)


def forward_embed(features: np.ndarray, params: ModelParams,
                  workspace: Workspace | None = None) -> np.ndarray:
    """Embed one utterance: (F, T) features -> V of shape (K, F*T)."""
    features = np.asarray(features, dtype=np.float64)
    if features.shape[0] != params.arch.input_dim:
        raise ValueError(f"expected {params.arch.input_dim} feature rows, "
                         f"got {features.shape[0]}")
    T = features.shape[1]
    seq, _ = _forward_batch(features.T[None, :, :], np.ones((1, T)), params, workspace,
                            keep_cache=False)
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


def _objective(features, mix_mags, ideal_masks, params: ModelParams,
               workspace: Workspace | None, with_grads: bool):
    """Pad, run the BGRU stack and score a batch: the mean per-utterance loss
    and, with_grads, its exact parameter gradients (else None).

    Utterances are zero-padded to a common frame count; a per-utterance frame
    mask keeps padded frames out of the recurrences and out of the loss.
    Without a workspace the call makes its own. The embeddings
    V(t,f) = W_f s(t) + b_f are never formed. With P(i,f) = sum_t M(i,t,f) s(t)
    and m(i,f) = sum_t M(i,t,f), utterance i's attractor is
    a = (sum_f W_f P + m b_f) / sum_f m, and its scores are s(t).G(f) + c(f)
    with G = a W_f and c = a b_f. Every product is a GEMM over rows (b, i) or
    over frames. Every head temporary is made and freed here.
    """
    x, Xsq, M, frame_mask, n_spk = _pad_batch(features, mix_mags, ideal_masks, params.arch)
    s, (cells, steps, bufs) = _forward_batch(x, frame_mask, params, workspace, with_grads)
    # The linear map as Wk (K, F*2h), Wk[k, f*2h + d] = W_f[k, d], and bk (K, F).
    F, K = params.arch.input_dim, params.arch.embed_dim
    Wk = params.tensors["fc.W"].reshape(F, K, -1).transpose(1, 0, 2).reshape(K, -1)
    bk = params.tensors["fc.b"].reshape(F, K).T
    B, _, _, T = M.shape
    m = M.sum(axis=3).reshape(B * n_spk, F)
    mass = m.sum(axis=1, keepdims=True)
    if np.any(mass == 0):
        raise ValueError("an utterance has an all-zero ideal mask; attractor undefined")
    P = (M.reshape(B, n_spk * F, T) @ s).reshape(B * n_spk, -1)   # rows (b, i)
    attractors = (P @ Wk.T + m @ bk.T) / mass
    G = attractors @ Wk
    c = attractors @ bk
    m_hat = G.reshape(B, n_spk * F, -1) @ s.transpose(0, 2, 1)  # the scores, until the sigmoid
    m_hat += c.reshape(B, n_spk * F, 1)
    if not np.all(np.isfinite(m_hat)):
        raise FloatingPointError("non-finite activations in forward pass")
    m_hat = _sigmoid(m_hat, out=m_hat).reshape(M.shape)
    np.multiply(Xsq, Xsq, out=Xsq)  # the padded magnitudes, squared in place
    # m_hat - M, the backward pass's first factor, is exactly -(M - m_hat): the
    # loss terms keep their bits.
    d_scores = m_hat - M
    count = n_spk * len(features)
    loss = float(np.sum(Xsq[:, None] * d_scores * d_scores)) / count
    if not with_grads:
        return loss, None
    by_bin = (B, n_spk * F, -1)

    # Back through the fold: dG = sum_t dS s, dc = sum_t dS, da = (dG.W_f +
    # dc b_f) / mass and dP = da W_f; fc.W gets a dG + da P, fc.b a dc + da m,
    # and s(t) gets dS G + M dP. Dead temporaries are overwritten or dropped;
    # products keep their operands and order. dS = (2/count X^2) (m_hat - M)
    # m_hat (1 - m_hat) forms in the m_hat - M buffer, 1 - m_hat over m_hat.
    Xsq *= 2.0 / count
    np.multiply(Xsq[:, None], d_scores, out=d_scores)
    d_scores *= m_hat
    d_scores *= np.subtract(1.0, m_hat, out=m_hat)
    del m_hat, Xsq
    d_scores = d_scores.reshape(by_bin)
    d_seq = d_scores.transpose(0, 2, 1) @ G.reshape(by_bin)
    del G
    dG = (d_scores @ s).reshape(P.shape)
    dc = d_scores.sum(axis=2).reshape(m.shape)
    del d_scores
    d_attr = (dG @ Wk.T + dc @ bk.T) / mass
    dP = d_attr @ Wk
    d_seq += M.reshape(by_bin).transpose(0, 2, 1) @ dP.reshape(by_bin)
    del M, dP

    dWk = attractors.T @ dG
    dWk += d_attr.T @ P
    dbk = attractors.T @ dc + d_attr.T @ m
    grads = {"fc.W": dWk.reshape(K, F, -1).transpose(1, 0, 2).reshape(F * K, -1),
             "fc.b": dbk.T.ravel()}

    h_dim = params.arch.hidden_per_direction
    d = bufs["d"]
    d[:, 0] = d_seq[..., :h_dim].transpose(1, 0, 2)
    d[:, 1] = d_seq[:, ::-1, h_dim:].transpose(1, 0, 2)
    for layer in range(params.arch.num_layers - 1, -1, -1):
        x_seq = bufs[f"out{layer - 1}"] if layer else x
        grads.update(_backward_layer(x_seq, cells[layer], steps, bufs, layer,
                                     input_grad=layer > 0))
    ordered = {}  # in params' order
    for name in params.tensors:
        ordered[name] = g = grads[name]
        if not np.all(np.isfinite(g)):
            raise FloatingPointError(f"non-finite gradient for {name}")
    return loss, ordered


def batch_loss(features: list[np.ndarray], mix_mags: list[np.ndarray],
               ideal_masks: list[list[np.ndarray]], params: ModelParams,
               workspace: Workspace | None = None) -> float:
    """Mean per-utterance loss over a padded batch, forward pass only."""
    return _objective(features, mix_mags, ideal_masks, params, workspace,
                      with_grads=False)[0]


def batch_loss_and_grads(features: list[np.ndarray], mix_mags: list[np.ndarray],
                         ideal_masks: list[list[np.ndarray]], params: ModelParams,
                         workspace: Workspace | None = None):
    """Mean per-utterance loss over a padded batch and its exact parameter
    gradients."""
    return _objective(features, mix_mags, ideal_masks, params, workspace, with_grads=True)


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
