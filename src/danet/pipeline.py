"""Training loop (Adam, LR halving on validation plateaus, checkpoints), the
8-kHz WAV reader, clustering-based separation and each eval algo's estimates."""

import csv
import os
import struct
import sys
import time
from copy import deepcopy
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import corpus as corpus_mod
from .clustering import ALGOS, cluster_attractors
from .dsp import (
    SAMPLE_RATE,
    StftConfig,
    Waveform,
    feature_stats,
    istft,
    log_features,
    magnitude,
    read_wav,
    standardize,
    stft,
)
from .masking import apply_mask, binarize, wiener_like_masks
from .network import (
    ArchSpec,
    ModelParams,
    Workspace,
    batch_loss,
    batch_loss_and_grads,
    clip_grads,
    estimate_masks,
    forward_embed,
    init_params,
    tensor_shapes,
)

CHECKPOINT_MAGIC = b"DANC"
CHECKPOINT_VERSION = 1
EVAL_ALGOS = (*ALGOS, "oracle_wfm", "oracle_ibm", "mixture")


@dataclass(frozen=True)
class HyperParams:
    lr0: float = 1e-3
    lr_halve_patience: int = 3
    lr_min: float = 1e-6
    epochs: int = 50          # desk-scale default; the full-size run uses 150
    batch_size: int = 8
    grad_clip: float = 200.0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        if not self.lr0 > self.lr_min > 0:
            raise ValueError(f"need lr0 > lr_min > 0, got {self.lr0}, {self.lr_min}")
        if self.lr_halve_patience < 1:
            raise ValueError("patience must be >= 1")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if not self.grad_clip > 0:
            raise ValueError(f"grad_clip must be positive, got {self.grad_clip}")
        for name in ("beta1", "beta2"):
            if not 0 <= getattr(self, name) < 1:
                raise ValueError(f"{name} must be in [0, 1), got {getattr(self, name)}")
        if not self.eps > 0:
            raise ValueError(f"eps must be positive, got {self.eps}")


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0

    @classmethod
    def zeros(cls, params: ModelParams) -> "AdamState":
        return cls(m={k: np.zeros_like(p) for k, p in params.tensors.items()},
                   v={k: np.zeros_like(p) for k, p in params.tensors.items()})


def adam_step(params: ModelParams, grads: dict[str, np.ndarray], state: AdamState,
              lr: float, beta1: float = HyperParams.beta1,
              beta2: float = HyperParams.beta2, eps: float = HyperParams.eps) -> None:
    """Standard bias-corrected Adam update, in place.

    m = beta1 m + (1-beta1) g, v = beta2 v + (1-beta2) g g, and
    p -= lr (m / bc1) / (sqrt(v / bc2) + eps), with the operations of that
    expression in its order, so the result is bit-identical to it. The
    temporaries go into two scratch buffers allocated once per call.
    """
    if lr <= 0:
        raise ValueError(f"lr must be positive, got {lr}")
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise FloatingPointError(f"non-finite gradient for {name}")
    state.t += 1
    bc1 = 1.0 - beta1 ** state.t
    bc2 = 1.0 - beta2 ** state.t
    largest = max((g.size for g in grads.values()), default=0)
    buf_a, buf_b = np.empty(largest), np.empty(largest)
    for name, g in grads.items():
        m = state.m[name]
        v = state.v[name]
        a = buf_a[:g.size].reshape(g.shape)
        b = buf_b[:g.size].reshape(g.shape)
        m *= beta1
        m += np.multiply(1.0 - beta1, g, out=a)
        v *= beta2
        np.multiply(1.0 - beta2, g, out=a)
        v += np.multiply(a, g, out=a)
        np.divide(v, bc2, out=a)
        np.sqrt(a, out=a)
        a += eps
        np.divide(m, bc1, out=b)
        b *= lr
        params.tensors[name] -= np.divide(b, a, out=b)


def _check_input_dim(arch: ArchSpec, stft_cfg: StftConfig) -> None:
    if arch.input_dim != stft_cfg.num_freqs:
        raise ValueError(f"arch.input_dim={arch.input_dim} differs from the STFT's "
                         f"num_freqs={stft_cfg.num_freqs} (fft_size={stft_cfg.fft_size})")


@dataclass
class Checkpoint:
    """The training state, which `train` updates at the end of every epoch.
    With `_HEADER` and `_tensor_stream` it declares the `.danc` layout, which
    save_checkpoint and load_checkpoint both follow."""

    params: ModelParams
    adam: AdamState
    stft_cfg: StftConfig
    sample_rate: int
    epoch: int
    lr: float
    best_val_loss: float
    epochs_since_best: int = 0

    def __post_init__(self):
        _check_input_dim(self.arch, self.stft_cfg)

    @property
    def arch(self) -> ArchSpec:
        return self.params.arch

    def end_epoch(self, epoch: int, val_loss: float, hyper: HyperParams) -> bool:
        """Close `epoch` with its validation loss; True when it is a new best.
        After `lr_halve_patience` epochs without one, halve the rate, never
        below `lr_min`."""
        self.epoch = epoch
        if val_loss < self.best_val_loss:
            self.best_val_loss, self.epochs_since_best = val_loss, 0
            return True
        self.epochs_since_best += 1
        if self.epochs_since_best >= hyper.lr_halve_patience:
            self.lr = max(self.lr / 2.0, hyper.lr_min)
            self.epochs_since_best = 0
        return False


# Header sections in file order, as (key prefix, fields): the architecture,
# the STFT geometry, the run state (Checkpoint from sample_rate on) and
# Adam's step count.
_HEADER = (("arch.", fields(ArchSpec)), ("stft.", fields(StftConfig)),
           ("", fields(Checkpoint)[3:]), ("adam_", fields(AdamState)[2:]))


def _tensor_stream(ckpt: Checkpoint) -> list[np.ndarray]:
    """Serialization order: params, Adam first moments, Adam second moments
    (each layer-major, direction-major, gates stacked z/r/n), then the
    per-frequency feature mean and standard deviation."""
    names = list(ckpt.params.tensors)
    return ([ckpt.params.tensors[n] for n in names]
            + [ckpt.adam.m[n] for n in names]
            + [ckpt.adam.v[n] for n in names]
            + [ckpt.params.feat_mean, ckpt.params.feat_std])


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    """Write via a temp file in the same directory, so an interrupted write
    leaves any previous checkpoint at `path` intact."""
    header = "".join(f"{prefix}{f.name}={getattr(obj, f.name)}\n"
                     for (prefix, flds), obj in zip(
                         _HEADER, (ckpt.arch, ckpt.stft_cfg, ckpt, ckpt.adam))
                     for f in flds).encode()
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(CHECKPOINT_MAGIC)
            fh.write(struct.pack("<I", CHECKPOINT_VERSION))
            fh.write(struct.pack("<I", len(header)))
            fh.write(header)
            for tensor in _tensor_stream(ckpt):
                fh.write(np.ascontiguousarray(tensor, dtype="<f8").tobytes())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _header_value(header: dict[str, str], key: str, kind, path):
    if key not in header:
        raise ValueError(f"{path}: checkpoint header lacks {key}")
    try:
        return kind(header[key])
    except ValueError as exc:
        raise ValueError(f"{path}: bad checkpoint header value {key}={header[key]!r}") from exc


def load_checkpoint(path) -> Checkpoint:
    """Read a `.danc` file. Each tensor is read straight into the skeleton the
    header describes, so the load holds one copy of the parameters."""
    with open(path, "rb") as fh:
        file_size = os.fstat(fh.fileno()).st_size
        preamble = fh.read(12)
        if preamble[:4] != CHECKPOINT_MAGIC:
            raise ValueError(f"{path}: not a checkpoint (bad magic bytes)")
        if len(preamble) < 12:
            raise ValueError(f"{path}: truncated checkpoint ({file_size} bytes, "
                             f"inside the 12-byte preamble)")
        version = struct.unpack("<I", preamble[4:8])[0]
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version {version}")
        header_len = struct.unpack("<I", preamble[8:12])[0]
        if 12 + header_len > file_size:
            raise ValueError(f"{path}: header length {header_len} points past the end "
                             f"of the {file_size}-byte file")
        # A malformed line cannot supply a key; _header_value reports the key.
        header = dict(line.partition("=")[::2]
                      for line in fh.read(header_len).decode(errors="replace").splitlines())
        arch_kw, stft_kw, run_state, adam_kw = (
            {f.name: _header_value(header, prefix + f.name, f.type, path) for f in flds}
            for prefix, flds in _HEADER)

        # A skeleton of the header's shapes, filled in _tensor_stream order.
        try:
            arch = ArchSpec(**arch_kw)
            params = ModelParams(arch, {name: np.empty(shape)
                                        for name, shape in tensor_shapes(arch).items()})
            ckpt = Checkpoint(params, replace(AdamState.zeros(params), **adam_kw),
                              StftConfig(**stft_kw), **run_state)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc
        stream = _tensor_stream(ckpt)
        size = 12 + header_len + sum(t.nbytes for t in stream)
        if file_size < size:
            raise ValueError(f"{path}: truncated checkpoint ({file_size} of {size} bytes)")
        if file_size > size:
            raise ValueError(f"{path}: {file_size - size} trailing bytes")
        for tensor in stream:
            if fh.readinto(memoryview(tensor).cast("B")) != tensor.nbytes:
                raise ValueError(f"{path}: truncated checkpoint (the file shrank "
                                 f"while it was read)")
            if sys.byteorder == "big":  # the file is little-endian float64
                tensor.byteswap(inplace=True)
    return ckpt


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val_loss: float
    lr: float
    seconds: float


@dataclass
class TrainLog:
    rows: list[EpochRecord] = field(default_factory=list)

    def to_csv(self, path, append: bool = False) -> None:
        """Write the log, or with append add its rows to an existing one."""
        new = not (append and Path(path).is_file())
        with open(path, "w" if new else "a", newline="") as fh:
            writer = csv.writer(fh)
            if new:
                writer.writerow(["epoch", "train_loss", "val_loss", "lr", "seconds"])
            for r in self.rows:
                writer.writerow([r.epoch, repr(r.train_loss), repr(r.val_loss),
                                 repr(r.lr), f"{r.seconds:.3f}"])

    def deterministic_rows(self) -> list[tuple]:
        """Everything except wall time, which cannot be reproducible."""
        return [(r.epoch, r.train_loss, r.val_loss, r.lr) for r in self.rows]


class _Utterance(NamedTuple):
    mix_mag: np.ndarray           # linear magnitude, F x T; each batch derives its features
    masks: list[np.ndarray]       # binary ideal masks, bool F x T each


@dataclass
class TrainResult:
    best: Checkpoint | None   # None when a resumed run never beat its earlier best
    last: Checkpoint
    log: TrainLog


def mixture_masks(mix: Waveform, sources: list[Waveform], cfg: StftConfig):
    """The mixture's spectrogram and magnitude, and the sources' ideal soft
    masks at the same geometry."""
    spec = stft(mix, cfg)
    masks = wiener_like_masks([magnitude(stft(s, cfg)) for s in sources])
    return spec, magnitude(spec), masks


def read_audio(path) -> Waveform:
    """A WAV at SAMPLE_RATE; a file at any other rate is refused by its path."""
    wave = read_wav(path)
    if wave.sample_rate != SAMPLE_RATE:
        raise ValueError(f"{path}: audio is {wave.sample_rate} Hz, training expects "
                         f"{SAMPLE_RATE} Hz, as do separation and evaluation")
    return wave


def _load_split(records: list[corpus_mod.MixtureRecord], cfg: StftConfig) -> list[_Utterance]:
    """Each mixture's magnitude and binary ideal masks (bool; each batch
    writes them into its float64 targets as exact 0.0 and 1.0)."""
    out = []
    for rec in records:
        _, mix_mag, masks = mixture_masks(read_audio(rec.mixture_path),
                                          [read_audio(p) for p in rec.source_paths], cfg)
        out.append(_Utterance(mix_mag, [binarize(m) for m in masks]))
    return out


def train(manifest_path, hyper: HyperParams, arch: ArchSpec,
          stft_cfg: StftConfig = StftConfig(), resume_from: Checkpoint | None = None,
          progress=None) -> TrainResult:
    """Run the full training loop over a manifest's train/valid splits.

    Per epoch: seeded shuffle, padded batches, forward/backward, global-norm
    gradient clip, Adam step; then a validation pass ends the epoch of the
    one checkpoint the run updates, returned as `last` for exact resumption
    (per-epoch RNG is derived from (seed, epoch)). `best` is its copy at the
    best validation loss. progress(record, ckpt, is_best) sees each epoch.
    """
    records = corpus_mod.load_manifest(manifest_path)
    train_records = [r for r in records if r.split == "train"]
    valid_records = [r for r in records if r.split == "valid"]
    if not train_records or not valid_records:
        raise ValueError("manifest needs non-empty train and valid splits")
    _check_input_dim(arch, stft_cfg)
    requested = (arch, stft_cfg)
    if resume_from is not None and (resume_from.arch, resume_from.stft_cfg) != requested:
        raise ValueError(f"resume architecture and STFT geometry {resume_from.arch}, "
                         f"{resume_from.stft_cfg} != requested {arch}, {stft_cfg}")

    train_utts = _load_split(train_records, stft_cfg)
    valid_utts = _load_split(valid_records, stft_cfg)

    # The run's state; a fresh run starts from an epoch-0 checkpoint.
    if resume_from is not None:
        ckpt = deepcopy(resume_from)
    else:
        params = init_params(arch, hyper.seed)
        params.feat_mean, params.feat_std = feature_stats(
            (log_features(u.mix_mag) for u in train_utts),
            sum(u.mix_mag.shape[1] for u in train_utts))
        ckpt = Checkpoint(params, AdamState.zeros(params), stft_cfg, SAMPLE_RATE,
                          epoch=0, lr=hyper.lr0, best_val_loss=np.inf)
    params = ckpt.params

    def batches(utts, order):
        """Each batch's size, then its standardized features, magnitudes and masks."""
        for i in range(0, len(order), hyper.batch_size):
            mags, masks = zip(*(utts[j] for j in order[i:i + hyper.batch_size]))
            yield len(mags), [standardize(log_features(mag), params.feat_mean, params.feat_std)
                              for mag in mags], mags, masks

    # One workspace for every batch of the run, sized by the longest.
    workspace = Workspace(arch, min(hyper.batch_size, max(len(train_utts), len(valid_utts))),
                          max(u.mix_mag.shape[1] for u in train_utts + valid_utts))
    log = TrainLog()
    best = None
    for epoch in range(ckpt.epoch + 1, ckpt.epoch + hyper.epochs + 1):
        started = time.perf_counter()
        order = np.random.default_rng([hyper.seed, epoch]).permutation(len(train_utts))
        total = 0.0
        for n, *batch in batches(train_utts, order):
            loss, grads = batch_loss_and_grads(*batch, params, workspace=workspace)
            if not np.isfinite(loss):
                raise FloatingPointError(
                    f"training diverged at epoch {epoch} (loss {loss}); "
                    f"last losses: {[r.train_loss for r in log.rows[-3:]]}")
            clip_grads(grads, hyper.grad_clip)
            adam_step(params, grads, ckpt.adam, ckpt.lr, hyper.beta1, hyper.beta2, hyper.eps)
            total += loss * n
            del grads  # or the next step's peak would hold two sets of gradients
        train_loss = total / len(train_utts)
        total = 0.0
        for n, *batch in batches(valid_utts, range(len(valid_utts))):
            total += batch_loss(*batch, params, workspace=workspace) * n
        val_loss = total / len(valid_utts)
        log.rows.append(EpochRecord(epoch, train_loss, val_loss, ckpt.lr,
                                    time.perf_counter() - started))
        # A fresh run's first epoch is its best so far even if its loss is
        # not finite; a resumed run keeps its earlier best unless beaten.
        is_best = (ckpt.end_epoch(epoch, val_loss, hyper)
                   or (best is None and resume_from is None))
        if is_best:
            best = deepcopy(ckpt)
        if progress is not None:
            progress(log.rows[-1], ckpt, is_best)
    return TrainResult(best=best, last=ckpt, log=log)


def separate(mixture: Waveform, ckpt: Checkpoint, n_speakers: int = 2,
             algo: str = "gmm", seed: int = 0) -> list[Waveform]:
    """Testing procedure: embed the mixture, cluster the embeddings into
    attractors, mask the magnitude, and invert with the mixture phase."""
    if mixture.sample_rate != ckpt.sample_rate:
        raise ValueError(f"mixture is {mixture.sample_rate} Hz but the checkpoint "
                         f"expects {ckpt.sample_rate} Hz")
    if n_speakers < 1:
        raise ValueError(f"n_speakers must be >= 1, got {n_speakers}")

    spec = stft(mixture, ckpt.stft_cfg)
    feats = standardize(log_features(magnitude(spec)),
                        ckpt.params.feat_mean, ckpt.params.feat_std)
    V = forward_embed(feats, ckpt.params)
    attractors = cluster_attractors(V, n_speakers, algo=algo, seed=seed)
    masks = estimate_masks(V, attractors, ckpt.stft_cfg.num_freqs)
    return [istft(apply_mask(spec, m)) for m in masks]


def estimate(rec, ckpt: Checkpoint | None, algo: str, seed: int, stft_cfg: StftConfig):
    """One mixture's estimates and reference stems, as sample arrays. algo,
    one of EVAL_ALGOS, selects the estimator: 'kmeans'/'gmm' run the model
    in ckpt, 'oracle_wfm'/'oracle_ibm' apply ideal masks built from the
    reference stems at the geometry stft_cfg, and 'mixture' takes the
    unprocessed mixture as every estimate."""
    mix = read_audio(rec.mixture_path)
    refs = [read_audio(p) for p in rec.source_paths]
    if algo in ALGOS:
        ests = separate(mix, ckpt, len(refs), algo=algo, seed=seed)
    elif algo in ("oracle_wfm", "oracle_ibm"):
        spec, _, masks = mixture_masks(mix, refs, stft_cfg)
        if algo == "oracle_ibm":
            masks = [binarize(m) for m in masks]
        ests = [istft(apply_mask(spec, m)) for m in masks]
    else:
        ests = [mix] * len(refs)
    return [e.samples for e in ests], [r.samples for r in refs]
