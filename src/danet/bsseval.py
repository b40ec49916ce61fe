"""BSS-eval style scoring: project an estimate onto delayed copies of the
references, split it into target / interference / artifact parts, and report
SDR, SIR and SAR with permutation resolution. A projector builds and factors
its Gram matrix in a `Workspace`, which serves one projector at a time and
reuses its buffers for the next. `evaluate_set` scores what
`pipeline.estimate` returns for a manifest split, in forked worker processes,
with one workspace per process."""

import csv
import itertools
import math
import multiprocessing
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.fft import irfft, next_fast_len, rfft
from scipy.linalg import cho_factor, cho_solve

from . import corpus, pipeline
from .clustering import ALGOS
from .dsp import StftConfig
from .pipeline import _worker_count

MAX_PERMUTATION_SOURCES = 4


@dataclass(frozen=True)
class EvalConfig:
    """proj_len is the number of allowed filter taps; 1 gives the
    gain-only closed form used by the analytic tests."""

    proj_len: int = 512
    sdr_cap: float = 100.0

    def __post_init__(self):
        if self.proj_len < 1:
            raise ValueError(f"proj_len must be >= 1, got {self.proj_len}")
        if not self.sdr_cap > 0:
            raise ValueError(f"sdr_cap must be positive, got {self.sdr_cap}")


@dataclass
class Metrics:
    sdr: np.ndarray          # per estimate, dB
    sir: np.ndarray
    sar: np.ndarray
    permutation: tuple[int, ...]   # permutation[i] = reference matched to estimate i


class Workspace:
    """The buffers a `_Projector` factors in place: its Gram matrix and the
    diagonal blocks of targets 1 .. N-1.

    Each buffer is one flat float64 array, and a projector takes C-contiguous
    views of its own shapes from the front of it, so each view has the
    layout a fresh array of that shape would have. A buffer too small for a
    reference set is replaced by a larger one. A workspace serves one
    projector at a time: a projector's factors are views of it, so the next
    projector built in it overwrites them. No array `decompose` returns is a
    view of a workspace.
    """

    def __init__(self):
        self._flat: dict[str, np.ndarray] = {}

    def take(self, name: str, shape: tuple[int, ...]) -> np.ndarray:
        size = math.prod(shape)
        if name not in self._flat or self._flat[name].size < size:
            self._flat[name] = np.empty(size)
        return self._flat[name][:size].reshape(shape)


class _Projector:
    """Least-squares projections onto the L-tap delayed copies of one
    reference set. The Gram matrix G of all N*L copies is block-Toeplitz,
    built from one batched FFT into the workspace (a fresh one if none is
    given) and factorized once, in place: its leading block is target 0's
    factor, and each other target factors its own diagonal block, copied
    into the workspace first. All estimates share each solve.

    The singular fallbacks (a least-squares solve, and target 0's re-factor
    after the all-references factor fails) rebuild G in a fresh workspace:
    a least-squares solve keeps its matrix, and G rebuilt in this workspace
    would overwrite the factors already written there."""

    def __init__(self, refs: list[np.ndarray], cfg: EvalConfig,
                 workspace: Workspace | None = None):
        refs = _signals(refs, "reference")
        N, self.n = refs.shape
        L = self.L = cfg.proj_len
        # Long enough that no lag in -(L-1)..L-1 and no projection wraps round.
        self.nfft = next_fast_len(max(self.n, L) + L - 1, real=True)
        self.spectra = rfft(refs, self.nfft)
        ws = Workspace() if workspace is None else workspace
        G = self._gram(ws)
        blocks = [slice(j * L, (j + 1) * L) for j in range(N)]
        own = ws.take("blocks", (N - 1, L, L))
        for a, s in zip(own, blocks[1:]):
            np.copyto(a, G[s, s])
        lead = self._all = self._factor(G, slice(None))
        if N > 1:
            lead = (self._cho_solver(lead[0][:L, :L]) if lead[0] is not None
                    else self._factor(self._gram(Workspace())[blocks[0], blocks[0]],
                                      blocks[0]))
        self._targets = [lead] + [self._factor(a, s) for a, s in zip(own, blocks[1:])]

    def _gram(self, ws: Workspace) -> np.ndarray:
        """G[i*L + a, j*L + b] = sum_u r_i[u] r_j[u + a - b], lifted, in ws."""
        L, N = self.L, len(self.spectra)
        xc = irfft(self.spectra.conj()[:, None] * self.spectra, self.nfft)
        lags = np.concatenate([xc[..., self.nfft - L + 1:], xc[..., :L]], axis=-1)
        # windows[i, j, a, b] = lags[i, j, L - 1 + a - b], the lag a - b
        windows = sliding_window_view(lags, L, axis=-1)[..., ::-1]
        G = ws.take("gram", (N * L, N * L))
        np.copyto(G.reshape(N, L, N, L), windows.transpose(0, 2, 1, 3))
        # A lift relative to the largest reference energy (1 when every
        # reference is silent) keeps the solve, its figures and its warnings
        # independent of the signals' scale.
        self._lift = 1e-10 * (float(np.max(np.diag(G))) or 1.0)
        G.reshape(-1)[::N * L + 1] += self._lift
        return G

    def _factor(self, a: np.ndarray, sel: slice):
        """(lower Cholesky factor written over a, its solve), or (None, a
        least-squares solve on block sel of G) when a is not positive definite."""
        try:
            # a is symmetric, so a.T is a in Fortran order: LAPACK copies nothing.
            factor = cho_factor(a.T, lower=True, overwrite_a=True, check_finite=False)[0]
        except np.linalg.LinAlgError:
            warnings.warn("singular projection system; falling back to least squares")
            a = self._gram(Workspace())[sel, sel]
            return None, lambda rhs: np.linalg.lstsq(a, rhs, rcond=None)[0]
        return self._cho_solver(factor)

    def _cho_solver(self, factor: np.ndarray):
        """(factor, its solve). A pivot at the lift floor means the unlifted
        system is singular, so the references are rank-deficient: warn."""
        if float(np.min(np.diag(factor))) ** 2 < 100.0 * self._lift:
            warnings.warn("rank-deficient references; projection is regularized")
        return factor, lambda rhs: cho_solve((factor, True), rhs, check_finite=False)

    def decompose(self, ests: list[np.ndarray]) -> list[list[tuple[np.ndarray, ...]]]:
        """For each estimate, (s_target, e_interf, e_artif) with each reference
        as the target, of length n + L - 1 (delayed copies overhang the end)."""
        padded = np.pad(_signals(ests, "estimate", self.n), ((0, 0), (0, self.L - 1)))
        L, N, M = self.L, len(self.spectra), len(padded)
        # rhs[i, d, m] = sum_u r_i[u] est_m[u + d] for d = 0 .. L-1
        rhs = irfft(self.spectra.conj()[:, None] * rfft(padded, self.nfft), self.nfft)
        rhs = rhs[..., :L].transpose(0, 2, 1)
        coefs = [self._all[1](rhs.reshape(N * L, M)).reshape(N, L, M)]
        coefs += [solve(rhs[j])[None] for j, (_, solve) in enumerate(self._targets)]
        spec = rfft(np.concatenate(coefs).transpose(0, 2, 1), self.nfft)
        spec *= np.tile(self.spectra, (2, 1))[:, None]
        # Row 0 projects onto all references, row 1 + j onto reference j alone.
        proj = irfft(np.concatenate([spec[:N].sum(axis=0, keepdims=True), spec[N:]]),
                     self.nfft)[..., :padded.shape[1]]
        return [[(proj[1 + j, m], proj[0, m] - proj[1 + j, m], padded[m] - proj[0, m])
                 for j in range(N)] for m in range(M)]


def _signals(signals: list, what: str, n: int | None = None) -> np.ndarray:
    """The signals stacked as float64; a length other than n (default: the
    first's), NaN or inf is refused by name."""
    signals = [np.asarray(s, dtype=np.float64) for s in signals]
    n = signals[0].size if n is None else n
    for i, s in enumerate(signals):
        if s.size != n:
            raise ValueError(f"{what} {i} has length {s.size}, not {n}")
        if not np.isfinite(s).all():
            raise ValueError(f"{what} {i} contains NaN or inf")
    return np.stack(signals)


def bss_decompose(est: np.ndarray, refs: list[np.ndarray], target_index: int,
                  cfg: EvalConfig = EvalConfig()):
    """(s_target, e_interf, e_artif); the three parts sum to the estimate."""
    return _Projector(refs, cfg).decompose([est])[0][target_index]


def _ratio_db(num: float, den: float, cap: float) -> float:
    if num <= 0.0:
        return -cap
    if den <= 0.0:
        return cap
    return float(np.clip(10.0 * np.log10(num / den), -cap, cap))


def _metrics_from_parts(s_target, e_interf, e_artif, cap):
    e_s = float(np.sum(s_target ** 2))
    e_i = float(np.sum(e_interf ** 2))
    e_a = float(np.sum(e_artif ** 2))
    sdr = _ratio_db(e_s, e_i + e_a, cap)
    sir = _ratio_db(e_s, e_i, cap)
    sar = _ratio_db(float(np.sum((s_target + e_interf) ** 2)), e_a, cap)
    return sdr, sir, sar


def sdr_sir_sar(est: np.ndarray, refs: list[np.ndarray], target_index: int,
                cfg: EvalConfig = EvalConfig()) -> tuple[float, float, float]:
    parts = bss_decompose(est, refs, target_index, cfg)
    return _metrics_from_parts(*parts, cfg.sdr_cap)


def resolve_permutation(ests: list[np.ndarray], refs: list[np.ndarray],
                        cfg: EvalConfig = EvalConfig(),
                        workspace: Workspace | None = None) -> Metrics:
    """Score every estimate-to-reference assignment; keep the best mean SIR.
    The projector is built in workspace, or in fresh arrays if it is None."""
    if len(ests) != len(refs):
        raise ValueError(f"{len(ests)} estimates vs {len(refs)} references")
    n_src = len(refs)
    if n_src > MAX_PERMUTATION_SOURCES:
        raise ValueError(f"permutation search limited to {MAX_PERMUTATION_SOURCES} sources")

    # table[i, j] = (SDR, SIR, SAR) of estimate i against reference j
    table = np.array([[_metrics_from_parts(*parts, cfg.sdr_cap) for parts in est_parts]
                      for est_parts in _Projector(refs, cfg, workspace).decompose(ests)])
    rows = np.arange(n_src)
    best = max(itertools.permutations(range(n_src)), key=lambda p: np.mean(table[rows, p, 1]))
    sdr, sir, sar = table[rows, best].T
    return Metrics(sdr=sdr, sir=sir, sar=sar, permutation=best)


REPORT_HEADER = ["utt_id", "speaker", "permuted_to", "sdr_db", "sir_db", "sar_db", "pesq"]


def _score_record(rec, ckpt, algo: str, cfg: EvalConfig, seed: int, stft_cfg: StftConfig,
                  workspace: Workspace):
    """Estimate and score one mixture, projecting in workspace: its CSV rows,
    its per-speaker (SDR, SIR, SAR) tuples, and the warnings raised on the
    way as (message, category, filename, lineno)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ests, refs = pipeline.estimate(rec, ckpt, algo, seed, stft_cfg)
        metrics = resolve_permutation(ests, refs, cfg, workspace=workspace)
    scores = list(zip(metrics.sdr, metrics.sir, metrics.sar))
    rows = [[rec.utt_id, i, metrics.permutation[i], *(f"{v:.4f}" for v in score), "n/a"]
            for i, score in enumerate(scores)]
    return rows, scores, [(str(w.message), w.category, w.filename, w.lineno) for w in caught]


_job = None   # (ckpt, algo, cfg, seed, stft_cfg, workspace), set in worker processes only


def _start_worker(*job) -> None:
    global _job
    _job = (*job, Workspace())


def _score_in_worker(rec):
    return _score_record(rec, *_job)


def _scored(records, job):
    """_score_record over records, in order: in forked worker processes
    (`pipeline._worker_count` of them), else in this process. Each process
    scores all of its records in one workspace.

    fork, not spawn: a worker starts with the caller's imports, BLAS thread
    setting and checkpoint, with no re-import or pickling per call."""
    workers = _worker_count(len(records))
    if workers < 2:
        workspace = Workspace()
        yield from (_score_record(rec, *job, workspace) for rec in records)
        return
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                             initializer=_start_worker, initargs=job) as pool:
        yield from pool.map(_score_in_worker, records)


def evaluate_set(manifest_path, ckpt, algo: str, cfg: EvalConfig, out_csv,
                 split: str = "test", seed: int = 0,
                 stft_cfg: StftConfig = StftConfig()) -> dict:
    """Score every mixture of a manifest split as `pipeline.estimate` estimates
    it by algo; write a CSV report. PESQ is out of scope and reported as n/a.

    Mixtures are scored in forked worker processes, one per usable core
    that the BLAS threads leave free (see `pipeline._worker_count`), or in this
    process when that is one. Rows, means and warnings are gathered here in
    manifest order, so the report and summary equal a serial run's at the
    same BLAS thread count.
    """
    if algo in ALGOS and ckpt is None:
        raise ValueError(f"algo {algo!r} needs a checkpoint")
    if algo not in pipeline.EVAL_ALGOS:
        raise ValueError(f"unknown evaluation algo {algo!r}")

    records = [r for r in corpus.load_manifest(manifest_path) if r.split == split]
    rows = []
    per_speaker = []
    # This module's registry, so a warning shows as often as when raised here.
    registry = globals().setdefault("__warningregistry__", {})
    for rec_rows, scores, caught in _scored(records, (ckpt, algo, cfg, seed, stft_cfg)):
        for message, category, filename, lineno in caught:
            warnings.warn_explicit(message, category, filename, lineno, registry=registry)
        rows += rec_rows
        per_speaker += scores

    summary = {"count": len(records), "algo": algo}
    with open(out_csv, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(REPORT_HEADER)
        writer.writerows(rows)
        if per_speaker:
            means = np.mean(np.array(per_speaker), axis=0)
            writer.writerow(["MEAN", "", "", *(f"{m:.4f}" for m in means), "n/a"])
            summary.update(sdr=float(means[0]), sir=float(means[1]), sar=float(means[2]))
    return summary
