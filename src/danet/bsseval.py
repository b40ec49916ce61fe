"""BSS-eval style scoring: project an estimate onto delayed copies of the
references, split it into target / interference / artifact parts, and report
SDR, SIR and SAR with permutation resolution."""

import csv
import itertools
import multiprocessing
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve, toeplitz
from scipy.signal import fftconvolve

from .dsp import StftConfig

MAX_PERMUTATION_SOURCES = 4
EVAL_ALGOS = ("kmeans", "gmm", "oracle_wfm", "oracle_ibm", "mixture")


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


def _crosscorr(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """c[d + n - 1] = sum_u a[u] * b[u + d] for d in [-(n-1), n-1]."""
    return fftconvolve(b, a[::-1])


class _Projector:
    """Shared least-squares machinery for one reference set.

    The normal-equations matrix over all L-tap delayed reference copies is
    built once from FFT cross-correlations (block-Toeplitz) and factorized;
    every estimate and target choice reuses it.
    """

    def __init__(self, refs: list[np.ndarray], cfg: EvalConfig):
        self.cfg = cfg
        self.refs = [np.asarray(r, dtype=np.float64) for r in refs]
        self.n = self.refs[0].size
        if any(r.size != self.n for r in self.refs):
            raise ValueError("references must share one length")
        L = cfg.proj_len
        N = len(self.refs)
        G = np.empty((N * L, N * L))
        for i in range(N):
            for j in range(N):
                xc = _crosscorr(self.refs[i], self.refs[j])
                col = xc[self.n - 1:self.n - 1 + L]          # d = 0 .. L-1
                row = xc[self.n - 1:self.n - 1 - L:-1]       # d = 0 .. -(L-1)
                G[i * L:(i + 1) * L, j * L:(j + 1) * L] = toeplitz(col, row)
        # Diagonal lift relative to the autocorrelation scale keeps the
        # conditioning of the solve independent of signal amplitude.
        self._lift = 1e-10 * max(float(np.max(np.diag(G))), 1.0)
        G += self._lift * np.eye(N * L)
        self.G = G
        self._solvers = {}

    def _solve(self, indices: tuple[int, ...], rhs: np.ndarray) -> np.ndarray:
        L = self.cfg.proj_len
        if indices not in self._solvers:
            sel = np.concatenate([np.arange(i * L, (i + 1) * L) for i in indices])
            sub = self.G[np.ix_(sel, sel)]
            try:
                factor = cho_factor(sub)
                # A pivot at the regularization floor means the unlifted
                # system is singular: the references are rank-deficient.
                if float(np.min(np.diag(factor[0]))) ** 2 < 100.0 * self._lift:
                    warnings.warn("rank-deficient references; projection is regularized")
                self._solvers[indices] = ("chol", factor)
            except np.linalg.LinAlgError:
                warnings.warn("singular projection system; falling back to least squares")
                self._solvers[indices] = ("lstsq", sub)
        kind, solver = self._solvers[indices]
        if kind == "chol":
            return cho_solve(solver, rhs)
        return np.linalg.lstsq(solver, rhs, rcond=None)[0]

    def _project(self, blocks: list[np.ndarray], indices: tuple[int, ...]) -> np.ndarray:
        """Least-squares projection of an estimate onto the chosen references'
        delays, from its cross-correlation block with each reference.

        Returns a length n + L - 1 signal (delayed copies overhang the end).
        """
        coefs = self._solve(indices, np.concatenate([blocks[i] for i in indices]))
        out = np.zeros(self.n + self.cfg.proj_len - 1)
        for c, i in zip(coefs.reshape(len(indices), -1), indices):
            out += fftconvolve(self.refs[i], c)
        return out

    def decompose(self, est: np.ndarray) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """(s_target, e_interf, e_artif) with each reference as the target."""
        est = np.asarray(est, dtype=np.float64)
        if est.size != self.n:
            raise ValueError(f"estimate length {est.size} != reference length {self.n}")
        L = self.cfg.proj_len
        blocks = [_crosscorr(r, est)[self.n - 1:self.n - 1 + L] for r in self.refs]
        p_all = self._project(blocks, tuple(range(len(self.refs))))
        e_artif = np.concatenate([est, np.zeros(L - 1)]) - p_all
        targets = [self._project(blocks, (j,)) for j in range(len(self.refs))]
        return [(s, p_all - s, e_artif) for s in targets]


def bss_decompose(est: np.ndarray, refs: list[np.ndarray], target_index: int,
                  cfg: EvalConfig = EvalConfig()):
    """(s_target, e_interf, e_artif); the three parts sum to the estimate."""
    return _Projector(refs, cfg).decompose(est)[target_index]


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
                        cfg: EvalConfig = EvalConfig()) -> Metrics:
    """Score every estimate-to-reference assignment; keep the best mean SIR."""
    if len(ests) != len(refs):
        raise ValueError(f"{len(ests)} estimates vs {len(refs)} references")
    n_src = len(refs)
    if n_src > MAX_PERMUTATION_SOURCES:
        raise ValueError(f"permutation search limited to {MAX_PERMUTATION_SOURCES} sources")

    projector = _Projector(refs, cfg)
    table = [[_metrics_from_parts(*parts, cfg.sdr_cap) for parts in projector.decompose(est)]
             for est in ests]

    best_perm, best_sir = None, -np.inf
    for perm in itertools.permutations(range(n_src)):
        mean_sir = np.mean([table[i][perm[i]][1] for i in range(n_src)])
        if mean_sir > best_sir:
            best_perm, best_sir = perm, mean_sir

    chosen = [table[i][best_perm[i]] for i in range(n_src)]
    return Metrics(
        sdr=np.array([c[0] for c in chosen]),
        sir=np.array([c[1] for c in chosen]),
        sar=np.array([c[2] for c in chosen]),
        permutation=best_perm,
    )


REPORT_HEADER = ["utt_id", "speaker", "permuted_to", "sdr_db", "sir_db", "sar_db", "pesq"]


def _score_record(rec, ckpt, algo: str, cfg: EvalConfig, seed: int,
                  stft_cfg: StftConfig):
    """Separate and score one mixture: its CSV rows, its per-speaker
    (SDR, SIR, SAR) tuples, and the warnings raised on the way as
    (message, category, filename, lineno)."""
    from . import pipeline
    from .dsp import istft, read_wav
    from .masking import apply_mask, binarize

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        mix = read_wav(rec.mixture_path)
        refs = [read_wav(p) for p in rec.source_paths]
        n_src = len(refs)
        if algo in ("kmeans", "gmm"):
            ests = pipeline.separate(mix, ckpt, n_src, algo=algo, seed=seed)
            est_samples = [e.samples for e in ests]
        elif algo in ("oracle_wfm", "oracle_ibm"):
            spec, _, masks = pipeline.mixture_masks(mix, refs, stft_cfg)
            if algo == "oracle_ibm":
                masks = [binarize(m) for m in masks]
            est_samples = [istft(apply_mask(spec, m)).samples for m in masks]
        else:
            est_samples = [mix.samples.copy() for _ in range(n_src)]
        metrics = resolve_permutation(est_samples, [r.samples for r in refs], cfg)
    rows = [[rec.utt_id, i, metrics.permutation[i], f"{metrics.sdr[i]:.4f}",
             f"{metrics.sir[i]:.4f}", f"{metrics.sar[i]:.4f}", "n/a"] for i in range(n_src)]
    scores = [(metrics.sdr[i], metrics.sir[i], metrics.sar[i]) for i in range(n_src)]
    return rows, scores, [(str(w.message), w.category, w.filename, w.lineno) for w in caught]


_job = None   # (ckpt, algo, cfg, seed, stft_cfg), set in worker processes only


def _start_worker(*job) -> None:
    global _job
    _job = job


def _score_in_worker(rec):
    return _score_record(rec, *_job)


def _worker_count(n_records: int) -> int:
    """Usable cores over the BLAS threads each worker inherits (OpenBLAS runs
    one per core unless OPENBLAS_NUM_THREADS or OMP_NUM_THREADS is set), at
    most one per record. More BLAS threads than cores spin against each
    other: two workers at two threads each took 1.7-7x a serial run's time
    on a 2-core machine."""
    if not hasattr(os, "sched_getaffinity"):   # not Linux: fork is no safe default
        return 1
    cores = len(os.sched_getaffinity(0))
    setting = os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")
    threads = int(setting) if setting and setting.isdigit() and int(setting) > 0 else cores
    return max(1, min(cores // threads, n_records))


def _scored(records, job):
    """_score_record over records, in order: in forked worker processes
    (`_worker_count` of them), else in this process.

    fork, not spawn: a worker starts with the caller's imports, BLAS thread
    setting and checkpoint, with no re-import or pickling per call."""
    workers = _worker_count(len(records))
    if workers < 2:
        yield from (_score_record(rec, *job) for rec in records)
        return
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                             initializer=_start_worker, initargs=job) as pool:
        yield from pool.map(_score_in_worker, records)


def evaluate_set(manifest_path, ckpt, algo: str, cfg: EvalConfig, out_csv,
                 split: str = "test", seed: int = 0,
                 stft_cfg: StftConfig = StftConfig()) -> dict:
    """Separate and score every mixture of a manifest split; write a CSV report.

    algo selects the estimator: 'kmeans'/'gmm' run the model in ckpt,
    'oracle_wfm'/'oracle_ibm' apply ideal masks built from the reference
    stems at the geometry stft_cfg, and 'mixture' scores the unprocessed
    mixture as every estimate. PESQ is out of scope and reported as n/a.

    Mixtures are scored in forked worker processes, one per usable core
    that the BLAS threads leave free (see `_worker_count`), or in this
    process when that is one. Rows, means and warnings are gathered here in
    manifest order, so the report and summary equal a serial run's at the
    same BLAS thread count.
    """
    from . import corpus

    if algo in ("kmeans", "gmm") and ckpt is None:
        raise ValueError(f"algo {algo!r} needs a checkpoint")
    if algo not in EVAL_ALGOS:
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
            writer.writerow(["MEAN", "", "", f"{means[0]:.4f}", f"{means[1]:.4f}",
                             f"{means[2]:.4f}", "n/a"])
            summary.update(sdr=float(means[0]), sir=float(means[1]), sar=float(means[2]))
    return summary
