"""Signal-path primitives: windowing, STFT/ISTFT, features, WAV I/O."""

import math
import wave as wavefile
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

SAMPLE_RATE = 8000  # the one rate danet trains and separates at; it has no resampler
FEATURE_FLOOR_EPS = 1e-7


@dataclass(frozen=True)
class Waveform:
    """Mono time-domain signal with its sample rate."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1:
            raise ValueError(f"waveform must be 1-D, got shape {samples.shape}")
        if not np.all(np.isfinite(samples)):
            raise ValueError("waveform contains non-finite samples")
        if self.sample_rate <= 0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")
        object.__setattr__(self, "samples", samples)

    @property
    def duration(self) -> float:
        return self.samples.size / self.sample_rate


@dataclass(frozen=True)
class StftConfig:
    """Analysis geometry: 256/64 gives 32 ms windows with 75% overlap at 8 kHz."""

    win_len: int = 256
    hop: int = 64
    fft_size: int = 256

    def __post_init__(self):
        if self.win_len < 2 or self.win_len % 2 != 0:
            raise ValueError(f"win_len must be even and >= 2, got {self.win_len}")
        if self.hop <= 0 or self.win_len % self.hop != 0:
            raise ValueError(f"hop must divide win_len ({self.win_len}), got {self.hop}")
        if self.fft_size < self.win_len:
            raise ValueError(f"fft_size ({self.fft_size}) must be >= win_len ({self.win_len})")

    @property
    def num_freqs(self) -> int:
        return self.fft_size // 2 + 1

    def num_frames(self, num_samples: int) -> int:
        pad_front = self.win_len - self.hop
        return max(1, math.ceil((pad_front + num_samples) / self.hop))


@dataclass(frozen=True)
class ComplexSpectrogram:
    """F x T complex STFT matrix plus what exact inversion needs."""

    bins: np.ndarray
    source_len: int
    cfg: StftConfig
    sample_rate: int

    def __post_init__(self):
        bins = np.asarray(self.bins, dtype=np.complex128)
        if bins.ndim != 2 or bins.shape[0] != self.cfg.num_freqs:
            raise ValueError(
                f"expected {self.cfg.num_freqs} frequency rows, got shape {bins.shape}"
            )
        if not np.all(np.isfinite(bins)):
            raise ValueError("spectrogram contains non-finite bins")
        object.__setattr__(self, "bins", bins)

    @property
    def num_freqs(self) -> int:
        return self.bins.shape[0]

    @property
    def num_frames(self) -> int:
        return self.bins.shape[1]


def make_sqrt_hann(win_len: int) -> np.ndarray:
    """Square-root of a periodic Hann window; COLA-exact at hop = win_len / 4."""
    if win_len < 2 or win_len % 2 != 0:
        raise ValueError(f"win_len must be even and >= 2, got {win_len}")
    n = np.arange(win_len)
    return np.sqrt(0.5 - 0.5 * np.cos(2.0 * np.pi * n / win_len))


def _frame_padded(x: np.ndarray, cfg: StftConfig) -> np.ndarray:
    """Slice a front/tail zero-padded copy of x into (T, win_len) frames.

    Front padding of win_len - hop puts every real sample under a full set of
    overlapping windows, so squared-window normalization is exact at the edges.
    """
    pad_front = cfg.win_len - cfg.hop
    n_frames = cfg.num_frames(x.size)
    padded_len = (n_frames - 1) * cfg.hop + cfg.win_len
    padded = np.zeros(padded_len)
    padded[pad_front:pad_front + x.size] = x
    idx = np.arange(cfg.win_len)[None, :] + cfg.hop * np.arange(n_frames)[:, None]
    return padded[idx]


def stft(wave: Waveform, cfg: StftConfig = StftConfig()) -> ComplexSpectrogram:
    """Short-time Fourier transform with a sqrt-Hann analysis window."""
    if wave.samples.size == 0:
        raise ValueError("cannot compute STFT of an empty waveform")
    window = make_sqrt_hann(cfg.win_len)
    frames = _frame_padded(wave.samples, cfg) * window
    bins = np.fft.rfft(frames, n=cfg.fft_size, axis=1).T
    return ComplexSpectrogram(bins=bins, source_len=wave.samples.size, cfg=cfg,
                              sample_rate=wave.sample_rate)


def istft(spec: ComplexSpectrogram) -> Waveform:
    """Weighted overlap-add inverse using the same sqrt-Hann window."""
    cfg = spec.cfg
    if spec.num_frames != cfg.num_frames(spec.source_len):
        raise ValueError(
            f"frame count {spec.num_frames} inconsistent with source_len {spec.source_len}"
        )
    window = make_sqrt_hann(cfg.win_len)
    frames = np.fft.irfft(spec.bins.T, n=cfg.fft_size, axis=1)[:, :cfg.win_len] * window

    n_frames = spec.num_frames
    padded_len = (n_frames - 1) * cfg.hop + cfg.win_len
    acc = np.zeros(padded_len)
    norm = np.zeros(padded_len)
    wsq = window * window
    for k in range(n_frames):
        start = k * cfg.hop
        acc[start:start + cfg.win_len] += frames[k]
        norm[start:start + cfg.win_len] += wsq
    out = np.divide(acc, norm, out=np.zeros_like(acc), where=norm > 1e-12)

    pad_front = cfg.win_len - cfg.hop
    return Waveform(out[pad_front:pad_front + spec.source_len], spec.sample_rate)


def magnitude(spec: ComplexSpectrogram) -> np.ndarray:
    return np.abs(spec.bins)


def phase(spec: ComplexSpectrogram) -> np.ndarray:
    """Per-bin phase in (-pi, pi]; zero bins map to phase 0."""
    return np.angle(spec.bins)


def log_features(mag: np.ndarray) -> np.ndarray:
    """Log magnitude floored at FEATURE_FLOOR_EPS."""
    mag = np.asarray(mag, dtype=np.float64)
    if np.any(mag < 0):
        raise ValueError("magnitude matrix has negative entries")
    return np.log(np.maximum(mag, FEATURE_FLOOR_EPS))


def standardize(feats: np.ndarray, mean: np.ndarray, std: np.ndarray) -> np.ndarray:
    """(feats - mean) / std per frequency row, with std floored at 1e-8;
    mean/std are per-frequency vectors (training-set statistics)."""
    feats = feats - np.asarray(mean, dtype=np.float64)[:, None]
    return feats / np.maximum(np.asarray(std, dtype=np.float64), 1e-8)[:, None]


def feature_stats(feature_mats: Iterable[np.ndarray],
                  frames: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Per-frequency mean and standard deviation pooled over F x T_i matrices,
    copied one at a time into one Fortran-ordered (F, sum T_i) array: the
    layout np.concatenate gives the F-ordered output of `log_features`, which
    sets the bits of the row statistics. Given frames = sum T_i,
    `feature_mats` may be a generator."""
    if frames is None:
        feature_mats = list(feature_mats)
        frames = sum(np.shape(m)[1] for m in feature_mats)
    if frames < 1:
        raise ValueError("need at least one feature frame")
    pooled, start = None, 0
    for mat in feature_mats:
        width = np.shape(mat)[1]
        if pooled is None:
            pooled = np.empty((len(mat), frames), order="F")
        pooled[:, start:start + width] = mat
        start += width
    if start != frames:
        raise ValueError(f"the matrices hold {start} frames, not the {frames} given")
    # np.std's own steps (subtract the mean, square, sum, divide, sqrt) done in
    # the pooled array itself: the same bits, without a second (F, sum T_i) array.
    mean = pooled.mean(axis=1)
    pooled -= mean[:, None]
    np.square(pooled, out=pooled)
    return mean, np.sqrt(np.add.reduce(pooled, axis=1) / frames)


def quantize_pcm16(samples: np.ndarray) -> np.ndarray:
    """Round [-1, 1) float samples to int16 with clipping."""
    q = np.round(np.asarray(samples, dtype=np.float64) * 32768.0)
    return np.clip(q, -32768, 32767).astype("<i2")


def write_pcm16(path, ints: np.ndarray, sample_rate: int) -> None:
    with wavefile.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(sample_rate)
        fh.writeframes(np.asarray(ints, dtype="<i2").tobytes())


def write_wav(path, wave: Waveform) -> None:
    """Write mono PCM 16-bit WAV; samples map to ints by scaling with 32768."""
    write_pcm16(path, quantize_pcm16(wave.samples), wave.sample_rate)


def read_pcm16(path) -> tuple[np.ndarray, int]:
    """Raw int16 samples and sample rate; rejects non-mono / non-16-bit files
    and a file cut short, in its header or its data chunk."""
    try:
        fh = wavefile.open(str(path), "rb")
    except EOFError as exc:
        raise ValueError(f"{path}: truncated WAV, the file ends inside its header") from exc
    except wavefile.Error as exc:
        raise ValueError(f"{path}: not a PCM WAV ({exc})") from exc
    with fh:
        if fh.getnchannels() != 1:
            raise ValueError(f"{path}: expected mono, got {fh.getnchannels()} channels")
        if fh.getsampwidth() != 2:
            raise ValueError(f"{path}: expected 16-bit PCM, got {8 * fh.getsampwidth()}-bit")
        rate = fh.getframerate()
        n_frames = fh.getnframes()
        data = fh.readframes(n_frames)
    if len(data) != 2 * n_frames:
        raise ValueError(f"{path}: truncated WAV, the header declares {n_frames} frames "
                         f"but the data chunk holds {len(data) // 2}")
    return np.frombuffer(data, dtype="<i2"), rate


def read_wav(path) -> Waveform:
    """Read mono PCM 16-bit WAV into [-1, 1) floats."""
    ints, rate = read_pcm16(path)
    return Waveform(ints.astype(np.float64) / 32768.0, rate)
