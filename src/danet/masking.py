"""Ideal mask construction and mask application for training targets and inference."""

import numpy as np

from .dsp import ComplexSpectrogram, StftConfig

DEFAULT_TAU = 0.5


def wiener_like_masks(source_mags: list[np.ndarray]) -> list[np.ndarray]:
    """Per-bin power ratios |s_i|^2 / sum_j |s_j|^2, summing to 1 at every bin.

    Bins where every source is silent get the uniform 1/N convention.
    """
    if not source_mags:
        raise ValueError("need at least one source magnitude matrix")
    mags = [np.asarray(m, dtype=np.float64) for m in source_mags]
    shape = mags[0].shape
    if any(m.shape != shape for m in mags):
        raise ValueError(f"source magnitudes disagree on shape: {[m.shape for m in mags]}")
    if any(np.any(m < 0) for m in mags):
        raise ValueError("source magnitudes must be nonnegative")

    powers = np.stack([m * m for m in mags])
    total = powers.sum(axis=0)
    silent = total == 0
    total_safe = np.where(silent, 1.0, total)
    masks = powers / total_safe
    masks[:, silent] = 1.0 / len(mags)
    return list(masks)


def binarize(mask: np.ndarray, tau: float = DEFAULT_TAU) -> np.ndarray:
    """Threshold a soft mask with a strict > comparison; exact ties go to 0."""
    if not 0.0 < tau < 1.0:
        raise ValueError(f"tau must be in (0, 1), got {tau}")
    return (np.asarray(mask, dtype=np.float64) > tau).astype(np.float64)


def apply_mask(mix_mag: np.ndarray, mask: np.ndarray, mix_phase: np.ndarray,
               source_len: int, cfg: StftConfig) -> ComplexSpectrogram:
    """Masked magnitude recombined with the mixture phase."""
    mix_mag = np.asarray(mix_mag, dtype=np.float64)
    mask = np.asarray(mask, dtype=np.float64)
    mix_phase = np.asarray(mix_phase, dtype=np.float64)
    if not (mix_mag.shape == mask.shape == mix_phase.shape):
        raise ValueError(
            f"shape mismatch: mag {mix_mag.shape}, mask {mask.shape}, phase {mix_phase.shape}"
        )
    bins = (mask * mix_mag) * np.exp(1j * mix_phase)
    return ComplexSpectrogram(bins=bins, source_len=source_len, cfg=cfg)
