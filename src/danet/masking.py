"""Ideal mask construction and mask application for training targets and inference."""

from dataclasses import replace

import numpy as np

from .dsp import ComplexSpectrogram, magnitude, phase

IBM_THRESHOLD = 0.5   # soft masks sum to 1: at most one source wins a bin


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

    # Scaling each bin by a power of two is exact, and squares of [0, 1)
    # cannot overflow; a bin is silent only when every source is zero.
    stacked = np.stack(mags)
    scaled = np.ldexp(stacked, -np.frexp(stacked.max(axis=0))[1])
    powers = scaled * scaled
    total = powers.sum(axis=0)
    silent = total == 0
    total_safe = np.where(silent, 1.0, total)
    masks = powers / total_safe
    masks[:, silent] = 1.0 / len(mags)
    return list(masks)


def binarize(mask: np.ndarray) -> np.ndarray:
    """Threshold a soft mask at IBM_THRESHOLD, strictly, into a bool mask (an
    eighth of float64's memory); exact ties go to False."""
    return np.asarray(mask, dtype=np.float64) > IBM_THRESHOLD


def apply_mask(spec: ComplexSpectrogram, mask: np.ndarray) -> ComplexSpectrogram:
    """The mixture's masked magnitude recombined with its phase."""
    mask = np.asarray(mask, dtype=np.float64)
    if mask.shape != spec.bins.shape:
        raise ValueError(f"shape mismatch: spectrogram {spec.bins.shape}, mask {mask.shape}")
    return replace(spec, bins=(mask * magnitude(spec)) * np.exp(1j * phase(spec)))
