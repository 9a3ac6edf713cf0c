"""Filter spectrum analysis: summed 2-D DFT magnitudes of a kernel bank.

Each kernel is zero-padded to pad x pad and transformed with the FFT.
Classification compares the energy inside the DC-centered disk of
radius pad/8 against the total: > 0.5 lowpass, < 0.1 highpass,
bandpass in between.
"""

from __future__ import annotations

import numpy as np

LOWPASS_THRESHOLD = 0.5
HIGHPASS_THRESHOLD = 0.1


def dft2_direct(kernel: np.ndarray, pad: int) -> np.ndarray:
    """2-D DFT of the kernel zero-padded to pad x pad; returns the complex grid."""
    k = np.asarray(kernel, dtype=np.float64)
    if k.ndim != 2:
        raise ValueError("kernel must be a 2-D array")
    if pad < max(k.shape):
        raise ValueError(f"pad {pad} smaller than kernel {k.shape}")
    padded = np.zeros((pad, pad))
    padded[: k.shape[0], : k.shape[1]] = k
    return np.fft.fft2(padded)


def low_frequency_energy_ratio(magnitude: np.ndarray) -> float:
    """Squared-magnitude energy inside the wrapped disk of radius pad/8."""
    pad = magnitude.shape[0]
    freq = np.arange(pad)
    dist = np.minimum(freq, pad - freq).astype(np.float64)  # distance to DC
    rr = dist[:, None] ** 2 + dist[None, :] ** 2
    disk = rr <= (pad / 8.0) ** 2
    total = float(np.sum(magnitude**2))
    if total == 0.0:
        return 0.0
    return float(np.sum(magnitude[disk] ** 2) / total)


def classify(ratio: float) -> str:
    if ratio > LOWPASS_THRESHOLD:
        return "lowpass"
    if ratio < HIGHPASS_THRESHOLD:
        return "highpass"
    return "bandpass"


def spectrum(kernels, pad: int):
    """Sum of DFT magnitudes over the kernel bank plus a band label.

    Returns (magnitude grid, classification, low-frequency ratio).
    """
    kernels = [np.asarray(k, dtype=np.float64) for k in kernels]
    if not kernels:
        raise ValueError("empty kernel list")
    if not all(np.isfinite(k).all() for k in kernels):
        raise ValueError("kernel entries must be finite")
    total = np.zeros((pad, pad))
    for k in kernels:
        total += np.abs(dft2_direct(k, pad))
    ratio = low_frequency_energy_ratio(total)
    return total, classify(ratio), ratio


def spectrum_csv(magnitude: np.ndarray) -> str:
    """Grid as plain CSV rows for external plotting."""
    return "\n".join(",".join(repr(v) for v in row) for row in magnitude) + "\n"
