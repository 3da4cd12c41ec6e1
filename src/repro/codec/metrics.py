"""Image fidelity metrics for codec evaluation."""

import math

import numpy as np

from repro.utils.floats import is_exact_zero


def mse(reference: np.ndarray, candidate: np.ndarray) -> float:
    """Mean squared error between two images of identical shape."""
    if reference.shape != candidate.shape:
        raise ValueError(
            f"shape mismatch: {reference.shape} vs {candidate.shape}"
        )
    diff = reference.astype(np.float64) - candidate.astype(np.float64)
    return float((diff * diff).mean())


def psnr(reference: np.ndarray, candidate: np.ndarray, peak: float = 255.0) -> float:
    """Peak signal-to-noise ratio in dB (inf for identical images)."""
    error = mse(reference, candidate)
    # Bit-exact zero is meaningful here: identical integer images really do
    # have zero MSE, and "nearly zero" must still produce a finite PSNR.
    if is_exact_zero(error):
        return math.inf
    return 10.0 * math.log10(peak * peak / error)
