"""Zigzag scan order for 8x8 (or general NxN) DCT coefficient blocks.

The zigzag scan orders coefficients from low to high spatial frequency so
that the long runs of zeros produced by quantization end up contiguous,
which is what makes the deflate stage effective.
"""

import functools

import numpy as np


@functools.lru_cache(maxsize=None)
def zigzag_indices(n: int = 8) -> tuple:
    """Return (rows, cols) index arrays for the zigzag scan of an n x n block.

    The result is cached; callers may treat the arrays as immutable.
    """
    if n < 1:
        raise ValueError(f"block size must be >= 1, got {n}")
    coords = []
    for s in range(2 * n - 1):
        # Diagonal s holds cells with row + col == s; direction alternates.
        diag = [(i, s - i) for i in range(max(0, s - n + 1), min(s, n - 1) + 1)]
        if s % 2 == 0:
            diag.reverse()
        coords.extend(diag)
    rows = np.array([r for r, _ in coords], dtype=np.intp)
    cols = np.array([c for _, c in coords], dtype=np.intp)
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols


@functools.lru_cache(maxsize=None)
def _inverse_scan(n: int) -> np.ndarray:
    """Zigzag position of each row-major cell of an n x n block.

    ``flat[..., _inverse_scan(n)]`` lays zigzag-ordered coefficients out
    row-major in one gather.  Cached and read-only, like
    :func:`zigzag_indices`.
    """
    rows, cols = zigzag_indices(n)
    order = np.argsort(rows * n + cols).astype(np.intp)
    order.setflags(write=False)
    return order


def zigzag_order(block: np.ndarray) -> np.ndarray:
    """Flatten a square block (or stack of blocks) into zigzag order.

    ``block`` may be shaped ``(n, n)`` or ``(k, n, n)``; the scan applies to
    the trailing two axes.
    """
    n = block.shape[-1]
    if block.shape[-2] != n:
        raise ValueError(f"expected square trailing axes, got {block.shape}")
    rows, cols = zigzag_indices(n)
    return block[..., rows, cols]


def inverse_zigzag(flat: np.ndarray, n: int = 8) -> np.ndarray:
    """Rebuild square block(s) from zigzag-ordered coefficients.

    ``flat`` may be shaped ``(n*n,)`` or ``(k, n*n)``.
    """
    if flat.shape[-1] != n * n:
        raise ValueError(f"expected trailing axis of {n * n}, got {flat.shape}")
    return flat[..., _inverse_scan(n)].reshape(flat.shape[:-1] + (n, n))
