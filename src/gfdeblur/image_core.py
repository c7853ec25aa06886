"""Grayscale image helpers and O(1)-per-pixel windowed box sums.

Images are plain 2-D float64 numpy arrays, row-major, immutable by
convention.  Window sums use a summed-area table over a symmetric
(mirror) extension, so every window covers exactly w*w samples.
"""

from __future__ import annotations

import numpy as np

from .errors import WindowTooLarge


def as_image(data) -> np.ndarray:
    """Validate and return a 2-D float64 image array."""
    img = np.asarray(data, dtype=np.float64)
    if img.ndim != 2 or img.shape[0] < 1 or img.shape[1] < 1:
        raise ValueError("image must be a non-empty 2-D array")
    if not np.all(np.isfinite(img)):
        raise ValueError("image contains non-finite values")
    return img


def validate_window(w: int) -> int:
    """Check that a window side length is an odd positive integer."""
    if not isinstance(w, (int, np.integer)) or w < 1 or w % 2 == 0:
        raise ValueError(f"window side must be an odd positive integer, got {w!r}")
    return int(w)


def centered_sq_norm(img: np.ndarray) -> float:
    """Sum of squared deviations from the image mean."""
    d = img - img.mean()
    return float(np.dot(d.ravel(), d.ravel()))


def box_sum(img: np.ndarray, w: int) -> np.ndarray:
    """Sum over the w*w window centered at each pixel, mirror boundaries.

    Computed with a summed-area table in double precision; O(1) work per
    pixel independent of w.
    """
    validate_window(w)
    h, wd = img.shape
    if w > h or w > wd:
        raise WindowTooLarge(f"window {w} exceeds image dimensions {h}x{wd}")
    if w == 1:
        return img.copy()
    r = (w - 1) // 2
    padded = np.pad(img, r, mode="symmetric")
    sat = np.zeros((padded.shape[0] + 1, padded.shape[1] + 1), dtype=np.float64)
    inner = sat[1:, 1:]
    np.cumsum(padded, axis=0, out=inner)
    np.cumsum(inner, axis=1, out=inner)
    return sat[w:, w:] - sat[:-w, w:] - sat[w:, :-w] + sat[:-w, :-w]


def box_mean(img: np.ndarray, w: int) -> np.ndarray:
    return box_sum(img, w) / float(w * w)
