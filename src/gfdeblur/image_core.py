"""Grayscale image helpers and windowed box sums.

Images are plain 2-D float64 numpy arrays, row-major, immutable by
convention.  Window sums add the window's entries directly, one axis at
a time, over a symmetric (mirror) extension, so every window covers
exactly w*w samples and no partial sum grows with the image.
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


def check_window_fits(w: int, shape) -> None:
    """validate_window, then WindowTooLarge if w exceeds either side."""
    validate_window(w)
    h, wd = shape
    if w > h or w > wd:
        raise WindowTooLarge(f"window {w} exceeds image dimensions {h}x{wd}")


def centered_sq_norm(img: np.ndarray) -> float:
    """Sum of squared deviations from the image mean."""
    d = img - img.mean()
    return float(np.dot(d.ravel(), d.ravel()))


def box_sum(img: np.ndarray, w: int) -> np.ndarray:
    """Sum over the w*w window centered at each pixel, mirror boundaries.

    Separable direct sums: the w shifted row slices of the padded image
    are added into one array, then the w shifted column slices of that
    into the output.  O(w) work per pixel; each sum adds only the
    window's own entries, so its rounding does not grow with the image.
    """
    check_window_fits(w, img.shape)
    if w == 1:
        return img.copy()
    h, wd = img.shape
    padded = np.pad(img, (w - 1) // 2, mode="symmetric")
    rows = padded[:h] + padded[1 : h + 1]
    for i in range(2, w):
        rows += padded[i : i + h]
    out = rows[:, :wd] + rows[:, 1 : wd + 1]
    for j in range(2, w):
        out += rows[:, j : j + wd]
    return out


def box_mean(img: np.ndarray, w: int) -> np.ndarray:
    out = box_sum(img, w)
    out /= float(w * w)
    return out
