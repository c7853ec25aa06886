"""Grayscale image helpers, the ISNR metric, and the window-mean kernel.

Images are plain 2-D float64 numpy arrays, row-major, immutable by
convention.  Window sums add the window's entries directly, one axis at
a time, over a block the caller has already padded, so every window
covers exactly w*w samples and no partial sum grows with the image.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, WindowTooLarge

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


def isnr(clean: np.ndarray, observed: np.ndarray, restored: np.ndarray) -> float:
    """Improvement in SNR of the restoration over the observation, dB."""
    if not clean.shape == observed.shape == restored.shape:
        raise DimensionMismatch("isnr inputs differ in shape")
    num = float(np.sum((clean - observed) ** 2))
    den = float(np.sum((clean - restored) ** 2))
    if den == 0.0:
        return float(np.inf)
    return 10.0 * np.log10(num / den)


def box_mean(padded: np.ndarray, w: int, out: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Valid-mode mean over every w*w window of an already padded block.

    out[i, j] becomes the mean of padded[i : i + w, j : j + w], so padded
    has w - 1 more rows and columns than out.  Separable direct sums: the
    w shifted row slices of padded are added into rows (the caller's
    scratch, out's height by padded's width), then the w shifted column
    slices of rows into out, which is divided by w*w.  O(w) work per
    pixel; each sum adds only the window's own entries, so its rounding
    does not grow with the image.  Returns out.
    """
    validate_window(w)
    n, wd = out.shape
    pw = wd + w - 1
    if padded.shape != (n + w - 1, pw) or rows.shape != (n, pw):
        raise ValueError(
            f"window {w}: padded {padded.shape} and rows {rows.shape} do not fit out {out.shape}"
        )
    if w == 1:
        np.copyto(out, padded)
        return out
    np.add(padded[:n], padded[1 : n + 1], out=rows)
    for i in range(2, w):
        rows += padded[i : i + n]
    np.add(rows[:, :wd], rows[:, 1 : wd + 1], out=out)
    for j in range(2, w):
        out += rows[:, j : j + wd]
    out /= float(w * w)
    return out
