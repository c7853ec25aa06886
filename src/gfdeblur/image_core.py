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
    """Improvement in SNR of the restoration over the observation, dB:
    10 log10(||clean - observed||^2 / ||clean - restored||^2).  An exact
    restore of an inexact observation scores +inf, and an inexact restore
    of an exact observation (or one whose ratio underflows) -inf, without
    a warning.  An exact restore of an exact observation scores 0 dB, as
    a restore equal to the observation does: nothing was gained or lost.
    """
    if not clean.shape == observed.shape == restored.shape:
        raise DimensionMismatch("isnr inputs differ in shape")
    num = float(np.sum((clean - observed) ** 2))
    den = float(np.sum((clean - restored) ** 2))
    if den == 0.0:
        return 0.0 if num == 0.0 else float(np.inf)
    ratio = num / den
    if ratio == 0.0:
        return float(-np.inf)
    return 10.0 * np.log10(ratio)


def box_mean(padded: np.ndarray, w: int, n: int, wd: int, out: np.ndarray,
             rows: np.ndarray) -> np.ndarray:
    """Valid-mode mean over every w*w window of an already padded block,
    over flat ranges with row pitch pw = wd + w - 1.

    padded holds n + w - 1 rows of pw samples, row i from element i*pw.
    out[i*pw + j] becomes the mean of the window whose top-left sample is
    padded[i*pw + j], for i < n and j < wd; out's range is
    (n - 1)*pw + wd elements and rows' (the caller's scratch) n*pw.
    Separable direct sums: the w row-shifted ranges of padded are added
    into rows, then the w element-shifted ranges of rows into out, which
    is divided by w*w.  Every pass is one flat loop, where a 2-D view
    with a pitch wider than its rows would make numpy run one inner loop
    per row (and buffer each strided operand).  The lanes j >= wd of out
    are scratch: their windows wrap into the next row, so they hold sums
    of real samples that no valid lane reads.  O(w) work per pixel; each
    sum adds only the window's own entries, so its rounding does not
    grow with the image.  Returns out's range.
    """
    validate_window(w)
    pw = wd + w - 1
    size = (n - 1) * pw + wd
    if (n < 1 or wd < 1 or (padded.ndim, rows.ndim, out.ndim) != (1, 1, 1)
            or len(padded) < (n + w - 1) * pw or len(rows) < n * pw or len(out) < size):
        raise ValueError(
            f"window {w} over {n}x{wd}: padded {padded.shape}, rows {rows.shape} and out "
            f"{out.shape} must be flat ranges of at least {(n + w - 1) * pw}, {n * pw} and "
            f"{size} elements"
        )
    out = out[:size]
    if w == 1:
        np.copyto(out, padded[:size])
        return out
    rows = rows[: n * pw]
    np.add(padded[: n * pw], padded[pw : pw + n * pw], out=rows)
    for i in range(2, w):
        rows += padded[i * pw : i * pw + n * pw]
    np.add(rows[:size], rows[1 : size + 1], out=out)
    for j in range(2, w):
        out += rows[j : j + size]
    out /= float(w * w)
    return out
