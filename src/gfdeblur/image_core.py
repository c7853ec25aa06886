"""Grayscale image helpers, the ISNR metric, and windowed box means.

Images are plain 2-D float64 numpy arrays, row-major, immutable by
convention.  Window sums add the window's entries directly, one axis at
a time, over a symmetric (mirror) extension, so every window covers
exactly w*w samples and no partial sum grows with the image.  They run
one horizontal strip of rows at a time, each strip's mirror-padded rows
about STRIP_BYTES, so a strip's passes stay in cache and the output is
the only image-sized array.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, WindowTooLarge

# Bytes of padded rows per box_mean strip.  With the row sums and the
# output rows beside them a strip's working set is about three times
# this, which fits a 2 MiB per-core L2.
STRIP_BYTES = 512 * 1024


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


def box_mean(img: np.ndarray, w: int) -> np.ndarray:
    """Mean over the w*w window centered at each pixel, mirror boundaries.

    Separable direct sums: the w shifted row slices of the padded image
    are added into one array, then the w shifted column slices of that
    into the output, which is divided by w*w while the strip is in
    cache.  O(w) work per pixel; each sum adds only the window's own
    entries, so its rounding does not grow with the image.

    Rows are taken in strips of near-equal height.  Each strip copies
    only its own rows plus r = (w - 1) // 2 neighbours into a reused
    buffer and mirrors them there as np.pad(mode="symmetric") would:
    rows at the image's top and bottom, columns at both sides; between
    strips the neighbours are real rows.  Every output pixel gets the
    same additions in the same order as one pass over the whole padded
    image, so the result does not depend on the strip height.
    """
    check_window_fits(w, img.shape)
    if w == 1:
        return img.copy()
    h, wd = img.shape
    r = (w - 1) // 2
    pw = wd + 2 * r
    n_strips = -(-h // max(1, STRIP_BYTES // (pw * img.itemsize)))
    bounds = [h * k // n_strips for k in range(n_strips + 1)]
    n_max = -(-h // n_strips)
    # Both strip buffers are reused and allocated before out: a strip
    # temporary allocated after out and freed on every strip lets the
    # heap top be trimmed and refaulted, ~10% of a 256^2 restore.
    pad = np.empty((n_max + 2 * r, pw), dtype=img.dtype)
    rows = np.empty((n_max, pw), dtype=img.dtype)
    out = np.empty((h, wd), dtype=img.dtype)
    for i0, i1 in zip(bounds, bounds[1:]):
        n = i1 - i0
        lo, hi = max(0, i0 - r), min(h, i1 + r)
        top = lo - (i0 - r)
        end = top + hi - lo
        p = pad[: n + 2 * r]
        p[top:end, r : r + wd] = img[lo:hi]
        p[:top] = p[top : 2 * top][::-1]
        p[end:] = p[2 * end - len(p) : end][::-1]
        p[:, :r] = p[:, r : 2 * r][:, ::-1]
        p[:, r + wd :] = p[:, wd : r + wd][:, ::-1]
        s = rows[:n]
        np.add(p[:n], p[1 : n + 1], out=s)
        for i in range(2, w):
            s += p[i : i + n]
        o = out[i0:i1]
        np.add(s[:, :wd], s[:, 1 : wd + 1], out=o)
        for j in range(2, w):
            o += s[:, j : j + wd]
        o /= float(w * w)
    return out
