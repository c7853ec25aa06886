"""Shared helpers: seeded random images, brute-force oracles, the
circular differences and their divergence, full-plane spectral
references, and a procedurally generated natural-looking test image so
the suite needs no image assets."""

from __future__ import annotations

import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from gfdeblur.errors import DimensionMismatch
from gfdeblur.guided_filter import GfParams
from gfdeblur.image_core import box_mean
from gfdeblur.spectral import (
    Psf,
    SpectralPlan,
    _embed_psf,
    discrepancy_from_terms,
    discrepancy_terms,
)


# PGM headers the reader refuses, each with the message naming the byte
# offset or the value: a truncated header, no payload byte after it, a
# zero dimension, and a maxval of 0 or beyond 16 bits.
BAD_PGM_HEADERS = [
    (b"P5\n4", "truncated header at byte 4"),
    (b"P5\n1 1\n255", "missing payload after header at byte 10"),
    (b"P5\n0 1\n255\n", "bad dimensions 0x1"),
    (b"P5\n1 1\n0\n\x00", "bad maxval 0"),
    (b"P5\n1 1\n65536\n\x00\x00", "bad maxval 65536"),
]


def rand_image(seed: int, shape=(16, 16), lo=0.0, hi=255.0) -> np.ndarray:
    gen = np.random.default_rng(seed)
    return gen.uniform(lo, hi, size=shape)


def rand_int_image(seed: int, shape=(16, 16)) -> np.ndarray:
    gen = np.random.default_rng(seed)
    return gen.integers(0, 256, size=shape).astype(np.float64)


def mirror_index(i: int, n: int) -> int:
    """Symmetric (edge-duplicating) extension index, matching np.pad."""
    while i < 0 or i >= n:
        if i < 0:
            i = -i - 1
        else:
            i = 2 * n - 1 - i
    return i


def window_values(img: np.ndarray, cy: int, cx: int, w: int) -> np.ndarray:
    """Gather the w*w mirror-extended window centered at (cy, cx)."""
    r = (w - 1) // 2
    h, wd = img.shape
    out = np.empty((w, w))
    for dy in range(-r, r + 1):
        for dx in range(-r, r + 1):
            out[dy + r, dx + r] = img[mirror_index(cy + dy, h), mirror_index(cx + dx, wd)]
    return out


def box_sum_bruteforce(img: np.ndarray, w: int) -> np.ndarray:
    """Add all w*w window entries, gathered through mirror_index, at
    every pixel at once (no separable pass, no np.pad)."""
    r = (w - 1) // 2
    h, wd = img.shape
    ext = img[np.ix_([mirror_index(i, h) for i in range(-r, h + r)],
                     [mirror_index(j, wd) for j in range(-r, wd + r)])]
    out = np.zeros_like(img)
    for dy in range(w):
        for dx in range(w):
            out += ext[dy : dy + h, dx : dx + wd]
    return out


def box_mean_padded(img: np.ndarray, w: int) -> np.ndarray:
    """Window means of the whole image: the box_mean kernel applied once
    to np.pad(img, r, mode="symmetric")."""
    padded = np.pad(img, (w - 1) // 2, mode="symmetric")
    rows = np.empty((img.shape[0], padded.shape[1]))
    return box_mean(padded, w, np.empty(img.shape), rows)


def guidfilter_unfused(guide: np.ndarray, src: np.ndarray, params: GfParams,
                       centre: bool = True) -> np.ndarray:
    """The guided filter as whole-image passes, one image-sized array per
    statistic: the reference the strip-fused guidfilter must match bit for
    bit, since both add every pixel's terms in the same order.  With
    centre False the images are filtered as given, as smooth_gradients
    filters its differences."""
    w = params.win
    self_guided = src is guide
    guide_mean = guide.mean() if centre else 0.0
    src_mean = guide_mean if self_guided or not centre else src.mean()
    guide = guide - guide_mean
    src = guide if self_guided else src - src_mean
    mean_g = box_mean_padded(guide, w)
    var_g = box_mean_padded(guide * guide, w)
    var_g -= mean_g * mean_g
    if self_guided:
        mean_s, a = mean_g, var_g.copy()
    else:
        mean_s = box_mean_padded(src, w)
        a = box_mean_padded(guide * src, w)
        a -= mean_g * mean_s
    np.maximum(var_g, 0.0, out=var_g)
    var_g += params.eps
    a /= var_g
    b = a * mean_g
    np.subtract(mean_s, b, out=b)
    out = box_mean_padded(a, w)
    out *= guide
    out += box_mean_padded(b, w)
    out += src_mean
    return out


def diff_x(img: np.ndarray) -> np.ndarray:
    """Forward difference along columns with circular wrap."""
    return np.roll(img, -1, axis=1) - img


def diff_y(img: np.ndarray) -> np.ndarray:
    """Forward difference along rows with circular wrap."""
    return np.roll(img, -1, axis=0) - img


def divergence(vx: np.ndarray, vy: np.ndarray) -> np.ndarray:
    """Dx^T vx + Dy^T vy: the adjoint of the circular forward differences,
    a backward-difference divergence, as the guidance solve takes it.
    Each pixel is ((vx[i, j-1] - vx[i, j]) + vy[i-1, j]) - vy[i, j]."""
    adj = np.roll(vx, 1, axis=1)
    adj -= vx
    adj[1:] += vy[:-1]
    adj[0] += vy[-1]
    adj -= vy
    return adj


def smooth_gradients_unfused(v: np.ndarray, params: GfParams) -> np.ndarray:
    """smooth_gradients as a composition of whole images: the uncentred
    self-guided filter of each circular forward difference, then their
    divergence; the fused strip pass must match it bit for bit."""
    dx, dy = diff_x(v), diff_y(v)
    return divergence(guidfilter_unfused(dx, dx, params, centre=False),
                      guidfilter_unfused(dy, dy, params, centre=False))


def guidfilter_bruteforce(guide: np.ndarray, src: np.ndarray, w: int, eps: float):
    """Direct per-window ridge regression plus coefficient averaging.

    Each window's (a, b) comes from solving the 2x2 normal equations of
    the penalized least squares directly, an independent route from the
    covariance/box-sum formulas in the implementation.
    """
    h, wd = guide.shape
    a = np.empty_like(guide)
    b = np.empty_like(guide)
    for y in range(h):
        for x in range(wd):
            gi = window_values(guide, y, x, w).ravel()
            pi = window_values(src, y, x, w).ravel()
            m = np.array([
                [np.mean(gi * gi) + eps, np.mean(gi)],
                [np.mean(gi), 1.0],
            ])
            rhs = np.array([np.mean(gi * pi), np.mean(pi)])
            ab = np.linalg.solve(m, rhs)
            a[y, x] = ab[0]
            b[y, x] = ab[1]
    out = np.empty_like(guide)
    for y in range(h):
        for x in range(wd):
            out[y, x] = (
                np.mean(window_values(a, y, x, w)) * guide[y, x]
                + np.mean(window_values(b, y, x, w))
            )
    return out


def psf_spectrum(psf: Psf, height: int, width: int) -> np.ndarray:
    """Full-plane spectrum of the PSF embedded in a height x width canvas."""
    return np.fft.fft2(_embed_psf(psf, height, width))


def derivative_spectra(height: int, width: int):
    """Full-plane spectra of the circular forward-difference operators.

    dx: u(i, j+1) - u(i, j);  dy: u(i+1, j) - u(i, j).
    """
    kx = np.arange(width)
    ky = np.arange(height)
    dx_row = np.exp(2j * np.pi * kx / width) - 1.0
    dy_col = np.exp(2j * np.pi * ky / height) - 1.0
    dx = np.tile(dx_row, (height, 1))
    dy = np.tile(dy_col[:, None], (1, width))
    return dx, dy


def _check_same_shape(*imgs):
    shapes = {im.shape for im in imgs}
    if len(shapes) > 1:
        raise DimensionMismatch(f"images differ in shape: {sorted(shapes)}")


def discrepancy(g, psf: Psf, v, lam: float) -> float:
    """Squared data-fit residual ||h * u_p(lam) - g||^2 of the input solve
    at lam > 0, over the full spectrum: the reference for the plan's
    half-plane discrepancy_terms and discrepancy_from_terms.

    h * u_p - g has spectrum lam (H F(v) - F(g)) / (|H|^2 + lam); its
    spatial squared norm is the spectral one over npix (Parseval).
    """
    _check_same_shape(g, v)
    H = psf_spectrum(psf, *g.shape)
    r = lam * (H * np.fft.fft2(v) - np.fft.fft2(g)) / (np.abs(H) ** 2 + lam)
    return float(np.sum(np.abs(r) ** 2) / g.size)


def plan_discrepancy(g, psf: Psf, v):
    """The restorer's discrepancy curve, lam -> residual, from the plan."""
    plan = SpectralPlan(g, psf)
    a, b = plan.H_sq(np.empty(plan.shape)), discrepancy_terms(plan, plan.spectrum(v))
    return lambda lam: discrepancy_from_terms(a, b, plan.npix, lam)


# The names run_gfd calls its stages by, in gfdeblur.pipeline.
STAGES = ("compute_rho", "choose_lambda", "solve_input", "solve_guidance",
          "guidfilter", "smooth_gradients")


def stage_peaks(g, psf, cfg) -> dict:
    """Restore g under tracemalloc with each of pipeline's STAGES wrapped:
    the traced peak inside each stage, over all its calls, and over the
    whole restore ("run_gfd"), in images of g.size * 8 bytes.  A stage's
    peak counts everything live while it runs, not only its own arrays."""
    from gfdeblur import pipeline

    peaks = dict.fromkeys(STAGES + ("run_gfd",), 0)

    def staged(name, fn):
        def call(*args, **kwargs):
            # reset_peak drops the restore's peak so far; keep it first.
            peaks["run_gfd"] = max(peaks["run_gfd"], tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            try:
                return fn(*args, **kwargs)
            finally:
                peaks[name] = max(peaks[name], tracemalloc.get_traced_memory()[1])
        return call

    originals = {name: getattr(pipeline, name) for name in STAGES}
    for name, fn in originals.items():
        setattr(pipeline, name, staged(name, fn))
    tracemalloc.start()
    try:
        pipeline.run_gfd(g, psf, cfg)
        peaks["run_gfd"] = max(peaks["run_gfd"], tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
        for name, fn in originals.items():
            setattr(pipeline, name, fn)
    return {name: peak / (g.size * 8) for name, peak in peaks.items()}


def natural_image(seed: int = 7, size: int = 256) -> np.ndarray:
    """Smooth background plus blocks, disks, and mild texture in [0, 255]."""
    gen = np.random.default_rng(seed)
    y, x = np.mgrid[0:size, 0:size].astype(np.float64) / size
    img = 110.0 + 60.0 * np.sin(2 * np.pi * x * 1.3) * np.cos(2 * np.pi * y * 0.8)
    img += 30.0 * np.sin(2 * np.pi * (x + y) * 2.1)
    for _ in range(10):
        cy, cx = gen.integers(0, size, 2)
        hh, ww = gen.integers(size // 16, size // 4, 2)
        img[cy : cy + hh, cx : cx + ww] += gen.uniform(-80, 80)
    for _ in range(8):
        cy, cx = gen.uniform(0, size, 2)
        rad = gen.uniform(size / 32, size / 8)
        yy, xx = np.mgrid[0:size, 0:size]
        img[(yy - cy) ** 2 + (xx - cx) ** 2 < rad**2] += gen.uniform(-60, 60)
    img += gen.normal(0.0, 2.0, size=img.shape)  # mild texture
    return np.clip(img, 0.0, 255.0)


def asset_path(name: str) -> Path | None:
    """Locate a canonical test image (user-supplied, not shipped)."""
    for root in (os.environ.get("GFD_ASSETS"), Path(__file__).parent / "assets"):
        if root is None:
            continue
        p = Path(root) / name
        if p.exists():
            return p
    return None


def require_asset(name: str) -> Path:
    p = asset_path(name)
    if p is None:
        pytest.skip(f"canonical image {name} not supplied (set GFD_ASSETS or tests/assets/)")
    return p
