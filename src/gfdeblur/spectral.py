"""Frequency-domain machinery: circular convolution, PSF embedding,
forward-difference operator spectra, and the two closed-form
Tikhonov-style deblurring solves.

All boundary handling is periodic (circular wrap), which is what makes
the FFT diagonalization of the blur and derivative operators exact.
The spatial squared norm of an image equals sum(|F(x)|^2) / npix under
numpy's unnormalized forward FFT; the discrepancy evaluation includes
that factor so spectral and spatial values agree.

Everything runs on the rfft2 half-plane (columns 0 .. width // 2): a
real image's spectrum is Hermitian, so the half-plane holds all of it;
discrepancy_terms weights column 0 once, interior columns twice and, for
even widths, column width / 2 once to recover full-plane sums of
|F(x)|^2.  Every inverse takes two steps, ifft over the columns in the
spectrum's own buffer, then irfft over the rows into the output image;
this is irfft2 told the image shape, bit for bit, without its image-sized
working copies.  The guidance solve transforms divergence(vx, vy), whose
spectrum is conj(Dx) F(vx) + conj(Dy) F(vy): a circular forward
difference's adjoint is the backward one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, KernelTooLarge, SingularDenominator

# lambda = infinity: the pre-estimate v meets the discrepancy bound within
# the bisection's tolerance, and the restore loop takes both solves to be v.
INFINITY = math.inf

# Half-plane elements per row block of the per-frequency loops, which
# form their complex products a block at a time rather than as one
# image-sized temporary.
BLOCK_ELEMENTS = 64 * 1024


@dataclass(frozen=True, eq=False)
class Psf:
    """Small centered convolution kernel, normalized to unit sum."""

    taps: np.ndarray = field()

    def __post_init__(self):
        taps = np.asarray(self.taps, dtype=np.float64)
        if taps.ndim != 2:
            raise ValueError("PSF taps must be 2-D")
        kh, kw = taps.shape
        if kh % 2 == 0 or kw % 2 == 0:
            raise ValueError(f"PSF dimensions must be odd, got {kh}x{kw}")
        if not np.all(np.isfinite(taps)):
            raise ValueError("PSF taps must be finite")
        if not np.any(taps):
            raise ValueError("PSF must have at least one nonzero tap")
        if abs(taps.sum() - 1.0) > 1e-12:
            raise ValueError("PSF taps must sum to 1; use Psf.from_taps to normalize")
        object.__setattr__(self, "taps", taps)

    @classmethod
    def from_taps(cls, taps) -> "Psf":
        """Build a PSF from raw weights, normalizing to unit sum."""
        taps = np.asarray(taps, dtype=np.float64)
        s = taps.sum()
        if s == 0.0:
            raise ValueError("PSF taps sum to zero; cannot normalize")
        return cls(taps / s)

    @classmethod
    def delta(cls) -> "Psf":
        return cls(np.ones((1, 1)))

    @property
    def shape(self):
        return self.taps.shape


def _embed_psf(psf: Psf, height: int, width: int) -> np.ndarray:
    """The PSF placed on a height x width canvas, center tap at the origin.

    The kernel wraps circularly, so pointwise multiplication by the
    canvas spectrum implements centered circular convolution.
    """
    kh, kw = psf.shape
    if kh > height or kw > width:
        raise KernelTooLarge(
            f"PSF {kh}x{kw} does not fit canvas {height}x{width}"
        )
    canvas = np.zeros((height, width), dtype=np.float64)
    cy, cx = kh // 2, kw // 2
    rows = (np.arange(kh) - cy) % height
    cols = (np.arange(kw) - cx) % width
    canvas[np.ix_(rows, cols)] += psf.taps
    return canvas


def _rfft2(img: np.ndarray, out=None) -> np.ndarray:
    """rfft2 of img into out, a new half-plane if None.  Given its output,
    rfft2 makes no image-sized working copy; without, it makes two."""
    if out is None:
        height, width = img.shape
        out = np.empty((height, width // 2 + 1), dtype=np.complex128)
    return np.fft.rfft2(img, out=out)


def _irfft2(spec: np.ndarray, width: int, out=None) -> np.ndarray:
    """irfft2(spec, s=(height, width)) into out, a new image if None, in
    two steps: ifft over the columns in spec's own buffer, which it
    overwrites, then irfft over the rows.  The same transforms as irfft2,
    bit for bit, without its two image-sized working copies (irfft2
    ignores out=)."""
    np.fft.ifft(spec, axis=0, out=spec)
    return np.fft.irfft(spec, n=width, axis=1, out=out)


def circ_convolve(img: np.ndarray, psf: Psf) -> np.ndarray:
    """Centered circular convolution of an image with a PSF."""
    psf_hat = _rfft2(_embed_psf(psf, *img.shape))
    spec = _rfft2(img)
    spec *= psf_hat
    return _irfft2(spec, img.shape[1])


def diff_x(img: np.ndarray) -> np.ndarray:
    """Forward difference along columns with circular wrap."""
    return np.roll(img, -1, axis=1) - img


def diff_y(img: np.ndarray) -> np.ndarray:
    """Forward difference along rows with circular wrap."""
    return np.roll(img, -1, axis=0) - img


class SpectralPlan:
    """The loop invariants of one restore of g blurred by psf, stored on
    the rfft2 half-plane (columns 0 .. width // 2).

    H, |H|^2 and F(g), the Parseval column weights that discrepancy_terms
    folds into b, and the closed-form |Dx|^2 + |Dy|^2 as its two factors:
    Dy_sq, shape (height, 1), and Dx_sq, shape (width // 2 + 1,), which
    broadcast to the half-plane sum.  The solves form conj(H) F(g) a row
    block at a time.
    """

    __slots__ = ("shape", "H", "H_sq", "G", "Dy_sq", "Dx_sq", "weights")

    def __init__(self, g: np.ndarray, psf: Psf):
        height, width = self.shape = g.shape
        self.H = _rfft2(_embed_psf(psf, height, width))
        self.H_sq = self.H.real ** 2 + self.H.imag ** 2
        self.G = _rfft2(g)
        kx = np.arange(width // 2 + 1)
        ky = np.arange(height)
        # |exp(i t) - 1|^2 = 4 sin^2(t / 2)
        self.Dy_sq = (4.0 * np.sin(np.pi * ky / height) ** 2)[:, None]
        self.Dx_sq = 4.0 * np.sin(np.pi * kx / width) ** 2
        self.weights = np.full(width // 2 + 1, 2.0)
        self.weights[0] = 1.0
        if width % 2 == 0:
            self.weights[-1] = 1.0

    @property
    def npix(self) -> int:
        return self.shape[0] * self.shape[1]

    def spectrum(self, img: np.ndarray, out=None) -> np.ndarray:
        """Half-plane spectrum of an image of the plan's shape, written into
        out (a new half-plane if None)."""
        self._check_images(img)
        if out is not None:
            self._check_spectrum(out)
        return _rfft2(img, out)

    def _row_blocks(self):
        """Row slices of the half-plane, about BLOCK_ELEMENTS each."""
        height, cols = self.H.shape
        step = max(1, BLOCK_ELEMENTS // cols)
        return [slice(i, i + step) for i in range(0, height, step)]

    def _add_conj_H_G(self, spec: np.ndarray) -> None:
        """spec += conj(H) F(g), in place, a row block at a time."""
        for blk in self._row_blocks():
            spec[blk] += np.conj(self.H[blk]) * self.G[blk]

    def _check_images(self, *imgs) -> None:
        """Each image has the plan's shape; None, an output not given, passes."""
        for im in imgs:
            if im is not None and im.shape != self.shape:
                raise DimensionMismatch(f"image {im.shape} differs from plan {self.shape}")

    def _check_spectrum(self, img_hat) -> None:
        if img_hat.shape != self.H.shape:
            raise DimensionMismatch(
                f"spectrum {img_hat.shape} is not the plan's half-plane {self.H.shape}"
            )


def divergence(vx: np.ndarray, vy: np.ndarray) -> np.ndarray:
    """Dx^T vx + Dy^T vy: the adjoint of the circular forward differences,
    a backward-difference divergence.  Each pixel is
    ((vx[i, j-1] - vx[i, j]) + vy[i-1, j]) - vy[i, j]."""
    adj = np.roll(vx, 1, axis=1)
    adj -= vx
    adj[1:] += vy[:-1]
    adj[0] += vy[-1]
    adj -= vy
    return adj


def _check_lambda(lam) -> None:
    if not 0 < lam < INFINITY:
        raise ValueError(f"lambda must be finite and positive, got {lam!r}")


def solve_guidance(plan: SpectralPlan, div, lam, spec=None, out=None):
    """Closed-form guidance solve: data fit plus gradient-matching prior.

    Minimizes ||h * u - g||^2 + lam (||dx u - vx||^2 + ||dy u - vy||^2)
    in the Fourier domain, for finite lam > 0, given the prior's
    gradients only as div = divergence(vx, vy).  div is transformed into
    spec, a half-plane buffer the solve overwrites (a new one if None),
    and u is written into out (a new image if None), which may be div.
    """
    plan._check_images(div, out)
    _check_lambda(lam)
    denom = plan.Dy_sq + plan.Dx_sq
    denom *= lam
    denom += plan.H_sq
    if np.min(denom) < 1e-15:
        raise SingularDenominator("guidance solve denominator vanishes")
    spec = plan.spectrum(div, spec)
    spec *= lam
    plan._add_conj_H_G(spec)
    spec /= denom
    del denom  # freed before a new output is made
    return _irfft2(spec, plan.shape[1], out)


def solve_input(plan: SpectralPlan, v_hat, lam, out=None):
    """Closed-form input solve: data fit plus proximity-to-v prior.

    Minimizes ||h * u - g||^2 + lam ||u - v||^2 in the Fourier domain,
    given v_hat = plan.spectrum(v), for finite lam > 0.  The solve works
    in v_hat's buffer, which it overwrites, and writes u into out (a new
    image if None), which may be v.
    """
    plan._check_spectrum(v_hat)
    plan._check_images(out)
    _check_lambda(lam)
    v_hat *= lam
    plan._add_conj_H_G(v_hat)
    v_hat /= plan.H_sq + lam
    return _irfft2(v_hat, plan.shape[1], out)


def discrepancy_terms(plan: SpectralPlan, v_hat):
    """Precompute the per-frequency pieces of the discrepancy curve.

    Returns (a, b, npix) with a = |F(h)|^2 and b = w |F(h) F(v) - F(g)|^2
    on the half-plane, w the Parseval column weights, so the data-fit
    residual of the input solve at lam is sum(lam^2 b / (a + lam)^2) / npix.
    The complex residual is formed a row block at a time.
    """
    plan._check_spectrum(v_hat)
    b = np.empty(plan.H_sq.shape)
    for blk in plan._row_blocks():
        r = plan.H[blk] * v_hat[blk]
        r -= plan.G[blk]
        b_blk = b[blk]
        np.square(r.real, out=b_blk)
        b_blk += r.imag ** 2
    b *= plan.weights
    return plan.H_sq, b, plan.npix


def discrepancy_from_terms(a, b, npix: int, lam: float) -> float:
    if lam == 0.0:
        return 0.0
    # sum(r * r * b) with r = lam / (a + lam), each step in one buffer.
    t = np.add(a, lam)
    np.divide(lam, t, out=t)
    t *= t
    t *= b
    return float(np.sum(t) / npix)
