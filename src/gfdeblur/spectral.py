"""Frequency-domain machinery: circular convolution, PSF embedding,
forward-difference operator spectra, and the two closed-form
Tikhonov-style deblurring solves.

All boundary handling is periodic (circular wrap), which is what makes
the FFT diagonalization of the blur and derivative operators exact.
The spatial squared norm of an image equals sum(|F(x)|^2) / npix under
numpy's unnormalized forward FFT; the discrepancy evaluation includes
that factor so spectral and spatial values agree.

The restore loop works on the rfft2 half-plane through a SpectralPlan.
A real image's spectrum is Hermitian, so the half-plane holds columns
0 .. width // 2 and every other column is the conjugate mirror of one of
them.  The full-plane sum of |F(x)|^2 is therefore the half-plane sum
with column 0 counted once, interior columns twice, and, for even
widths, column width / 2 once; discrepancy_terms folds these weights
into b.  psf_spectrum, derivative_spectra, circ_convolve and discrepancy
stay on the full plane as references.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, KernelTooLarge, SingularDenominator

# lambda = infinity: the pre-estimate v already meets the discrepancy
# bound, and the restore loop takes both solves to be v.
INFINITY = math.inf


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


def psf_spectrum(psf: Psf, height: int, width: int) -> np.ndarray:
    """Full-plane spectrum of the PSF embedded in a height x width canvas."""
    return np.fft.fft2(_embed_psf(psf, height, width))


def circ_convolve(img: np.ndarray, psf: Psf) -> np.ndarray:
    """Centered circular convolution of an image with a PSF."""
    spec = psf_spectrum(psf, *img.shape)
    return np.real(np.fft.ifft2(np.fft.fft2(img) * spec))


def derivative_spectra(height: int, width: int):
    """Spectra of the circular forward-difference operators.

    dx: u(i, j+1) - u(i, j);  dy: u(i+1, j) - u(i, j).
    """
    kx = np.arange(width)
    ky = np.arange(height)
    dx_row = np.exp(2j * np.pi * kx / width) - 1.0
    dy_col = np.exp(2j * np.pi * ky / height) - 1.0
    dx = np.tile(dx_row, (height, 1))
    dy = np.tile(dy_col[:, None], (1, width))
    return dx, dy


def diff_x(img: np.ndarray) -> np.ndarray:
    """Forward difference along columns with circular wrap."""
    return np.roll(img, -1, axis=1) - img


def diff_y(img: np.ndarray) -> np.ndarray:
    """Forward difference along rows with circular wrap."""
    return np.roll(img, -1, axis=0) - img


def _check_same_shape(*imgs):
    shapes = {im.shape for im in imgs}
    if len(shapes) > 1:
        raise DimensionMismatch(f"images differ in shape: {sorted(shapes)}")


class SpectralPlan:
    """The loop invariants of one restore of g blurred by psf, stored on
    the rfft2 half-plane (columns 0 .. width // 2).

    H and |H|^2, F(g) and conj(H) F(g), the closed-form |Dx|^2 + |Dy|^2
    with the conjugate derivative factors as a broadcast row (x) and
    column (y), and the Parseval column weights that discrepancy_terms
    folds into b.
    """

    __slots__ = ("shape", "H", "H_sq", "G", "conj_H_G", "D_sq", "conj_dx", "conj_dy",
                 "weights")

    def __init__(self, g: np.ndarray, psf: Psf):
        height, width = self.shape = g.shape
        self.H = np.fft.rfft2(_embed_psf(psf, height, width))
        self.H_sq = self.H.real ** 2 + self.H.imag ** 2
        self.G = np.fft.rfft2(g)
        self.conj_H_G = np.conj(self.H) * self.G
        kx = np.arange(width // 2 + 1)
        ky = np.arange(height)
        self.conj_dx = np.conj(np.exp(2j * np.pi * kx / width) - 1.0)[None, :]
        self.conj_dy = np.conj(np.exp(2j * np.pi * ky / height) - 1.0)[:, None]
        # |exp(i t) - 1|^2 = 4 sin^2(t / 2)
        self.D_sq = (4.0 * np.sin(np.pi * ky / height) ** 2)[:, None] + (
            4.0 * np.sin(np.pi * kx / width) ** 2
        )
        self.weights = np.full(width // 2 + 1, 2.0)
        self.weights[0] = 1.0
        if width % 2 == 0:
            self.weights[-1] = 1.0

    @property
    def npix(self) -> int:
        return self.shape[0] * self.shape[1]

    def spectrum(self, img: np.ndarray) -> np.ndarray:
        """Half-plane spectrum of an image of the plan's shape."""
        self._check_images(img)
        return np.fft.rfft2(img)

    def _check_images(self, *imgs) -> None:
        for im in imgs:
            if im.shape != self.shape:
                raise DimensionMismatch(f"image {im.shape} differs from plan {self.shape}")

    def _check_spectrum(self, img_hat) -> None:
        if img_hat.shape != self.H.shape:
            raise DimensionMismatch(
                f"spectrum {img_hat.shape} is not the plan's half-plane {self.H.shape}"
            )


def solve_guidance(plan: SpectralPlan, vx, vy, lam):
    """Closed-form guidance solve: data fit plus gradient-matching prior.

    Minimizes ||h * u - g||^2 + lam (||dx u - vx||^2 + ||dy u - vy||^2)
    in the Fourier domain, for finite lam > 0.
    """
    plan._check_images(vx, vy)
    if not 0 < lam < INFINITY:
        raise ValueError(f"lambda must be finite and positive, got {lam!r}")
    denom = plan.H_sq + lam * plan.D_sq
    if np.min(denom) < 1e-15:
        raise SingularDenominator("guidance solve denominator vanishes")
    # Updated in place: at 1024^2 each spectrum-sized temporary is a
    # measurable share of the solve.
    f = np.fft.rfft2(np.stack((vx, vy)))
    num = f[0]
    num *= plan.conj_dx
    f[1] *= plan.conj_dy
    num += f[1]
    num *= lam
    num += plan.conj_H_G
    num /= denom
    return np.fft.irfft2(num, s=plan.shape)


def solve_input(plan: SpectralPlan, v_hat, lam):
    """Closed-form input solve: data fit plus proximity-to-v prior.

    Minimizes ||h * u - g||^2 + lam ||u - v||^2 in the Fourier domain,
    given v_hat = plan.spectrum(v), for finite lam > 0.
    """
    plan._check_spectrum(v_hat)
    if not 0 < lam < INFINITY:
        raise ValueError(f"lambda must be finite and positive, got {lam!r}")
    num = lam * v_hat
    num += plan.conj_H_G
    num /= plan.H_sq + lam
    return np.fft.irfft2(num, s=plan.shape)


def discrepancy_terms(plan: SpectralPlan, v_hat):
    """Precompute the per-frequency pieces of the discrepancy curve.

    Returns (a, b, npix) with a = |F(h)|^2 and b = w |F(h) F(v) - F(g)|^2
    on the half-plane, w the Parseval column weights, so the data-fit
    residual of the input solve at lam is sum(lam^2 b / (a + lam)^2) / npix.
    """
    plan._check_spectrum(v_hat)
    r = plan.H * v_hat
    r -= plan.G
    b = r.real ** 2
    b += r.imag ** 2
    b *= plan.weights
    return plan.H_sq, b, plan.npix


def discrepancy_from_terms(a, b, npix: int, lam: float) -> float:
    if lam == 0.0:
        return 0.0
    r = lam / (a + lam)
    return float(np.sum(r * r * b) / npix)


def discrepancy(g, psf: Psf, v, lam: float) -> float:
    """Squared data-fit residual ||h * u_p(lam) - g||^2 over the full
    spectrum; the reference for the plan's half-plane discrepancy_terms.

    Equals the spatial squared norm thanks to the 1/npix Parseval factor.
    """
    if lam < 0:
        raise ValueError(f"lambda must be nonnegative, got {lam!r}")
    _check_same_shape(g, v)
    H = psf_spectrum(psf, *g.shape)
    b = np.abs(H * np.fft.fft2(v) - np.fft.fft2(g)) ** 2
    return discrepancy_from_terms(np.abs(H) ** 2, b, g.size, lam)
