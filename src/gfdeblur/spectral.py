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
|F(x)|^2.  Every per-frequency pass (|H|^2, the solves, the discrepancy
terms and each residual evaluation) works a row block of the half-plane
at a time in the scratch _blocks yields, so none makes a half-plane
temporary.  Every inverse takes two steps, ifft over the columns in the
spectrum's own buffer, then irfft over the rows into the output image;
this is irfft2 told the image shape, bit for bit, without its
image-sized working copies.  The guidance solve transforms the
divergence Dx^T vx + Dy^T vy, whose spectrum is conj(Dx) F(vx) +
conj(Dy) F(vy): a forward difference's adjoint is the backward one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, KernelTooLarge, SingularDenominator

# lambda = infinity: the pre-estimate v meets the discrepancy bound within
# the bisection's tolerance, and the restore loop takes both solves to be v.
INFINITY = math.inf

# |H|^2, or a guidance solve's denominator, below SINGULAR counts as zero.
SINGULAR = 1e-15

# Half-plane elements per row block of the per-frequency loops, which
# form their products and denominators a block at a time rather than as
# half-plane temporaries.
BLOCK_ELEMENTS = 64 * 1024


def _blocks(shape, *dtypes):
    """Yield (row slice, one scratch block per dtype) over a half-plane
    of the given shape, about BLOCK_ELEMENTS elements a block; the
    scratch blocks are views of buffers made once for the tallest."""
    height, cols = shape
    step = min(height, max(1, BLOCK_ELEMENTS // cols))
    bufs = [np.empty((step, cols), dtype) for dtype in dtypes]
    for i in range(0, height, step):
        yield slice(i, i + step), *(buf[: height - i] for buf in bufs)


def _abs_sq(z: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """z.real ** 2 + z.imag ** 2 into out, with tmp as scratch."""
    np.square(z.real, out=out)
    out += np.square(z.imag, out=tmp)
    return out


@dataclass(frozen=True, eq=False)
class Psf:
    """Small centered convolution kernel; Psf(taps) normalizes to unit sum."""

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
        s = taps.sum()
        if s == 0.0 or not np.isfinite(s):
            raise ValueError(f"PSF taps sum to {s}; cannot normalize")
        object.__setattr__(self, "taps", taps / s)

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


class SpectralPlan:
    """The loop invariants of one restore of g blurred by psf, stored on
    the rfft2 half-plane (columns 0 .. width // 2).

    H and F(g), the Parseval column weights that discrepancy_terms folds
    into b, and the closed-form |Dx|^2 + |Dy|^2 as its two factors:
    Dy_sq, shape (height, 1), and Dx_sq, shape (width // 2 + 1,), which
    broadcast to the half-plane sum.  The solves form conj(H) F(g) and
    |H|^2 a row block at a time; H_sq makes |H|^2 as a whole half-plane
    for the lambda search.
    """

    __slots__ = ("shape", "H", "G", "Dy_sq", "Dx_sq", "weights")

    def __init__(self, g: np.ndarray, psf: Psf):
        height, width = self.shape = g.shape
        self.H = _rfft2(_embed_psf(psf, height, width))
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

    def H_sq(self, work=None) -> np.ndarray:
        """|H|^2 on the half-plane, a row block at a time, written over the
        front of work, a C-contiguous float64 image of the plan's shape,
        which holds a half-plane (a new array if None)."""
        if work is None:
            out = np.empty(self.H.shape)
        else:
            self._check_images(work)
            if work.dtype != np.float64 or not work.flags.c_contiguous:
                raise ValueError("work must be a C-contiguous float64 image")
            out = work.reshape(-1)[: self.H.size].reshape(self.H.shape)
        for blk, tmp in _blocks(self.H.shape, np.float64):
            _abs_sq(self.H[blk], out[blk], tmp)
        return out

    def _solve_blocks(self, spec: np.ndarray, lam: float):
        """Scale spec by lam and add conj(H) F(g), in place, a row block at
        a time; yields (row slice, spec's block, the block's |H|^2, a real
        scratch block) for the caller to divide the block by its
        denominator before the next."""
        cols = self.H.shape[1]
        for blk, prod, h_sq in _blocks(self.H.shape, np.complex128, np.float64):
            s = spec[blk]
            s *= lam
            H = self.H[blk]
            s += np.multiply(np.conj(H, out=prod), self.G[blk], out=prod)
            # Once s has taken conj(H) F(g), prod's block serves as two real ones.
            spare = prod.view(np.float64)
            yield blk, s, _abs_sq(H, h_sq, spare[:, :cols]), spare[:, cols:]

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


def _check_lambda(lam) -> None:
    if not 0 < lam < INFINITY:
        raise ValueError(f"lambda must be finite and positive, got {lam!r}")


def solve_guidance(plan: SpectralPlan, div, lam, spec=None, out=None):
    """Closed-form guidance solve: data fit plus gradient-matching prior.

    Minimizes ||h * u - g||^2 + lam (||dx u - vx||^2 + ||dy u - vy||^2)
    in the Fourier domain, for finite lam > 0, given the prior's
    gradients only as div = Dx^T vx + Dy^T vy.  div is transformed into
    spec, a half-plane buffer the solve overwrites (a new one if None),
    and u is written into out (a new image if None), which may be div.
    Each row block's denominator (|Dx|^2 + |Dy|^2) lam + |H|^2 is checked
    before the block is divided; SingularDenominator is raised before out
    is written.
    """
    plan._check_images(div, out)
    _check_lambda(lam)
    spec = plan.spectrum(div, spec)
    for blk, s, h_sq, denom in plan._solve_blocks(spec, lam):
        np.add(plan.Dy_sq[blk], plan.Dx_sq, out=denom)
        denom *= lam
        denom += h_sq
        if np.min(denom) < SINGULAR:
            raise SingularDenominator("guidance solve denominator vanishes")
        s /= denom
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
    for _, s, h_sq, _ in plan._solve_blocks(v_hat, lam):
        h_sq += lam
        s /= h_sq
    return _irfft2(v_hat, plan.shape[1], out)


def discrepancy_terms(plan: SpectralPlan, v_hat) -> np.ndarray:
    """The data's part of the discrepancy curve: b = w |F(h) F(v) - F(g)|^2
    on the half-plane, w the Parseval column weights, so that with
    a = plan.H_sq() the data-fit residual of the input solve at lam is
    sum(lam^2 b / (a + lam)^2) / npix, and its lam -> inf limit is
    sum(b) / npix.  The complex residual is formed a row block at a time.
    """
    plan._check_spectrum(v_hat)
    b = np.empty(plan.H.shape)
    for blk, x in _blocks(b.shape, np.complex128):
        np.multiply(plan.H[blk], v_hat[blk], out=x)
        x -= plan.G[blk]
        # Square x's real and imaginary parts in place, then add each pair.
        xf = np.square(x.view(np.float64), out=x.view(np.float64))
        y = np.add(xf[:, 0::2], xf[:, 1::2], out=b[blk])
        y *= plan.weights
    return b


def discrepancy_from_terms(a, b, npix: int, lam: float) -> float:
    """sum(x * x * b) / npix with x = lam / (a + lam): the residual at lam
    from a = |H|^2 and b = discrepancy_terms(...), both half-planes.  Each
    row block is formed in one block-sized buffer and its row sums
    written out; their sum does not depend on the block size."""
    if lam == 0.0:
        return 0.0
    row_sums = np.empty(a.shape[0])
    # np.add.reduce is np.sum without its Python-level dispatch, which
    # shows at 256^2, where a search makes about 8 evaluations.
    for blk, x in _blocks(a.shape, np.float64):
        np.add(a[blk], lam, out=x)
        np.divide(lam, x, out=x)
        np.multiply(x, x, out=x)
        np.multiply(x, b[blk], out=x)
        np.add.reduce(x, axis=1, out=row_sums[blk])
    return float(np.add.reduce(row_sums) / npix)

