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
|F(x)|^2.  A rank-1 PSF (Psf.factors) has H = Hy Hx, its column
spectrum times its row spectrum, and the plan keeps only those two
vectors; any other PSF's H is kept as a half-plane, and circ_convolve
blurs through a plan, so H is formed in one place.  Every per-frequency
pass (the blur, |H|^2, the solves, the discrepancy terms and each
residual evaluation) works a row block of the half-plane at a time in the
scratch _blocks yields, which also takes a rank-1 H's row block, so
none makes a half-plane temporary.  Every inverse takes two steps, ifft
over the columns in the spectrum's own buffer, then irfft over the rows
into the output image; this is irfft2 told the image shape, bit for
bit, without its image-sized working copies.  The guidance solve
transforms the divergence Dx^T vx + Dy^T vy, whose spectrum is
conj(Dx) F(vx) + conj(Dy) F(vy): a forward difference's adjoint is the
backward one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

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


# A PSF is rank 1 when no normalized tap differs from outer(col, row),
# Psf.factors, by more than RANK1_TOL times the largest |tap|.
RANK1_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class Psf:
    """Small centered convolution kernel; Psf(taps) normalizes to unit sum.

    factors is (col, row), shapes (kh, 1) and (1, kw), when the
    normalized taps are rank 1 within RANK1_TOL, and None otherwise: with
    (i0, j0) the largest |tap|, col is column j0 and row is row i0
    divided by that tap.
    """

    taps: np.ndarray = field()
    factors: Optional[tuple] = field(init=False, repr=False)

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
        taps = taps / s
        object.__setattr__(self, "taps", taps)
        i0, j0 = np.unravel_index(np.argmax(np.abs(taps)), taps.shape)
        pivot = taps[i0, j0]
        col, row = taps[:, j0 : j0 + 1], taps[i0 : i0 + 1] / pivot
        with np.errstate(over="ignore"):  # taps near the float64 limit: inf, not rank 1
            rank1 = np.max(np.abs(col * row - taps)) <= RANK1_TOL * abs(pivot)
        object.__setattr__(self, "factors", (col, row) if rank1 else None)

    @property
    def shape(self):
        return self.taps.shape


def _embed_psf(taps: np.ndarray, height: int, width: int) -> np.ndarray:
    """PSF taps, which fit, placed on a height x width canvas, center
    tap at the origin.

    The kernel wraps circularly, so pointwise multiplication by the
    canvas spectrum implements centered circular convolution.
    """
    kh, kw = taps.shape
    canvas = np.zeros((height, width), dtype=np.float64)
    cy, cx = kh // 2, kw // 2
    rows = (np.arange(kh) - cy) % height
    cols = (np.arange(kw) - cx) % width
    canvas[np.ix_(rows, cols)] += taps
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


class SpectralPlan:
    """The loop invariants of one restore of g blurred by psf, stored on
    the rfft2 half-plane (columns 0 .. width // 2).

    F(g), H, the Parseval column weights that discrepancy_terms folds
    into b, and the closed-form |Dx|^2 + |Dy|^2 as its two factors:
    Dy_sq, shape (height, 1), and Dx_sq, shape (width // 2 + 1,), which
    broadcast to the half-plane sum.  A rank-1 PSF keeps H as its column
    and row spectra, _Hy of shape (height, 1) and _Hx of shape
    (1, width // 2 + 1), the rfft2s of psf.factors embedded on a
    height x 1 and a 1 x width canvas; F(g) is then its one half-plane.
    Any other PSF keeps H as a second half-plane, _H.  _H_block and
    _H_sq_block give a row block of H and of |H|^2 in either form; the
    solves form conj(H) F(g) and |H|^2 a row block at a time, and H_sq
    writes |H|^2 into a buffer it is given for the lambda search.
    """

    __slots__ = ("shape", "G", "_H", "_Hy", "_Hx", "Dy_sq", "Dx_sq", "weights")

    def __init__(self, g: np.ndarray, psf: Psf):
        height, width = self.shape = g.shape
        kh, kw = psf.shape
        if kh > height or kw > width:
            raise KernelTooLarge(f"PSF {kh}x{kw} does not fit canvas {height}x{width}")
        if psf.factors is None:
            self._H = _rfft2(_embed_psf(psf.taps, height, width))
            self._Hy = self._Hx = None
        else:
            col, row = psf.factors
            self._H = None
            self._Hy = _rfft2(_embed_psf(col, height, 1))
            self._Hx = _rfft2(_embed_psf(row, 1, width))
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
        self._check_image(img)
        if out is not None:
            self._check_spectrum(out)
        return _rfft2(img, out)

    def _H_block(self, blk: slice, out: np.ndarray) -> np.ndarray:
        """H's rows blk: a view of _H, or for a rank-1 PSF Hy[blk] Hx
        written into out, a complex block of those rows."""
        if self._H is not None:
            return self._H[blk]
        return np.multiply(self._Hy[blk], self._Hx, out=out)

    def _H_sq_block(self, blk: slice, out: np.ndarray, tmp) -> np.ndarray:
        """|H|^2's rows blk into out, with tmp, a real block of out's shape,
        as scratch; for a rank-1 PSF, |Hy[blk]|^2 |Hx|^2, which needs none."""
        if self._H is not None:
            return _abs_sq(self._H[blk], out, tmp)
        hy, hx = self._Hy[blk], self._Hx
        return np.multiply(hy.real ** 2 + hy.imag ** 2, hx.real ** 2 + hx.imag ** 2, out=out)

    def H_sq(self, work) -> np.ndarray:
        """|H|^2 on the half-plane, written over the front of work, a
        C-contiguous float64 image of the plan's shape, which holds a
        half-plane: for a rank-1 PSF in one broadcast multiply, otherwise
        a row block at a time."""
        self._check_image(work)
        if work.dtype != np.float64 or not work.flags.c_contiguous:
            raise ValueError("work must be a C-contiguous float64 image")
        out = work.reshape(-1)[: self.G.size].reshape(self.G.shape)
        if self._H is None:
            return self._H_sq_block(slice(None), out, None)
        for blk, tmp in _blocks(out.shape, np.float64):
            self._H_sq_block(blk, out[blk], tmp)
        return out

    def _solve_blocks(self, spec: np.ndarray, lam: float):
        """Scale spec by lam and add conj(H) F(g), in place, a row block at
        a time; yields (row slice, spec's block, the block's |H|^2, a real
        scratch block) for the caller to divide the block by its
        denominator before the next."""
        cols = self.G.shape[1]
        for blk, prod, h_sq in _blocks(self.G.shape, np.complex128, np.float64):
            # prod's block is |H|^2's scratch, then takes H and conj(H) F(g);
            # once s has taken that, it serves as two real blocks.
            spare = prod.view(np.float64)
            self._H_sq_block(blk, h_sq, spare[:, :cols])
            H = self._H_block(blk, prod)
            s = spec[blk]
            s *= lam
            s += np.multiply(np.conj(H, out=prod), self.G[blk], out=prod)
            yield blk, s, h_sq, spare[:, cols:]

    def _check_image(self, img) -> None:
        if img.shape != self.shape:
            raise DimensionMismatch(f"image {img.shape} differs from plan {self.shape}")

    def _check_spectrum(self, img_hat) -> None:
        if img_hat.shape != self.G.shape:
            raise DimensionMismatch(
                f"spectrum {img_hat.shape} is not the plan's half-plane {self.G.shape}"
            )


def circ_convolve(img: np.ndarray, psf: Psf) -> np.ndarray:
    """Centered circular convolution of an image with a PSF: the plan's
    F(img) times its H, a row block at a time, inverted in two steps."""
    plan = SpectralPlan(img, psf)
    for blk, h in _blocks(plan.G.shape, np.complex128):
        spec = plan.G[blk]
        spec *= plan._H_block(blk, h)
    return _irfft2(plan.G, img.shape[1])


def _check_lambda(lam) -> None:
    if not 0 < lam < INFINITY:
        raise ValueError(f"lambda must be finite and positive, got {lam!r}")


def solve_guidance(plan: SpectralPlan, div, lam, spec):
    """Closed-form guidance solve: data fit plus gradient-matching prior.

    Minimizes ||h * u - g||^2 + lam (||dx u - vx||^2 + ||dy u - vy||^2)
    in the Fourier domain, for finite lam > 0, given the prior's
    gradients only as div = Dx^T vx + Dy^T vy.  div is transformed into
    spec, a half-plane buffer the solve overwrites, and u is written over
    div, which is returned.  Each row block's denominator (|Dx|^2 +
    |Dy|^2) lam + |H|^2 is checked before the block is divided;
    SingularDenominator is raised before div is written.
    """
    plan._check_image(div)
    _check_lambda(lam)
    spec = plan.spectrum(div, spec)
    for blk, s, h_sq, denom in plan._solve_blocks(spec, lam):
        np.add(plan.Dy_sq[blk], plan.Dx_sq, out=denom)
        denom *= lam
        denom += h_sq
        if np.min(denom) < SINGULAR:
            raise SingularDenominator("guidance solve denominator vanishes")
        s /= denom
    return _irfft2(spec, plan.shape[1], div)


def solve_input(plan: SpectralPlan, v_hat, lam, out):
    """Closed-form input solve: data fit plus proximity-to-v prior.

    Minimizes ||h * u - g||^2 + lam ||u - v||^2 in the Fourier domain,
    given v_hat = plan.spectrum(v), for finite lam > 0.  The solve works
    in v_hat's buffer, which it overwrites, and writes u into out, which
    may be v.
    """
    plan._check_spectrum(v_hat)
    plan._check_image(out)
    _check_lambda(lam)
    for _, s, h_sq, _ in plan._solve_blocks(v_hat, lam):
        h_sq += lam
        s /= h_sq
    return _irfft2(v_hat, plan.shape[1], out)


def discrepancy_terms(plan: SpectralPlan, v_hat) -> np.ndarray:
    """The data's part of the discrepancy curve: b = w |F(h) F(v) - F(g)|^2
    on the half-plane, w the Parseval column weights, so that with
    a = plan.H_sq(work) the data-fit residual of the input solve at lam is
    sum(lam^2 b / (a + lam)^2) / npix, and its lam -> inf limit is
    sum(b) / npix.  The complex residual is formed a row block at a time.
    """
    plan._check_spectrum(v_hat)
    b = np.empty(plan.G.shape)
    for blk, x in _blocks(b.shape, np.complex128):
        np.multiply(plan._H_block(blk, x), v_hat[blk], out=x)
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

