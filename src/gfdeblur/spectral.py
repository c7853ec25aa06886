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
none makes a half-plane temporary; |H|^2 and the discrepancy terms are
written into half-planes the caller gives.  An image and its spectrum
share one buffer, a complex half-plane with the image's float64 values
at its end (_image_of): the forward transform runs in place, rfft over
row chunks top down and then fft over the columns, and the inverse in
place, ifft over the columns and then irfft over row chunks bottom up.
These are rfft2 and irfft2 told the image shape, bit for bit, and
their only working array is numpy's copy of a chunk's input, which the
chunk's output overlaps: one row block at most (see _forward).  The guidance
solve transforms the divergence Dx^T vx + Dy^T vy, whose spectrum is
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


def _block_rows(shape) -> int:
    """Rows per row block of a half-plane of the given shape: about
    BLOCK_ELEMENTS elements, at least one row."""
    height, cols = shape
    return min(height, max(1, BLOCK_ELEMENTS // cols))


def _blocks(shape, *dtypes):
    """Yield (row slice, one scratch block per dtype) over a half-plane
    of the given shape, a row block at a time; the scratch blocks are
    views of buffers made once for the tallest."""
    height, cols = shape
    step = _block_rows(shape)
    bufs = [np.empty((step, cols), dtype) for dtype in dtypes]
    for i in range(0, height, step):
        yield slice(i, i + step), *(buf[: height - i] for buf in bufs)


def _image_of(buf: np.ndarray, width: int) -> np.ndarray:
    """The height x width float64 image at the end of buf, a C-contiguous
    complex128 half-plane of height rows: its last height * width floats.
    Image row i lies at or after half-plane row i, and wholly after every
    half-plane row above i."""
    flat = buf.reshape(-1).view(np.float64)
    height = buf.shape[0]
    return flat[flat.size - height * width :].reshape(height, width)


def _forward(buf: np.ndarray, width: int) -> np.ndarray:
    """rfft2 of the image at buf's end (_image_of), written over buf in
    place, and buf returned: rfft over row chunks top down, then fft over
    the columns, the two steps of rfft2, bit for bit.  A chunk's
    spectrum rows end before the image rows below the chunk begin, so no
    chunk writes over rows still to be read; numpy copies the chunk's own
    rows, which its output overlaps, and the column transform works in
    place, so the working copies are one row block."""
    img = _image_of(buf, width)
    step = _block_rows(buf.shape)
    for i in range(0, len(buf), step):
        np.fft.rfft(img[i : i + step], axis=1, out=buf[i : i + step])
    return np.fft.fft(buf, axis=0, out=buf)


def _inverse(buf: np.ndarray, width: int) -> np.ndarray:
    """irfft2(buf, s=(height, width)) written over buf in place, into the
    image at its end, which is returned: ifft over the columns, then
    irfft over row chunks bottom up, the two steps of irfft2, bit for
    bit.  A chunk's image rows begin after the spectrum rows above the
    chunk end, so no chunk writes over rows still to be read (see
    _forward)."""
    np.fft.ifft(buf, axis=0, out=buf)
    img = _image_of(buf, width)
    step = _block_rows(buf.shape)
    for i in reversed(range(0, len(buf), step)):
        np.fft.irfft(buf[i : i + step], n=width, axis=1, out=img[i : i + step])
    return img


def _same_view(a: np.ndarray, b: np.ndarray) -> bool:
    """a and b view the same memory in the same layout."""
    return (a.ctypes.data, a.shape, a.strides, a.dtype) == (b.ctypes.data, b.shape, b.strides, b.dtype)


def _spectrum(img: np.ndarray, out=None) -> np.ndarray:
    """The half-plane spectrum of img in out, a new buffer if None: img is
    copied to out's end, unless it is out's own image, and transformed
    in place."""
    height, width = img.shape
    if out is None:
        out = np.empty((height, width // 2 + 1), dtype=np.complex128)
    dst = _image_of(out, width)
    if not _same_view(img, dst):
        np.copyto(dst, img)
    return _forward(out, width)


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


def check_kernel_fits(kernel_shape, canvas_shape) -> None:
    """KernelTooLarge unless a kernel of kernel_shape fits the canvas."""
    (kh, kw), (height, width) = kernel_shape, canvas_shape
    if kh > height or kw > width:
        raise KernelTooLarge(f"PSF {kh}x{kw} does not fit canvas {height}x{width}")


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
    writes |H|^2 into a half-plane it is given for the lambda search.
    spectrum and image are the two transforms, each in place in a
    spectrum buffer, a C-contiguous complex128 half-plane whose end holds
    its image (image_of); each copies an image in or out only when it is
    given one elsewhere.  Every half-plane the plan keeps is made the
    same way, its image or canvas transformed in place.
    """

    __slots__ = ("shape", "G", "_H", "_Hy", "_Hx", "Dy_sq", "Dx_sq", "weights")

    def __init__(self, g: np.ndarray, psf: Psf):
        height, width = self.shape = g.shape
        check_kernel_fits(psf.shape, g.shape)
        if psf.factors is None:
            self._H = _spectrum(_embed_psf(psf.taps, height, width))
            self._Hy = self._Hx = None
        else:
            col, row = psf.factors
            self._H = None
            self._Hy = _spectrum(_embed_psf(col, height, 1))
            self._Hx = _spectrum(_embed_psf(row, 1, width))
        self.G = _spectrum(g)
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

    def image_of(self, buf: np.ndarray) -> np.ndarray:
        """The image at the end of buf, a spectrum buffer: the image that
        spectrum(image_of(buf), buf) transforms in place and image(buf)
        writes."""
        self._check_buffer(buf)
        return _image_of(buf, self.shape[1])

    def spectrum(self, img: np.ndarray, out=None) -> np.ndarray:
        """Half-plane spectrum of an image of the plan's shape in out, a
        spectrum buffer (a new one if None), which is returned: img is
        copied to out's end unless it is image_of(out), then transformed
        in place."""
        self._check_image(img)
        if out is not None:
            self._check_buffer(out)
        return _spectrum(img, out)

    def image(self, spec: np.ndarray, out=None) -> np.ndarray:
        """The image of spec, a spectrum buffer, inverted in place into
        image_of(spec), which is returned if out is None; otherwise copied
        into out, an image of the plan's shape, unless it is that image,
        and out returned.  spec is overwritten."""
        self._check_buffer(spec)
        if out is not None:
            self._check_image(out)
        img = _inverse(spec, self.shape[1])
        if out is None:
            return img
        if not _same_view(out, img):
            np.copyto(out, img)
        return out

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

    def H_sq(self, out: np.ndarray) -> np.ndarray:
        """|H|^2 written into out, a C-contiguous float64 half-plane: for a
        rank-1 PSF in one broadcast multiply, otherwise a row block at a
        time."""
        self._check_half_plane(out)
        if self._H is None:
            return self._H_sq_block(slice(None), out, None)
        for blk, tmp in _blocks(out.shape, np.float64):
            self._H_sq_block(blk, out[blk], tmp)
        return out

    def _solve(self, spec: np.ndarray, lam: float, denominator) -> None:
        """Scale spec by lam, add conj(H) F(g) and divide by
        denominator(row slice, the block's |H|^2, a real scratch block),
        in place, a row block at a time.  The blocks' scratch is freed on
        return, before the caller's inverse transform."""
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
            s /= denominator(blk, h_sq, spare[:, cols:])

    def _check_image(self, img) -> None:
        if img.shape != self.shape:
            raise DimensionMismatch(f"image {img.shape} differs from plan {self.shape}")

    def _check_spectrum(self, img_hat) -> None:
        if img_hat.shape != self.G.shape:
            raise DimensionMismatch(
                f"spectrum {img_hat.shape} is not the plan's half-plane {self.G.shape}"
            )

    def _check_buffer(self, buf) -> None:
        """buf can hold an image of the plan's shape and its spectrum."""
        self._check_spectrum(buf)
        if buf.dtype != np.complex128 or not buf.flags.c_contiguous:
            raise ValueError("a spectrum buffer must be a C-contiguous complex128 half-plane")

    def _check_half_plane(self, out) -> None:
        """out can take a real half-plane, |H|^2 or the discrepancy terms."""
        self._check_spectrum(out)
        if out.dtype != np.float64 or not out.flags.c_contiguous:
            raise ValueError("out must be a C-contiguous float64 half-plane")


def circ_convolve(img: np.ndarray, psf: Psf) -> np.ndarray:
    """Centered circular convolution of an image with a PSF: the plan's
    F(img) times its H, a row block at a time, inverted in place in F(img)'s
    buffer; returns the image at that buffer's end."""
    plan = SpectralPlan(img, psf)
    for blk, h in _blocks(plan.G.shape, np.complex128):
        spec = plan.G[blk]
        spec *= plan._H_block(blk, h)
    return plan.image(plan.G)


def _check_lambda(lam) -> None:
    if not 0 < lam < INFINITY:
        raise ValueError(f"lambda must be finite and positive, got {lam!r}")


def solve_guidance(plan: SpectralPlan, div, lam, spec):
    """Closed-form guidance solve: data fit plus gradient-matching prior.

    Minimizes ||h * u - g||^2 + lam (||dx u - vx||^2 + ||dy u - vy||^2)
    in the Fourier domain, for finite lam > 0, given the prior's
    gradients only as div = Dx^T vx + Dy^T vy.  div is transformed into
    spec, a spectrum buffer the solve overwrites, and u is written over
    div, which is returned.  With div = plan.image_of(spec), as run_gfd
    keeps the divergence, both transforms work in place and nothing is
    copied.  Each row block's denominator (|Dx|^2 + |Dy|^2) lam + |H|^2
    is checked before the block is divided; SingularDenominator is raised
    before div is written, unless div is image_of(spec), which the
    forward transform has already overwritten.
    """
    plan._check_image(div)
    _check_lambda(lam)
    spec = plan.spectrum(div, spec)

    def denominator(blk, h_sq, denom):
        np.add(plan.Dy_sq[blk], plan.Dx_sq, out=denom)
        denom *= lam
        denom += h_sq
        if np.min(denom) < SINGULAR:
            raise SingularDenominator("guidance solve denominator vanishes")
        return denom

    plan._solve(spec, lam, denominator)
    return plan.image(spec, div)


def solve_input(plan: SpectralPlan, v_hat, lam, out):
    """Closed-form input solve: data fit plus proximity-to-v prior.

    Minimizes ||h * u - g||^2 + lam ||u - v||^2 in the Fourier domain,
    given v_hat = plan.spectrum(v), for finite lam > 0.  The solve works
    in v_hat's buffer, which it overwrites, and writes u into out, which
    may be v; with out = plan.image_of(v_hat), as run_gfd keeps v, the
    inverse works in place and nothing is copied.
    """
    plan._check_buffer(v_hat)
    plan._check_image(out)
    _check_lambda(lam)
    plan._solve(v_hat, lam, lambda blk, h_sq, spare: np.add(h_sq, lam, out=h_sq))
    return plan.image(v_hat, out)


def discrepancy_terms(plan: SpectralPlan, v_hat, out) -> np.ndarray:
    """The data's part of the discrepancy curve: b = w |F(h) F(v) - F(g)|^2
    on the half-plane, w the Parseval column weights, written into out, a
    C-contiguous float64 half-plane, so that with a = |H|^2 (plan.H_sq)
    the data-fit residual of the input solve at lam is
    sum(lam^2 b / (a + lam)^2) / npix, and its lam -> inf limit is
    sum(b) / npix.  The complex residual is formed a row block at a time.
    """
    plan._check_spectrum(v_hat)
    plan._check_half_plane(out)
    for blk, x in _blocks(out.shape, np.complex128):
        np.multiply(plan._H_block(blk, x), v_hat[blk], out=x)
        x -= plan.G[blk]
        # Square x's real and imaginary parts in place, then add each pair.
        xf = np.square(x.view(np.float64), out=x.view(np.float64))
        y = np.add(xf[:, 0::2], xf[:, 1::2], out=out[blk])
        y *= plan.weights
    return out


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

