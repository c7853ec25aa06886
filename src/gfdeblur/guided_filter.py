"""Edge-preserving guided filter.

Output is a local linear transform of the guidance image: per-window
ridge-regression coefficients (a, b), averaged over all overlapping
windows.  All window means are box sums with mirror boundaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .image_core import box_mean, check_window_fits, validate_window

# Bytes of padded rows per guided-filter strip: the strip's own rows, as
# wide as the mirror-padded image.  With its halo and the other strip
# buffers beside them, a strip's working set stays near a per-core L2.
STRIP_BYTES = 256 * 1024


@dataclass(frozen=True)
class GfParams:
    """Window side length (odd) and slope regularizer eps (finite, > 0)."""

    win: int
    eps: float

    def __post_init__(self):
        validate_window(self.win)
        if not 0 < self.eps < math.inf:
            raise ValueError(f"eps must be finite and positive, got {self.eps!r}")


def _mirror(p: np.ndarray, top: int, end: int, r: int) -> None:
    """Fill a block's pad in place, as np.pad(mode="symmetric") would:
    the rows above top and from end on mirror the rows between, then r
    columns each side mirror the columns within."""
    wd = p.shape[1] - 2 * r
    p[:top] = p[top : 2 * top][::-1]
    p[end:] = p[2 * end - len(p) : end][::-1]
    p[:, :r] = p[:, r : 2 * r][:, ::-1]
    p[:, r + wd :] = p[:, wd : r + wd][:, ::-1]


def _line_aligned(*shapes):
    """float64 arrays of the given shapes, carved from one allocation so
    that each starts on a 64-byte cache line.  malloc aligns to 16 bytes
    only; at its offsets a filter ran 6-14% slower (in-process A/B at
    256^2 and 1024^2)."""
    sizes = [-(-rows * cols // 8) * 8 for rows, cols in shapes]
    block = np.empty(sum(sizes) + 8)
    pos = -(block.ctypes.data // 8) % 8
    bufs = []
    for (rows, cols), size in zip(shapes, sizes):
        bufs.append(block[pos : pos + rows * cols].reshape(rows, cols))
        pos += size
    return bufs


class _Strips:
    """The strip geometry of a guided filter with window w over an image
    of the given shape, and one set of strip buffers for it.

    The strips are about STRIP_BYTES of padded rows each, so all of a
    strip's passes stay in cache, and none is shorter than 2r rows unless
    it is the only one (guidfilter holds back each strip's last 2r output
    rows until the next strip has read the image).  Every buffer is
    reused from strip to strip and carved from one allocation per call: a
    strip temporary allocated and freed on every strip lets the heap top
    be trimmed and refaulted.  The set is 8 buffers, 6 for a self-guided
    filter, which needs no src buffers.
    """

    def __init__(self, shape, w: int, self_guided: bool):
        h, wd = self.shape = shape
        self.w = w
        r = self.r = (w - 1) // 2
        pw = wd + 2 * r
        n_strips = -(-h // max(1, STRIP_BYTES // (pw * 8)))  # float64 rows
        n_strips = min(n_strips, h // max(1, 2 * r))
        self.bounds = [h * k // n_strips for k in range(n_strips + 1)]
        n_max = -(-h // n_strips)
        m_max = n_max + 2 * r
        g_rows = m_max + 2 * r
        n_src = 0 if self_guided else 1
        self.bufs = _line_aligned(
            (g_rows, pw), (n_src * g_rows, pw), (g_rows, pw), (m_max, pw), (m_max, pw),
            (m_max, wd), (n_src * m_max, wd), (m_max, wd),
        )

    def strips(self):
        """(first row, end row) of every strip, top to bottom."""
        return zip(self.bounds, self.bounds[1:])

    def filter(self, i0: int, i1: int, fill_guide, fill_src, eps: float) -> np.ndarray:
        """Rows [i0, i1) of the guided filter's output, in a strip buffer
        that the next call overwrites.  fill_guide(dst, lo, hi) writes the
        guide's rows [lo, hi) into dst; fill_src does so for src, None
        when src is the guide.  The fills are the only reads of either
        image, and the first step of the call.

        a and b are needed on rows [lo, hi) = strip +- r, the window
        statistics on those rows, and the guide and src on strip +- 2r,
        mirror-padded at the image's edges.  a and b are mirrored at the
        image's top and bottom, then their window means are taken for the
        strip's own rows.  Each value goes into a buffer whose contents
        are dead by then: var(guide) over the g*g product it is the mean
        of (box_mean reads all its input before it writes), b over the
        product block once var is spent, and the output over mean(guide).
        """
        h, wd = self.shape
        w, r = self.w, self.r
        pg, ps, prod, rows, pa, mean_g, mean_s, tmp = self.bufs
        n = i1 - i0
        lo, hi = max(0, i0 - r), min(h, i1 + r)
        m = hi - lo
        glo, ghi = max(0, lo - r), min(h, hi + r)
        gtop = glo - (lo - r)
        g = _fill(pg[: m + 2 * r], fill_guide, glo, ghi, gtop, r)
        if fill_src is not None:
            p = _fill(ps[: m + 2 * r], fill_src, glo, ghi, gtop, r)
        s = rows[:m]
        t = tmp[:m]
        mg = box_mean(g, w, mean_g[:m], s)
        gg = prod[: m + 2 * r]
        atop = lo - (i0 - r)
        a = pa[: n + 2 * r]
        a_rows = a[atop : atop + m, r : r + wd]
        if fill_src is None:
            ms = mg
        else:
            ms = box_mean(p, w, mean_s[:m], s)
            box_mean(np.multiply(g, p, out=gg), w, a_rows, s)
            a_rows -= np.multiply(mg, ms, out=t)  # cov(guide, src)
        # var(guide) stays line-aligned: written into the strided a block,
        # the self-guided filter ran 9-15% slower.
        vg = box_mean(np.multiply(g, g, out=gg), w, prod.reshape(-1)[: m * wd].reshape(m, wd), s)
        vg -= np.multiply(mg, mg, out=t)
        np.maximum(vg, 0.0, out=t)
        t += eps
        if fill_src is None:
            np.divide(vg, t, out=a_rows)
        else:
            a_rows /= t
        b = prod[: n + 2 * r]
        b_rows = b[atop : atop + m, r : r + wd]
        np.multiply(a_rows, mg, out=b_rows)
        np.subtract(ms, b_rows, out=b_rows)
        _mirror(a, atop, atop + m, r)
        _mirror(b, atop, atop + m, r)
        o = box_mean(a, w, mean_g[:n], rows[:n])
        o *= g[i0 - lo + r : i1 - lo + r, r : r + wd]
        o += box_mean(b, w, tmp[:n], rows[:n])
        return o


def _fill(p: np.ndarray, fill, lo: int, hi: int, top: int, r: int) -> np.ndarray:
    """Write an image's rows [lo, hi), through fill, into block p from row
    top, r columns in, and mirror the rest of p around them; returns p."""
    end = top + hi - lo
    fill(p[top:end, r : p.shape[1] - r], lo, hi)
    _mirror(p, top, end, r)
    return p


def guidfilter(guide: np.ndarray, src: np.ndarray, params: GfParams) -> np.ndarray:
    """Filter src steered by guide, writing the result over src, and
    return src.  src is a float64 image that shares no memory with the
    guide unless it is the guide: a self-guided call (src is guide)
    overwrites the guide.

    Per window: a = cov(guide, src) / (var(guide) + eps), b = mean(src)
    - a * mean(guide); the output at each pixel uses the window averages
    of a and b.  A self-guided call reuses the guide's window statistics
    for src.

    The filter commutes with adding a constant to either image, so both
    are centred on their global means first: the window moments
    E[x^2] - E[x]^2 then cancel far less on a large, near-constant
    image, and var(guide) is clamped at 0 against what remains.

    The output is computed one horizontal strip of rows at a time (see
    _Strips), so the filter makes no image-sized array.  A strip reads
    the images from 2r rows above its first, so its last 2r output rows
    wait in a small buffer until the next strip has read them.  Every
    pixel gets the same additions in the same order as whole-image
    passes, so the result does not depend on the strip height.
    """
    if guide.shape != src.shape:
        raise DimensionMismatch(
            f"guide {guide.shape} and input {src.shape} differ"
        )
    if src.dtype != np.float64:
        raise ValueError(f"src must be float64, got {src.dtype}")
    check_window_fits(params.win, guide.shape)
    self_guided = src is guide
    guide_mean = guide.mean()
    src_mean = guide_mean if self_guided else src.mean()

    def fill_guide(dst, lo, hi):
        np.subtract(guide[lo:hi], guide_mean, out=dst)

    def fill_src(dst, lo, hi):
        np.subtract(src[lo:hi], src_mean, out=dst)

    strips = _Strips(guide.shape, params.win, self_guided)
    k = 2 * strips.r
    held = np.empty((k, guide.shape[1]))  # a strip's last k output rows
    for i0, i1 in strips.strips():
        o = strips.filter(i0, i1, fill_guide, None if self_guided else fill_src, params.eps)
        if i0:  # this strip has read the held rows' inputs
            src[i0 - k : i0] = held
        np.add(o[: i1 - i0 - k], src_mean, out=src[i0 : i1 - k])
        np.add(o[i1 - i0 - k :], src_mean, out=held)
    src[len(src) - k :] = held
    return src


def smooth_gradients(v: np.ndarray, params: GfParams) -> np.ndarray:
    """Self-guided filtering of the forward-difference derivatives of v,
    returned as the divergence of the two filtered derivatives: the only
    form in which the guidance solve takes them.

    One strip loop goes from v to the divergence, so the stage makes no
    image-sized array but the divergence.  Each strip writes v's
    circular forward differences straight into its padded blocks,
    filters them as guidfilter does and writes its divergence rows,
    Dx^T gx + Dy^T gy, each pixel added in the order
    ((gx[i, j-1] - gx[i, j]) + gy[i-1, j]) - gy[i, j].  The differences
    are not centred: their means are 0 up to rounding.  Row 0's y term
    waits for the last strip.
    """
    check_window_fits(params.win, v.shape)
    h, wd = v.shape
    eps = params.eps

    def fill_x(dst, lo, hi):
        np.subtract(v[lo:hi, 1:], v[lo:hi, :-1], out=dst[:, :-1])
        np.subtract(v[lo:hi, :1], v[lo:hi, -1:], out=dst[:, -1:])

    def fill_y(dst, lo, hi):
        end = min(hi, h - 1)  # rows whose next row does not wrap
        np.subtract(v[lo + 1 : end + 1], v[lo:end], out=dst[: end - lo])
        if hi == h:
            np.subtract(v[0], v[h - 1], out=dst[-1])

    # div is allocated before the strip buffers, which are freed on
    # return: with div after them, 256^2 restores refaulted a trimmed
    # heap top (268 minor faults per iteration against 39).
    div = np.empty((h, wd))
    strips = _Strips(v.shape, params.win, True)
    held = np.empty((2, wd))  # gy's row 0, and the row above the strip
    for i0, i1 in strips.strips():
        gx = strips.filter(i0, i1, fill_x, None, eps)
        d = div[i0:i1]
        np.subtract(gx[:, -1:], gx[:, :1], out=d[:, :1])
        np.subtract(gx[:, :-1], gx[:, 1:], out=d[:, 1:])
        gy = strips.filter(i0, i1, fill_y, None, eps)  # overwrites gx
        if i0:
            d[0] += held[1]
        else:  # row 0's y term waits for gy's last row
            held[0] = gy[0]
        d[1:] += gy[:-1]
        first = 0 if i0 else 1
        d[first:] -= gy[first:]
        held[1] = gy[-1]
    div[0] += held[1]
    div[0] -= held[0]
    return div
