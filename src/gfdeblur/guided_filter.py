"""Edge-preserving guided filter.

Output is a local linear transform of the guidance image: per-window
ridge-regression coefficients (a, b), averaged over all overlapping
windows.  All window means are box sums with mirror boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .image_core import box_mean, check_window_fits, validate_window
from .spectral import diff_x, diff_y

# Bytes of padded rows per guided-filter strip: the strip's own rows, as
# wide as the mirror-padded image.  With its halo and the other strip
# buffers beside them, a strip's working set stays near a per-core L2.
STRIP_BYTES = 256 * 1024


@dataclass(frozen=True)
class GfParams:
    """Window side length (odd) and slope regularizer eps (> 0)."""

    win: int
    eps: float

    def __post_init__(self):
        validate_window(self.win)
        if not self.eps > 0:
            raise ValueError(f"eps must be strictly positive, got {self.eps!r}")


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


def _fill_centred(p: np.ndarray, img: np.ndarray, mean: float, lo: int, hi: int,
                  top: int, r: int) -> np.ndarray:
    """Write img[lo:hi] - mean into block p from row top, r columns in,
    and mirror the rest of p around it; returns p."""
    end = top + hi - lo
    np.subtract(img[lo:hi], mean, out=p[top:end, r : p.shape[1] - r])
    _mirror(p, top, end, r)
    return p


def guidfilter(guide: np.ndarray, src: np.ndarray, params: GfParams) -> np.ndarray:
    """Filter src steered by guide.

    Per window: a = cov(guide, src) / (var(guide) + eps), b = mean(src)
    - a * mean(guide); the output at each pixel uses the window averages
    of a and b.  A self-guided call (src is guide) reuses the guide's
    window statistics for src.

    The filter commutes with adding a constant to either image, so both
    are centred on their global means first: the window moments
    E[x^2] - E[x]^2 then cancel far less on a large, near-constant
    image, and var(guide) is clamped at 0 against what remains.

    The output is computed one horizontal strip of rows at a time, each
    strip about STRIP_BYTES of padded rows, so all of a strip's passes
    stay in cache and the output is the only image-sized array.  A strip
    mirror-pads the centred guide (and src) rows it reaches, strip +- 2r
    for r = (w - 1) // 2, takes the window statistics and a, b for strip
    +- r rows, mirrors a and b at the image's top and bottom, then takes
    their window means for its own rows.  Every pixel gets the same
    additions in the same order as whole-image passes, so the result
    does not depend on the strip height.
    """
    if guide.shape != src.shape:
        raise DimensionMismatch(
            f"guide {guide.shape} and input {src.shape} differ"
        )
    w = params.win
    check_window_fits(w, guide.shape)
    self_guided = src is guide
    guide_mean = guide.mean()
    src_mean = guide_mean if self_guided else src.mean()
    h, wd = guide.shape
    r = (w - 1) // 2
    pw = wd + 2 * r
    n_strips = -(-h // max(1, STRIP_BYTES // (pw * 8)))  # float64 rows
    bounds = [h * k // n_strips for k in range(n_strips + 1)]
    m_max = -(-h // n_strips) + 2 * r
    # Every strip buffer is reused and allocated before out: a strip
    # temporary allocated after out and freed on every strip lets the
    # heap top be trimmed and refaulted.  A self-guided call needs no src
    # buffers.
    g_rows = m_max + 2 * r
    n_src = 0 if self_guided else 1
    pg, ps, prod, rows, pa, pb, mean_g, mean_s, var_g, tmp = _line_aligned(
        (g_rows, pw), (n_src * g_rows, pw), (g_rows, pw), (m_max, pw), (m_max, pw), (m_max, pw),
        (m_max, wd), (n_src * m_max, wd), (m_max, wd), (m_max, wd),
    )
    if self_guided:
        ps, mean_s = pg, mean_g
    out = np.empty((h, wd))
    for i0, i1 in zip(bounds, bounds[1:]):
        n = i1 - i0
        # a and b are needed on rows [lo, hi), the window statistics on
        # those rows, and the guide and src on [glo, ghi).
        lo, hi = max(0, i0 - r), min(h, i1 + r)
        m = hi - lo
        glo, ghi = max(0, lo - r), min(h, hi + r)
        gtop = glo - (lo - r)
        g = _fill_centred(pg[: m + 2 * r], guide, guide_mean, glo, ghi, gtop, r)
        s = rows[:m]
        mg = box_mean(g, w, mean_g[:m], s)
        gg = prod[: m + 2 * r]
        vg = box_mean(np.multiply(g, g, out=gg), w, var_g[:m], s)
        t = tmp[:m]
        vg -= np.multiply(mg, mg, out=t)
        atop = lo - (i0 - r)
        a = pa[: n + 2 * r]
        b = pb[: n + 2 * r]
        a_rows = a[atop : atop + m, r : r + wd]
        b_rows = b[atop : atop + m, r : r + wd]
        if self_guided:
            ms = mg
            np.copyto(a_rows, vg)
        else:
            p = _fill_centred(ps[: m + 2 * r], src, src_mean, glo, ghi, gtop, r)
            ms = box_mean(p, w, mean_s[:m], s)
            box_mean(np.multiply(g, p, out=gg), w, a_rows, s)
            a_rows -= np.multiply(mg, ms, out=t)  # cov(guide, src)
        np.maximum(vg, 0.0, out=vg)
        vg += params.eps
        a_rows /= vg
        np.multiply(a_rows, mg, out=b_rows)
        np.subtract(ms, b_rows, out=b_rows)
        _mirror(a, atop, atop + m, r)
        _mirror(b, atop, atop + m, r)
        o = box_mean(a, w, out[i0:i1], rows[:n])
        o *= g[i0 - lo + r : i1 - lo + r, r : r + wd]
        o += box_mean(b, w, tmp[:n], rows[:n])
        o += src_mean
    return out


def smooth_gradients(v: np.ndarray, params: GfParams):
    """Self-guided filtering of the forward-difference derivatives of v."""
    gx = diff_x(v)
    gy = diff_y(v)
    return guidfilter(gx, gx, params), guidfilter(gy, gy, params)
