"""Edge-preserving guided filter.

Output is a local linear transform of the guidance image: per-window
ridge-regression coefficients (a, b), averaged over all overlapping
windows.  All window means are box sums with mirror boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .image_core import box_mean, validate_window
from .spectral import diff_x, diff_y


@dataclass(frozen=True)
class GfParams:
    """Window side length (odd) and slope regularizer eps (> 0)."""

    win: int
    eps: float

    def __post_init__(self):
        validate_window(self.win)
        if not self.eps > 0:
            raise ValueError(f"eps must be strictly positive, got {self.eps!r}")


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
    """
    if guide.shape != src.shape:
        raise DimensionMismatch(
            f"guide {guide.shape} and input {src.shape} differ"
        )
    w = params.win
    self_guided = src is guide
    guide_mean = guide.mean()
    src_mean = guide_mean if self_guided else src.mean()
    guide = guide - guide_mean
    src = guide if self_guided else src - src_mean
    # Updated in place, each statistic dropped once used: at 1024^2 every
    # image-sized temporary is a visible share of peak memory.
    mean_g = box_mean(guide, w)
    var_g = box_mean(guide * guide, w)
    var_g -= mean_g * mean_g
    if self_guided:
        mean_s, a = mean_g, var_g.copy()
    else:
        mean_s = box_mean(src, w)
        a = box_mean(guide * src, w)
        a -= mean_g * mean_s  # cov(guide, src)
    np.maximum(var_g, 0.0, out=var_g)
    var_g += params.eps
    a /= var_g
    del var_g
    b = a * mean_g
    np.subtract(mean_s, b, out=b)
    del mean_g, mean_s
    out = box_mean(a, w)
    out *= guide
    del a
    out += box_mean(b, w)
    out += src_mean
    return out


def smooth_gradients(v: np.ndarray, params: GfParams):
    """Self-guided filtering of the forward-difference derivatives of v."""
    gx = diff_x(v)
    gy = diff_y(v)
    return guidfilter(gx, gx, params), guidfilter(gy, gy, params)
