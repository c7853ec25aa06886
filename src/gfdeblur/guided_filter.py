"""Edge-preserving guided filter.

Output is a local linear transform of the guidance image: per-window
ridge-regression coefficients (a, b), averaged over all overlapping
windows.  All window means are box sums with mirror boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DimensionMismatch
from .image_core import box_mean, validate_window
from .spectral import diff_x, diff_y


@dataclass(frozen=True)
class GfParams:
    """Window side length (odd) and slope regularizer eps (> 0).

    eps None is resolved by run_gfd to (2 * sigma_hat)^2, floored at
    pipeline.EPS_FLOOR; guidfilter needs it resolved.
    """

    win: int = 5
    eps: Optional[float] = None

    def __post_init__(self):
        validate_window(self.win)
        if self.eps is not None and not self.eps > 0:
            raise ValueError(f"eps must be strictly positive, got {self.eps!r}")


def guidfilter(guide: np.ndarray, src: np.ndarray, params: GfParams) -> np.ndarray:
    """Filter src steered by guide.

    Per window: a = cov(guide, src) / (var(guide) + eps), b = mean(src)
    - a * mean(guide); the output at each pixel uses the window averages
    of a and b.  A self-guided call (src is guide) reuses the guide's
    window statistics for src.
    """
    if guide.shape != src.shape:
        raise DimensionMismatch(
            f"guide {guide.shape} and input {src.shape} differ"
        )
    if params.eps is None:
        raise ValueError("GfParams.eps is unresolved (None)")
    w = params.win
    mean_g = box_mean(guide, w)
    corr_gg = box_mean(guide * guide, w)
    if src is guide:
        mean_s, corr_gs = mean_g, corr_gg
    else:
        mean_s = box_mean(src, w)
        corr_gs = box_mean(guide * src, w)
    var_g = corr_gg - mean_g * mean_g
    cov_gs = corr_gs - mean_g * mean_s
    a = cov_gs / (var_g + params.eps)
    b = mean_s - a * mean_g
    return box_mean(a, w) * guide + box_mean(b, w)


def smooth_gradients(v: np.ndarray, params: GfParams):
    """Self-guided filtering of the forward-difference derivatives of v."""
    gx = diff_x(v)
    gy = diff_y(v)
    return guidfilter(gx, gx, params), guidfilter(gy, gy, params)
