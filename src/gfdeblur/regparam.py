"""Adaptive regularization-parameter engine.

Noise variance via the Haar-MAD median rule, the discrepancy bound
c = rho * npix * sigma^2, the data-driven rho schedule, and bisection
for the lambda whose data-fit residual meets the bound.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, ImageTooSmall, UnreachableBound
from .image_core import centered_sq_norm
from .spectral import (
    INFINITY,
    SINGULAR,
    SpectralPlan,
    discrepancy_from_terms,
    discrepancy_terms,
)

# Gaussian consistency factor for the median absolute deviation.
MAD_FACTOR = 0.6745

# Clamp range for the s statistic; keeps rho strictly positive.
S_FLOOR = 0.05
S_CEIL = 1.0

# Bisection stops once the residual is within REL_TOL * bound of the
# bound, or after MAX_BISECT halvings.
REL_TOL = 1e-3
MAX_BISECT = 60


@dataclass(frozen=True)
class NoiseEstimate:
    """Noise standard deviation in intensity units."""

    sigma: float

    def __post_init__(self):
        if not 0 <= self.sigma < np.inf:
            raise ValueError(f"sigma must be finite and nonnegative, got {self.sigma!r}")
        # The product is inf exactly where run_gfd's eps, (2 * sigma) ** 2, raises.
        if (2.0 * self.sigma) * (2.0 * self.sigma) == np.inf:
            raise ValueError(
                f"sigma too large: the derived eps (2 * sigma)^2 overflows float64, "
                f"got {self.sigma!r}"
            )

    @property
    def variance(self) -> float:
        return self.sigma * self.sigma


@dataclass(frozen=True)
class LambdaChoice:
    """Selected regularization weight and the residual it achieves."""

    value: float  # INFINITY when the pre-estimate meets the bound within REL_TOL
    residual: float
    iterations: int

    @property
    def is_infinite(self) -> bool:
        return self.value == INFINITY


def estimate_sigma(g: np.ndarray) -> NoiseEstimate:
    """Median rule on the diagonal detail of a one-level Haar analysis.

    Odd dimensions are mirror-extended by one row/column so every 2x2
    block is complete.
    """
    h, w = g.shape
    if h < 2 or w < 2:
        raise ImageTooSmall(f"need at least 2x2 for noise estimation, got {h}x{w}")
    if h % 2:
        g = np.vstack([g, g[-1:, :]])
    if w % 2:
        g = np.hstack([g, g[:, -1:]])
    a = g[0::2, 0::2]
    b = g[0::2, 1::2]
    c = g[1::2, 0::2]
    d = g[1::2, 1::2]
    hh = np.abs((a - b - c + d) / 2.0).ravel()
    # np.median's selection and mean, without its NaN check's numpy.ma
    # import: a NaN sorts last and gives sigma NaN, which NoiseEstimate refuses.
    lo, hi = (hh.size - 1) // 2, hh.size // 2
    hh.partition([lo, hi, -1])
    med = hh[-1] if np.isnan(hh[-1]) else hh[hi] if lo == hi else (hh[lo] + hh[hi]) / 2.0
    return NoiseEstimate(sigma=float(med) / MAD_FACTOR)


@dataclass(frozen=True)
class RhoTerms:
    """The observation's part of the rho schedule, fixed for a restore."""

    shape: tuple
    s: float  # clamped to [S_FLOOR, S_CEIL]
    noise_energy: float  # npix * sigma^2
    excess: float  # centered energy of g minus noise_energy


def rho_terms(g: np.ndarray, est: NoiseEstimate) -> RhoTerms:
    """s compares the centered energy of g against the noise energy."""
    noise_energy = g.size * est.variance
    g_sq = float(np.dot(g.ravel(), g.ravel()))
    cvar_g = centered_sq_norm(g)
    if g_sq > 0:
        s = 1.0 - (cvar_g - noise_energy) / g_sq
    else:
        s = 1.0
    s = min(max(s, S_FLOOR), S_CEIL)
    return RhoTerms(g.shape, s, noise_energy, cvar_g - noise_energy)


def compute_rho(terms: RhoTerms, v: np.ndarray, tau: float) -> float:
    """Data-driven discrepancy fraction.

    The thresh statistic picks between rho = s^2 (noisy / uninformative
    v) and rho = s (v already carries structure).
    """
    if terms.shape != v.shape:
        raise DimensionMismatch(f"g {terms.shape} and v {v.shape} differ")
    s, noise_energy, excess = terms.s, terms.noise_energy, terms.excess
    cvar_v = centered_sq_norm(v)
    if cvar_v <= 0.0 or noise_energy <= 0.0:
        thresh = np.inf
    elif excess <= 0.0:
        thresh = 0.0
    elif noise_energy * cvar_v == 0.0:
        thresh = np.inf  # the product underflows; thresh's limit as it falls to 0
    else:
        thresh = float(np.sqrt(excess / (noise_energy * cvar_v)))
    return s * s if thresh > tau else s


def choose_lambda(plan: SpectralPlan, v_hat: np.ndarray, bound_c: float,
                  work: np.ndarray) -> LambdaChoice:
    """Solve the discrepancy equation residual(lambda) = bound_c by
    bisection, given the pre-estimate's spectrum v_hat = plan.spectrum(v).

    The residual rises monotonically to its lambda -> inf asymptote,
    the residual of v itself.  If that asymptote is at most REL_TOL
    above the bound (the bisection's own stop band), returns INFINITY
    (downstream then takes u_I = u_p = v).  Otherwise brackets by
    doubling from lambda = 1 and bisects until the residual is within
    REL_TOL of the bound or MAX_BISECT halvings are spent; each
    lambda's residual is computed once.  The doubling needs no cap: with
    A = max |H|^2 the residual is at least asymptote * (1 - 2 A / lambda),
    so it passes the bound by lambda = 2 A (1 + REL_TOL) / REL_TOL.
    Where H vanishes, a term keeps about its full b down to lambda near
    |H|^2 there.  A search that spends MAX_BISECT halvings without
    meeting the bound, while b summed over npix where |H|^2 is below
    spectral.SINGULAR is more than REL_TOL above the bound, raises
    UnreachableBound: the residual stayed above the bound down to lambda
    near 2^-MAX_BISECT, where the guidance solve's denominator is about
    |H|^2, below SINGULAR, at those frequencies.  A bound_c that is
    negative or not finite (an overflowed rho or sigma) raises
    ValueError.

    A finite search writes |H|^2 over the front of work, a C-contiguous
    float64 image of the plan's shape; run_gfd passes v, which only the
    lambda = INFINITY branch reads again.
    """
    if not 0 <= bound_c < INFINITY:
        raise ValueError(f"bound_c must be finite and nonnegative, got {bound_c!r}")
    b = discrepancy_terms(plan, v_hat)
    npix = plan.npix
    # lam -> inf asymptote equals the residual of v itself (Parseval).
    entry = float(b.sum() / npix)
    if entry <= bound_c * (1 + REL_TOL):
        return LambdaChoice(value=INFINITY, residual=entry, iterations=0)
    a = plan.H_sq(work)

    # The bisection starts at the bracket's last lambda, hi, and its
    # first midpoint is the one before, hi / 2: each residual is cached.
    residual = functools.cache(lambda lam: discrepancy_from_terms(a, b, npix, lam))

    hi = 1.0
    while residual(hi) < bound_c:
        hi *= 2.0
    lo = 0.0
    mid = hi
    res = residual(mid)
    steps = 0
    while steps < MAX_BISECT and abs(res - bound_c) > REL_TOL * bound_c:
        mid = 0.5 * (lo + hi)
        res = residual(mid)
        steps += 1
        if res < bound_c:
            lo = mid
        else:
            hi = mid
    if abs(res - bound_c) > REL_TOL * bound_c:
        zeros = a < SINGULAR
        floor = float(np.sum(b[zeros]) / npix)
        if floor > bound_c * (1 + REL_TOL):
            raise UnreachableBound(
                f"discrepancy bound {bound_c:.6g} lies below the residual's floor {floor:.6g} "
                f"at the {np.count_nonzero(zeros)} frequencies where the PSF's spectrum vanishes"
            )
    return LambdaChoice(value=mid, residual=res, iterations=steps)
