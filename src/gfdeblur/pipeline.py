"""Outer restoration loop: alternate spectral deblurring, guided-filter
denoising, and gradient pre-estimation, with the regularization weight
re-selected every iteration from the discrepancy principle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .guided_filter import GfParams, guidfilter, smooth_gradients
from .errors import DimensionMismatch
from .image_core import as_image, check_window_fits, isnr, validate_window
from .regparam import (
    NoiseEstimate,
    choose_lambda,
    compute_rho,
    estimate_sigma,
    rho_terms,
)
from .spectral import (
    Psf,
    SpectralPlan,
    circ_convolve,  # unused: perfbench/tracer.py wraps pipeline.circ_convolve by name
    solve_guidance,
    solve_input,
)

# eps floor, in run_gfd's units, keeps GfParams valid when the noise estimate is zero.
EPS_FLOOR = 1e-6


@dataclass
class GfdConfig:
    """The user's settings and the single source of their defaults; None
    fields are derived at run time.  The fields are exactly the run-config
    keys and deblur flags (config.KEYS).

    gf_w and gf_eps are the window and eps of the main guided filter and
    both gradient filters; gf_eps None means (2 * sigma_hat)^2, floored
    at EPS_FLOOR.  sigma None means estimate from the observation.
    """

    iterations: int = 30
    gf_w: int = 5
    gf_eps: Optional[float] = None
    tau: float = 0.6
    sigma: Optional[float] = None

    def __post_init__(self):
        if not isinstance(self.iterations, (int, np.integer)):
            raise ValueError(f"iterations must be an integer, got {self.iterations!r}")
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations!r}")
        validate_window(self.gf_w)
        if self.gf_eps is not None:
            GfParams(self.gf_w, self.gf_eps)  # the filter's own eps check
        if math.isnan(self.tau):
            raise ValueError(f"tau must be a number, got {self.tau!r}")
        if self.sigma is not None:
            NoiseEstimate(self.sigma)  # the one sigma check


@dataclass(frozen=True)
class IterationRecord:
    k: int
    lam: float  # INFINITY (math.inf) for the short-circuit branch
    rho: float
    residual: float  # in run_gfd's units, where max|g| lies in [128, 256)
    bisect_steps: int  # LambdaChoice.iterations; 0 at lambda = INFINITY
    isnr: Optional[float] = None


def run_gfd(g: np.ndarray, psf: Psf, cfg: GfdConfig, *, reference=None, rho_override=None):
    """Restore g blurred by psf; returns (restored image, list of
    IterationRecord, one per iteration).  A reference (the clean image)
    puts each iterate's ISNR in its record; rho_override fixes every rho.

    Iteration k: pick rho and the bound from the current pre-estimate v,
    bisect for lambda, solve for the guidance and input images, then
    denoise with the guided filter and re-smooth the gradients of the
    new v into their divergence, the one image the next guidance solve
    takes.  v starts as a black image.  The spectral invariants of (g,
    psf) are built once, and F(v) once per iteration, in place in v's
    buffer; the divergence is transformed in its own.  The loop runs on g
    scaled by the power of two 2^-e that puts max|g| in [128, 256); a
    given sigma, eps and reference are scaled alike, the output is scaled
    back, and the records stay in the loop's units.
    """
    g = as_image(g)
    # Inputs are checked before any spectral work.
    check_window_fits(cfg.gf_w, g.shape)
    ref = None if reference is None else as_image(reference)
    if ref is not None and ref.shape != g.shape:
        raise DimensionMismatch(f"reference {ref.shape} differs from observation {g.shape}")
    if rho_override is not None and not 0 < rho_override <= 1:
        raise ValueError(f"rho_override must be in (0, 1], got {rho_override!r}")
    e = math.frexp(max(g.max(), -g.min()))[1] - 8
    if e:
        g = np.ldexp(g, -e)
        ref = None if ref is None else np.ldexp(ref, -e)
    try:  # only a sigma or eps far above g's scale overflows here
        sigma = None if cfg.sigma is None else math.ldexp(cfg.sigma, -e)
        eps = None if cfg.gf_eps is None else math.ldexp(cfg.gf_eps, -2 * e)
        # as does the eps NoiseEstimate derives from sigma, (2 sigma)^2
        if sigma is not None and (2.0 * sigma) * (2.0 * sigma) == math.inf:
            raise OverflowError
    except OverflowError:
        raise ValueError(
            f"sigma or gf_eps overflows when scaled with the observation by 2^{-e}: "
            f"sigma {cfg.sigma!r}, gf_eps {cfg.gf_eps!r}"
        ) from None
    est = NoiseEstimate(sigma) if sigma is not None else estimate_sigma(g)
    gf = GfParams(cfg.gf_w, eps if eps is not None else max((2.0 * est.sigma) ** 2, EPS_FLOOR))

    g_terms = rho_terms(g, est)
    plan = SpectralPlan(g, psf)
    if ref is None:
        del g  # the loop reads g only for a reference's ISNR; for e != 0 it is a copy
    npix = plan.npix
    # One spectrum buffer each for v and div, kept for the whole restore:
    # a complex half-plane with the image at its end, 2 * height floats
    # more than the image for an even width, height for an odd one.  Each
    # is transformed, solved and inverted in place.
    v_buf = np.zeros_like(plan.G)
    v = plan.image_of(v_buf)
    div_buf = np.zeros_like(plan.G)
    div = plan.image_of(div_buf)  # divergence of v's smoothed gradients

    trace: list[IterationRecord] = []
    for k in range(1, cfg.iterations + 1):
        if rho_override is not None:
            rho = rho_override
        else:
            rho = compute_rho(g_terms, v, cfg.tau)
        bound_c = rho * npix * est.variance
        v_hat = plan.spectrum(v, v_buf)  # over v, which lives on as v_hat
        # b and |H|^2 go into a pair of half-planes made for this search.
        choice = choose_lambda(plan, v_hat, bound_c, np.empty(2 * plan.G.size))
        lam = choice.value
        if choice.is_infinite:
            # v already meets the bound, so both solves are their lambda -> inf
            # limit, v: F^-1(F(v)), back into v's place.
            u_i = u_p = plan.image(v_hat, v)
        else:
            # u_p into v's place from F(v), u_i over div through div's buffer.
            u_p = solve_input(plan, v_hat, lam, v)
            u_i = solve_guidance(plan, div, lam, div_buf)

        v = guidfilter(u_i, u_p, gf)  # over u_p, which no later step reads
        # Over u_i, or at lambda = INFINITY over the divergence no solve read.
        div = smooth_gradients(v, gf, div)

        trace.append(IterationRecord(
            k=k, lam=lam, rho=rho, residual=choice.residual,
            bisect_steps=choice.iterations,
            isnr=isnr(ref, g, v) if ref is not None else None,
        ))
    if e:
        np.ldexp(v, e, out=v)
    return v, trace
