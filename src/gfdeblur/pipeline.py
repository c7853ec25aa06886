"""Outer restoration loop: alternate spectral deblurring, guided-filter
denoising, and gradient pre-estimation, with the regularization weight
re-selected every iteration from the discrepancy principle.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .guided_filter import GfParams, guidfilter, smooth_gradients
from .errors import BracketFailure, DimensionMismatch
from .image_core import as_image, check_window_fits, isnr
from .regparam import (
    LambdaChoice,
    NoiseEstimate,
    choose_lambda,
    compute_rho,
    estimate_sigma,
    rho_terms,
)
from .spectral import (
    INFINITY,
    Psf,
    SpectralPlan,
    circ_convolve,
    solve_guidance,
    solve_input,
)

log = logging.getLogger(__name__)

# eps floor keeps GfParams valid when the noise estimate is zero.
EPS_FLOOR = 1e-6


@dataclass
class GfdConfig:
    """Run configuration and the single source of its defaults; None
    fields are derived at run time.

    gf_main sets the main guided filter and both gradient filters; its
    eps None means (2 * sigma_hat)^2, floored at EPS_FLOOR.  sigma None
    means estimate from the observation.
    """

    iterations: int = 30
    gf_main: GfParams = field(default_factory=GfParams)
    tau: float = 0.6
    sigma: Optional[float] = None
    rho_override: Optional[float] = None
    reference: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations!r}")
        if self.rho_override is not None and not 0 < self.rho_override <= 1:
            raise ValueError(f"rho_override must be in (0, 1], got {self.rho_override!r}")


@dataclass(frozen=True)
class IterationRecord:
    k: int
    lam: float  # INFINITY (math.inf) for the short-circuit branch
    rho: float
    residual: float
    isnr: Optional[float] = None


def run_gfd(g: np.ndarray, psf: Psf, cfg: GfdConfig):
    """Restore g blurred by psf; returns (restored image, list of
    IterationRecord, one per iteration).

    Iteration k: pick rho and the bound from the current pre-estimate v,
    bisect for lambda, solve for the guidance and input images, then
    denoise with the guided filter and re-smooth the gradients of the
    new v.  v starts as a black image.  The spectral invariants of (g,
    psf) are built once, and F(v) once per iteration.
    """
    g = as_image(g)
    # Inputs are checked before any spectral work.
    check_window_fits(cfg.gf_main.win, g.shape)
    ref = None if cfg.reference is None else as_image(cfg.reference)
    if ref is not None and ref.shape != g.shape:
        raise DimensionMismatch(f"reference {ref.shape} differs from observation {g.shape}")
    est = NoiseEstimate(cfg.sigma) if cfg.sigma is not None else estimate_sigma(g)
    eps = max((2.0 * est.sigma) ** 2, EPS_FLOOR)
    gf = cfg.gf_main if cfg.gf_main.eps is not None else replace(cfg.gf_main, eps=eps)

    g_terms = rho_terms(g, est)  # also refuses an overflowing observation
    plan = SpectralPlan(g, psf)
    npix = g.size
    v = np.zeros_like(g)
    vx = np.zeros_like(g)
    vy = np.zeros_like(g)

    trace: list[IterationRecord] = []
    for k in range(1, cfg.iterations + 1):
        if cfg.rho_override is not None:
            rho = cfg.rho_override
        else:
            rho = compute_rho(g_terms, v, cfg.tau)
        bound_c = rho * npix * est.variance
        v_hat = plan.spectrum(v)
        try:
            choice = choose_lambda(plan, v_hat, bound_c)
        except BracketFailure:
            # Bound sits above the finite-lambda asymptote only through
            # numerical slack; the asymptote residual is that of v itself.
            resid = float(np.sum((circ_convolve(v, psf) - g) ** 2))
            choice = LambdaChoice(value=INFINITY, residual=resid, iterations=0)
            log.warning("iteration %d: bracket failure, falling back to lambda=inf", k)

        lam = choice.value
        # lambda = INFINITY: v already meets the bound, so both solves are v.
        u_p = v if choice.is_infinite else solve_input(plan, v_hat, lam)
        del v_hat  # F(v) is not needed past here; free it before the filters
        u_i = v if choice.is_infinite else solve_guidance(plan, vx, vy, lam)

        v = guidfilter(u_i, u_p, gf)
        vx, vy = smooth_gradients(v, gf)

        trace.append(IterationRecord(
            k=k, lam=lam, rho=rho, residual=choice.residual,
            isnr=isnr(ref, g, v) if ref is not None else None,
        ))
    return v, trace
