"""Non-blind image deconvolution with guided-filter regularization and
adaptive regularization-parameter selection via the discrepancy
principle."""

from .guided_filter import GfParams, guidfilter, smooth_gradients
from .image_core import as_image, box_mean, box_sum, centered_sq_norm
from .pipeline import GfdConfig, IterationRecord, run_gfd
from .regparam import (
    LambdaChoice,
    NoiseEstimate,
    RhoTerms,
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

__all__ = [
    "GfParams", "guidfilter", "smooth_gradients",
    "as_image", "box_mean", "box_sum", "centered_sq_norm",
    "GfdConfig", "IterationRecord", "run_gfd",
    "LambdaChoice", "NoiseEstimate", "RhoTerms",
    "choose_lambda", "compute_rho", "estimate_sigma", "rho_terms",
    "INFINITY", "Psf", "SpectralPlan", "circ_convolve",
    "solve_guidance", "solve_input",
]

__version__ = "0.1.0"
