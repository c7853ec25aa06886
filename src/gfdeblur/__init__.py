"""Non-blind image deconvolution with guided-filter regularization and
adaptive regularization-parameter selection via the discrepancy
principle."""

from .pipeline import GfdConfig, IterationRecord, run_gfd
from .spectral import Psf

__all__ = ["run_gfd", "GfdConfig", "IterationRecord", "Psf"]

__version__ = "0.1.0"
