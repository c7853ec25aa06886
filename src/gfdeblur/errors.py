"""Exception hierarchy shared by all gfdeblur modules."""


class GfdError(Exception):
    """Base class for all gfdeblur errors."""


class DimensionMismatch(GfdError):
    """Two images that must share dimensions do not."""


class WindowTooLarge(GfdError):
    """A box-filter window exceeds an image dimension."""


class KernelTooLarge(GfdError):
    """A PSF does not fit inside the target canvas."""


class SingularDenominator(GfdError):
    """A spectral solve hit a near-zero denominator entry."""


class UnreachableBound(GfdError):
    """The discrepancy bound lies below the residual's floor at the
    frequencies where the PSF's spectrum vanishes."""


class ImageTooSmall(GfdError):
    """The image is too small for the requested operation."""


class DegenerateInput(GfdError):
    """Input has no variation where variation is required."""


class PgmParseError(GfdError):
    """A PGM file failed to parse; message carries the byte offset."""


class UnsupportedFormat(GfdError):
    """The file is not a supported PGM variant."""


class ConfigError(GfdError):
    """A run-configuration file is malformed."""
