"""Exception types shared across the package."""


class OtocLabError(Exception):
    """Base class for all otoclab errors."""


class TailTooHeavy(OtocLabError):
    """Requested coherent state (or grid point) lies too far out for the
    truncated Fock space: the discarded Poisson tail exceeds tolerance."""


class NotHermitian(OtocLabError):
    """Operator failed a Hermiticity check."""


class DimMismatch(OtocLabError):
    """Operands live on Fock spaces of different dimension."""


class StepTooLarge(OtocLabError):
    """RK4 energy drift exceeded the conservation bound; reduce dt."""


class GridTooSmall(OtocLabError):
    """Phase-space grid does not capture enough of the packet."""


class TruncationGuardError(OtocLabError):
    """Population near the truncation edge exceeded the production guard;
    the run is undersized rather than exhibiting finite-size physics."""


class NonPositiveValues(OtocLabError):
    """Log-domain fit requested on a series with non-positive values."""


class NonFiniteValues(OtocLabError):
    """Fit or window search requested on a series holding nan or inf."""


class WindowTooSparse(OtocLabError):
    """Fit window contains fewer than the minimum number of samples."""


class GridMismatch(OtocLabError):
    """Two series do not share the same time grid."""


class InvalidRate(OtocLabError):
    """Non-positive or non-finite growth rate passed where a positive one is required."""


class ConfigError(OtocLabError):
    """Invalid experiment configuration."""
