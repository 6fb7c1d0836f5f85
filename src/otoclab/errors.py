"""Exception types shared across the package. A type inherits the CLI's exit
code and stderr prefix from its category: config 1, guard 2, analysis 3."""


class OtocLabError(Exception):
    """Base class for all otoclab errors; each category sets both."""
    exit_code: int
    kind: str


class ConfigError(OtocLabError):
    """Invalid experiment configuration."""
    exit_code, kind = 1, "config error"


class GuardError(OtocLabError):
    """A numerical guard tripped: the run is undersized or ill-posed."""
    exit_code, kind = 2, "numerical guard"


class AnalysisError(OtocLabError):
    """A derived quantity could not be extracted from a series."""
    exit_code, kind = 3, "analysis"


class TailTooHeavy(GuardError):
    """Requested coherent state (or grid point) lies too far out for the
    truncated Fock space: the discarded Poisson tail exceeds tolerance."""


class DimMismatch(GuardError):
    """Operands live on Fock spaces of different dimension."""


class StepTooLarge(GuardError):
    """RK4 energy drift exceeded the conservation bound (reduce dt), or the
    energy is not finite: the orbit left the float range."""


class GridTooSmall(GuardError):
    """Phase-space grid does not capture enough of the packet."""


class TruncationGuardError(GuardError):
    """Population near the truncation edge exceeded the production guard;
    the run is undersized rather than exhibiting finite-size physics."""


class NonPositiveValues(AnalysisError):
    """Log-domain fit requested on a series with non-positive values."""


class NonFiniteValues(AnalysisError):
    """Fit or window search requested on a series holding nan or inf."""


class WindowTooSparse(AnalysisError):
    """Fit window contains fewer than the minimum number of samples."""


class GridMismatch(AnalysisError):
    """Two series do not share the same time grid."""


class InvalidRate(AnalysisError):
    """Non-positive or non-finite growth rate passed where a positive one is required."""
