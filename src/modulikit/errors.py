"""Exception types shared across the package."""


class ModulikitError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatchError(ModulikitError, ValueError):
    """Operands have incompatible shapes."""


class SingularMatrixError(ModulikitError, ValueError):
    """Matrix is not invertible within tolerance."""


class NotPositiveDefiniteError(ModulikitError, ValueError):
    """Matrix is not hermitian positive definite within tolerance."""


class NotUnitModulusError(ModulikitError, ValueError):
    """Torus parameter does not lie on the unit circle."""


class NotInCommutantError(ModulikitError, ValueError):
    """Gauge matrix is not block diagonal for the weight grading."""


class CovarianceViolationError(ModulikitError, ValueError):
    """Connection data has entries outside the allowed weight-shift pattern."""


class QuiverMismatchError(ModulikitError, ValueError):
    """Representations live on different quivers."""


class NotTripotentError(ModulikitError, ValueError):
    """Element is not a tripotent within tolerance."""
