"""Exception types shared across the package."""


class PhysicalityError(ValueError):
    """An object violates a physical invariant (norm, hermiticity, trace, positivity)."""


class ConvergenceError(RuntimeError):
    """A discretization or propagation failed its convergence or stiffness check."""


class PositivityError(ConvergenceError):
    """An evolved density matrix developed a negative eigenvalue beyond tolerance."""


class GridResolutionError(ValueError):
    """A spatial or momentum grid is too coarse for the requested transform."""


class ConfigError(ValueError):
    """A run configuration is malformed or incomplete."""
