"""Exception hierarchy shared across the package."""


class OctoolError(Exception):
    """Base class for all package-specific errors."""


class ParameterError(OctoolError, ValueError):
    """A parameter is outside its admissible range."""


class PoleError(OctoolError, ValueError):
    """Evaluation requested at (or too close to) a pole."""


class NonConvergenceError(OctoolError):
    """A series failed to meet tolerance within its term budget."""


class SingularityError(OctoolError, ValueError):
    """Evaluation requested at (or too close to) a singular point."""


class SupportError(OctoolError, ValueError):
    """A kernel's support violates a hypothesis of the requested quantity."""


class KernelNotIntegrableError(OctoolError):
    """The kernel is not integrable on (0, inf) but the operation requires it."""


class MonotonicityError(OctoolError, ValueError):
    """Input samples violate a required monotonicity condition."""


class QuadratureError(OctoolError):
    """Base class for quadrature failures; carries the partial result."""

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class BudgetExhaustedError(QuadratureError):
    """The subdivision budget ran out before the tolerance was met."""


class DivergentIntegralError(QuadratureError):
    """Dyadic tail blocks failed to decay: the integral looks divergent.

    ``mask`` marks the divergent components of a vector integrand; it is None
    for a scalar one."""

    def __init__(self, message, partial=None, mask=None):
        super().__init__(message, partial)
        self.mask = mask
