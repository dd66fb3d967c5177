"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Matrix or vector dimensions are inconsistent with the declared system."""


class AssumptionViolationError(ValueError):
    """A structural precondition fails (non-PD cost matrix, offset bound, ...)."""


class SimulationOverflowError(RuntimeError):
    """State norm (or the quantity `what` names) exceeded the overflow guard at step t."""

    def __init__(self, t, norm, limit, what="state norm"):
        self.t = int(t)
        self.norm = float(norm)
        self.limit = float(limit)
        super().__init__(
            f"{what} {norm:.3e} exceeded {limit:.1e} at step t={t}"
        )


class ConvergenceError(RuntimeError):
    """An iterative solver did not converge within its iteration cap."""

    def __init__(self, message, residual=None, iterations=None):
        self.residual = residual
        self.iterations = iterations
        super().__init__(message)


class ConditioningError(RuntimeError):
    """A matrix is not finite, numerically singular or not positive definite: a cost
    weight or input Hessian failing model._check_pd, or a refused linear solve."""


class ConfigError(ValueError):
    """Invalid experiment configuration (schema or dimension mismatch)."""

    def __init__(self, message, field=None):
        self.field = field
        super().__init__(message)
