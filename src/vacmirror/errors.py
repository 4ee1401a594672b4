"""Exception types shared across the library.

The CLI maps these onto distinct exit codes (parameter / usage -> 2,
convergence -> 3, capacity -> 4).
"""


class ParameterError(ValueError):
    """A physical parameter is invalid (non-positive mass, length, ...)."""


class UsageError(ValueError):
    """An operation was called with arguments outside its contract."""


class DegenerateModeSetError(ParameterError):
    """The requested cutoff leaves no field mode to sum over."""


class ConvergenceError(RuntimeError):
    """A quadrature or eigensolve did not reach the requested tolerance.

    Carries the best available estimate (None when nothing was evaluated)
    and the tolerance actually achieved, for callers of the library.  The
    CLI prints the message and exits 3; a sweep stops at its first failing
    point and writes no CSV, so the points before it are lost too.
    """

    def __init__(self, message, best_estimate=None, achieved_rel_tol=None):
        super().__init__(message)
        self.best_estimate = best_estimate
        self.achieved_rel_tol = achieved_rel_tol


class CapacityError(RuntimeError):
    """A requested computation exceeds a configured size limit."""
