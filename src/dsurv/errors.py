"""Exception types shared across the package, and the check of the
iteration settings every fit takes."""

import math


class InputError(ValueError):
    """Raised for malformed or inconsistent input data."""


class ConvergenceError(RuntimeError):
    """Raised when an iterative fit fails to converge.

    Attributes
    ----------
    iterations : int
        Number of iterations performed before giving up.
    score_norm : float
        Max-abs component of the estimating function at the last iterate.
    """

    def __init__(self, message, iterations=0, score_norm=float("nan")):
        super().__init__(message)
        self.iterations = iterations
        self.score_norm = score_norm


class SingularMatrixError(RuntimeError):
    """Raised when a required matrix inverse does not exist."""


def check_settings(tol, max_iter, tol_name, iter_name):
    """Raise ``InputError`` unless ``tol`` is positive and finite and
    ``max_iter`` is at least 1; the names head the messages."""
    if not (math.isfinite(tol) and tol > 0):
        raise InputError(f"{tol_name} must be a positive finite number (got {tol})")
    if max_iter < 1:
        raise InputError(f"{iter_name} must be at least 1 (got {max_iter})")
