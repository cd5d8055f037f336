"""Exception taxonomy shared by all modules.

Domain violations and inadmissible measures are value errors (the caller
passed something the mathematics rejects); convergence failures are runtime
errors and carry the best estimate obtained so far so callers can decide
whether a degraded answer is still useful.  is_real and is_count are the
one rule for numeric arguments: a bool is not a number.  check_count,
check_kind, check_finite and check_delta are the one count, kind,
evaluation-point and dilation rules, each with its one message.
"""

import math
import numbers

import numpy as np


def is_real(v):
    """A real number: an int or float of Python or numpy, not a bool."""
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def is_count(v):
    """An integer of Python or numpy, not a bool."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


class DomainError(ValueError):
    """Argument outside the mathematical domain of an operation."""


class AdmissibilityError(ValueError):
    """Measure fails the admissibility condition required by the operation."""


class ConvergenceError(RuntimeError):
    """Iteration/quadrature budget exhausted before reaching tolerance.

    Carries the best estimate and its error estimate when available.
    """

    def __init__(self, message, estimate=None, err_estimate=None):
        super().__init__(message)
        self.estimate = estimate
        self.err_estimate = err_estimate


class DivergenceError(ConvergenceError):
    """Quadrature estimate grows without bound under refinement."""


def check_count(v, what):
    """v as an int; DomainError unless it is a nonnegative count."""
    if not (is_count(v) and v >= 0):
        raise DomainError(f"{what} must be a nonnegative integer, got {v!r}")
    return int(v)


def check_kind(kind):
    """kind; DomainError unless it is "minorant" or "majorant"."""
    if kind not in ("minorant", "majorant"):
        raise DomainError(f"unknown kind {kind!r}; use 'minorant' or 'majorant'")
    return kind


def check_delta(delta):
    """DomainError unless delta (a dilation or separation) is finite, > 0."""
    if not (is_real(delta) and delta > 0.0 and math.isfinite(delta)):
        raise DomainError(f"dilation parameter must be finite and positive, got {delta!r}")


def check_finite(x):
    """x as a float array; DomainError if a point is nan or infinite."""
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise DomainError("evaluation points must be finite")
    return x
