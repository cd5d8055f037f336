"""Exception taxonomy shared by all modules.

Domain violations and inadmissible measures are value errors (the caller
passed something the mathematics rejects); convergence failures are runtime
errors and carry the best estimate obtained so far so callers can decide
whether a degraded answer is still useful.  is_real and is_count are the
one rule for numeric arguments: a bool is not a number.
"""

import numbers


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
