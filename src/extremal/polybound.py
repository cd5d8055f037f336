"""Sup-norm bounds for monic polynomials from power sums of their roots.

For F(z) = prod_{m=1}^M (z - alpha_m) the bound

    sup_{|z| <= 1} log|F(z)|
        <= sum_m log+|alpha_m| + M log2/(N+1)
           + sum_{n=1}^N n^{-1} |sum_m beta_m^n|

holds for every degree parameter N >= 0, where beta_m = alpha_m inside the
closed unit disk and beta_m = 1/conj(alpha_m) outside (Blaschke reflection,
which preserves |F| on the circle up to the constant prod |alpha| over the
exterior roots).  The log2/(N+1) term is the mean of the degree-N majorant
of log|2 sin(pi x)|, which is where the constant comes from; it cannot be
improved for N = 0 where alpha = {1} attains equality (both sides log 2).

A brute-force boundary oracle (dense circle grid, then a zoom of 33-point
grids on the best cell; maximum modulus pushes the sup to |z| = 1) and the
Jensen-mean identity sum log+|alpha_m| = int_0^1 log|F(e(x))| dx serve as
independent soundness checks.
"""

import math
import warnings

import numpy as np

from dataclasses import dataclass
from typing import Tuple

from . import measures, quadrature
from .errors import DomainError, check_count, is_count

_INTERIOR_GUARD = 1.0 + 1e-15
_ZOOM = 33          # points per zoom step; the bracket shrinks 16x a step


def _as_roots(alpha):
    a = np.atleast_1d(np.asarray(alpha, dtype=complex))
    if a.ndim != 1 or len(a) == 0:
        raise DomainError("need a nonempty 1-d root sequence")
    if not np.all(np.isfinite(a)):
        raise DomainError("roots must be finite")
    return a


@dataclass(frozen=True)
class SupBound:
    """Power-sum bound on sup log|F| over the closed unit disk."""

    M: int
    N: int
    bound: float
    logplus_sum: float
    power_sums: Tuple[float, ...]    # |sum_m beta_m^n| for n = 1..N


def reflect_roots(alpha):
    """Replace each root outside the closed unit disk by 1/conj(alpha).

    Moduli within 1e-15 of 1 count as interior so rounding noise cannot
    leak into the log+ term.  All outputs satisfy |beta| <= 1.
    """
    a = _as_roots(alpha)
    outside = np.abs(a) > _INTERIOR_GUARD
    b = a.copy()
    b[outside] = 1.0 / np.conj(a[outside])
    return b


def disk_sup_bound(alpha, N):
    """The log+ / power-sum upper bound for sup_{|z|<=1} log|F(z)|."""
    a = _as_roots(alpha)
    N = check_count(N, "N")
    mods = np.abs(a)
    logplus = float(np.sum(np.log(mods[mods > _INTERIOR_GUARD])))
    beta = reflect_roots(a)
    powers = np.cumprod(np.broadcast_to(beta, (N, len(beta))), axis=0)
    sums = np.abs(np.sum(powers, axis=1)).tolist()
    bound = (logplus + len(a) * math.log(2.0) / (N + 1.0)
             + sum(s / n for n, s in enumerate(sums, start=1)))
    return SupBound(len(a), N, bound, logplus, tuple(sums))


def _log_abs_on_circle(xs, alpha):
    """sum_m log|e(x) - alpha_m| on the circle, -inf exactly at roots."""
    z = np.exp(2j * np.pi * np.asarray(xs, dtype=float))
    total = np.zeros(z.shape)
    with np.errstate(divide="ignore"):
        for am in alpha:
            total += np.log(np.abs(z - am))
    return total


def sup_log_oracle(alpha, samples=65536):
    """Lower estimate of sup_{|z|<=1} log|F(z)| from the boundary circle.

    Dense offset grid of ``samples`` points (a root exactly on a grid point
    only costs that one -inf sample), then a zoom on the best cell
    [best - 1, best + 2]/samples: each step evaluates 33 equally spaced
    points of the bracket and keeps the two neighbours of the best one,
    until the bracket is narrower than 1e-13 (8 steps at 8192 and at 65536
    samples).  The result is the largest value seen, never below the grid's.
    """
    a = _as_roots(alpha)
    if not (is_count(samples) and samples >= 1024):
        raise DomainError(f"need an integer >= 1024 boundary samples, got {samples!r}")
    xs = (np.arange(samples) + 0.5) / samples
    vals = _log_abs_on_circle(xs, a)
    best = int(np.argmax(vals))     # finite, or -inf exactly at a root
    sup = float(vals[best])
    lo = (best - 1.0) / samples
    hi = (best + 2.0) / samples
    while hi - lo > 1e-13:
        xs = np.linspace(lo, hi, _ZOOM)
        vals = _log_abs_on_circle(xs, a)
        j = int(np.argmax(vals))
        sup = max(sup, float(vals[j]))
        j = min(max(j, 1), _ZOOM - 2)
        lo, hi = xs[j - 1], xs[j + 1]
    return sup


def jensen_gap(alpha, tol=1e-10):
    """|sum log+|alpha| - circle mean of log|F||; zero in exact arithmetic.

    Roots within 1e-9 of the unit circle make the integrand near-singular;
    a warning flags the conditioning but the quadrature still runs.
    """
    a = _as_roots(alpha)
    if np.any(np.abs(np.abs(a) - 1.0) < 1e-9):
        warnings.warn("root within 1e-9 of the unit circle: "
                      "Jensen integral is ill-conditioned", RuntimeWarning)
    logplus = disk_sup_bound(a, 0).logplus_sum
    res = quadrature.integrate_finite(
        lambda xs: _log_abs_on_circle(xs, a), 0.0, 1.0, tol=tol)
    return abs(logplus - res.value)


def bound_report(alpha, N, samples=65536):
    """JSON-ready payload comparing the bound with the boundary oracle."""
    a = _as_roots(alpha)
    sb = disk_sup_bound(a, N)
    sup = sup_log_oracle(a, samples)
    return {
        "M": sb.M,
        "N": sb.N,
        "bound": sb.bound,
        "sup_estimate": sup,
        "slack": sb.bound - sup,
        "logplus_sum": sb.logplus_sum,
        "power_sums": list(sb.power_sums),
    }


def roots_from_csv(path):
    """Read complex roots from CSV with header ``re,im``.

    The CLI reads form coefficients (``bounds --coeffs``) with it as well.
    """
    return np.asarray([complex(re, im)
                       for _, (re, im) in measures._csv_rows(path, ("re", "im"))],
                      dtype=complex)
