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

A brute-force boundary oracle (maximum modulus pushes the sup to
|z| = 1) and the Jensen-mean identity sum log+|alpha_m| =
int_0^1 log|F(e(x))| dx serve as independent soundness checks.  The
oracle takes |F| on a dense circle grid by one FFT of the twisted
coefficients of F, keeps the cells that its rounding bound cannot rule
out, and zooms on the best of them with 33-point grids.  Every value it
returns is log|F| in product form, one logarithm per 8 roots
(_log_abs_on_circle), never from the FFT.  A SupBound gives the bound of
every lower degree from its power sums (SupBound.at), so one cumulative
product serves all the degrees of a root set.
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
_GROUP = 8          # roots per logarithm of the product form
_BLOCK = 2 ** 16    # factors per block of the product form, at most


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

    def at(self, n):
        """The bound of degree n <= N from the same power sums: that of
        disk_sup_bound(alpha, n), bit for bit."""
        if not (is_count(n) and 0 <= n <= self.N):
            raise DomainError(f"degree must be an integer in [0, {self.N}], got {n!r}")
        return _bound(self.logplus_sum, self.M, self.power_sums[:n])


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


def _bound(logplus, M, sums):
    """The bound's formula, of degree N = len(sums)."""
    return (logplus + M * math.log(2.0) / (len(sums) + 1.0)
            + sum(s / n for n, s in enumerate(sums, start=1)))


def disk_sup_bound(alpha, N):
    """The log+ / power-sum upper bound for sup_{|z|<=1} log|F(z)|."""
    a = _as_roots(alpha)
    N = check_count(N, "N")
    mods = np.abs(a)
    logplus = float(np.sum(np.log(mods[mods > _INTERIOR_GUARD])))
    beta = reflect_roots(a)
    powers = np.cumprod(np.broadcast_to(beta, (N, len(beta))), axis=0)
    sums = tuple(np.abs(np.sum(powers, axis=1)).tolist())
    return SupBound(len(a), N, _bound(logplus, len(a), sums), logplus, sums)


def _log_abs_on_circle(xs, alpha):
    """sum_m log|e(x) - alpha_m| on the circle, -inf exactly at roots.

    The product form: one logarithm per _GROUP roots, of the product of
    their factors (e(x) - alpha_m)/s_m with s_m = max(1, |alpha_m|), each
    of modulus at most 2, plus sum_m log s_m once.  A point's value does
    not depend on the other points of the call.
    """
    z = np.exp(2j * np.pi * np.asarray(xs, dtype=float))
    scale = np.maximum(1.0, np.abs(alpha))
    starts = np.arange(0, len(alpha), _GROUP)
    total = np.empty(z.shape)
    rows = max(1, _BLOCK // len(alpha))
    with np.errstate(divide="ignore"):
        for i in range(0, len(z), rows):
            factors = np.subtract.outer(z[i:i + rows], alpha) / scale
            groups = np.multiply.reduceat(factors, starts, axis=1)
            total[i:i + rows] = np.log(np.abs(groups)).sum(axis=1)
    return total + float(np.sum(np.log(scale)))


def _grid_cells(alpha, samples):
    """Indices of the offset grid's cells that can hold its largest |F|.

    With c = np.poly(alpha), F at (k + 1/2)/S is the DFT of the twisted
    coefficients c_{M-n} e(n/(2S)), one FFT for all S = ``samples`` cells.
    Rounding c costs up to about M eps prod(1 + |alpha_m|) in |F|, not
    eps sum|c_j|, and the twist and the FFT add up to about log2(S) eps
    times the same, so each FFT modulus is within
    E = 4 eps (M + log2 S) prod(1 + |alpha_m|) of the true one.  The cell
    of the largest true |F| is then within 2E of the largest FFT modulus,
    and every cell further below is dropped.  Where E is not finite or
    M >= S (the DFT would fold), or where 2E reaches the peak, every cell
    is kept.
    """
    M = len(alpha)
    every = np.arange(samples)
    with np.errstate(over="ignore", invalid="ignore"):
        err = 4.0 * quadrature._EPS * (M + math.log2(samples)) * np.prod(1.0 + np.abs(alpha))
        if not (math.isfinite(err) and M < samples):
            return every
        twisted = np.poly(alpha)[::-1] * np.exp(1j * np.pi * np.arange(M + 1) / samples)
        mods = np.abs(np.fft.fft(np.conj(twisted), samples))
    peak = float(np.max(mods))
    if not (math.isfinite(peak) and 2.0 * err < peak):
        return every
    return np.flatnonzero(mods >= peak - 2.0 * err)


def sup_log_oracle(alpha, samples=65536):
    """Lower estimate of sup_{|z|<=1} log|F(z)| from the boundary circle.

    The offset grid of ``samples`` points (k + 1/2)/samples: one FFT keeps
    the cells that can hold the grid's largest |F| (_grid_cells), and the
    product form takes log|F| on those, so a root exactly on a grid point
    only costs that one -inf sample.  Then a zoom on the best cell
    [best - 1, best + 2]/samples: each step evaluates 33 equally spaced
    points of the bracket in product form and keeps the two neighbours of
    the best one, until the bracket is narrower than 1e-13 (8 steps at 8192
    and at 65536 samples).  The result is the largest value seen, never
    below the grid's, and every value comes from the product form.
    """
    a = _as_roots(alpha)
    if not (is_count(samples) and samples >= 1024):
        raise DomainError(f"need an integer >= 1024 boundary samples, got {samples!r}")
    cells = _grid_cells(a, samples)
    vals = _log_abs_on_circle((cells + 0.5) / samples, a)
    j = int(np.argmax(vals))        # finite, or -inf exactly at a root
    best, sup = int(cells[j]), float(vals[j])
    lo = (best - 1.0) / samples
    hi = (best + 2.0) / samples
    steps = np.arange(_ZOOM) / (_ZOOM - 1.0)
    while hi - lo > 1e-13:
        xs = lo + (hi - lo) * steps
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
