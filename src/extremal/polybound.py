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
        """The bound of degree n <= N from the same power sums: bit for bit that
        of disk_sup_bound(alpha, n) but at n = 2 < N (a 2-row cumprod rounds apart)."""
        if not (is_count(n) and 0 <= n <= self.N):
            raise DomainError(f"degree must be an integer in [0, {self.N}], got {n!r}")
        return float(_bound(self.logplus_sum, self.M, np.array(self.power_sums[:n])))


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
    """The bound's formula of degree N = sums.shape[-1] from the power sums
    s_1..s_N, elementwise over their rows: the terms s_n/n add up in order."""
    N = sums.shape[-1]
    partial = np.add.accumulate(sums / np.arange(1.0, N + 1), axis=-1)[..., -1] if N else 0.0
    return logplus + M * math.log(2.0) / (N + 1.0) + partial


def _lockstep(sets, cells):
    """(indices, (n, M) roots) of the checked root sets that go in lockstep:
    those of one root count M, at most 2^20 // cells(M) at a time."""
    counts = np.array([len(a) for a in sets], int)
    for M in sorted(set(counts.tolist())):
        of = np.flatnonzero(counts == M)
        for part in np.array_split(of, -(-len(of) // max(1, 2 ** 20 // max(1, cells(M))))):
            yield part, np.array([sets[i] for i in part])


def disk_sup_bounds(alphas, N):
    """disk_sup_bound of each root set in ``alphas``, as a list: the sets of
    one root count in lockstep (at most 2^20 powers at a time), a log+ sum
    per set, one cumprod for every power sum and one _bound call."""
    sets = [_as_roots(a) for a in alphas]
    N = check_count(N, "N")
    out = [None] * len(sets)
    for part, a in _lockstep(sets, lambda M: N * M):
        (n, M), mods = a.shape, np.abs(a)
        logplus = np.array([np.sum(np.log(m[m > _INTERIOR_GUARD])) for m in mods])
        beta = reflect_roots(a.ravel()).reshape(n, 1, M)
        sums = np.abs(np.sum(np.cumprod(np.broadcast_to(beta, (n, N, M)), axis=1), axis=2))
        for i, b, lp, s in zip(part, _bound(logplus, M, sums).tolist(), logplus.tolist(),
                               sums.tolist()):
            out[i] = SupBound(M, N, b, lp, tuple(s))
    return out


def disk_sup_bound(alpha, N):
    """The log+ / power-sum upper bound for sup_{|z|<=1} log|F(z)|; the
    batch of one of disk_sup_bounds."""
    return disk_sup_bounds([alpha], N)[0]


def _log_abs_on_circle(xs, alpha, owner=None):
    """sum_m log|e(x) - alpha_m| on the circle, -inf exactly at roots.

    alpha is one root set, or an (n, M) group of n sets of M roots with
    ``owner`` naming the set of each point.  The product form: one
    logarithm per _GROUP roots, of the product of their factors
    (e(x) - alpha_m)/s_m with s_m = max(1, |alpha_m|), each of modulus at
    most 2, plus sum_m log s_m once.  A point's value depends on its own
    roots alone, not on the other points or sets of the call.
    """
    z = np.exp(2j * np.pi * np.asarray(xs, dtype=float))
    alpha = np.atleast_2d(alpha)
    scale = np.maximum(1.0, np.abs(alpha))
    M = alpha.shape[1]
    starts = np.arange(0, M, _GROUP)
    total = np.empty(z.shape)
    rows = max(1, _BLOCK // M)
    with np.errstate(divide="ignore"):
        for i in range(0, len(z), rows):
            # one set broadcasts over the block; a group gathers the roots of
            # each point's own set
            of = slice(None) if owner is None else owner[i:i + rows]
            factors = (z[i:i + rows, None] - alpha[of]) / scale[of]
            groups = np.multiply.reduceat(factors, starts, axis=1)
            total[i:i + rows] = np.log(np.abs(groups)).sum(axis=1)
    logs = np.sum(np.log(scale), axis=1)
    return total + (logs[0] if owner is None else logs[owner])


def _poly(alpha):
    """np.poly of each row of the (n, M) roots alpha, in one recurrence
    over the rows: c_k += -alpha_m c_{k-1}, root by root, with the complex
    products and sums in the order of the two-term dot products of
    np.poly's np.convolve, so each row has np.poly's bits where those are
    finite.  A row whose roots are closed under conjugation gets imaginary
    parts +0, where np.poly drops them."""
    n, M = alpha.shape
    re, im = np.zeros((n, M + 1)), np.zeros((n, M + 1))
    re[:, 0] = 1.0
    zr, zi = -alpha.real, -alpha.imag
    for m in range(M):
        r, i = re[:, :m + 1], im[:, :m + 1]
        tr, ti = zr[:, m, None], zi[:, m, None]
        re[:, 1:m + 2], im[:, 1:m + 2] = ((re[:, 1:m + 2] + r * tr) - i * ti,
                                          r * ti + (im[:, 1:m + 2] + i * tr))
    real = np.all(np.sort(alpha, axis=1) == np.sort(np.conj(alpha), axis=1), axis=1)
    im[real] = 0.0
    return re + 1j * im


def _grid_cells(alpha, samples):
    """The cells of the offset grid that can hold the largest |F| of each
    set of the (n, M) roots alpha: an (n, samples) mask.

    With c = np.poly(alpha) (_poly), F at (k + 1/2)/S is the DFT of the
    twisted coefficients c_{M-n} e(n/(2S)), one FFT of a group's n rows
    for all S = ``samples`` cells.  Rounding c costs up to about
    M eps prod(1 + |alpha_m|) in |F|, not eps sum|c_j|, and the twist and
    the FFT add up to about log2(S) eps times the same, so each FFT
    modulus is within E = 4 eps (M + log2 S) prod(1 + |alpha_m|) of the
    true one.  The cell of the largest true |F| is then within 2E of the
    largest FFT modulus, and every cell further below is dropped.  Where
    E is not finite or M >= S (the DFT would fold), or where 2E reaches
    the peak, every cell of the set is kept.
    """
    n, M = alpha.shape
    keep = np.ones((n, samples), bool)
    if M >= samples:
        return keep
    with np.errstate(over="ignore", invalid="ignore"):
        err = 4.0 * quadrature._EPS * (M + math.log2(samples)) * np.prod(
            1.0 + np.abs(alpha), axis=1)
        twisted = _poly(alpha)[:, ::-1] * np.exp(1j * np.pi * np.arange(M + 1) / samples)
        mods = np.abs(np.fft.fft(np.conj(twisted), samples))
        peak = np.max(mods, axis=1)
        sure = np.isfinite(err) & np.isfinite(peak) & (2.0 * err < peak)
    keep[sure] = mods[sure] >= (peak - 2.0 * err)[sure, None]
    return keep


def sup_log_oracles(alphas, samples=65536):
    """sup_log_oracle of each root set in ``alphas``, as an array.

    The sets of one root count M go together, at most 2^20 // samples sets
    at a time: one _poly recurrence and one FFT choose their cells, one
    product-form call takes every kept cell, and each zoom step is one
    product-form call over all their brackets.  A set's value has the bits
    it has alone, whatever the other sets of the call.
    """
    sets = [_as_roots(a) for a in alphas]
    if not (is_count(samples) and samples >= 1024):
        raise DomainError(f"need an integer >= 1024 boundary samples, got {samples!r}")
    sup = np.empty(len(sets))
    for part, alpha in _lockstep(sets, lambda M: samples):
        sup[part] = _zoom(alpha, samples)
    return sup


def _zoom(alpha, samples):
    """The oracle of each set of the (n, M) roots alpha, in lockstep."""
    n = len(alpha)
    owner, cells = np.nonzero(_grid_cells(alpha, samples))
    vals = _log_abs_on_circle((cells + 0.5) / samples, alpha, owner)
    # each set's first best cell, as np.argmax finds it: a stable sort by
    # set, then by value from the top (finite, or -inf exactly at a root)
    at = np.lexsort((-vals, owner))[np.searchsorted(owner, np.arange(n))]
    best, sup = cells[at], vals[at]
    lo = (best - 1.0) / samples
    hi = (best + 2.0) / samples
    steps = np.arange(_ZOOM) / (_ZOOM - 1.0)
    live = np.flatnonzero(hi - lo > 1e-13)
    while len(live):
        xs = lo[live, None] + (hi - lo)[live, None] * steps
        vals = _log_abs_on_circle(xs.ravel(), alpha, np.repeat(live, _ZOOM)).reshape(xs.shape)
        j = np.argmax(vals, axis=1)
        rows = np.arange(len(live))
        sup[live] = np.maximum(sup[live], vals[rows, j])
        j = np.clip(j, 1, _ZOOM - 2)
        lo[live], hi[live] = xs[rows, j - 1], xs[rows, j + 1]
        live = live[hi[live] - lo[live] > 1e-13]
    return sup


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
    below the grid's, and every value comes from the product form.  It is
    the batch of one of sup_log_oracles.
    """
    return float(sup_log_oracles([alpha], samples)[0])


def jensen_gaps(alphas, tol=1e-10):
    """jensen_gap of each root set in ``alphas``, as an array: one vector
    integral with a column per set, whose shared frontier refines a panel
    for every set, so a gap's last bits depend on its batch."""
    sets = [_as_roots(a) for a in alphas]
    if any(np.any(np.abs(np.abs(a) - 1.0) < 1e-9) for a in sets):
        warnings.warn("root within 1e-9 of the unit circle: "
                      "Jensen integral is ill-conditioned", RuntimeWarning)
    res = quadrature.refine(lambda xs: np.stack([_log_abs_on_circle(xs, a) for a in sets], 1),
                            (0.0, 1.0), (), tol=tol)
    return np.abs([sb.logplus_sum for sb in disk_sup_bounds(sets, 0)] - res.value)


def jensen_gap(alpha, tol=1e-10):
    """|sum log+|alpha| - circle mean of log|F||; zero in exact arithmetic.

    The integrand is periodic, so its one panel [0, 1] has no graded end.
    Roots within 1e-9 of the unit circle make the integrand near-singular;
    a warning flags the conditioning but the quadrature still runs.  It is
    the batch of one of jensen_gaps.
    """
    return float(jensen_gaps([alpha], tol)[0])


def bound_report(alpha, N, samples=65536):
    """JSON-ready payload comparing the bound with the boundary oracle."""
    a = _as_roots(alpha)
    sb = disk_sup_bound(a, N)
    sup = sup_log_oracle(a, samples)
    return {"M": sb.M, "N": sb.N, "bound": sb.bound, "sup_estimate": sup,
            "slack": sb.bound - sup, "logplus_sum": sb.logplus_sum,
            "power_sums": list(sb.power_sums)}


def roots_from_csv(path):
    """Read complex roots from CSV with header ``re,im``.

    The CLI reads form coefficients (``bounds --coeffs``) with it as well.
    """
    return np.asarray([complex(re, im)
                       for _, (re, im) in measures._csv_rows(path, ("re", "im"))],
                      dtype=complex)
