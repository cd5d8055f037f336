"""Sharp constants and Hermitian-form bounds on separated point sets.

The form kernel of an admissible measure is

    r_mu(t) = int_0^inf 2 lam / (lam^2 + 4 pi^2 t^2) dmu(lam),

and for any points xi_0..xi_N with |xi_m - xi_n| >= delta and complex a,

    -A(delta,mu) sum|a|^2  <=  sum_{m != n} a_m conj(a_n) r_mu(xi_m - xi_n),

with the matching upper bound B(delta,mu) sum|a|^2 whenever the cond47
moment holds.  The sharp constants are measure integrals of the one-sided
kernel defects,

    A = (1/delta) int (2/lam - csch(lam/2)) |_{lam/delta} dmu,
    B = (1/delta) int (coth(lam/2) - 2/lam) |_{lam/delta} dmu,

with closed forms log2/delta for the multiplicative Haar measure and
(2 - 2^{2-s}) Gamma(1-s) zeta(1-s) / delta^s (lower), 2 Gamma(1-s) zeta(1-s)
/ delta^s (upper, 1 < s < 2) on the power-law scale.  Dividing by the
kernel normalization pi/((2 pi)^s sin(pi s/2)) and applying the zeta
functional equation turns these into the discrete Hardy-Littlewood-Sobolev
constants (2 - 2^{2-s}) zeta(s)/delta^s and 2 zeta(s)/delta^s for the
kernel |xi_m - xi_n|^{-s}; both routes are computed here and must agree.

r_mu is the measure's r, and A and B its defect_moment("minorant" |
"majorant", tol, delta), which dilates, checks delta and takes the kind's
gate on the measure given; form_bound returns the pair.  The measure
classes hold the closed forms above, and this module only maps a
divergent r_mu(0) to the PLUS_INF sentinel.  A(N+1, mu) and B(N+1, mu)
are also the means of periodic's g_mu and h_mu, -A and B.

Sharpness is witnessed on arithmetic progressions xi_n = delta n with
alternating (lower) or constant (upper) coefficients; the Rayleigh ratio
then telescopes to (N+1)^{-1} sum_{k != 0} (N+1-|k|) (+-1)^k r_mu(delta k).
"""

import math

import numpy as np

from dataclasses import dataclass
from typing import Optional, Tuple

from . import measures, specfun
from .errors import (AdmissibilityError, ConvergenceError, DomainError, check_count,
                     check_delta, check_finite, is_real)


@dataclass(frozen=True)
class PointSet:
    """Distinct reals with a declared minimum separation delta."""

    xi: Tuple[float, ...]
    delta: float

    def __post_init__(self):
        xs = tuple(float(v) for v in self.xi)
        if len(xs) == 0:
            raise DomainError("point set must be nonempty")
        if any(not math.isfinite(v) for v in xs):
            raise DomainError("points must be finite")
        check_delta(self.delta)
        if len(xs) > 1:
            gap = float(np.min(np.diff(np.sort(np.asarray(xs)))))
            if gap < self.delta:
                raise DomainError(
                    f"minimum gap {gap!r} violates declared separation {self.delta!r}")
        object.__setattr__(self, "xi", xs)
        object.__setattr__(self, "delta", float(self.delta))


@dataclass(frozen=True)
class FormBound:
    """Sharp lower constant A and, when cond47 holds, upper constant B."""

    A: float
    B: Optional[float]


@dataclass(frozen=True)
class HlsConstants:
    """Sharp constants for the discrete form with kernel |xi_m - xi_n|^{-sigma}."""

    lower: float
    upper: Optional[float]
    continuity_extension: bool = False


def r_mu(measure, t, tol=1e-10):
    """Form kernel r_mu(t); vectorized in t, even, positive.

    Scalar t = 0 returns the PLUS_INF sentinel when r_mu(0) = int 2/lam dmu
    diverges (Haar, power-law, densities with mass near 0); array input
    containing 0 then raises DomainError.
    """
    scalar = np.ndim(t) == 0
    at = np.abs(np.atleast_1d(check_finite(t)))
    try:
        out = measure.r(at, tol)
    except ConvergenceError:
        if not np.any(at == 0.0):
            raise
        return measures._divergent(t, "r diverges at t = 0")
    return float(out[0]) if scalar else out


def form_bound(measure, delta=1.0, tol=1e-10):
    """Both sharp constants; B is None when the cond47 moment fails."""
    A = measure.defect_moment("minorant", tol, delta)
    try:
        B = measure.defect_moment("majorant", tol, delta)
    except AdmissibilityError:
        B = None
    return FormBound(A, B)


def evaluate_forms(measure, point_sets, coeffs, tol=1e-10):
    """evaluate_form of each point set with its coefficients, as an array: one
    r_mu call over the distinct distances of all sets, then a dot product per
    set, so a set has its bits alone where r_mu does (not a Weight's integral)."""
    pairs = []
    for points, a in zip(point_sets, coeffs, strict=True):
        xi = np.asarray(points.xi if isinstance(points, PointSet) else points, dtype=float)
        a = np.asarray(a, dtype=complex)
        if a.shape != xi.shape:
            raise DomainError(f"coefficient count {a.shape} does not match points {xi.shape}")
        m, n = np.triu_indices(len(xi), k=1)
        pairs.append((np.abs(xi[m] - xi[n]), a.real[m] * a.real[n] + a.imag[m] * a.imag[n]))
    uniq, inv = np.unique(np.concatenate([d for d, _ in pairs] + [[]]), return_inverse=True)
    r = r_mu(measure, uniq, tol=tol) if uniq.size else uniq
    ends = np.cumsum([0] + [len(w) for _, w in pairs])
    return np.array([2.0 * float(w @ r[inv[i:j]]) for (_, w), i, j in zip(pairs, ends, ends[1:])])


def evaluate_form(measure, points, a, tol=1e-10):
    """Off-diagonal Hermitian form sum_{m != n} a_m conj(a_n) r_mu(xi_m - xi_n).

    The (m, n) and (n, m) terms are conjugates, so it is the real sum
    2 sum_{m < n} Re(a_m conj(a_n)) r_mu(|xi_m - xi_n|), with one r_mu value
    per distinct distance.  It is the batch of one of evaluate_forms.
    """
    return float(evaluate_forms(measure, [points], [a], tol)[0])


def hls_constants(sigma, delta=1.0):
    """Sharp constants for the discrete form with kernel |xi_m - xi_n|^{-sigma}.

    Lower: (2 - 2^{2-sigma}) zeta(sigma)/delta^sigma, degenerating to
    log4/delta at sigma = 1.  Upper (1 < sigma < 2): 2 zeta(sigma)/delta^sigma.
    sigma = 2 is served as the continuity limit pi^2/(3 delta^2) and flagged.
    DomainError where a constant leaves the positive floats: delta^sigma
    overflows or underflows to 0, or a constant overflows.
    """
    check_delta(delta)
    if not (is_real(sigma) and 0.0 < sigma <= 2.0):
        raise DomainError(f"sigma must lie in (0, 2], got {sigma!r}")
    sigma = float(sigma)
    try:
        scale = delta ** sigma
        if sigma == 1.0:
            out = HlsConstants(math.log(4.0) / delta, None)
        elif sigma == 2.0:
            z2 = math.pi ** 2 / 6.0
            out = HlsConstants(z2 / scale, 2.0 * z2 / scale, continuity_extension=True)
        else:
            z = specfun.zeta(sigma)
            lower = (2.0 - 2.0 ** (2.0 - sigma)) * z / scale
            upper = 2.0 * z / scale if sigma > 1.0 else None
            out = HlsConstants(lower, upper)
    except (OverflowError, ZeroDivisionError):      # delta^sigma left the floats
        out = None
    if out is None or not all(0.0 < c < math.inf
                              for c in (out.lower, out.upper) if c is not None):
        raise DomainError(f"HLS constants at sigma = {sigma!r}, delta = {delta!r} "
                          "leave the float range")
    return out


def hls_gamma_route(sigma, delta=1.0):
    """The same constants through A/B and the kernel normalization.

    Divides the Gamma(1-sigma) zeta(1-sigma) closed forms by the kernel
    normalization r_mu(1) = pi/((2 pi)^sigma sin(pi sigma/2)) of
    PowerLaw(sigma); equal to hls_constants by the zeta functional
    equation, so the pair is a dual-route consistency check.
    """
    if not (is_real(sigma) and 0.0 < sigma < 2.0 and sigma != 1.0):
        raise DomainError(
            f"gamma-route sigma must lie in (0, 2) excluding 1, got {sigma!r}")
    mu = measures.PowerLaw(sigma)
    C = float(mu.r(1.0))
    lower = mu.defect_moment("minorant", delta=delta) / C
    upper = mu.defect_moment("majorant", delta=delta) / C if sigma > 1.0 else None
    return HlsConstants(lower, upper)


def sharpness_witness(measure, delta, N, kind="lower", tol=1e-10):
    """Rayleigh ratio of the extremizing witness on xi_n = delta n.

    kind "lower": alternating coefficients; returns
    -(N+1)^{-1} sum_{k != 0} (N+1-|k|)(-1)^k r_mu(delta k), increasing to
    A(delta, mu).  kind "upper": constant coefficients; the unsigned sum,
    increasing to B(delta, mu).  N = 0 gives 0 (no off-diagonal terms).
    """
    if kind not in ("lower", "upper"):
        raise DomainError(f"unknown witness kind {kind!r}")
    N = check_count(N, "N")
    if N == 0:
        return 0.0
    k = np.arange(1, N + 1, dtype=float)
    r = np.atleast_1d(np.asarray(r_mu(measure, delta * k, tol=tol)))
    signs = (-1.0) ** k if kind == "lower" else np.ones_like(k)
    s = 2.0 / (N + 1.0) * float(np.sum((N + 1.0 - k) * signs * r))
    return -s if kind == "lower" else s


def form_report(measure, delta, points, a, tol=1e-10):
    """Lower-bound verdict payload: {bound, form_value, slack, witness_ratio}.

    bound = -A sum|a|^2, slack = form - bound (>= 0 by the sharp bound),
    witness_ratio = (-form/sum|a|^2)/A, the fraction of the sharp constant
    this particular (points, coefficients) pair attains (<= 1).
    """
    ps = points if isinstance(points, PointSet) else PointSet(tuple(points), delta)
    A = measure.defect_moment("minorant", tol, delta)
    a = np.asarray(a, dtype=complex)
    value = evaluate_form(measure, ps, a, tol)
    energy = float(np.sum(np.abs(a) ** 2))
    bound = -A * energy
    return {"bound": bound, "form_value": value, "slack": value - bound,
            "witness_ratio": (-value / energy) / A if energy > 0 else 0.0}


def random_point_set(rng, count, delta):
    """count points with gaps delta*(1 + Exp(1)): guaranteed separation."""
    gaps = delta * (1.0 + rng.exponential(size=count - 1)) if count > 1 else []
    xi = np.concatenate([[0.0], np.cumsum(gaps)]) + rng.uniform(-1.0, 1.0)
    return PointSet(tuple(xi), delta)


def points_from_csv(path):
    """Read points and complex coefficients from CSV header ``xi,re,im``."""
    rows = [row for _, row in measures._csv_rows(path, ("xi", "re", "im"))]
    xi = [x for x, _, _ in rows]
    a = [complex(re, im) for _, re, im in rows]
    return np.asarray(xi), np.asarray(a)
