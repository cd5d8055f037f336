"""Periodization and extremal trigonometric polynomials.

The periodized exponential kernel on R/Z,

    p(lam, x) = -2/lam + sum_m e^{-lam|x+m|}
              = cosh(lam({x} - 1/2)) / sinh(lam/2) - 2/lam,

has mean zero, and for each degree N the trigonometric polynomials

    l(lam, N; x) = -dm_minor(lam/(N+1))/(N+1)
                   + (N+1)^{-1} sum_{1<=|n|<=N} Lhat(lam/(N+1), n/(N+1)) e(nx)
    m(lam, N; x) = +dm_major(lam/(N+1))/(N+1)
                   + (N+1)^{-1} sum M_hat(...) e(nx)

sandwich it, l <= p <= m, touching at x = (n-1/2)/(N+1) and x = n/(N+1)
respectively; they are the extremal one-sided approximations of degree N.
Superposing over an admissible measure mu gives q_mu(x) = int p(lam,x) dmu
and its extremal polynomials g_mu <= q_mu <= h_mu whose coefficients are
the measure integrals of the single-kernel ones.  Specializing mu to the
multiplicative Haar measure yields u_N = -g_mu, the degree-N majorant of
log|2 sin(pi x)| with mean log2/(N+1).

Each coefficient set is one vector-valued measure integral: the integrand
returns Lhat or Mhat at all N frequencies t = n/(N+1) at once (shape
(15, N) per quadrature panel), so the N integrals share their panels and
their kernel-transform calls.  Likewise q_mu on an array integrates every
point without a closed form in one call.

Everything is evaluated in exponential-scaled form, so no hyperbolic
overflow for large lam; a Taylor branch below lam = 1e-2 removes the
2/lam cancellation (both branches agree to ~1e-13 in the switch window).
"""

import csv
import json
import math

import numpy as np

from dataclasses import dataclass
from typing import Tuple

from . import kernels, measures, specfun
from .errors import AdmissibilityError, DomainError

_P_SWITCH = 1e-2
_SYM_TOL = 1e-12


@dataclass(frozen=True)
class TrigPoly:
    """Real-valued trigonometric polynomial sum_{|n|<=N} c(n) e(nx).

    coeffs holds c(-N)..c(N) and must be conjugate-symmetric; evaluation
    uses the folded real form, so values are exactly real.
    """

    degree: int
    coeffs: Tuple[complex, ...]

    def __post_init__(self):
        N = self.degree
        if not (isinstance(N, (int, np.integer)) and N >= 0):
            raise DomainError(f"degree must be a nonnegative integer, got {N!r}")
        cs = tuple(complex(c) for c in self.coeffs)
        if len(cs) != 2 * N + 1:
            raise DomainError(
                f"degree {N} needs {2 * N + 1} coefficients, got {len(cs)}")
        scale = max(1.0, max(abs(c) for c in cs))
        for n in range(N + 1):
            if abs(cs[N - n] - cs[N + n].conjugate()) > _SYM_TOL * scale:
                raise DomainError(
                    f"coefficients not conjugate-symmetric at n = {n}")
        object.__setattr__(self, "degree", int(N))
        object.__setattr__(self, "coeffs", cs)

    def coeff(self, n):
        """c(n) for -degree <= n <= degree."""
        if abs(n) > self.degree:
            raise DomainError(f"coefficient index {n} exceeds degree {self.degree}")
        return self.coeffs[self.degree + n]

    @property
    def mean(self):
        """Mean over one period, = c(0)."""
        return self.coeff(0).real

    def evaluate(self, x):
        """Value at x (scalar or array); exactly real by folding +-n."""
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        xs = np.atleast_1d(x)
        N = self.degree
        out = np.full(xs.shape, self.coeff(0).real)
        if N > 0:
            n = np.arange(1, N + 1)
            cre = np.array([self.coeff(k).real for k in n])
            cim = np.array([self.coeff(k).imag for k in n])
            ang = 2.0 * np.pi * xs[..., None] * n
            out = out + 2.0 * (np.cos(ang) @ cre - np.sin(ang) @ cim)
        return float(out[0]) if scalar else out

    # -- serialization (shortest round-trip decimals; bit-exact reload) ----

    def to_csv_text(self):
        lines = ["n,re,im"]
        for n in range(-self.degree, self.degree + 1):
            c = self.coeff(n)
            lines.append(f"{n},{c.real!r},{c.imag!r}")
        return "\n".join(lines) + "\n"

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            fh.write(self.to_csv_text())

    @classmethod
    def from_csv(cls, path):
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or [h.strip() for h in header] != ["n", "re", "im"]:
                raise DomainError(f"{path}: expected header 'n,re,im'")
            entries = {}
            for line in reader:
                if not line:
                    continue
                if len(line) != 3:
                    raise DomainError(f"{path}: malformed row {line!r}")
                entries[int(line[0])] = complex(float(line[1]), float(line[2]))
        if not entries:
            raise DomainError(f"{path}: no coefficient rows")
        N = max(abs(n) for n in entries)
        if sorted(entries) != list(range(-N, N + 1)):
            raise DomainError(f"{path}: coefficient rows must cover -N..N")
        return cls(N, tuple(entries[n] for n in range(-N, N + 1)))

    def to_json_obj(self):
        return {
            "degree": self.degree,
            "coeffs": [
                {"n": n, "re": self.coeff(n).real, "im": self.coeff(n).imag}
                for n in range(-self.degree, self.degree + 1)
            ],
        }

    def to_json(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_json_obj(), fh, indent=1)
            fh.write("\n")

    @classmethod
    def from_json_obj(cls, obj):
        N = int(obj["degree"])
        entries = {int(e["n"]): complex(float(e["re"]), float(e["im"]))
                   for e in obj["coeffs"]}
        if sorted(entries) != list(range(-N, N + 1)):
            raise DomainError("coefficient entries must cover -N..N")
        return cls(N, tuple(entries[n] for n in range(-N, N + 1)))

    @classmethod
    def from_json(cls, path):
        with open(path) as fh:
            return cls.from_json_obj(json.load(fh))


def _check_lam(lam):
    if not (lam > 0.0 and math.isfinite(lam)):
        raise DomainError(f"lambda must be finite and positive, got {lam!r}")


def _check_degree(N):
    if not (isinstance(N, (int, np.integer)) and N >= 0):
        raise DomainError(f"degree must be a nonnegative integer, got {N!r}")
    return int(N)


def eval_p(lam, x):
    """Periodized kernel p(lam, x), period 1, mean 0; broadcasts lam and x.

    p(lam, 0) is the majorant defect coth(lam/2) - 2/lam and p(lam, 1/2)
    the negated minorant defect.
    """
    lam = np.asarray(lam, dtype=float)
    x = np.asarray(x, dtype=float)
    if np.any(~(lam > 0.0) | ~np.isfinite(lam)):
        raise DomainError("lambda must be finite and positive")
    scalar = lam.ndim == 0 and x.ndim == 0
    lam, x = np.atleast_1d(*np.broadcast_arrays(lam, x))
    h = (x - np.floor(x)) - 0.5
    ah = np.abs(h)
    with np.errstate(over="ignore"):
        closed = (np.exp(-lam * (0.5 - ah)) * (1.0 + np.exp(-2.0 * lam * ah))
                  / (-np.expm1(-lam)) - 2.0 / lam)
    h2 = h * h
    taylor = (lam * (h2 - 1.0 / 12.0)
              + lam ** 3 * (h2 * h2 / 12.0 - h2 / 24.0 + 7.0 / 2880.0)
              + lam ** 5 * (h2 ** 3 / 360.0 - h2 * h2 / 288.0
                            + 7.0 * h2 / 5760.0 - 31.0 / 483840.0))
    out = np.where(lam < _P_SWITCH, taylor, closed)
    return float(out[0]) if scalar else out


def eval_j(lam, x):
    """x-derivative of p: lam sinh(lam({x}-1/2))/sinh(lam/2), 0 at integers."""
    lam = np.asarray(lam, dtype=float)
    x = np.asarray(x, dtype=float)
    if np.any(~(lam > 0.0) | ~np.isfinite(lam)):
        raise DomainError("lambda must be finite and positive")
    scalar = lam.ndim == 0 and x.ndim == 0
    lam, x = np.atleast_1d(*np.broadcast_arrays(lam, x))
    frac = x - np.floor(x)
    h = frac - 0.5
    ah = np.abs(h)
    out = (np.sign(h) * lam * np.exp(-lam * (0.5 - ah))
           * np.expm1(-2.0 * lam * ah) / np.expm1(-lam))
    out = np.where(frac == 0.0, 0.0, out)
    return float(out[0]) if scalar else out


def trig_minorant_l(lam, N):
    """Extremal degree-N trig minorant of p(lam, .); touches at (n-1/2)/(N+1)."""
    _check_lam(lam)
    N = _check_degree(N)
    u = lam / (N + 1.0)
    c0 = -specfun.defect_minorant(u) / (N + 1.0)
    return _fejer_poly(N, c0, lambda ts: kernels.eval_Lhat(u, ts) / (N + 1.0))


def trig_majorant_m(lam, N):
    """Extremal degree-N trig majorant of p(lam, .); touches at n/(N+1)."""
    _check_lam(lam)
    N = _check_degree(N)
    u = lam / (N + 1.0)
    c0 = specfun.defect_majorant(u) / (N + 1.0)
    return _fejer_poly(N, c0, lambda ts: kernels.eval_Mhat(u, ts) / (N + 1.0))


def _fejer_poly(N, c0, cn):
    """Real even polynomial with mean c0 and c(+-n) = cn(ts)[n - 1].

    cn maps the array ts = n/(N+1), n = 1..N, to the N coefficients.
    """
    cs = np.zeros(2 * N + 1, dtype=complex)
    cs[N] = c0
    if N > 0:
        v = np.asarray(cn(np.arange(1, N + 1) / (N + 1.0)), dtype=float)
        cs[N + 1:] = v
        cs[:N] = v[::-1]
    return TrigPoly(N, tuple(cs))


def q_mu(measure, x, tol=1e-9):
    """Periodized superposed kernel q_mu(x) = int p(lam, x) dmu(lam).

    Scalar x at an integer returns PLUS_INF when q_mu(0) diverges (measures
    failing the cond47 moment); array input then raises DomainError.
    HaarLog collapses to -log|2 sin(pi x)|, atomic measures to finite sums;
    for the rest one vector-valued measure integral of the closed form
    covers every point of an array (integer points of a power law use the
    zeta closed form of q(0)).
    """
    scalar = np.ndim(x) == 0
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    frac = xs - np.floor(xs)
    family = getattr(measure, "family", None)
    if family == "haar_log":
        if np.any(frac == 0.0):
            if scalar:
                return measures.PLUS_INF
            raise DomainError("q diverges at integer x for this measure; "
                              "evaluate scalars to get the sentinel")
        out = -np.log(np.abs(2.0 * np.sin(np.pi * xs)))
        return float(out[0]) if scalar else out
    if family == "atomic":
        lams, ws = measure.atoms
        out = eval_p(lams[None, :], xs[:, None]) @ ws
        return float(out[0]) if scalar else out
    quad = np.ones(len(xs), dtype=bool)
    out = np.empty(len(xs))
    if np.any(frac == 0.0):
        adm = measure.classify()
        if not adm.cond47:
            if scalar:
                return measures.PLUS_INF
            raise DomainError("q diverges at integer x for this measure; "
                              "evaluate scalars to get the sentinel")
        if family == "power_law":
            # q(0) = int defect_major dmu has the same closed form as the
            # sharp upper form constant at delta = 1.
            quad = frac != 0.0
            out[~quad] = (2.0 * measure.prefactor
                          * specfun.gamma(1.0 - measure.sigma)
                          * specfun.zeta(1.0 - measure.sigma))
    if scalar and quad[0]:
        out[0] = measures.integrate(
            lambda lam: eval_p(lam, xs[0]), measure, tol=tol).value
    elif np.any(quad):
        pts = xs[quad]
        out[quad] = measures.integrate(
            lambda lam: eval_p(lam[:, None], pts), measure, tol=tol).value
    return float(out[0]) if scalar else out


def trig_minorant_g(measure, N, tol=1e-9):
    """Extremal degree-N trig minorant of q_mu; coefficients are measure
    integrals of the single-kernel minorant transform, all N in one
    vector-valued integral."""
    N = _check_degree(N)
    measure.classify()
    nu = measures.dilate(measure, N + 1.0)
    c0 = -measures._defect_moment(nu, "minorant", tol) / (N + 1.0)
    if getattr(nu, "family", None) == "haar_log":
        def cn(ts):
            return kernels.lhat_haar_integral(ts, tol=tol) / (N + 1.0)
    else:
        def cn(ts):
            return measures.integrate(
                lambda u: kernels.eval_Lhat(u[:, None], ts), nu,
                tol=tol).value / (N + 1.0)
    return _fejer_poly(N, c0, cn)


def trig_majorant_h(measure, N, tol=1e-9):
    """Extremal degree-N trig majorant of q_mu (needs the cond47 moment)."""
    N = _check_degree(N)
    adm = measure.classify()
    if not adm.cond47:
        raise AdmissibilityError(
            f"trig majorant requires the cond47 moment (finite q_mu(0)); "
            f"{measure!r} only satisfies cond31")
    nu = measures.dilate(measure, N + 1.0)
    c0 = measures._defect_moment(nu, "majorant", tol) / (N + 1.0)

    def cn(ts):
        return measures.integrate(
            lambda u: kernels.eval_Mhat(u[:, None], ts), nu,
            tol=tol).value / (N + 1.0)

    return _fejer_poly(N, c0, cn)


def log_sin_majorant(N, tol=1e-9):
    """u_N: degree-N trig majorant of log|2 sin(pi x)|, mean log2/(N+1).

    u_N = -g_mu for the multiplicative Haar measure; its coefficients obey
    -1/(2|n|) <= c(n) <= 0 for 1 <= |n| <= N.
    """
    N = _check_degree(N)
    c0 = math.log(2.0) / (N + 1.0)
    return _fejer_poly(
        N, c0, lambda ts: -kernels.lhat_haar_integral(ts, tol=tol) / (N + 1.0))
