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

The coefficients of g_mu and h_mu are the dilated measure's defect and
transform moments, and q_mu off the integers is its q method; the measure
classes hold the closed forms and the one-integral quadrature fallback.
l and m are g and h of the unit point mass at lam.  p and its derivative j
live in kernels, re-exported as eval_p and eval_j.
"""

import json

import numpy as np

from dataclasses import dataclass
from typing import Tuple

from . import kernels, measures, specfun
from .errors import DomainError, is_count

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
        N = _check_degree(self.degree)
        c = np.asarray(self.coeffs, dtype=complex)
        if c.shape != (2 * N + 1,):
            raise DomainError(f"degree {N} needs {2 * N + 1} coefficients, "
                              f"got {len(self.coeffs)}")
        tol = _SYM_TOL * np.abs(c).max(initial=1.0)
        bad = np.abs(c[N::-1] - c[N:].conj()) > tol
        if bad.any():
            raise DomainError(f"coefficients not conjugate-symmetric at "
                              f"n = {int(np.argmax(bad))}")
        object.__setattr__(self, "degree", N)
        object.__setattr__(self, "coeffs", tuple(c.tolist()))

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
            c = np.array(self.coeffs[N + 1:])
            cre, cim = c.real.copy(), c.imag.copy()
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
        entries = {}
        for where, row in measures._csv_rows(path, ("n", "re", "im")):
            _add_entry(entries, *row, where=where)
        return cls._from_entries(max(abs(n) for n in entries), entries, path)

    @classmethod
    def _from_entries(cls, N, entries, where):
        """The degree-N polynomial of entries {n: c(n)}.  Distinct integers
        with |n| <= N cover -N..N exactly when there are 2N + 1 of them."""
        if len(entries) != 2 * N + 1 or any(abs(n) > N for n in entries):
            raise DomainError(f"{where}: coefficients must cover -N..N")
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
        entries = {}
        for i, e in enumerate(obj["coeffs"]):
            _add_entry(entries, e["n"], e["re"], e["im"], where=f"coeffs[{i}]")
        return cls._from_entries(N, entries, "coeffs")

    @classmethod
    def from_json(cls, path):
        with open(path) as fh:
            return cls.from_json_obj(json.load(fh))


def _add_entry(entries, n, real, imag, where):
    """entries[n] = real + i imag for a new integer n; else DomainError at where."""
    try:
        k, c = int(n), complex(float(real), float(imag))
    except (TypeError, ValueError, OverflowError):
        k = None
    if k is None or k != float(n):
        raise DomainError(f"{where}: expected an integer n and numeric re, im; "
                          f"got {[n, real, imag]!r}")
    if k in entries:
        raise DomainError(f"{where}: duplicate coefficient n = {k}")
    entries[k] = c


def _check_degree(N):
    if not (is_count(N) and N >= 0):
        raise DomainError(f"degree must be a nonnegative integer, got {N!r}")
    return int(N)


eval_p = kernels.eval_p
eval_j = kernels.eval_j


def trig_minorant_l(lam, N):
    """Extremal degree-N trig minorant of p(lam, .); touches at (n-1/2)/(N+1)."""
    lam = specfun._check_rate(lam, "trig_minorant_l")
    return _superposed_poly(measures.Atomic((lam,), (1.0,)), N, "minorant")


def trig_majorant_m(lam, N):
    """Extremal degree-N trig majorant of p(lam, .); touches at n/(N+1)."""
    lam = specfun._check_rate(lam, "trig_majorant_m")
    return _superposed_poly(measures.Atomic((lam,), (1.0,)), N, "majorant")


def q_mu(measure, x, tol=1e-9):
    """Periodized superposed kernel q_mu(x) = int p(lam, x) dmu(lam).

    Scalar x at an integer returns PLUS_INF when q_mu(0) diverges (measures
    failing the cond47 moment); array input then raises DomainError.
    Otherwise q_mu(0) = int p(lam, 0) dmu is the majorant defect moment, and
    the other points go to the measure's q method, all of an array at once.
    """
    scalar = np.ndim(x) == 0
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    integer = xs - np.floor(xs) == 0.0
    out = np.empty(len(xs))
    if np.any(integer):
        if not measure.classify().cond47:
            return measures._divergent(x, "q diverges at integer x")
        out[integer] = measure.defect_moment("majorant", tol)
    if not np.all(integer):
        out[~integer] = measure.q(xs[~integer], tol)
    return float(out[0]) if scalar else out


def _superposed_poly(measure, N, kind, tol=1e-9):
    """g_mu (kind "minorant") or h_mu ("majorant"), real and even: with nu =
    mu dilated by N + 1, c(0) = -+ nu.defect_moment/(N+1) and c(+-n) =
    nu.transform_moment(n/(N+1))/(N+1) for n = 1..N."""
    N = _check_degree(N)
    measure.require(kind)
    nu = measures.dilate(measure, N + 1.0)
    c0 = nu.defect_moment(kind, tol) / (N + 1.0)
    cs = np.zeros(2 * N + 1, dtype=complex)
    cs[N] = -c0 if kind == "minorant" else c0
    if N > 0:
        ts = np.arange(1, N + 1) / (N + 1.0)
        v = np.asarray(nu.transform_moment(kind, ts, tol) / (N + 1.0), dtype=float)
        cs[N + 1:] = v
        cs[:N] = v[::-1]
    return TrigPoly(N, tuple(cs))


def trig_minorant_g(measure, N, tol=1e-9):
    """Extremal degree-N trig minorant of q_mu; coefficients are measure
    integrals of the single-kernel minorant transform."""
    return _superposed_poly(measure, N, "minorant", tol)


def trig_majorant_h(measure, N, tol=1e-9):
    """Extremal degree-N trig majorant of q_mu (needs the cond47 moment)."""
    return _superposed_poly(measure, N, "majorant", tol)


def log_sin_majorant(N, tol=1e-9):
    """u_N: degree-N trig majorant of log|2 sin(pi x)|, mean log2/(N+1).

    u_N = -g_mu for the multiplicative Haar measure; its coefficients obey
    -1/(2|n|) <= c(n) <= 0 for 1 <= |n| <= N.
    """
    g = trig_minorant_g(measures.HaarLog(), N, tol)
    return TrigPoly(g.degree, tuple(-c.real for c in g.coeffs))
