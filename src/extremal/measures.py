"""Borel measures on (0, inf) driving the superposed extremal constructions.

Each measure mu yields the even kernel transform

    f_mu(x) = int_0^inf (e^{-lam|x|} - e^{-lam}) dmu(lam),

finite for x != 0 under the minorant admissibility condition
(int lam/(lam^2+1) dmu in (0, inf), "cond31"); majorants additionally need
int lam/(lam+1) dmu < inf ("cond47"), which is equivalent to f_mu(0) < inf.
f_mu(0) = +infinity is represented by the PLUS_INF sentinel, never by a
floating infinity, so downstream majorant logic has to branch deliberately.

Families:

  HaarLog         dmu = dlam/lam          f_mu(x) = -log|x|      (cond31 only)
  PowerLaw(sigma) dmu = kappa lam^-sigma dlam, sigma in (0,2)\\{1}
                  f_mu(x) = kappa Gamma(1-sigma) (|x|^{sigma-1} - 1)
                  (cond47 iff sigma > 1)
  Atomic          finite sum of point masses (always cond47)
  Weight          density callable, or a piecewise-constant table from CSV
                  (rows lambda,weight; value w_i on [lambda_i, lambda_{i+1}),
                  zero outside; no interpolation)

Dilation nu(E) = mu(delta E) maps each family onto itself; it rescales the
exponential type of the superposed approximants and satisfies
f_nu(x) = f_mu(x/delta) - f_mu(1/delta).  HaarLog is the dilation-invariant
point of the PowerLaw scale.

All f/f' evaluators accept numpy arrays of nonzero x.  f_derivs supplies
(f, f', f'', f''', f'''') at positive points for the tail corrections in
the superposed module.
"""

import csv
import math

import numpy as np

from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

from . import quadrature, specfun
from .errors import AdmissibilityError, ConvergenceError, DomainError


class _PlusInfinity:
    """Sentinel for a divergent (positively infinite) kernel transform value."""

    __slots__ = ()

    def __repr__(self):
        return "+inf"


PLUS_INF = _PlusInfinity()


def is_plus_inf(v):
    """True when v is the +infinity sentinel."""
    return v is PLUS_INF


@dataclass(frozen=True)
class Admissibility:
    """Which superposition conditions a measure satisfies."""

    cond31: bool       # minorant path: 0 < int lam/(lam^2+1) dmu < inf
    cond47: bool       # majorant path: additionally int lam/(lam+1) dmu < inf


def _check_positive_axis(x, family):
    x = np.asarray(x, dtype=float)
    if np.any(x == 0.0):
        raise DomainError(
            f"{family}: kernel transform diverges at x = 0; "
            "evaluate f(0.0) through the scalar path to get the sentinel"
        )
    return np.abs(x)


class HaarLog:
    """Multiplicative Haar measure dlam/lam; f_mu(x) = -log|x|."""

    family = "haar_log"
    atoms = None
    breakpoints = None

    def weight(self, lam):
        return 1.0 / np.asarray(lam, dtype=float)

    def f(self, x):
        if np.ndim(x) == 0:
            if float(x) == 0.0:
                return PLUS_INF
            return -math.log(abs(float(x)))
        return -np.log(_check_positive_axis(x, self.family))

    def f_prime(self, x):
        x = np.asarray(x, dtype=float)
        if np.any(x == 0.0):
            raise DomainError("f' undefined at x = 0")
        out = -1.0 / np.abs(x) * np.sign(x)
        return float(out) if out.ndim == 0 else out

    def f_derivs(self, u):
        u = np.asarray(u, dtype=float)
        return (-np.log(u), -1.0 / u, 1.0 / u ** 2, -2.0 / u ** 3, 6.0 / u ** 4)

    def classify(self):
        return Admissibility(cond31=True, cond47=False)

    def dilate(self, delta):
        _check_delta(delta)
        return self

    def __repr__(self):
        return "HaarLog()"

    def __eq__(self, other):
        return isinstance(other, HaarLog)

    def __hash__(self):
        return hash("haar_log")


@dataclass(frozen=True)
class PowerLaw:
    """dmu = prefactor * lam^-sigma dlam with sigma in (0, 2) \\ {1}."""

    sigma: float
    prefactor: float = 1.0
    family = "power_law"
    atoms = None
    breakpoints = None

    def __post_init__(self):
        s = self.sigma
        if not (isinstance(s, (int, float)) and 0.0 < s < 2.0 and s != 1.0):
            raise DomainError(
                f"PowerLaw exponent must lie in (0, 2) excluding 1, got {s!r}"
            )
        if not (self.prefactor > 0.0 and math.isfinite(self.prefactor)):
            raise DomainError(f"PowerLaw prefactor must be positive, got {self.prefactor!r}")

    def weight(self, lam):
        return self.prefactor * np.asarray(lam, dtype=float) ** (-self.sigma)

    @property
    def _gamma_factor(self):
        return self.prefactor * specfun.gamma(1.0 - self.sigma)

    def f(self, x):
        if np.ndim(x) == 0:
            if float(x) == 0.0:
                if self.sigma < 1.0:
                    return PLUS_INF
                return -self._gamma_factor
            return self._gamma_factor * (abs(float(x)) ** (self.sigma - 1.0) - 1.0)
        ax = _check_positive_axis(x, self.family) if self.sigma < 1.0 else np.abs(
            np.asarray(x, dtype=float))
        return self._gamma_factor * (ax ** (self.sigma - 1.0) - 1.0)

    def f_prime(self, x):
        x = np.asarray(x, dtype=float)
        if np.any(x == 0.0):
            raise DomainError("f' undefined at x = 0")
        out = (self._gamma_factor * (self.sigma - 1.0)
               * np.abs(x) ** (self.sigma - 2.0) * np.sign(x))
        return float(out) if out.ndim == 0 else out

    def f_derivs(self, u):
        u = np.asarray(u, dtype=float)
        g = self._gamma_factor
        s = self.sigma
        out = [g * (u ** (s - 1.0) - 1.0)]
        fac = g
        for k in range(1, 5):
            fac *= s - k
            out.append(fac * u ** (s - 1.0 - k))
        return tuple(out)

    def classify(self):
        return Admissibility(cond31=True, cond47=self.sigma > 1.0)

    def dilate(self, delta):
        _check_delta(delta)
        return PowerLaw(self.sigma, self.prefactor * delta ** (1.0 - self.sigma))


@dataclass(frozen=True)
class Atomic:
    """Finite positive combination of point masses at positive rates."""

    points: Tuple[float, ...]
    weights: Tuple[float, ...]
    family = "atomic"
    breakpoints = None

    def __post_init__(self):
        pts = tuple(float(p) for p in self.points)
        ws = tuple(float(w) for w in self.weights)
        if len(pts) == 0 or len(pts) != len(ws):
            raise DomainError("Atomic needs matching nonempty points/weights")
        if any(not (p > 0.0 and math.isfinite(p)) for p in pts):
            raise DomainError("Atomic points must be finite and positive")
        if any(not (w > 0.0 and math.isfinite(w)) for w in ws):
            raise DomainError("Atomic weights must be finite and positive")
        if any(b <= a for a, b in zip(pts, pts[1:])):
            raise DomainError("Atomic points must be strictly increasing")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", ws)

    @property
    def atoms(self):
        return (np.array(self.points), np.array(self.weights))

    def f(self, x):
        lams, ws = self.atoms
        if np.ndim(x) == 0:
            ax = abs(float(x))
            return float(ws @ (np.exp(-lams * ax) - np.exp(-lams)))
        ax = np.abs(np.asarray(x, dtype=float))
        return (np.exp(-ax[..., None] * lams) - np.exp(-lams)) @ ws

    def f_prime(self, x):
        x = np.asarray(x, dtype=float)
        if np.any(x == 0.0):
            raise DomainError("f' undefined at x = 0")
        lams, ws = self.atoms
        mag = np.exp(-np.abs(x)[..., None] * lams) @ (ws * lams)
        out = -np.sign(x) * mag
        return float(out) if out.ndim == 0 else out

    def f_derivs(self, u):
        u = np.asarray(u, dtype=float)
        lams, ws = self.atoms
        E = np.exp(-u[..., None] * lams)
        f0 = E @ ws - float(ws @ np.exp(-lams))
        return (f0,) + tuple(E @ (ws * (-lams) ** k) for k in range(1, 5))

    def classify(self):
        return Admissibility(cond31=True, cond47=True)

    def dilate(self, delta):
        _check_delta(delta)
        return Atomic(tuple(p / delta for p in self.points), self.weights)


@dataclass(frozen=True)
class Weight:
    """Measure with density ``fn`` (numpy-friendly callable on lam > 0).

    ``breakpoints`` marks discontinuities/compact support so integrals can
    be taken piecewise; tabulated CSV weights always populate it.
    """

    fn: Callable
    breakpoints: Optional[Tuple[float, ...]] = None
    table: Optional[Tuple[Tuple[float, float], ...]] = field(default=None, repr=False)
    family = "weight"
    atoms = None

    def weight(self, lam):
        return np.asarray(self.fn(np.asarray(lam, dtype=float)), dtype=float)

    def _moment(self, g, tol=1e-10):
        return integrate(g, self, tol=tol).value

    def f(self, x):
        scalar = np.ndim(x) == 0
        ax = np.abs(np.atleast_1d(np.asarray(x, dtype=float)))
        if scalar and ax[0] == 0.0:
            adm = self.classify()
            if not adm.cond47:
                return PLUS_INF
        out = np.array([
            self._moment(lambda lam, a=a: np.exp(-lam * a) - np.exp(-lam))
            for a in ax
        ])
        return float(out[0]) if scalar else out

    def f_prime(self, x):
        x = np.asarray(x, dtype=float)
        if np.any(x == 0.0):
            raise DomainError("f' undefined at x = 0")
        scalar = x.ndim == 0
        xs = np.atleast_1d(x)
        mag = np.array([
            self._moment(lambda lam, a=abs(a): lam * np.exp(-lam * a)) for a in xs
        ])
        out = -np.sign(xs) * mag
        return float(out[0]) if scalar else out

    def f_derivs(self, u):
        u = np.atleast_1d(np.asarray(u, dtype=float))
        cols = []
        for k in range(5):
            if k == 0:
                cols.append(np.array([
                    self._moment(lambda lam, a=a: np.exp(-lam * a) - np.exp(-lam))
                    for a in u
                ]))
            else:
                cols.append(np.array([
                    self._moment(lambda lam, a=a, kk=k: (-lam) ** kk * np.exp(-lam * a))
                    for a in u
                ]))
        return tuple(cols)

    def classify(self):
        try:
            m31 = self._moment(lambda lam: lam / (lam * lam + 1.0))
        except ConvergenceError as exc:
            raise AdmissibilityError(
                "weight measure: minorant moment diverges") from exc
        if not (m31 > 0.0):
            raise AdmissibilityError("weight measure is null: zero total mass")
        try:
            self._moment(lambda lam: lam / (lam + 1.0))
            c47 = True
        except ConvergenceError:
            c47 = False
        return Admissibility(cond31=True, cond47=c47)

    def dilate(self, delta):
        _check_delta(delta)
        base = self.fn
        bp = None if self.breakpoints is None else tuple(
            b / delta for b in self.breakpoints)
        return Weight(lambda lam, d=delta: d * np.asarray(base(d * np.asarray(lam)),
                                                          dtype=float), bp)


def _check_delta(delta):
    if not (isinstance(delta, (int, float)) and delta > 0.0 and math.isfinite(delta)):
        raise DomainError(f"dilation parameter must be finite and positive, got {delta!r}")


def dilate(measure, delta):
    """The measure nu(E) = mu(delta E); f_nu(x) = f_mu(x/delta) - f_mu(1/delta)."""
    return measure.dilate(delta)


def classify(measure):
    """Admissibility flags of a measure (AdmissibilityError if not even cond31)."""
    return measure.classify()


def integrate(g, measure, tol=1e-10, budget=quadrature.DEFAULT_BUDGET):
    """Integral of g against the measure, honoring tabulated breakpoints.

    g follows the integrand contract of ``quadrature``: an (n, m) result
    gives m integrals in one call, with arrays in the QuadResult.
    """
    bp = getattr(measure, "breakpoints", None)
    if bp:
        gv = quadrature._as_vector_fn(g)
        w = measure.weight
        total, err, evals = 0.0, 0.0, 0
        for a, b in zip(bp, bp[1:]):
            r = quadrature.integrate_finite(
                lambda lam: (gv(lam).T * w(lam)).T, a, b,
                tol / max(1, len(bp) - 1), budget // max(1, len(bp) - 1))
            total += r.value
            err += r.abs_err_est
            evals += r.evaluations
        return quadrature.QuadResult(total, err, evals)
    return quadrature.integrate_measure(g, measure, tol, budget)


def _defect_moment(nu, kind, tol):
    """int of the one-sided kernel defect (2/lam - csch or coth - 2/lam) dnu."""
    dm = (specfun.defect_minorant if kind == "minorant"
          else specfun.defect_majorant)
    family = getattr(nu, "family", None)
    if family == "haar_log":
        if kind == "majorant":
            raise AdmissibilityError(
                "majorant defect moment diverges for HaarLog() (no cond47 moment)")
        return math.log(2.0)
    if family == "power_law":
        s = nu.sigma
        gz = specfun.gamma(1.0 - s) * specfun.zeta(1.0 - s)
        fac = (2.0 - 2.0 ** (2.0 - s)) if kind == "minorant" else 2.0
        return nu.prefactor * fac * gz
    if family == "atomic":
        lams, ws = nu.atoms
        return float(sum(w * dm(l) for l, w in zip(lams, ws)))
    return integrate(dm, nu, tol=tol).value


def atomic_from_csv(path):
    """Load an Atomic measure from CSV with header ``lambda,weight``."""
    rows = _read_measure_rows(path)
    return Atomic(tuple(r[0] for r in rows), tuple(r[1] for r in rows))


def weight_from_csv(path):
    """Load a piecewise-constant Weight from CSV with header ``lambda,weight``.

    Row i sets the density to w_i on [lambda_i, lambda_{i+1}); the final
    weight is ignored as a density value (it only closes the last panel),
    and the density is zero outside the tabulated range.
    """
    rows = _read_measure_rows(path)
    if len(rows) < 2:
        raise DomainError("weight table needs at least two rows")
    lams = np.array([r[0] for r in rows])
    ws = np.array([r[1] for r in rows])

    def fn(lam):
        lam = np.asarray(lam, dtype=float)
        idx = np.searchsorted(lams, lam, side="right") - 1
        inside = (idx >= 0) & (lam < lams[-1])
        return np.where(inside, ws[np.clip(idx, 0, len(ws) - 1)], 0.0)

    return Weight(fn, breakpoints=tuple(r[0] for r in rows),
                  table=tuple((r[0], r[1]) for r in rows))


def _read_measure_rows(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["lambda", "weight"]:
            raise DomainError(f"{path}: expected header 'lambda,weight'")
        rows = []
        for ln, line in enumerate(reader, start=2):
            if not line:
                continue
            if len(line) != 2:
                raise DomainError(f"{path}:{ln}: malformed row {line!r}")
            try:
                lam, w = float(line[0]), float(line[1])
            except ValueError:
                raise DomainError(f"{path}:{ln}: non-numeric row {line!r}")
            if not (lam > 0.0 and math.isfinite(lam)):
                raise DomainError(
                    f"{path}:{ln}: lambda must be finite positive, got {lam!r}")
            if not (w > 0.0 and math.isfinite(w)):
                raise DomainError(
                    f"{path}:{ln}: weight must be finite positive, got {w!r}")
            rows.append((lam, w))
    if not rows:
        raise DomainError(f"{path}: no data rows")
    if any(b[0] <= a[0] for a, b in zip(rows, rows[1:])):
        raise DomainError(f"{path}: lambda column must be strictly increasing")
    return rows
