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

Dilation nu = mu.dilate(delta), nu(E) = mu(delta E), maps each family onto
itself; it rescales the exponential type of the superposed approximants
and satisfies f_nu(x) = f_mu(x/delta) - f_mu(1/delta).  HaarLog is the
dilation-invariant point of the PowerLaw scale.

Each family states the derivatives of f_mu once, in ``_derivs(ax, orders)``
(f_mu^(k) at the array ax of |x| for each k in orders, stacked on a new
first axis).  Measure.f and f_prime call it with order 0 or 1, give f' the
sign of x and return a float for a scalar; f_derivs takes orders 0-4 at
positive points and raises DomainError at any other.  At x = 0, f follows
the divergent-point rule of ``_divergent`` (a scalar gets PLUS_INF, an
array holding the point raises DomainError), which forms.r_mu and
Measure.q share.  A nan or infinite point raises DomainError in f,
f_prime, f_derivs, q and r_mu alike.

The periodized kernel q_mu(x) = int p(lam, x) dmu follows the same idiom:
``_q(x, orders, tol)`` gives q_mu (order 0) and q_mu' (order 1) wherever
q_mu is finite, the integers included (q_mu' is 0 there).  Measure.q is
its order 0 and, as f does at x = 0, gates the integers on cond47.  The
base defect_moment(kind, tol, delta) is the sharp form constant A or B:
-q_nu(1/2) or q_nu(0) of the dilation nu, over delta.

Measures integrate and kernels evaluate: ``kernels`` writes each
single-rate kernel, and ``integrate`` is the one integral against a
measure: a sum over ``atoms``, one heap over ``breakpoints``, or else the
weighted integral over (0, inf).  On the base Measure, _derivs, r and _q
are each one call of the column integral ``_integral``.
A family overrides a method only where it beats the base:

             _derivs  defect_moment  r       _q
  HaarLog    closed   -              closed  closed
  PowerLaw   closed   closed         closed  closed
  Atomic     -        -              -       -
  Weight     -        -              -       -

Atomic's ladder and moments are the base's atom sums, exact near |x| = 1,
and HaarLog's moments the base's from its closed _q (A = log 2, bit for
bit).  periodic builds its polynomials from _q; the paper's route, the
transform moments of Lhat and Mhat, is an oracle of the tests.

``Measure.require(kind)`` is the one admissibility gate (the base moments
of a kind take the gate), and ``_csv_rows`` the one CSV reader.
"""

import csv
import math

import numpy as np

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from . import kernels, quadrature, specfun
from .errors import (AdmissibilityError, ConvergenceError, DivergenceError,
                     DomainError, check_delta, check_finite, check_kind, is_real)


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


def _divergent(x, what):
    """The divergent-point rule, for an x that holds the point where a
    transform diverges: PLUS_INF for a scalar x, DomainError for an array."""
    if np.ndim(x) == 0:
        return PLUS_INF
    raise DomainError(f"{what}; evaluate that point as a scalar to get the "
                      "PLUS_INF sentinel")


def _by_kind(kind, minorant, majorant):
    """minorant or majorant as kind says; DomainError for any other kind."""
    return minorant if check_kind(kind) == "minorant" else majorant


def _nonzero(t):
    """t unchanged; DivergenceError if it holds a 0, where r = int 2/lam dmu."""
    if np.any(t == 0.0):
        raise DivergenceError("r diverges at t = 0")
    return t


class Measure:
    """Base of the families: each kernel moment is one measure integral.

    Subclasses supply ``weight`` (or ``atoms``), ``classify`` and
    ``dilate``, and override a method below only where they beat it.
    """

    atoms = None
    breakpoints = None

    def f(self, x):
        """f_mu(x) = int (e^{-lam|x|} - e^{-lam}) dmu; a float for a scalar x.

        x = 0 follows the divergent-point rule when the cond47 moment fails.
        """
        ax = np.abs(check_finite(x))
        if np.any(ax == 0.0) and not self.classify().cond47:
            return _divergent(x, "f diverges at x = 0")
        out = self._derivs(np.atleast_1d(ax), (0,))[0]
        return float(out[0]) if ax.ndim == 0 else out

    def f_prime(self, x):
        """f_mu'(x) = sign(x) f_mu'(|x|) for x != 0; a float for a scalar x."""
        x = check_finite(x)
        if np.any(x == 0.0):
            raise DomainError("f' undefined at x = 0")
        out = np.sign(x) * self._derivs(np.atleast_1d(np.abs(x)), (1,))[0]
        return float(out[0]) if x.ndim == 0 else out

    def f_derivs(self, u):
        """(f, f', f'', f''', f'''') at positive points u, as five arrays;
        DomainError at a point <= 0."""
        u = np.atleast_1d(check_finite(u))
        bad = u[u <= 0.0]
        if bad.size:
            raise DomainError(f"f_derivs needs positive points, got {float(bad[0])!r}")
        return tuple(self._derivs(u, range(5)))

    def require(self, kind):
        """classify(); AdmissibilityError for kind "majorant" without the
        cond47 moment, and DomainError for an unknown kind."""
        adm = self.classify()
        if _by_kind(kind, minorant=False, majorant=not adm.cond47):
            raise AdmissibilityError(
                f"majorant requires the cond47 moment (finite f_mu(0)); "
                f"{self!r} only satisfies cond31")
        return adm

    def _integral(self, kernel, x, tol, orders=None):
        """int kernel dmu at every point of x, in one vector integral over the
        flattened points: kernel(lam, pts) is one (rates, points) block, or
        kernel(lam, pts, orders) a stack of one per order.  One row per block,
        of the shape of x; a scalar x gives a list of floats."""
        x = np.asarray(x, dtype=float)
        pts = x.ravel()
        args = () if orders is None else (orders,)
        out = integrate(lambda lam: np.moveaxis(kernel(lam[:, None], pts, *args), -2, 0)
                        .reshape(len(lam), -1), self, tol=tol).value
        out = out.reshape((len(orders) if args else 1,) + x.shape)
        return out.tolist() if x.ndim == 0 else out

    def _derivs(self, ax, orders):
        """f_mu^(k) at the points of the array ax >= 0 for each k in orders,
        stacked on a new first axis: the integral of the kernels ladder."""
        return self._integral(kernels._exp_ladder, ax, 1e-10, orders)

    def defect_moment(self, kind, tol=1e-10, delta=1.0):
        """A(delta, mu) (kind "minorant") or B(delta, mu): int 2/lam -
        csch(lam/2) = -p(lam, 1/2) or coth(lam/2) - 2/lam = p(lam, 0) dnu
        over delta, nu(E) = mu(delta E), behind the gate of mu itself."""
        nu = self.dilate(delta)
        self.require(kind)
        sign, x = _by_kind(kind, (-1.0, 0.5), (1.0, 0.0))
        return sign * float(nu._q(np.array([x]), (0,), tol)[0, 0]) / delta

    def r(self, t, tol=1e-10):
        """Form kernel int 2 lam / (lam^2 + 4 pi^2 t^2) dmu at t >= 0."""
        return self._integral(kernels._exp_transform, t, tol)[0]

    def q(self, x, tol=1e-9):
        """Periodized kernel q_mu(x) = int p(lam, x) dmu, order 0 of ``_q``;
        a float for a scalar x.  An integer x follows the divergent-point
        rule when the cond47 moment fails."""
        x = check_finite(x)
        if np.any(x - np.floor(x) == 0.0) and not self.classify().cond47:
            return _divergent(x, "q diverges at integer x")
        out = self._q(np.atleast_1d(x), (0,), tol)[0]
        return float(out[0]) if x.ndim == 0 else out

    def _q(self, x, orders, tol):
        """q_mu^(k) at the points of the array x, integers included, for
        each k in orders (0 or 1), stacked on a new first axis: the integral
        of the kernels ladder, p(lam, x) for k = 0 and j(lam, x) for k = 1."""
        return self._integral(kernels._periodized, x, tol, orders)


@dataclass(frozen=True)
class HaarLog(Measure):
    """Multiplicative Haar measure dlam/lam; f_mu(x) = -log|x|."""

    family = "haar_log"

    def weight(self, lam):
        return 1.0 / np.asarray(lam, dtype=float)

    def _derivs(self, ax, orders):
        return np.stack([-np.log(ax) if k == 0
                         else (-1) ** k * math.factorial(k - 1) / ax ** k
                         for k in orders])

    def r(self, t, tol=1e-10):
        return 0.5 / _nonzero(t)

    def _q(self, x, orders, tol):
        """-log|2 sin(pi x)| and its derivative -pi cot(pi x), the latter
        from the signed distance t to the nearest integer, exactly odd."""
        t = x - np.round(x)
        return np.stack([-np.log(np.abs(2.0 * np.sin(np.pi * x))) if k == 0
                         else -np.pi / np.tan(np.pi * t) for k in orders])

    def classify(self):
        return Admissibility(cond31=True, cond47=False)

    def dilate(self, delta):
        check_delta(delta)
        return self


@dataclass(frozen=True)
class PowerLaw(Measure):
    """dmu = prefactor * lam^-sigma dlam with sigma in (0, 2) \\ {1}."""

    sigma: float
    prefactor: float = 1.0
    family = "power_law"

    def __post_init__(self):
        s = self.sigma
        if not (is_real(s) and 0.0 < s < 2.0 and s != 1.0):
            raise DomainError(
                f"PowerLaw exponent must lie in (0, 2) excluding 1, got {s!r}"
            )
        if not (self.prefactor > 0.0 and math.isfinite(self.prefactor)):
            raise DomainError(f"PowerLaw prefactor must be positive, got {self.prefactor!r}")
        object.__setattr__(self, "sigma", float(s))

    def weight(self, lam):
        return self.prefactor * np.asarray(lam, dtype=float) ** (-self.sigma)

    @property
    def _gamma_factor(self):
        return self.prefactor * specfun.gamma(1.0 - self.sigma)

    def _derivs(self, ax, orders):
        """Order 0 is g expm1((sigma-1) log a), which does not cancel near
        a = 1; log 0 = -inf gives f_mu(0) = -g for sigma > 1."""
        g, s = self._gamma_factor, self.sigma
        facs = np.cumprod([g] + [s - k for k in range(1, max(orders) + 1)])
        with np.errstate(divide="ignore"):
            return np.stack([g * np.expm1((s - 1.0) * np.log(ax)) if k == 0
                             else facs[k] * ax ** (s - 2.0 if k == 1 else s - 1.0 - k)
                             for k in orders])

    def defect_moment(self, kind, tol=1e-10, delta=1.0):
        nu = self.dilate(delta)
        self.require(kind)
        s = self.sigma
        gz = specfun.gamma(1.0 - s) * specfun.zeta(1.0 - s)
        fac = _by_kind(kind, 2.0 - 2.0 ** (2.0 - s), 2.0)
        return nu.prefactor * fac * gz / delta

    def _q(self, x, orders, tol):
        """q_mu and q_mu' in closed form: with t = x - round(x) and d = |t|
        the exact distance to Z, q = kappa Gamma(1-sigma) [zeta(1-sigma, d)
        + zeta(1-sigma, 1-d)] and q' = -sign(t) kappa Gamma(2-sigma)
        [zeta(2-sigma, d) - zeta(2-sigma, 1-d)].  Near sigma = 1 the poles
        of the two zeta(2-sigma, .) cancel, to about eps/|1-sigma|.  At the
        integers q takes zeta(1-sigma, 0), finite for sigma > 1, and the odd
        q' is 0: its difference is taken at the offset 1/2 instead of 0."""
        t = x - np.round(x)
        d = np.abs(t)
        s = 1.0 - self.sigma
        g = self._gamma_factor
        odd = np.where(d == 0.0, 0.5, d)
        return np.stack([g * (specfun.hurwitz_zeta(s, d) + specfun.hurwitz_zeta(s, 1.0 - d))
                         if k == 0 else -np.sign(t) * (s * g) * (
                             specfun.hurwitz_zeta(s + 1.0, odd)
                             - specfun.hurwitz_zeta(s + 1.0, 1.0 - odd))
                         for k in orders])

    def r(self, t, tol=1e-10):
        s = self.sigma
        C = self.prefactor * math.pi / ((2.0 * math.pi) ** s
                                        * math.sin(math.pi * s / 2.0))
        return C * np.asarray(_nonzero(t), dtype=float) ** (-s)

    def classify(self):
        return Admissibility(cond31=True, cond47=self.sigma > 1.0)

    def dilate(self, delta):
        check_delta(delta)
        return PowerLaw(self.sigma, self.prefactor * delta ** (1.0 - self.sigma))


@dataclass(frozen=True)
class Atomic(Measure):
    """Finite positive combination of point masses at positive rates.

    Its moments are the finite sums that ``integrate`` takes over atoms.
    """

    points: Tuple[float, ...]
    weights: Tuple[float, ...]
    family = "atomic"

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

    def classify(self):
        return Admissibility(cond31=True, cond47=True)

    def dilate(self, delta):
        check_delta(delta)
        return Atomic(tuple(p / delta for p in self.points), self.weights)


@dataclass(frozen=True)
class Weight(Measure):
    """Measure with density ``fn``, a callable that takes an array of rates
    lam > 0 and returns the array of densities (a scalar-only callable
    fails with its own TypeError).

    ``breakpoints`` marks discontinuities/compact support: integrals run
    over [breakpoints[0], breakpoints[-1]] from the pieces between them;
    tabulated CSV weights always populate it.  It needs at least two
    finite, strictly increasing entries, the first >= 0.  Every moment is
    a quadrature fallback of the Measure base.
    """

    fn: Callable
    breakpoints: Optional[Tuple[float, ...]] = None
    family = "weight"

    def __post_init__(self):
        bp = self.breakpoints
        if bp is None:
            return
        bp = tuple(float(b) for b in bp)
        if not (len(bp) >= 2 and all(math.isfinite(b) for b in bp) and bp[0] >= 0.0
                and all(b > a for a, b in zip(bp, bp[1:]))):
            raise DomainError("Weight breakpoints need at least two finite, strictly "
                              f"increasing entries, the first >= 0; got {self.breakpoints!r}")
        object.__setattr__(self, "breakpoints", bp)

    def weight(self, lam):
        return np.asarray(self.fn(np.asarray(lam, dtype=float)), dtype=float)

    def classify(self):
        """cond47 first: lam/(lam^2+1) <= 1.21 lam/(lam+1), so a finite
        cond47 moment bounds the cond31 one, which is then not taken."""
        try:
            mass, c47 = integrate(lambda lam: lam / (lam + 1.0), self).value, True
        except ConvergenceError:
            try:
                mass, c47 = integrate(lambda lam: lam / (lam * lam + 1.0), self).value, False
            except ConvergenceError as exc:
                raise AdmissibilityError(
                    "weight measure: minorant moment diverges") from exc
        if not (mass > 0.0):
            raise AdmissibilityError("weight measure is null: zero total mass")
        return Admissibility(cond31=True, cond47=c47)

    def dilate(self, delta):
        check_delta(delta)
        base = self.fn
        bp = None if self.breakpoints is None else tuple(
            b / delta for b in self.breakpoints)
        return Weight(lambda lam, d=delta: d * np.asarray(base(d * np.asarray(lam)),
                                                          dtype=float), bp)


def integrate(g, measure, tol=1e-10):
    """Integral of g(lam) against a measure on (0, inf).

    ``measure`` is duck-typed: an ``atoms`` pair of (positions, weights)
    arrays gives a finite sum; otherwise ``measure.weight`` is the density,
    integrated by one ``quadrature.refine`` heap over its ``breakpoints``,
    graded toward each of them, or over (0, inf) without them.  g follows
    the integrand contract of ``quadrature``, atom sums included: it takes
    arrays, and an (n, m) result gives m integrals in one call, with arrays
    in the QuadResult.  tol follows quadrature.check_tol there too.
    """
    quadrature.check_tol(tol)
    atoms = getattr(measure, "atoms", None)
    if atoms is not None:
        lams, ws = atoms
        vals = np.asarray(g(np.asarray(lams, dtype=float)), dtype=float)
        if vals.ndim not in (1, 2) or vals.shape[0] != len(lams):
            raise DomainError(f"integrand returned shape {vals.shape}; expected "
                              f"({len(lams)},) or ({len(lams)}, m)")
        if not np.all(np.isfinite(vals)):
            raise DomainError("integrand non-finite at an atom")
        # one atom after another, so a point's sum does not depend on the others
        value = vals[0] * ws[0]
        for w, v in zip(ws[1:], vals[1:]):
            value = value + v * w
        if vals.ndim == 1:
            return quadrature.QuadResult(float(value), 0.0, len(lams))
        return quadrature.QuadResult(value, np.zeros_like(value), len(lams))
    w = measure.weight

    def integrand(lam):
        # the transposes broadcast the weight over (n,) and (n, m) alike
        return (np.asarray(g(lam), dtype=float).T * w(lam)).T

    bp = getattr(measure, "breakpoints", None)
    # a divergent integral overflows before quadrature raises; no warnings
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if bp is None:
            return quadrature.integrate_semiinfinite(integrand, tol)
        return quadrature.refine(integrand, bp, bp, tol)


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

    return Weight(fn, breakpoints=tuple(r[0] for r in rows))


def _read_measure_rows(path):
    rows = []
    for where, (lam, w) in _csv_rows(path, ("lambda", "weight")):
        if not (lam > 0.0 and math.isfinite(lam)):
            raise DomainError(f"{where}: lambda must be finite positive, got {lam!r}")
        if not (w > 0.0 and math.isfinite(w)):
            raise DomainError(f"{where}: weight must be finite positive, got {w!r}")
        rows.append((lam, w))
    if any(b[0] <= a[0] for a, b in zip(rows, rows[1:])):
        raise DomainError(f"{path}: lambda column must be strictly increasing")
    return rows


def _csv_rows(path, header):
    """The data rows of a CSV file with the given header, as (where, floats)
    pairs, where is "path:line".  Blank lines are skipped; a wrong header,
    a row of the wrong width, a non-numeric cell or no rows at all raise
    DomainError.  Every CSV reader of the package reads through here."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        got = next(reader, None)
        if got is None or [h.strip() for h in got] != list(header):
            raise DomainError(f"{path}: expected header {','.join(header)!r}")
        rows = []
        for ln, line in enumerate(reader, start=2):
            if not line:
                continue
            where = f"{path}:{ln}"
            if len(line) != len(header):
                raise DomainError(f"{where}: malformed row {line!r}")
            try:
                rows.append((where, tuple(float(v) for v in line)))
            except ValueError:
                raise DomainError(f"{where}: non-numeric row {line!r}")
    if not rows:
        raise DomainError(f"{path}: no data rows")
    return rows
