"""Superposed extremal approximants G_mu (minorant) and H_mu (majorant).

For an admissible measure mu on (0, inf) with kernel transform f_mu, the
extremal type-2pi minorant interpolates f_mu and f_mu' on the half-integer
lattice,

    G_mu(x) = P(x) * sum_{s in Z + 1/2} [ f_mu(s)/(x-s)^2 + f_mu'(s)/(x-s) ],
    P(x) = (cos(pi x)/pi)^2,

and the majorant H_mu does the same over the integers (no derivative term
at s = 0).  Terms are paired across +-s, which makes the sum absolutely
convergent for every admissible family; writing b(u) = 1/(x-u) - 1/(x+u)
the paired term is exactly (f_mu * b)'(s), so the truncated tail is

    sum_{k >= 0} g(a0 + k),   g = (f_mu b)',

which we evaluate by Euler-Maclaurin: the integral part telescopes to
-f_mu(a0) b(a0) exactly, and the correction g(a0)/2 - g'(a0)/12 +
g'''(a0)/720 uses closed-form derivatives of f_mu and b.  With horizon
a0 >= max(512, |x| + 96) the truncation error sits at the 1e-13 level even
for the slowest admissible decay (power-law exponents near 2); this was
validated against a 16384-node horizon.

The series itself, with its near-node collapse and the unpaired s = 0 node
of H, is kernels._lattice_series, the engine that also evaluates the single
kernels L and M.  This module supplies the cached nodes f_nu and f_nu', the
value f_nu(0) for H, the horizon and the Euler-Maclaurin tail.

Dilation: Minorant(mu, delta) evaluates G_nu(delta x) with nu(E) = mu(delta E),
the extremal type-2pi*delta minorant of f_mu(x) - f_mu(1/delta).

Node values are cached per instance (reads are pure; the cache only grows),
so grid sweeps reuse one instance.  The measure-integral route
int (kernel defect at x) dmu is exposed both as an independent evaluation
strategy and as the DefectProfile cross-check.
"""

import math
import threading

import numpy as np

from dataclasses import dataclass

from . import measures
from .errors import DomainError
from .kernels import KernelDefectAtPoint, _lattice_series

_MIN_HORIZON = 512
_GAP = 96


def _bder(x, u, k):
    """k-th u-derivative of b(u) = 1/(x-u) - 1/(x+u)."""
    fk = math.factorial(k)
    return fk * (1.0 / (x - u) ** (k + 1) + (-1.0) ** (k + 1) / (x + u) ** (k + 1))


class _Superposed:
    """Shared machinery; subclasses fix the lattice and the kind."""

    kind = None
    _offset = None     # node lattice is arange + offset

    def __init__(self, measure, delta=1.0):
        measures._check_delta(delta)
        measure.require(self.kind)
        self.measure = measure
        self.delta = float(delta)
        self.nu = measures.dilate(measure, self.delta)
        self._lock = threading.Lock()
        self._f = np.empty(0)
        self._fp = np.empty(0)
        self._f00 = None
        self._tail_cache = {}

    # -- node cache -------------------------------------------------------

    def _nodes(self, count):
        """f_nu and f_nu' on the first ``count`` positive lattice nodes."""
        if len(self._f) < count:
            with self._lock:
                if len(self._f) < count:
                    s = np.arange(len(self._f), count, dtype=float) + self._offset
                    self._f = np.concatenate([self._f, np.asarray(self.nu.f(s))])
                    self._fp = np.concatenate([self._fp, np.asarray(self.nu.f_prime(s))])
        return self._f[:count], self._fp[:count]

    def _tail(self, x, a0):
        """Euler-Maclaurin value of sum_{k>=0} (f b)'(a0 + k), vectorized in x."""
        if a0 not in self._tail_cache:
            with self._lock:
                if a0 not in self._tail_cache:
                    self._tail_cache[a0] = tuple(
                        float(d[0]) for d in self.nu.f_derivs(a0))
        f0, f1, f2, f3, f4 = self._tail_cache[a0]
        b0 = _bder(x, a0, 0)
        b1 = _bder(x, a0, 1)
        b2 = _bder(x, a0, 2)
        b3 = _bder(x, a0, 3)
        b4 = _bder(x, a0, 4)
        g = f0 * b1 + f1 * b0
        gp = f2 * b0 + 2.0 * f1 * b1 + f0 * b2
        g3 = f4 * b0 + 4.0 * f3 * b1 + 6.0 * f2 * b2 + 4.0 * f1 * b3 + f0 * b4
        return -f0 * b0 + 0.5 * g - gp / 12.0 + g3 / 720.0

    def _lattice(self, y_max):
        """Nodes below the horizon max(512, |y| + 96), with f_nu and f_nu' there."""
        horizon = max(_MIN_HORIZON, int(math.ceil(y_max)) + _GAP)
        s = np.arange(self._offset, horizon, dtype=float)
        return (s,) + self._nodes(len(s))

    def _zero_node(self):
        """f_nu(0) where the lattice has a node at 0, else None."""
        return None

    # -- evaluation -------------------------------------------------------

    def value(self, x):
        """The approximant at x (vectorized, even in x bit-for-bit)."""
        return _lattice_series(np.asarray(x, dtype=float) * self.delta, self._lattice,
                               self._zero_node(), self._tail)

    def target(self, x):
        """What the approximant one-sidedly approximates at x.

        delta = 1: f_mu(x).  General delta: f_mu(x) - f_mu(1/delta), i.e.
        f_nu(delta x).  Returns the PLUS_INF sentinel where divergent.
        """
        return self.nu.f(self.delta * np.asarray(x, dtype=float))

    def value_via_defect(self, x, tol=1e-9):
        """Independent evaluation through the kernel-defect measure integral."""
        x = float(x)
        prof = self.defect(x, tol)
        t = self.target(x)
        if measures.is_plus_inf(t):
            raise DomainError("defect strategy needs a finite target value")
        if self.kind == "minorant":
            return t - prof.integral_value
        return t + prof.integral_value

    def defect(self, x, tol=1e-9):
        """Both routes to the one-sided gap |approximant - target| at x.

        A 1-D array x takes one vector integral over all its points.
        """
        x = float(x) if np.ndim(x) == 0 else np.asarray(x, dtype=float)
        t = self.target(x)
        if measures.is_plus_inf(t):
            raise DomainError("defect undefined where the target diverges")
        v = self.value(x)
        series = (t - v) if self.kind == "minorant" else (v - t)
        res = measures.integrate(KernelDefectAtPoint(self.delta * x, self.kind),
                                 self.nu, tol=tol)
        return DefectProfile(series, res.value, abs(series - res.value)
                             + res.abs_err_est)


@dataclass(frozen=True)
class DefectProfile:
    """Series-route and integral-route values of a pointwise defect.

    Floats for a point, arrays over the points for an array x.
    """

    series_value: float
    integral_value: float
    abs_err: float


class Minorant(_Superposed):
    """G: extremal type-2pi*delta minorant of f_mu(.) - f_mu(1/delta)."""

    kind = "minorant"
    _offset = 0.5


class Majorant(_Superposed):
    """H: extremal type-2pi*delta majorant of f_mu(.) - f_mu(1/delta)."""

    kind = "majorant"
    _offset = 1.0

    def _zero_node(self):
        if self._f00 is None:
            with self._lock:
                if self._f00 is None:
                    self._f00 = self.nu.f(0.0)
        return self._f00


def eval_G(measure, x):
    """G_mu(x): extremal type-2pi minorant of f_mu."""
    return Minorant(measure).value(x)


def eval_H(measure, x):
    """H_mu(x): extremal type-2pi majorant of f_mu (needs cond47)."""
    return Majorant(measure).value(x)


def eval_G_dilated(measure, delta, x):
    """G_nu(delta x), nu = mu(delta .): type-2pi*delta minorant of f_mu - f_mu(1/delta)."""
    return Minorant(measure, delta).value(x)


def eval_H_dilated(measure, delta, x):
    """H_nu(delta x): type-2pi*delta majorant of f_mu - f_mu(1/delta)."""
    return Majorant(measure, delta).value(x)


def eval_U(x):
    """Band-limited majorant of log|x| of type 2pi: U = -G_{HaarLog}.

    log|x| <= U(x) everywhere with int (U - log|x|) dx = log 2.
    """
    vals = Minorant(measures.HaarLog()).value(x)
    return -vals


def defect(measure, kind, x, delta=1.0, tol=1e-9):
    """DefectProfile of the chosen one-sided approximant at x."""
    if kind not in ("minorant", "majorant"):
        raise DomainError(f"unknown kind {kind!r}")
    cls = Minorant if kind == "minorant" else Majorant
    return cls(measure, delta).defect(x, tol)
