"""Superposed extremal approximants G_mu (minorant) and H_mu (majorant).

For an admissible measure mu on (0, inf) with kernel transform f_mu, the
extremal type-2pi minorant interpolates f_mu and f_mu' on the half-integer
lattice,

    G_mu(x) = P(x) * sum_{s in Z + 1/2} [ f_mu(s)/(x-s)^2 + f_mu'(s)/(x-s) ],
    P(x) = (cos(pi x)/pi)^2,

and the majorant H_mu does the same over the integers (no derivative term
at s = 0).  Terms are paired across +-s, which makes the sum absolutely
convergent for every admissible family.  kernels._lattice_series, the
engine that also evaluates L and M, sums it and decides where it stops;
this module supplies f_nu and f_nu' on the nodes, f_nu(0) for H and
f_nu^(0..4) where the tail starts.

Dilation: Minorant(mu, delta) evaluates G_nu(delta x) with nu(E) = mu(delta E),
the extremal type-2pi*delta minorant of f_mu(x) - f_mu(1/delta).

A majorant takes f_nu(0) when it is built.  Each instance caches, under
locks, f_nu and f_nu' on the nodes, the tail derivatives at each horizon
and the far-field samples of each cell (see kernels); reads are pure and
the caches only grow, so a point costs O(1) once its cell is built and
grid sweeps reuse one instance.  Where f_nu has a closed form (HaarLog,
PowerLaw, Atomic) a value depends on its own x alone; a Weight takes the
values it caches from one vector integral over the points that first
asked for them.  The measure-integral route int (kernel defect at x) dmu is exposed both as an
independent evaluation strategy and as the DefectProfile cross-check.
"""

import threading

import numpy as np

from dataclasses import dataclass

from . import measures
from .errors import DomainError, check_kind
from .kernels import KernelDefectAtPoint, _CellCache, _lattice_series


class _Superposed:
    """Shared machinery; subclasses fix the lattice and the kind."""

    kind = None
    _f0 = None          # f_nu(0) where the lattice has a node at 0

    def __init__(self, measure, delta=1.0):
        self.nu = measures.dilate(measure, delta)
        measure.require(self.kind)
        self.measure = measure
        self.delta = float(delta)
        self._lock = threading.Lock()
        self._table = (np.empty(0), np.empty(0))
        self._horizons = _CellCache(5)
        self._cells = _CellCache()

    # -- node cache -------------------------------------------------------

    def _nodes(self, s):
        """f_nu and f_nu' on s, the first len(s) positive lattice nodes; a
        build publishes both as one tuple, so a lock-free read sees them match."""
        count = len(s)
        f, fp = self._table
        if len(f) < count:
            with self._lock:
                f, fp = self._table
                if len(f) < count:
                    df, dfp = self.nu._derivs(s[len(f):], (0, 1))
                    f, fp = np.concatenate([f, df]), np.concatenate([fp, dfp])
                    self._table = f, fp
        return f[:count], fp[:count]

    def _derivs(self, a0):
        """f_nu and its first four derivatives at each horizon of the sorted,
        distinct a0, as a (5, len(a0)) array; one _derivs call for the a0
        not held yet."""
        return self._horizons.rows(a0, lambda new: self.nu._derivs(new, range(5)).T).T

    # -- evaluation -------------------------------------------------------

    def value(self, x):
        """The approximant at x (vectorized, even in x bit-for-bit)."""
        return _lattice_series(np.asarray(x, dtype=float) * self.delta,
                               [(self._nodes, self._derivs, None, self._cells)],
                               self._f0)[0]

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


class Majorant(_Superposed):
    """H: extremal type-2pi*delta majorant of f_mu(.) - f_mu(1/delta)."""

    kind = "majorant"

    def __init__(self, measure, delta=1.0):
        super().__init__(measure, delta)
        self._f0 = self.nu.f(0.0)


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
    cls = Minorant if check_kind(kind) == "minorant" else Majorant
    return cls(measure, delta).defect(x, tol)
