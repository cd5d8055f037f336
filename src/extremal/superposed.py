"""Superposed extremal approximants G_mu (minorant) and H_mu (majorant).

For an admissible measure mu on (0, inf) with kernel transform f_mu, the
extremal type-2pi minorant interpolates f_mu and f_mu' on the half-integer
lattice,

    G_mu(x) = P(x) * sum_{s in Z + 1/2} [ f_mu(s)/(x-s)^2 + f_mu'(s)/(x-s) ],
    P(x) = (cos(pi x)/pi)^2,

and the majorant H_mu does the same over the integers (no derivative term
at s = 0).  Terms are paired across +-s, which makes the sum absolutely
convergent for every admissible family.  kernels._lattice_series, the
engine that also evaluates L and M, sums it: a head and a window of nodes
directly, and the runs between and past them by Euler-Maclaurin, from
f_nu^(0..16) at their ends; this module supplies f_nu and its derivatives
on the nodes and f_nu(0) for H.

Dilation: Minorant(mu, delta) evaluates G_nu(delta x) with nu(E) = mu(delta E),
the extremal type-2pi*delta minorant of f_mu(x) - f_mu(1/delta).  G and H
are the value methods of Minorant and Majorant and their defects the defect
methods; eval_U alone is a module function, as it fixes mu and the sign.

An instance holds measure, nu, delta and, for H, f_nu(0), taken when it
is built, and no mutable state.  Each call takes f_nu and f_nu' at the
head's nodes and f_nu^(0..16) at the nodes past it from two _derivs
calls, so a point costs O(1) nodes at every |x| below 2^52, past which G,
H and U raise DomainError.  Where f_nu has a closed form (HaarLog,
PowerLaw, Atomic) a value depends on its own x alone; a Weight integrates
the nodes of a call's batch on every call, so its values depend on the
batch but never on an earlier call.  DefectProfile checks the series
against the measure-integral route int (kernel defect at x) dmu.
"""

import numpy as np

from dataclasses import dataclass

from . import measures
from .errors import DomainError
from .kernels import KernelDefectAtPoint, _first_series, _lattice_series


class _Superposed:
    """Shared machinery; subclasses fix the lattice and the kind."""

    kind = None
    _f0 = None          # f_nu(0) where the lattice has a node at 0

    def __init__(self, measure, delta=1.0):
        self.nu = measure.dilate(delta)
        measure.require(self.kind)
        self.measure = measure
        self.delta = float(delta)

    def _nodes(self, s, n):
        """f_nu^(0..n-1) on the sorted distinct nodes s, an (n, 1, len(s))
        array: the one series of a _lattice_series call."""
        return self.nu._derivs(s, range(n))[:, None]

    # -- evaluation -------------------------------------------------------

    def value(self, x):
        """The approximant at x (vectorized, even in x bit-for-bit)."""
        return _first_series(_lattice_series(np.asarray(x, dtype=float) * self.delta,
                                             (self._nodes, (None,)), self._f0))

    def target(self, x):
        """What the approximant one-sidedly approximates at x.

        delta = 1: f_mu(x).  General delta: f_mu(x) - f_mu(1/delta), i.e.
        f_nu(delta x).  IEEE +inf where it diverges, for a scalar or in
        place in an array: at x = 0 when the cond47 moment fails, which only
        G's measure may do.
        """
        return self.nu.f(self.delta * np.asarray(x, dtype=float))

    def defect(self, x, tol=1e-9):
        """Both routes to the one-sided gap |approximant - target| at x.

        A 1-D array x takes one vector integral over all its points.
        """
        x = float(x) if np.ndim(x) == 0 else np.asarray(x, dtype=float)
        t = self.target(x)
        if np.any(np.isinf(t)):
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

    def target(self, x):
        """As for G, but at x = 0 it is the f_nu(0) that H interpolates
        there, so H's defect at its node 0 is exactly 0 also for a Weight,
        whose f_nu(0) inside a batch may differ from it in the last bits."""
        u = self.delta * np.asarray(x, dtype=float)
        t = np.where(u == 0.0, self._f0, super().target(x))
        return float(t) if t.ndim == 0 else t


def eval_U(x):
    """Band-limited majorant of log|x| of type 2pi: U = -G_{HaarLog}.

    log|x| <= U(x) everywhere with int (U - log|x|) dx = log 2.
    """
    vals = Minorant(measures.HaarLog()).value(x)
    return -vals

