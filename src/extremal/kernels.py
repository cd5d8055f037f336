"""Extremal band-limited minorant/majorant of e^{-lam|x|} and their transforms.

The minorant L(lam, .) interpolates e^{-lam|x|} and its derivative on the
half-integer lattice, the majorant M(lam, .) on the integers; both have
exponential type 2pi.  Both are evaluated by _lattice_series, the one
interpolation engine this module shares with the superposed G and H:

    P(x) * sum_s [ f(s) (1/(x-s)^2 + 1/(x+s)^2) + f'(s) (1/(x-s) - 1/(x+s)) ]

over s = 1/2, 3/2, ... with P(x) = (cos(pi x)/pi)^2, or over s = 1, 2, ...
plus the unpaired node term f(0)/x^2 with P(x) = (sin(pi x)/pi)^2.  Pairing
the terms across +-s makes the sum exactly even in x and absolutely
convergent.  P is computed as (sin(pi du)/pi)^2 from the distance du to the
nearest node, which keeps full relative accuracy near the lattice, and the
single offending term collapses to

    sinc(du)^2 (f(s*) + du f'(s*))

so node interpolation is exact.  The series alone decides where it stops:
the nodes below the horizon max(512, ceil(max |x|) + 96), plus the
Euler-Maclaurin value of the pairs dropped from a0 on.  With b(u) =
1/(x-u) - 1/(x+u) a pair is exactly g(s) = (f b)'(s), so that tail is
-f(a0) b(a0) + g(a0)/2 - g'(a0)/12 + g'''(a0)/720 from the caller's
f^(0..4)(a0), at the 1e-13 level even for power-law exponents near 2.  A
caller may cap the node count; where the cap binds no tail is added.

L and M (f = e^{-lam s}, f(0) = 1) are capped at K(lam) =
ceil(log(1/eps)/lam) + 10 nodes (eps = 1e-16), which binds for lam >~
0.0734.  Since sum_s sinc(x - s)^2 = 1 and |P(x)/(x -+ s)| <= 1/pi, the
pairs dropped from s0 = first node + K on sum to at most
e^{-lam s0} (1 + 2 lam / (pi (1 - e^{-lam}))) at every x (below 6e-17 for
lam >= 0.1); a point whose nearest node was dropped gets no collapse, as P
vanishes there.  Smaller rates take the tail, so their values depend on the
largest |x| of the call at the 1e-15 level, as those of G and H do.
eval_L and eval_M report the nodes kept and the bound of their branch.

The Fourier transforms (supported on [-1, 1]) have the closed forms

    Lhat = [(1-|t|) sinh(l/2) cos(pi t) + (l/2pi)|sin(pi t)| cosh(l/2)] / Dh
    Mhat = [(1-|t|) sinh(l/2) cosh(l/2) + (l/2pi)|sin(pi t)| cos(pi t)] / Dh
    Dh   = sinh(l/2)^2 + sin(pi t)^2

evaluated in e^{-l/2}-scaled form so nothing overflows for any lam > 0.

The periodized kernel p(lam, x) = -2/lam + sum_m e^{-lam|x+m|} and its
x-derivative j (eval_p, eval_j, re-exported by periodic) are scaled alike;
a Taylor branch below lam = 1e-2 removes the 2/lam cancellation of p (the
branches agree to ~1e-13 in the switch window).

The one-sided kernel defects e^{-lam|x|} - L and M - e^{-lam|x|} are O(lam)
as lam -> 0, a difference of O(1) numbers, so measure integrals refining
toward lam = 0 use KernelDefectAtPoint: a per-x Chebyshev fit of
defect/lam on [0, 1/2] (the defect is analytic in |lam| < 2pi, making the
fit rounding-limited; ~1e-10 relative accuracy uniformly down to lam -> 0).
It takes one x or an array of x: each rate is one series call over all
the points and the fit is one chebfit over all of them, so an array of
points is one (n_lam, n_x) vector integrand.
"""

import math

import numpy as np

from dataclasses import dataclass

from .errors import DomainError

_EPS_TAIL = 1e-16
_NODE_TOL = 1e-6
_CHUNK = 2_000_000  # max matrix cells per vectorized block
_P_SWITCH = 1e-2
_MIN_HORIZON = 512
_GAP = 96


@dataclass(frozen=True)
class KernelEval:
    """One kernel evaluation with its truncation bookkeeping."""

    lam: float
    x: float
    value: float
    trunc_terms: int
    tail_bound: float


def _check_lam(lam):
    """lam as a float, or as a float array when it is an ndarray.

    DomainError unless every rate is finite and positive.
    """
    if isinstance(lam, np.ndarray):
        lam = lam.astype(float)
        if not np.all((lam > 0.0) & np.isfinite(lam)):
            raise DomainError("kernel rates must be finite and positive")
        return lam
    real = isinstance(lam, (int, float, np.integer, np.floating))
    if not (real and lam > 0.0 and math.isfinite(lam)):
        raise DomainError(f"kernel rate must be finite and positive, got {lam!r}")
    return float(lam)


def _trunc_terms(lam):
    """K(lam), the most node pairs L and M keep at any x."""
    return int(math.ceil(math.log(1.0 / _EPS_TAIL) / lam)) + 10


def _truncation(ax_max, first, cap):
    """(n, tail): n nodes from first on, and whether the tail from first + n
    is added, i.e. whether the horizon binds before the cap."""
    n = math.ceil(max(_MIN_HORIZON, math.ceil(ax_max) + _GAP) - first)
    if cap is not None and cap <= n:
        return cap, False
    return n, True


def _bder(x, u, k):
    """k-th u-derivative of b(u) = 1/(x-u) - 1/(x+u)."""
    fk = math.factorial(k)
    return fk * (1.0 / (x - u) ** (k + 1) + (-1.0) ** (k + 1) / (x + u) ** (k + 1))


def _em_tail(x, a0, d):
    """Euler-Maclaurin value of sum_{k>=0} (f b)'(a0 + k), vectorized in x,
    from d = f^(0..4)(a0)."""
    f0, f1, f2, f3, f4 = d
    b0, b1, b2, b3, b4 = (_bder(x, a0, k) for k in range(5))
    g = f0 * b1 + f1 * b0
    gp = f2 * b0 + 2.0 * f1 * b1 + f0 * b2
    g3 = f4 * b0 + 4.0 * f3 * b1 + 6.0 * f2 * b2 + 4.0 * f1 * b3 + f0 * b4
    return -f0 * b0 + 0.5 * g - gp / 12.0 + g3 / 720.0


def _tail_bound(lam, ax, a0, tail):
    """Without the tail: the pairs of L or M dropped from a0 on.  With it:
    the Euler-Maclaurin remainder (1/pi^2)(1/720) int_{a0}^inf |g''''| at
    |x| = ax, by Leibniz with |f^(j)| <= lam^j e^{-lam a0} and |b^(m)(u)| <=
    2 m!/(u - ax)^(m+1)."""
    e = math.exp(-lam * a0)
    if not tail:
        return e * (1.0 + 2.0 * lam / (math.pi * -math.expm1(-lam)))
    d = a0 - ax
    terms = sum(math.comb(5, j) * math.factorial(4 - j) * lam ** j / d ** (5 - j)
                for j in range(5))
    return 2.0 * e * (terms + lam ** 4 / d) / (720.0 * math.pi ** 2)


def _lattice_series(x, nodes, derivs, f0=None, cap=None):
    """Interpolation series through (f, f') on Z + 1/2, or on Z when f0 is given.

    Vectorized over x and even in x bit-for-bit; with P(x) = (cos(pi x)/pi)^2
    on Z + 1/2 and (sin(pi x)/pi)^2 on Z it evaluates

        P(x) [f0/x^2 + sum_s f(s) (1/(x-s)^2 + 1/(x+s)^2)
                     + f'(s) (1/(x-s) - 1/(x+s)) + tail(|x|, a0)].

    _truncation for the largest |x| and ``cap`` picks the n positive nodes
    s = first, first + 1, ... (first = 1/2, or 1 with f0) and the tail;
    ``nodes(s)`` returns f and f' there and ``derivs(a0)`` f^(0..4)(a0).  A
    point whose nearest node lies past s[-1] gets no node collapse.  The
    f0/x^2 term is the unpaired node 0 of the integer lattice.  Non-finite x
    raises DomainError.
    """
    x = np.asarray(x, dtype=float)
    ax = np.abs(x).ravel()
    ax_max = float(ax.max(initial=0.0))         # nan or inf if any point is
    if not math.isfinite(ax_max):
        raise DomainError("evaluation points must be finite")
    first = 0.5 if f0 is None else 1.0
    n, tail = _truncation(ax_max, first, cap)
    s = first + np.arange(n, dtype=float)
    f, fp = nodes(s)
    d = derivs(first + n) if tail else None
    out = np.empty_like(ax)
    rows = max(1, _CHUNK // n)
    for i in range(0, len(ax), rows):
        y = ax[i:i + rows]
        dx = y[:, None] - s[None, :]
        px = y[:, None] + s[None, :]
        if f0 is None:
            k = np.floor(y).astype(int)             # nearest node s[k] = k + 1/2
            du = y - (k + 0.5)
        else:
            m = np.rint(y).astype(int)              # nearest node m = s[m - 1]
            du = y - m
            k = m - 1                               # k = -1: the node at 0
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            direct = f[None, :] / dx ** 2 + fp[None, :] / dx
            zero = None if f0 is None else f0 / y ** 2
        mirror = f[None, :] / px ** 2 - fp[None, :] / px
        hit = np.nonzero((np.abs(du) < _NODE_TOL) & (k < n))[0]
        if hit.size:
            kh = k[hit]
            on_zero = kh < 0
            direct[hit[~on_zero], kh[~on_zero]] = 0.0
            if f0 is not None:
                zero[hit[on_zero]] = 0.0
        total = np.sum(direct + mirror, axis=1)
        if f0 is not None:
            total = zero + total
        if tail:
            total = total + _em_tail(y, first + n, d)
        vals = (np.sin(np.pi * du) / np.pi) ** 2 * total
        if hit.size:
            node = f[kh] + du[hit] * fp[kh]
            if f0 is not None:
                node[on_zero] = f0
            vals[hit] += np.sinc(du[hit]) ** 2 * node
        out[i:i + rows] = vals
    return float(out[0]) if x.ndim == 0 else out.reshape(x.shape)


def _exp_series(lam, x, f0):
    """L (f0 None) or M (f0 = 1): f = e^{-lam s} on at most K(lam) nodes."""
    def nodes(s):
        f = np.exp(-lam * s)
        return f, -lam * f

    def derivs(a0):
        return [(-lam) ** j * math.exp(-lam * a0) for j in range(5)]

    return _lattice_series(x, nodes, derivs, f0, _trunc_terms(lam))


def minorant_values(lam, x):
    """L(lam, x) for an array (or scalar) of real x; even in x bit-for-bit."""
    return _exp_series(_check_lam(lam), x, None)


def majorant_values(lam, x):
    """M(lam, x) for an array (or scalar) of real x; even in x bit-for-bit."""
    return _exp_series(_check_lam(lam), x, 1.0)


def _eval_point(lam, x, f0):
    """KernelEval of L (f0 None) or M (f0 = 1) at one point."""
    lam = _check_lam(lam)
    if not math.isfinite(x):
        raise DomainError(f"x must be finite, got {x!r}")
    ax = abs(float(x))
    first = 0.5 if f0 is None else 1.0
    n, tail = _truncation(ax, first, _trunc_terms(lam))
    return KernelEval(lam, float(x), _exp_series(lam, ax, f0), n,
                      _tail_bound(lam, ax, first + n, tail))


def eval_L(lam, x):
    """Extremal minorant of e^{-lam|.|} of type 2pi at a single point."""
    return _eval_point(lam, x, None)


def eval_M(lam, x):
    """Extremal majorant of e^{-lam|.|} of type 2pi at a single point."""
    return _eval_point(lam, x, 1.0)


def eval_Lhat(lam, t):
    """Fourier transform of L(lam, .); identically 0 for |t| >= 1.

    At |t| = 1 it is 0, not the ~7.8e-17/lam that sin(pi) != 0 leaves.

    lam, a rate or an ndarray of rates, broadcasts against t; a float comes
    back when both are scalars.
    """
    lam = _check_lam(lam)
    at = np.abs(np.asarray(t, dtype=float))
    E = np.exp(-0.5 * lam)
    one_m_E2 = -np.expm1(-lam)
    st = np.abs(np.sin(np.pi * at))
    ct = np.cos(np.pi * at)
    num = 2.0 * E * ((1.0 - at) * ct * one_m_E2
                     + (lam / (2.0 * math.pi)) * st * (1.0 + E * E))
    den = one_m_E2 ** 2 + 4.0 * E * E * st * st
    vals = np.where(at < 1.0, num / den, 0.0)
    return float(vals) if vals.ndim == 0 else vals


def eval_Mhat(lam, t):
    """Fourier transform of M(lam, .); identically 0 for |t| >= 1.

    lam broadcasts against t, and |t| = 1 gives 0, as in eval_Lhat.
    """
    lam = _check_lam(lam)
    at = np.abs(np.asarray(t, dtype=float))
    E = np.exp(-0.5 * lam)
    one_m_E2 = -np.expm1(-lam)
    one_m_E4 = -np.expm1(-2.0 * lam)
    st = np.abs(np.sin(np.pi * at))
    ct = np.cos(np.pi * at)
    num = (1.0 - at) * one_m_E4 + 4.0 * E * E * (lam / (2.0 * math.pi)) * st * ct
    den = one_m_E2 ** 2 + 4.0 * E * E * st * st
    vals = np.where(at < 1.0, num / den, 0.0)
    return float(vals) if vals.ndim == 0 else vals


def eval_p(lam, x):
    """Periodized kernel p(lam, x), period 1, mean 0; broadcasts lam and x.

    p(lam, 0) is the majorant defect coth(lam/2) - 2/lam and p(lam, 1/2)
    the negated minorant defect.
    """
    lam = _check_lam(np.asarray(lam, dtype=float))
    x = np.asarray(x, dtype=float)
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
    lam = _check_lam(np.asarray(lam, dtype=float))
    x = np.asarray(x, dtype=float)
    scalar = lam.ndim == 0 and x.ndim == 0
    lam, x = np.atleast_1d(*np.broadcast_arrays(lam, x))
    frac = x - np.floor(x)
    h = frac - 0.5
    ah = np.abs(h)
    out = (np.sign(h) * lam * np.exp(-lam * (0.5 - ah))
           * np.expm1(-2.0 * lam * ah) / np.expm1(-lam))
    out = np.where(frac == 0.0, 0.0, out)
    return float(out[0]) if scalar else out


class KernelDefectAtPoint:
    """One-sided kernel defect at fixed x, callable over arrays of lam.

    kind "minorant": e^{-lam|x|} - L(lam, x);  "majorant": M(lam, x) - e^{-lam|x|}.
    x is a point or an array of points; a call returns shape
    lam.shape + x.shape, and a float when both are scalars.
    Above LAM_SWITCH the node series is used directly; below, a lazily
    built Chebyshev interpolant of defect/lam on [0, LAM_SWITCH] (degree
    NFIT-1 on first-kind nodes) takes over, because the defect cancels to
    O(lam) and the fit keeps its relative accuracy as lam -> 0.
    """

    LAM_SWITCH = 0.5
    NFIT = 12

    def __init__(self, x, kind="minorant"):
        if kind not in ("minorant", "majorant"):
            raise DomainError(f"unknown defect kind {kind!r}")
        x = np.abs(np.asarray(x, dtype=float))
        self.x = float(x) if x.ndim == 0 else x
        self.kind = kind
        self._coeffs = None

    def _direct(self, lams):
        """The defect at every x, one series call per rate: (len(lams),) + x.shape."""
        out = np.empty((len(lams),) + np.shape(self.x))
        for i, lam in enumerate(lams):
            e = np.exp(-lam * self.x)
            if self.kind == "minorant":
                out[i] = e - minorant_values(lam, self.x)
            else:
                out[i] = majorant_values(lam, self.x) - e
        return out

    def _fit(self):
        n = self.NFIT
        i = np.arange(n)
        tk = np.cos((2 * i + 1) * np.pi / (2 * n))     # first-kind nodes
        lam = self.LAM_SWITCH * (tk + 1.0) / 2.0
        g = (self._direct(lam).T / lam).T
        coeffs = np.polynomial.chebyshev.chebfit(tk, g.reshape(n, -1), n - 1)
        self._coeffs = coeffs.reshape(g.shape)

    def __call__(self, lam):
        lam = np.asarray(lam, dtype=float)
        shape = lam.shape + np.shape(self.x)
        lam = lam.ravel()
        if np.any(lam <= 0.0):
            raise DomainError("kernel defect requires lam > 0")
        out = np.empty((lam.size,) + np.shape(self.x))
        small = lam < self.LAM_SWITCH
        if np.any(small):
            if self._coeffs is None:
                self._fit()
            tk = 2.0 * lam[small] / self.LAM_SWITCH - 1.0
            # chebval puts the x axes of the coefficients first, lam last
            g = np.polynomial.chebyshev.chebval(tk, self._coeffs)
            out[small] = np.moveaxis(lam[small] * g, -1, 0)
        if np.any(~small):
            out[~small] = self._direct(lam[~small])
        return float(out[0]) if not shape else out.reshape(shape)
