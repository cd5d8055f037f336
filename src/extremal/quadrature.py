"""Adaptive Gauss-Kronrod quadrature over finite and semi-infinite intervals.

The workhorse is the nested 7/15 Gauss-Kronrod pair on bisected panels kept
in a worst-first heap.  The rule is open (no abscissa touches a panel
endpoint), so integrable endpoint singularities are handled by plain
bisection refinement; the leftmost dyadic chain shrinks the contribution of
an x^alpha endpoint (alpha > -1) geometrically.

Per-panel error follows the QUADPACK scaling: with d = |K15 - G7|, the
estimate is resasc * min(1, (200 d / resasc)^1.5), which is sharply smaller
than d on smooth panels and conservative on rough ones.

Semi-infinite integrals int_0^inf are split at 1, the tail mapped back to
(0, 1] by lam = 1/u (du weight 1/u^2).  Every admissible kernel weight
lam^-sigma becomes an integrable endpoint power after the split.  This
module integrates functions only; integrals against a measure are
``measures.integrate``.

Integrand contract.  An integrand is called with a 1-D float array of n
abscissae and returns either shape (n,), a scalar integrand, or shape
(n, m), m integrands sharing the abscissae (the vector-integrand contract
of QUADPACK qag and of S. G. Johnson's cubature).  A vector integral keeps
one panel heap: each panel carries m values and m error estimates (each
with the QUADPACK scaling), the panel with the largest component error is
refined first, and refinement stops once every component k meets
max(tol, 50 eps |value_k|).  QuadResult.value and abs_err_est are Python
floats for a scalar integrand and float arrays of shape (m,) for a vector
one; evaluations counts abscissae (15 per panel), whatever m is.  A
callable that takes only scalars, such as math.exp, rejects the array with
a TypeError on its first call and is then evaluated point by point; every
other exception an integrand raises propagates unchanged.
"""

import heapq
import math

import numpy as np

from dataclasses import dataclass

from .errors import ConvergenceError, DivergenceError, DomainError

# 15-point Kronrod abscissae (positive half) and weights, 7-point Gauss
# weights on the shared abscissae; standard QUADPACK dqk15 constants.
_XGK = np.array([
    0.9914553711208126, 0.9491079123427585, 0.8648644233597691,
    0.7415311855993944, 0.5860872354676911, 0.4058451513773972,
    0.2077849550078985, 0.0,
])
_WGK = np.array([
    0.0229353220105292, 0.0630920926299785, 0.1047900103222502,
    0.1406532597155259, 0.1690047266392679, 0.1903505780647854,
    0.2044329400752989, 0.2094821410847278,
])
_WG = np.array([
    0.1294849661688697, 0.2797053914892767,
    0.3818300505051189, 0.4179591836734694,
])

_NODES = np.concatenate([-_XGK[:7], _XGK[7:][::-1], _XGK[6::-1]])  # ascending, 15
_WK15 = np.concatenate([_WGK[:7], _WGK[7:][::-1], _WGK[6::-1]])
_WG15 = np.zeros(15)
_WG15[1:14:2] = np.concatenate([_WG[:3], _WG[3:][::-1], _WG[2::-1]])

DEFAULT_TOL = 1e-10
DEFAULT_BUDGET = 200_000
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class QuadResult:
    """Value, a conservative absolute error estimate, and the eval count.

    value and abs_err_est are floats for a scalar integrand and arrays of
    shape (m,) for an m-component one; evaluations counts abscissae.
    """

    value: float
    abs_err_est: float
    evaluations: int


def _as_vector_fn(f):
    """f as a callable on abscissa arrays, under the integrand contract.

    The first call decides: f receives the array itself, and a TypeError
    there (what math.exp and other scalar-only callables raise on an
    array) switches this and every later call to one f call per abscissa.
    Any other exception, and any exception after the first call, propagates.
    """
    pointwise = None                # undecided until the first call

    def fvec(x):
        nonlocal pointwise
        if pointwise is None:
            try:
                out = np.asarray(f(x), dtype=float)
            except TypeError:
                pointwise = True
            else:
                pointwise = False
                return out
        if pointwise:
            return np.array([f(t) for t in x], dtype=float)
        return np.asarray(f(x), dtype=float)

    return fvec


def _gk15(fvec, a, b):
    """One Gauss-Kronrod 7/15 pass on [a, b]: (value, err_est).

    Floats for a scalar integrand, (m,) arrays for a (15, m) one.  The
    scalar case stays on Python floats, because numpy calls on 0-d results
    would cost more per panel than the rule itself.
    """
    xm = 0.5 * (a + b)
    h = 0.5 * (b - a)
    fv = fvec(xm + h * _NODES)
    if fv.shape != (15,) and (fv.ndim != 2 or fv.shape[0] != 15):
        raise DomainError(
            f"integrand returned shape {fv.shape}; expected (15,) or (15, m)")
    if not np.all(np.isfinite(fv)):
        rows = ~np.all(np.isfinite(fv.reshape(15, -1)), axis=1)
        bad = xm + h * _NODES[rows][0]
        raise DomainError(f"integrand non-finite at x = {bad!r}")
    if fv.ndim == 2:
        return _gk15_components(fv, h)
    resk = float(_WK15 @ fv)
    resg = float(_WG15 @ fv)
    resabs = float(_WK15 @ np.abs(fv))
    resasc = float(_WK15 @ np.abs(fv - 0.5 * resk))
    value = resk * h
    err = abs((resk - resg) * h)
    resasc *= abs(h)
    resabs *= abs(h)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    err = max(err, 50.0 * _EPS * resabs)
    return value, err


def _gk15_components(fv, h):
    """The scalar rule of _gk15 applied to each column of fv (15, m)."""
    resk = _WK15 @ fv
    resg = _WG15 @ fv
    resabs = (_WK15 @ np.abs(fv)) * abs(h)
    resasc = (_WK15 @ np.abs(fv - 0.5 * resk)) * abs(h)
    value = resk * h
    err = np.abs((resk - resg) * h)
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = resasc * np.minimum(1.0, (200.0 * err / resasc) ** 1.5)
    err = np.where((resasc != 0.0) & (err != 0.0), scaled, err)
    return value, np.maximum(err, 50.0 * _EPS * resabs)


def integrate_finite(f, a, b, tol=DEFAULT_TOL, budget=DEFAULT_BUDGET):
    """Adaptive bisection integral of f over the finite interval [a, b].

    f follows the integrand contract of the module docstring.  Returns
    QuadResult (0.0 without evaluating f when a == b); raises
    DomainError unless a, b and tol are finite and tol > 0;
    ConvergenceError (carrying the best estimate) if the evaluation budget
    runs out, or DivergenceError when the estimate keeps growing under
    refinement, which is how non-integrable endpoint behaviour surfaces.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError("integrate_finite requires finite endpoints")
    if not (math.isfinite(tol) and tol > 0.0):
        raise DomainError(f"tolerance must be finite and positive, got {tol!r}")
    if a == b:
        return QuadResult(0.0, 0.0, 0)
    fvec = _as_vector_fn(f)
    value, err = _gk15(fvec, a, b)
    if isinstance(value, np.ndarray):
        # m components: rank panels by, and test, every component's error
        def worst(e):
            return float(e.max(initial=0.0))

        def size(v):
            return float(np.abs(v).max(initial=0.0))

        def unconverged(v, e):
            return bool(np.any(e > np.maximum(tol, 50.0 * _EPS * np.abs(v))))
    else:
        worst = float
        size = abs

        def unconverged(v, e):
            return e > max(tol, 50.0 * _EPS * abs(v))

    evals = 15
    heap = [(-worst(err), 0, a, b, value, err)]
    counter = 1
    total_value, total_err = value, err
    history = [size(total_value)]
    while unconverged(total_value, total_err):
        if evals + 30 > budget:
            growth = len(history) > 64 and all(
                h2 > h1 for h1, h2 in zip(history[-64:-1], history[-63:])
            )
            grew = len(history) > 64 and (
                history[-1] - history[-64] > max(10.0 * tol, 1e-3 * history[-1])
            )
            cls = DivergenceError if (growth and grew) else ConvergenceError
            raise cls(
                f"budget {budget} exhausted: estimate {total_value!r}, "
                f"err {worst(total_err):.3e}, tol {tol:.3e}",
                estimate=total_value,
                err_estimate=total_err,
            )
        _, _, pa, pb, pv, pe = heapq.heappop(heap)
        pm = 0.5 * (pa + pb)
        tiny = (pb - pa) <= 1e-13 * (abs(pa) + abs(pb) + 1.0)
        if pm <= pa or pm >= pb:
            raise DivergenceError(
                f"refinement exhausted float resolution near x={pa!r}; "
                "endpoint behaviour looks non-integrable")
        try:
            v1, e1 = _gk15(fvec, pa, pm)
            v2, e2 = _gk15(fvec, pm, pb)
        except DomainError:
            if tiny:
                # a non-finite value inside a panel this narrow means the
                # singularity does not integrate; report it as such
                raise DivergenceError(
                    f"integrand blows up near x={pm!r}")
            raise
        evals += 30
        total_value = total_value + (v1 + v2 - pv)
        total_err = total_err + (e1 + e2 - pe)
        heapq.heappush(heap, (-worst(e1), counter, pa, pm, v1, e1))
        heapq.heappush(heap, (-worst(e2), counter + 1, pm, pb, v2, e2))
        counter += 2
        history.append(size(total_value))
    return QuadResult(total_value, total_err, evals)


def integrate_semiinfinite(f, tol=DEFAULT_TOL, budget=DEFAULT_BUDGET):
    """Integral of f over (0, inf): split at 1, tail mapped by lam = 1/u."""
    fvec = _as_vector_fn(f)
    head = integrate_finite(fvec, 0.0, 1.0, 0.5 * tol, budget // 2)

    def tail_integrand(u):
        u = np.asarray(u, dtype=float)
        # the transposes broadcast the weight over (n,) and (n, m) alike
        return (fvec(1.0 / u).T / (u * u)).T

    tail = integrate_finite(tail_integrand, 0.0, 1.0, 0.5 * tol, budget // 2)
    return QuadResult(
        head.value + tail.value,
        head.abs_err_est + tail.abs_err_est,
        head.evaluations + tail.evaluations,
    )
