"""Adaptive Gauss-Kronrod quadrature over finite and semi-infinite intervals.

The workhorse is the nested 7/15 Gauss-Kronrod pair on panels kept in a
worst-first heap.  The rule is open (no abscissa touches a panel
endpoint), so an integrable singularity at a graded end, an edge of the
initial partition that the caller marks, is handled by refinement toward
it, and the dyadic chain at the end shrinks the contribution of an
x^alpha end (alpha > -1) geometrically.  integrate_finite marks its a and
b, measures.integrate a table's breakpoints and integrate_semiinfinite
the -1, 0 and 1 of its half-line map: every edge of each of their
partitions.  A caller of refine that knows where its integrand is smooth
marks fewer: verify's head and tapered-window integrals mark only 0, and
polybound.jensen_gap, whose integrand is periodic, marks none.

Refinement goes in batched passes.  Each pass pops the worst panels until
their summed error estimates cover the excess, total error minus
max(tol, 2 floor), of every unconverged component, and cuts all of them
(_cut).  A panel with one end e (not both) graded is cut at
e +- w/2^_GRADE, ..., e +- w/4, e +- w/2 (w its width), so one pass
descends _GRADE dyadic levels of the chain at e, where bisection took one
pass a level; every other panel, one at an unmarked edge included, is
bisected.  A pass is evaluated in slices: an integrand call takes the 15
abscissae of at most max(1, _SLICE // (15 m)) panels, so no call after
the first returns more than max(_SLICE, 15 m) values.  One rule, _gk15,
reduces the (15, k[, m]) block of a slice, a single panel included.  A
pass that would overrun the evaluation budget is trimmed to the panels
whose children fit, a graded panel counting its _GRADE + 1.

Per-panel error follows the QUADPACK scaling: with d = |K15 - G7|, the
estimate is resasc * min(1, (200 d / resasc)^1.5), which is sharply smaller
than d on smooth panels and conservative on rough ones, and at least the
rounding floor 50 eps resabs.  An integral's floor sums its panels' floors;
stopping at max(tol, 2 floor) keeps cancellation from stalling refinement.

Every integral is one heap, with one tol and one budget, over an initial
partition: (a, b) for integrate_finite, a tabulated weight's breakpoints for
measures.integrate, and (-1, 0, 1) for int_0^inf, lam = u on (0, 1] and
lam = -1/u (du weight 1/u^2) on [-1, 0); every admissible kernel weight
lam^-sigma is then an integrable power at 0, where floats are dense.  A
caller of refine gives its own: verify's unit panels on [0, 40] and its
one panel per cycle on [0, 448].  This
module integrates functions only; integrals against a measure are
``measures.integrate``.

Integrand contract.  An integrand takes a 1-D float array of n abscissae
and returns shape (n,), a scalar integrand, or (n, m), m integrands
sharing the abscissae (the vector-integrand contract of QUADPACK qag and
of S. G. Johnson's cubature), with the m of its first call on every call.
It takes arrays only: a scalar-only callable such as math.exp fails on
its first call, and every exception an integrand raises propagates.  A
vector integral keeps one panel heap: each panel carries m values and m
error estimates, a panel is ranked by its largest error among the
components that were unconverged when it was made, and refinement stops
once every component k meets max(tol, 2 floor_k).  QuadResult.value and
abs_err_est are floats for a scalar integrand and arrays of shape (m,)
for a vector one; evaluations
counts abscissae (15 per panel), whatever m is.  _gk15 sums each column
on its own, so a panel's bits do not depend on the slice width or m, nor
a QuadResult's on the slice width.  The abscissae of a slice come
node-major (the first node of every panel, then the second, ...), in no
order an integrand may rely on.
"""

import heapq
import math

import numpy as np

from dataclasses import dataclass

from .errors import ConvergenceError, DivergenceError, DomainError, is_real

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
_WKG = np.stack([_WK15, _WG15])

DEFAULT_TOL = 1e-10
DEFAULT_BUDGET = 200_000
_SLICE = 2 ** 16                    # integrand values per call of a pass, at most
_GRADE = 8                          # levels of a graded cut toward an edge
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


def _gk15(fv, h):
    """The Gauss-Kronrod 7/15 rule on a block of panels: (value, err, floor).

    fv holds the integrand at the 15 nodes of n panels, node-major: shape
    (15, n) for a scalar integrand, (15, n, m) for a vector one; h holds
    the n half-widths.  err >= floor = 50 eps resabs; all have fv.shape[1:].
    Each weighted sum is an einsum, never a BLAS product: it adds a
    column's 15 nodes in node order whatever n and m are, except a lone
    column, a dot product to einsum, which is summed beside its copy.
    """
    lone = fv[0].size == 1
    if lone:
        fv, h = np.concatenate([fv, fv], axis=1), np.concatenate([h, h])
    hb = h.reshape(h.shape + (1,) * (fv.ndim - 2))  # over the m columns
    ah = np.abs(hb)
    resk, resg = np.einsum("kq,q...->k...", _WKG, fv)
    resabs = np.einsum("q,q...->...", _WK15, np.abs(fv)) * ah
    resasc = np.einsum("q,q...->...", _WK15, np.abs(fv - 0.5 * resk)) * ah
    value = resk * hb
    err = np.abs((resk - resg) * hb)
    nz = resasc != 0.0              # where resasc is 0, err stays as it is
    ratio = 200.0 * err / np.where(nz, resasc, np.inf)
    err = np.where(nz, resasc * np.minimum(1.0, ratio ** 1.5), err)
    floor = 50.0 * _EPS * resabs
    out = value, np.maximum(err, floor), floor
    return tuple(v[:1] for v in out) if lone else out


def _panels(f, a, b, parents=None, cols=None):
    """_gk15 on the panels [a_i, b_i], in integrand calls of at most
    max(1, _SLICE // (15 m)) panels; m is the size of ``cols``, the trailing
    shape every call returns (the first call's; m = 1 until it returns).
    A non-finite integrand value raises DomainError, or DivergenceError
    when its panel was cut from a tiny one: ``parents`` = (pa, pb) holds
    the parent [pa[i], pb[i]] of panel i of the pass.  A singularity that
    still blows up at that width does not integrate.
    """
    h = 0.5 * (b - a)
    x = 0.5 * (a + b) + np.multiply.outer(_NODES, h)
    parts, i = [], 0
    while i < len(h):
        j = i + max(1, _SLICE // (15 * math.prod(cols or ())))
        xs = x[:, i:j]
        fv = np.asarray(f(xs.ravel()), dtype=float)
        if fv.ndim not in (1, 2) or fv.shape[0] != xs.size or (
                cols is not None and fv.shape[1:] != cols):
            raise DomainError(f"integrand returned shape {fv.shape}; expected "
                              f"({xs.size},) or ({xs.size}, m), one m throughout")
        cols = fv.shape[1:]
        # C order, so refine's sums over panels add them in panel order
        fv = np.ascontiguousarray(fv.reshape(xs.shape + cols))
        if not np.isfinite(fv).all():
            bad = ~np.isfinite(fv.reshape(xs.shape + (-1,))).all(axis=2)
            k = np.nonzero(bad.any(axis=0))[0][0]
            at = float(xs[bad[:, k], k][0])
            if parents is not None:
                pa, pb = (float(p[i + k]) for p in parents)
                if pb - pa <= 1e-13 * (abs(pa) + abs(pb) + 1.0):
                    raise DivergenceError(f"integrand blows up near x={at!r}")
            raise DomainError(f"integrand non-finite at x = {at!r}")
        parts.append(_gk15(fv, h[i:j]))
        i = j
    return parts[0] if len(parts) == 1 else tuple(map(np.concatenate, zip(*parts)))


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
    check_tol(tol)
    if a == b:
        return QuadResult(0.0, 0.0, 0)
    return refine(f, (a, b), (a, b), tol, budget)


def check_tol(tol):
    """DomainError unless tol is finite and positive: the one tol rule."""
    if not (is_real(tol) and math.isfinite(tol) and tol > 0.0):
        raise DomainError(f"tolerance must be finite and positive, got {tol!r}")


def refine(f, edges, graded, tol=DEFAULT_TOL, budget=DEFAULT_BUDGET):
    """f over [edges[0], edges[-1]] by one worst-first heap, one tol and one
    budget; the first pass evaluates every piece of the partition ``edges``.
    ``graded`` holds the edges where f may be singular, which _cut grades
    toward; every other edge is smooth, and a panel there is bisected.
    Raises as integrate_finite documents."""
    check_tol(tol)
    lo, hi = np.asarray(edges[:-1], float), np.asarray(edges[1:], float)
    ends = set(np.asarray(graded, float).tolist())
    parents, cols, pv, pe, pr = None, None, (), (), ()  # the first pass replaces no panel
    heap, history, counter, evals = [], [], 0, 0
    total_value = total_err = total_floor = 0.0

    def out(v):
        return float(v[0]) if scalar else v

    while True:
        n = len(lo)
        value, err, floor = _panels(f, lo, hi, parents, cols)
        cols = value.shape[1:]
        scalar = not cols               # else (n, m): m components
        value, err, floor = (v.reshape(n, -1) for v in (value, err, floor))
        evals += 15 * n
        total_value = total_value + (np.add.reduce(value) - np.add.reduce(pv))
        total_err = total_err + (np.add.reduce(err) - np.add.reduce(pe))
        total_floor = total_floor + (np.add.reduce(floor) - np.add.reduce(pr))
        history.append(float(np.abs(total_value).max(initial=0.0)))
        excess = total_err - np.maximum(tol, 2.0 * total_floor)
        if not (excess > 0.0).any():
            break
        # a panel's rank is its largest error among the components not yet
        # converged, so a converged component drives no refinement
        worst = err[:, excess > 0.0].max(axis=1).tolist()
        for i, (w, ca, cb) in enumerate(zip(worst, lo.tolist(), hi.tolist())):
            heapq.heappush(heap, (-w, counter + i, ca, cb, value[i], err[i], floor[i]))
        counter += n
        # the worst panels whose errors cover every component's excess, as
        # many as the budget holds children for; a panel with one end
        # graded has _GRADE + 1 children, any other 2
        left, popped, covered = budget - evals, [], 0.0
        while heap and not (popped and (covered >= excess).all()):
            ca, cb = heap[0][2:4]
            cost = 15 * (_GRADE + 1 if (ca in ends) != (cb in ends) else 2)
            if cost > left:
                break
            left -= cost
            popped.append(heapq.heappop(heap))
            covered = covered + popped[-1][5]
        if not popped:
            growth = len(history) > 64 and all(
                h2 > h1 for h1, h2 in zip(history[-64:-1], history[-63:])
            )
            grew = len(history) > 64 and (
                history[-1] - history[-64] > max(10.0 * tol, 1e-3 * history[-1])
            )
            cls = DivergenceError if (growth and grew) else ConvergenceError
            raise cls(
                f"budget {budget} exhausted: estimate {out(total_value)!r}, "
                f"err {float(total_err.max()):.3e}, tol {tol:.3e}",
                estimate=out(total_value),
                err_estimate=out(total_err),
            )
        _, _, pa, pb, pv, pe, pr = zip(*popped)
        lo, hi, parents = _cut(np.array(pa), np.array(pb), ends)
    return QuadResult(out(total_value), out(total_err), evals)


def _cut(pa, pb, ends):
    """The children of the popped panels [pa_i, pb_i], in panel order, and
    each child's parent: (lo, hi, (pa, pb) per child).  ``ends`` holds the
    graded ends, the edges refine's caller marks.  A panel with one end e
    in ``ends`` is cut at e +- w/2^_GRADE, ..., e +- w/4, e +- w/2 (w its
    width), so one pass descends _GRADE levels toward e; any other panel,
    one with an end on an unmarked edge included, is bisected.  A cut point
    that rounds onto its neighbour is dropped, and a panel left whole
    raises DivergenceError.
    """
    w, grades = (pb - pa)[:, None], 0.5 ** np.arange(_GRADE, 0, -1)
    at_a = np.fromiter((a in ends for a in pa.tolist()), bool, len(pa))
    at_b = np.fromiter((b in ends for b in pb.tolist()), bool, len(pb))
    graded = (at_a != at_b)[:, None]
    # row i: pa_i, its cut points in ascending order, pb_i
    toward_a = pa[:, None] + w * grades
    toward_b = pb[:, None] - w * grades[::-1]
    mid = np.broadcast_to((0.5 * (pa + pb))[:, None], toward_a.shape)
    inner = np.where(graded, np.where(at_a[:, None], toward_a, toward_b), mid)
    cuts = np.column_stack((pa, inner, pb))
    keep = cuts[:, 1:] > cuts[:, :-1]
    kids = keep.sum(axis=1)
    if (kids < 2).any():
        at = float(pa[kids < 2][0])
        raise DivergenceError(
            f"refinement exhausted float resolution near x={at!r}; "
            "endpoint behaviour looks non-integrable")
    of = np.repeat(np.arange(len(pa)), kids)
    return cuts[:, :-1][keep], cuts[:, 1:][keep], (pa[of], pb[of])


def integrate_semiinfinite(f, tol=DEFAULT_TOL, budget=DEFAULT_BUDGET):
    """Integral of f over (0, inf): lam = u on (0, 1], -1/u on [-1, 0)."""

    def mapped(u):
        u = np.asarray(u, dtype=float)
        tail = u < 0.0
        lam = np.divide(-1.0, u, out=u.copy(), where=tail)
        # the transposes broadcast the weight over (n,) and (n, m) alike
        return (np.asarray(f(lam), dtype=float).T / np.where(tail, u * u, 1.0)).T

    return refine(mapped, (-1.0, 0.0, 1.0), (-1.0, 0.0, 1.0), tol, budget)
