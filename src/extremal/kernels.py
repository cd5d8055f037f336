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
nearest node c0, which keeps full relative accuracy near the lattice, and
the term of c0 at x collapses to

    sinc(du)^2 (f(c0) + du f'(c0))

so node interpolation is exact; the mirror half f(c0)/(x+c0)^2 -
f'(c0)/(x+c0) of its pair stays in the sum, and at the node 0 of Z the
collapse is sinc(du)^2 f(0).

With b(u) = 1/(x-u) - 1/(x+u) each pair is one derivative, g(s) =
(f b)'(s), so a run of nodes [A, B] away from x has the closed
Euler-Maclaurin value (DLMF 2.10, 24.17)

    f b|_A^B + (g(A) + g(B))/2 + sum_{j<=p} B_2j/(2j)! (g^(2j-1)(B) - g^(2j-1)(A))

from f^(0..2p) at its two ends, and the run from A to infinity is the same
with no B terms.  Every point |x| takes the same pieces:

- a head, the first _HEAD nodes, summed directly;
- its window, the nodes c0 + j with |j| < _NEAR, summed directly (those
  the head holds left out), the nearest node in the collapse;
- one block of the nodes from the head's end to c0 - _NEAR;
- one tail from max(head end, c0 + _NEAR).

So a point costs O(1) nodes at every |x|.  The Bernoulli numbers are
specfun's.  The remainder of a block or a tail is at most 2 zeta(2p)/(2pi)^2p
int |g^(2p)| (DLMF 24.17).  The runs end at least _NEAR - 3/2 from x (a
block is taken up to the window's first node) and _HEAD from 0, so b's
share, 2 (2p)!/14.5^(2p+1), dominates: with p = _EM_ORDER = 8 the bound is
below 3e-19 max(1, |f|) for the closed families.  One set of constants
serves every measure; the head's nodes are never the end of a run, so they
take f and f' alone, which a Weight integrates where its higher columns
would not converge.  A call asks its nodes for the head's f and f' and the
other nodes' f^(0..2p) in two calls and keeps nothing between calls.

The direct sums take a table of r+ = 1/(x - s) and r- = 1/(x + s) over the
head and one over the windows, a = r+^2 + r-^2 and b = r+ - r-, from which
each series takes its own dot products; einsum reduces each point on its
own (a BLAS product does not, nor does einsum a lone point, which is summed
beside its copy), and an end term is a polynomial in 1/(x -+ a) evaluated
elementwise, so a value depends on its own x and series alone.
Half-integers are exact floats below 2^52: a point whose window would reach
2^52 raises DomainError.

L and M (f = e^{-lam s}, f(0) = 1) have a cap K(lam) = ceil(log(1/eps)/lam)
+ 10 (eps = 1e-16), and none where that reaches 2^52.  Since sum_s sinc(x -
s)^2 = 1 and |P(x)/(x -+ s)| <= 1/pi, the pairs dropped from s0 = first
node + K on sum to at most e^{-lam s0} (1 + 2 lam / (pi (1 - e^{-lam}))) at
every x.  A cap of at most _DIRECT nodes (lam >~ 0.695) is summed as it
stands: the first K nodes and nothing else, with no collapse where the
nearest node is past the cap.  A longer cap is dropped, every piece past it
being below eps, except at a point whose window lies wholly past it: that
point takes the head and one block to the cap, which keeps L and M finite
(and 0 to rounding) at any |x|.  eval_L and eval_M report the nodes summed
directly and a bound on the Euler-Maclaurin remainders and the dropped
pairs.

The Fourier transforms (supported on [-1, 1]) have the closed forms

    Lhat = [(1-|t|) sinh(l/2) cos(pi t) + (l/2pi)|sin(pi t)| cosh(l/2)] / Dh
    Mhat = [(1-|t|) sinh(l/2) cosh(l/2) + (l/2pi)|sin(pi t)| cos(pi t)] / Dh
    Dh   = sinh(l/2)^2 + sin(pi t)^2

evaluated in e^{-l/2}-scaled form so nothing overflows for any lam > 0,
and divided twice by r = 2 e^{-l/2} sqrt(Dh) (a hypot) rather than once by
r^2, which underflows for lam below ~1.5e-154; eval_Lhat and eval_Mhat
share one body, _hat.

The periodized kernel p(lam, x) = -2/lam + sum_m e^{-lam|x+m|} and its
x-derivative j (eval_p, eval_j, re-exported by periodic) are one ladder,
_periodized: p is a non-negative term minus specfun's minorant defect,
whose series alone carries the 2/lam cancellation.  p(lam, 1/2) is minus
that defect and p(lam, 0) is specfun's majorant defect, both bit for bit.

Every single-rate kernel that measures integrates is written here once:
the ladder of f_mu (_exp_ladder), the transform of e^{-lam|x|}
(_exp_transform, r_mu's), Lhat and Mhat, and p and j.  The ladders of L
and M (_exp_series) interpolate e^{-lam|x|} itself and stay apart.

The one-sided kernel defects e^{-lam|x|} - L and M - e^{-lam|x|} are O(lam)
as lam -> 0, a difference of O(1) numbers, so measure integrals refining
toward lam = 0 use KernelDefectAtPoint: a per-x Chebyshev fit of
defect/lam on [0, 1/2] (the defect is analytic in |lam| < 2pi, making the
fit rounding-limited; ~1e-10 relative accuracy uniformly down to lam -> 0).
It takes one x or an array of x: its rates are one series call over all
the points and the fit is one chebfit over all of them, so an array of
points is one (n_lam, n_x) vector integrand.
"""

import math

import numpy as np

from dataclasses import dataclass

from .errors import DomainError, check_finite, check_kind
from .specfun import _BERNOULLI, _check_rate, check_rates, defect_minorant, hurwitz_zeta

_EPS_TAIL = 1e-16
_CHUNK = 65_536  # max matrix cells per vectorized block
_HEAD = 32       # nodes summed directly from the first node on
_NEAR = 16       # a point's window: the nodes c0 + j, |j| < _NEAR
_EM_ORDER = 8    # p: the terms B_2 ... B_2p of each block and tail
_ROWS = 2 * _EM_ORDER + 1   # the derivatives f^(0..2p) they read
_DIRECT = _HEAD + 2 * _NEAR - 1  # the nodes a point past the head sums directly
_EXACT = 2.0 ** 52  # half-integers are exact floats below this
_WINDOW = np.arange(_NEAR - 1, -_NEAR, -1.0)  # window offsets, last node first
_FIT_RATE = 0.5  # KernelDefectAtPoint fits defect/lam below this rate
_FIT_NODES = 12  # on this many first-kind Chebyshev nodes


@dataclass(frozen=True)
class KernelEval:
    """One kernel evaluation with its truncation bookkeeping."""

    lam: float
    x: float
    value: float
    trunc_terms: int
    tail_bound: float


def _cap(lam):
    """K(lam), the nodes of L and M past which every pair is below eps, or
    None where K(lam) would reach 2^52, past every exact node: it is kept
    in floats until then, so no rate, however small, overflows the int."""
    k = math.log(1.0 / _EPS_TAIL) / lam
    return int(math.ceil(k)) + 10 if k < _EXACT else None


def _nearest(y, first):
    """(c0, du) at y = |x| >= 0: the lattice node c0 nearest y (the node 0
    counts on Z) and du = y - c0 in [-1/2, 1/2]."""
    c0 = np.floor(y) + 0.5 if first == 0.5 else np.rint(y)
    return c0, y - c0


def _plan(c0, first, cap):
    """(keep, B) of a series past the head at points with nearest node c0:
    keep where the point keeps its window, its collapse and its tail, and B
    the node past the end of its block from first + _HEAD, c0 - _NEAR + 1
    there and the cap's node first + cap (cap None: none) where the window
    lies past it."""
    stop = math.inf if cap is None else first + cap
    keep = c0 - _NEAR + 1 < stop
    return keep, np.where(keep, c0 - _NEAR + 1, stop)


def _em_coeffs(d):
    """The Euler-Maclaurin end term (f b)(a) - g(a)/2 + sum_j B_2j/(2j)!
    g^(2j-1)(a) of the pairs g = (f b)' at the nodes a of the rows d =
    f^(0..2p)(a), a column of polynomial coefficients c each: a tail from T
    is -end(T), a block of the nodes A <= s < B is end(B) - end(A).  With r
    = 1/(y - a) and t = -1/(y + a), (f b)^(m)/m! = phi(m, r) + phi(m, t),
    phi(m, u) = sum_{i<=m} f^(i)(a)/i! u^(m-i+1), so the term, weighted by
    w = (1, -1/2, B_2, 0, B_4, ...) over m, is S(r) + S(t) with S(u) =
    sum_k c_k u^k (k = 1..2p+1) and c_k = sum_i f^(i)(a)/i! w_(i+k-1)."""
    e = d / np.array([math.factorial(i) for i in range(len(d))])[:, None]
    c = np.zeros_like(e)
    for m, w in [(0, 1.0), (1, -0.5)] + [(2 * j, b) for j, b in enumerate(_BERNOULLI[:_EM_ORDER], 1)]:
        c[:m + 1] += w * e[m::-1]
    return c


def _em_end(y, a, c):
    """S(r) + S(t) of _em_coeffs at the points y and their end nodes a, from
    the columns c of the ends' coefficients: Horner in u, elementwise."""
    u = np.stack([1.0 / (y - a), -1.0 / (y + a)])
    acc = u * c[-1]
    for ck in c[-2::-1]:
        acc += ck
        acc *= u
    return acc[0] + acc[1]


def _em_bound(lam, lo, d):
    """P(x) times the Euler-Maclaurin remainder of L or M over nodes from lo
    on, d >= _NEAR - 3/2 from |x|: (1/pi^2) 2 zeta(2p)/(2 pi)^2p int |g^(2p)|,
    by Leibniz with |f^(i)| <= lam^i e^{-lam lo} and |b^(m)(u)| <= 2 m!/|u -
    |x||^(m+1)."""
    n = 2 * _EM_ORDER
    terms = sum(math.comb(n + 1, i) * math.factorial(n - i) * lam ** i * (1.0 / d) ** (n + 1 - i)
                for i in range(n + 1))
    return (4.0 * hurwitz_zeta(n, 1.0) / (2.0 * math.pi) ** n * math.exp(-lam * lo)
            * (terms + lam ** n / d) / math.pi ** 2)


def _dropped(lam, s0):
    """The pairs of L or M dropped from the node s0 on, with P(x), at any x."""
    return math.exp(-lam * s0) * (1.0 + 2.0 * lam / (math.pi * -math.expm1(-lam)))


def _node_rows(nodes, keys):
    """f^(0..2p) at the sorted nodes keys of a series past the head, as a
    (_ROWS, len(keys)) array: the first _HEAD keys, the head, are never the
    end of a block or a tail, so they take f and f' alone (nan below)."""
    rows = np.full((_ROWS, len(keys)), np.nan)
    rows[:2, :_HEAD] = nodes(keys[:_HEAD], 2)
    rows[:, _HEAD:] = nodes(keys[_HEAD:], _ROWS)
    return rows


def _node_sum(y, c0, first, head, win, keys, series):
    """The pair sums at the points y with nearest nodes c0, without P and
    the collapse: one row per (v, plan) in series, a (len(series), len(y))
    array.

    plan None: v holds f and f' at the first v.shape[1] nodes, and the row
    sums them alone.  Otherwise v holds f^(0..2p) at the sorted nodes keys,
    whose first _HEAD are the head, and plan is _plan's (keep, B): the row
    sums the head, the window and the tail where keep holds, and the block
    of the nodes from first + _HEAD up to B (not B) where B is past them.

    A block of points takes a table of r+ and r- over the first ``head``
    nodes, last first, a row a point, and one over c0 + _WINDOW, a column a
    point where win holds (a bool per point, or None: no window), leaving
    out the window nodes the head holds; the nearest node's r+ is left to
    the collapse.  The blocks hold at most _CHUNK cells, a lone row or
    column beside its copy, and the end terms go by _CHUNK // _ROWS.
    """
    width = head + (0 if win is None else len(_WINDOW))
    s = first + np.arange(head - 1, -1, -1, dtype=float)
    at0 = None if win is None else np.searchsorted(keys, c0)
    heads = [tuple((g[::-1] if plan is None else g[_HEAD - 1::-1]).copy() for g in v[:2])
             for v, plan in series]
    out = np.empty((len(series), len(y)))
    per_block = max(1, _CHUNK // (2 * width - head))   # a window cell holds twice a head cell
    for i in range(0, len(y), per_block):
        at = np.arange(i, min(i + per_block, len(y)))
        if len(at) == 1:
            at = np.repeat(at, 2)
        yi, ci = y[at], c0[at]
        k = ci - first
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            rp, rm = np.divide(1.0, yi[:, None] - s), np.divide(1.0, yi[:, None] + s)
        near = np.nonzero((k >= 0) & (k < head))[0]
        rp[near, head - 1 - k[near].astype(np.int64)] = 0.0
        b = rp - rm
        a = np.add(np.multiply(rp, rp, out=rp), np.multiply(rm, rm, out=rm), out=rp)
        w = [] if win is None else np.nonzero(win[at])[0]
        if len(w):
            if len(w) == 1:
                w = np.repeat(w, 2)
            kw, wm = k[w], ci[w] + _WINDOW[:, None]
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                wp, wm = np.divide(1.0, yi[w] - wm), np.divide(1.0, wm + yi[w])
            wp[_NEAR - 1] = 0.0
            drop = kw + _WINDOW[:, None] < _HEAD        # the nodes the head holds
            wp[drop] = 0.0
            wm[drop] = 0.0
            pos = np.clip(at0[at[w]] + _WINDOW.astype(np.int64)[:, None], 0, len(keys) - 1)
            wb = wp - wm
            wa = np.add(np.multiply(wp, wp, out=wp), np.multiply(wm, wm, out=wm), out=wp)
        for j, ((fh, fph), (v, plan)) in enumerate(zip(heads, series)):
            m = len(fh)
            total = (np.einsum("ik,k->i", a[:, head - m:], fh)
                     + np.einsum("ik,k->i", b[:, head - m:], fph))
            if plan is not None and len(w):
                F, Fp = np.take(v[:2], pos, axis=1)
                off = ~plan[0][at[w]]
                F[:, off] = 0.0
                Fp[:, off] = 0.0
                total[w] += np.einsum("ki,ki->i", wa, F) + np.einsum("ki,ki->i", wb, Fp)
            out[j, at] = total
    start = first + _HEAD
    for row, (v, plan) in zip(out, series):
        if plan is None:
            continue
        block, tail = np.nonzero(plan[1] > start)[0], np.nonzero(plan[0])[0]
        nb = len(block)
        ends = np.concatenate([plan[1][block], np.full(nb, start), np.maximum(start, c0[tail] + _NEAR)])
        at, pos = np.concatenate([block, block, tail]), np.searchsorted(keys, ends)
        need = np.zeros(len(keys), dtype=bool)      # the end nodes take their coefficients once
        need[pos] = True
        coeffs, pos, n = _em_coeffs(v[:, need]), (np.cumsum(need) - 1)[pos], _CHUNK // _ROWS
        em = np.concatenate([_em_end(y[at[i:i + n]], ends[i:i + n], np.take(coeffs, pos[i:i + n], axis=1))
                             for i in range(0, len(ends), n)])
        row[block] += em[:nb] - em[nb:2 * nb]
        row[tail] -= em[2 * nb:]
    return out


def _lattice_series(x, series, f0=None):
    """Interpolation series through (f, f') on Z + 1/2, or on Z when f0 is
    given, for each of a list of series that share the lattice.

    Vectorized over x and even in x bit-for-bit; with P(x) = (cos(pi x)/pi)^2
    on Z + 1/2 and (sin(pi x)/pi)^2 on Z it evaluates

        P(x) [f0/x^2 + sum_s f(s) (1/(x-s)^2 + 1/(x+s)^2)
                     + f'(s) (1/(x-s) - 1/(x+s))].

    A series is (nodes, cap): ``nodes(s, n)`` returns f^(0..n-1) at the
    sorted distinct positive nodes s (first = 1/2, or 1 with f0), as an
    (n, len(s)) array, and cap is None or K: the series is below eps past
    its first K nodes.  A series with cap <= _DIRECT sums its first K
    nodes; every other takes the head, window, block and tail of the
    module docstring, dropping its cap but where a point's window lies past
    it.  A value depends on its own x and its own series alone.  The f0/x^2
    term is the unpaired node 0 of the integer lattice.  Non-finite x, or a
    point whose window reaches 2^52, raises DomainError.

    Returns one value per series: a float for a scalar x, else an array of
    the shape of x.
    """
    x = check_finite(x)
    if not x.size:
        return [np.empty(x.shape) for _ in series]
    y = np.abs(x).ravel()
    first = 0.5 if f0 is None else 1.0
    c0, du = _nearest(y, first)
    plans = [_plan(c0, first, cap) if cap is None or cap > _DIRECT else None
             for _, cap in series]
    win = keys = None
    if any(plan is not None for plan in plans):
        win = np.logical_or.reduce([plan[0] for plan in plans if plan is not None])
        if np.any(win & (c0 + _NEAR >= _EXACT)):
            raise DomainError(f"|x| = {float(y.max())!r} needs series nodes past 2^52, "
                              "where they are no longer exact floats")
        start = first + _HEAD
        window = (np.unique(c0[win])[:, None] + _WINDOW).ravel()
        keys = np.unique(np.concatenate(
            [first + np.arange(_HEAD + 1, dtype=float), window[window >= start],
             np.maximum(start, c0[win] + _NEAR)]
            + [plan[1][plan[1] > start] for plan in plans if plan is not None]))
    values = [nodes(first + np.arange(cap, dtype=float), 2) if plan is None
              else _node_rows(nodes, keys) for (nodes, cap), plan in zip(series, plans)]
    head = max([_HEAD] * (win is not None)
               + [v.shape[1] for v, plan in zip(values, plans) if plan is None])
    inner = _node_sum(y, c0, first, head, win, keys, list(zip(values, plans)))
    if f0 is not None:
        with np.errstate(divide="ignore", over="ignore"):
            inner = np.where(c0 < 1.0, 0.0, f0 / y ** 2) + inner
    out = (np.sin(np.pi * du) / np.pi) ** 2 * inner
    k = c0 - first                       # -1: the node 0 of Z
    sinc2 = np.sinc(du) ** 2
    for vals, v, plan in zip(out, values, plans):
        if plan is None:
            hit = np.nonzero(k < v.shape[1])[0]
            at = np.maximum(k[hit], 0).astype(np.int64)
        else:
            hit = np.nonzero(plan[0])[0]
            at = np.searchsorted(keys, c0[hit])
        a, b = v[0][at], v[1][at]
        if f0 is not None:
            zero = k[hit] < 0
            a, b = np.where(zero, f0, a), np.where(zero, 0.0, b)
        vals[hit] += sinc2[hit] * (a + du[hit] * b)
    return [float(v[0]) if x.ndim == 0 else v.reshape(x.shape) for v in out]


def _exp_series(lams, x, f0):
    """L (f0 None) or M (f0 = 1) at each of the rates lams, a list of floats:
    f = e^{-lam s} with the cap K(lam).  One value per rate, as
    _lattice_series returns them."""
    def series(lam):
        def nodes(s, n):
            e = np.exp(-lam * s)
            return np.array([(-lam) ** j * e for j in range(n)])

        return nodes, _cap(lam)

    return _lattice_series(x, [series(lam) for lam in lams], f0)


def minorant_values(lam, x):
    """L(lam, x) for an array (or scalar) of real x; even in x bit-for-bit."""
    return _exp_series([_check_rate(lam, "the kernel")], x, None)[0]


def majorant_values(lam, x):
    """M(lam, x) for an array (or scalar) of real x; even in x bit-for-bit."""
    return _exp_series([_check_rate(lam, "the kernel")], x, 1.0)[0]


def _defects(lams, x, kind):
    """e^{-lam|x|} - L(lam, x) (kind "minorant") or M(lam, x) - e^{-lam|x|}
    ("majorant") at the points x for each rate: (len(lams),) + x.shape.
    One series call takes every rate, and each row has the bits of the
    rate taken alone."""
    lams = np.atleast_1d(check_rates(lams, "the kernel")).tolist()
    values = _exp_series(lams, x, None if kind == "minorant" else 1.0)
    out = np.empty((len(lams),) + np.shape(x))
    for i, (lam, v) in enumerate(zip(lams, values)):
        e = np.exp(-lam * np.abs(x))
        out[i] = e - v if kind == "minorant" else v - e
    return out


def _eval_point(lam, x, f0):
    """KernelEval of L (f0 None) or M (f0 = 1) at one point: the nodes
    summed directly, and a bound on the dropped pairs (a cap of at most
    _DIRECT nodes, or a window past the cap) plus the Euler-Maclaurin
    remainders of the block and the tail."""
    lam = _check_rate(lam, "the kernel")
    ax = abs(float(check_finite(x)))
    first = 0.5 if f0 is None else 1.0
    value = _exp_series([lam], ax, f0)[0]
    cap = _cap(lam)
    if cap is not None and cap <= _DIRECT:
        return KernelEval(lam, float(x), value, cap, _dropped(lam, first + cap))
    c0 = float(_nearest(ax, first)[0])
    keep, B = _plan(c0, first, cap)
    keep, B = bool(keep), float(B)
    start = first + _HEAD
    bound = _em_bound(lam, start, ax - B) if B > start else 0.0
    if not keep:
        return KernelEval(lam, float(x), value, _HEAD, bound + _dropped(lam, first + cap))
    tail = max(start, c0 + _NEAR)
    k = c0 - first
    n = _HEAD + max(0, int(k + _NEAR) - max(_HEAD, int(k - _NEAR) + 1))
    return KernelEval(lam, float(x), value, n, bound + _em_bound(lam, tail, tail - ax))


def eval_L(lam, x):
    """Extremal minorant of e^{-lam|.|} of type 2pi at a single point."""
    return _eval_point(lam, x, None)


def eval_M(lam, x):
    """Extremal majorant of e^{-lam|.|} of type 2pi at a single point."""
    return _eval_point(lam, x, 1.0)


def _hat(lam, t, majorant):
    """Mhat if majorant, else Lhat: the kind's numerator over Dh, scaled."""
    lam = check_rates(lam, "the kernel")
    at = np.abs(check_finite(t))
    E = np.exp(-0.5 * lam)
    one_m_E2 = -np.expm1(-lam)
    st = np.abs(np.sin(np.pi * at))
    ct = np.cos(np.pi * at)
    c = lam / (2.0 * math.pi)
    num = ((1.0 - at) * -np.expm1(-2.0 * lam) + 4.0 * E * E * c * st * ct if majorant
           else 2.0 * E * ((1.0 - at) * ct * one_m_E2 + c * st * (1.0 + E * E)))
    r = np.hypot(one_m_E2, 2.0 * E * st)          # 2 e^{-lam/2} sqrt(Dh)
    vals = np.where(at < 1.0, num / r / r, 0.0)
    return float(vals) if vals.ndim == 0 else vals


def eval_Lhat(lam, t):
    """Fourier transform of L(lam, .); identically 0 for |t| >= 1 (at |t| = 1
    exactly 0, not the ~7.8e-17/lam that sin(pi) != 0 leaves).  lam, a rate
    or an ndarray of rates, broadcasts against t; a float comes back when
    both are scalars.  A nan or infinite t raises DomainError."""
    return _hat(lam, t, False)


def eval_Mhat(lam, t):
    """Fourier transform of M(lam, .); identically 0 for |t| >= 1.  lam
    broadcasts against t, and |t| = 1 gives 0, as in eval_Lhat; a nan or
    infinite t raises DomainError."""
    return _hat(lam, t, True)


def _exp_transform(lam, t):
    """The transform 2 lam/(lam^2 + 4 pi^2 t^2) of e^{-lam|x|}, r_mu's kernel."""
    return 2.0 * lam / (lam * lam + 4.0 * math.pi ** 2 * t * t)


def _exp_ladder(lam, a, orders):
    """f_mu's kernel e^{-lam a} - e^{-lam} (order 0) and (-lam)^k e^{-lam a}
    (order k) at a >= 0, stacked.  Order 0, -sign(1-a) e^{-lam min(a,1)}
    expm1(-lam|1-a|), cancels neither as a -> 1 nor as lam -> 0, where a
    density like lam^-1.5 would magnify the error of the difference.  Order
    k is 0 where e^{-lam a} underflows, though (-lam)^k overflows there."""
    e = None if orders == (0,) else np.exp(-lam * a)
    with np.errstate(over="ignore", invalid="ignore"):
        return np.stack([-np.sign(1.0 - a) * np.exp(-lam * np.minimum(a, 1.0))
                         * np.expm1(-lam * np.abs(1.0 - a)) if k == 0
                         else np.where(e > 0.0, (-lam) ** k * e, 0.0) for k in orders])


def _periodized(lam, x, orders):
    """p(lam, x) (order 0) and its x-derivative j (order 1, 0 at the
    integers) for each k in orders, stacked on a new first axis.  With
    h = {x} - 1/2, t = expm1(-lam|h|) and w = e^{-lam(1/2-|h|)}/(1 - e^{-lam}),

        p = 2 sinh(lam h/2)^2/sinh(lam/2) - defect_minorant(lam) = (w t) t - dm,
        j = lam sinh(lam h)/sinh(lam/2) = -sign(h) (lam w) t (t + 2).

    (w t) t neither cancels nor underflows, and p(lam, 1/2) = -dm bit for
    bit; dm is taken on lam before it broadcasts against x.
    """
    frac = x - np.floor(x)
    h = frac - 0.5
    ah = np.abs(h)
    w = np.exp(-lam * (0.5 - ah)) / -np.expm1(-lam)
    t = np.expm1(-lam * ah)
    return np.stack([w * t * t - defect_minorant(lam) if k == 0
                     else np.where(frac == 0.0, 0.0, -np.sign(h) * (lam * w) * (t * (t + 2.0)))
                     for k in orders])


def _order(lam, x, k):
    """Order k of _periodized at checked rates and finite x; a float when lam
    and x are scalars."""
    out = _periodized(check_rates(lam, "the kernel"), check_finite(x), (k,))[0]
    return float(out) if out.ndim == 0 else out


def eval_p(lam, x):
    """Periodized kernel p(lam, x), period 1, mean 0; broadcasts lam and x.

    p(lam, 1/2) is -defect_minorant(lam) and p(lam, 0) is
    defect_majorant(lam) = coth(lam/2) - 2/lam, bit for bit.
    """
    return _order(lam, x, 0)


def eval_j(lam, x):
    """x-derivative of p: lam sinh(lam({x}-1/2))/sinh(lam/2), 0 at integers."""
    return _order(lam, x, 1)


class KernelDefectAtPoint:
    """One-sided kernel defect at fixed x, callable over arrays of lam.

    kind "minorant": e^{-lam|x|} - L(lam, x);  "majorant": M(lam, x) - e^{-lam|x|}.
    x is a point or an array of points; a call returns shape
    lam.shape + x.shape, and a float when both are scalars.
    Above _FIT_RATE the node series is used directly; below, a lazily
    built Chebyshev interpolant of defect/lam on [0, _FIT_RATE] (degree
    _FIT_NODES-1 on first-kind nodes) takes over, because the defect
    cancels to O(lam) and the fit keeps its relative accuracy as lam -> 0.
    """

    def __init__(self, x, kind="minorant"):
        self.kind = check_kind(kind)
        x = np.abs(np.asarray(x, dtype=float))
        self.x = float(x) if x.ndim == 0 else x
        self._coeffs = None

    def _fit(self):
        n = _FIT_NODES
        i = np.arange(n)
        tk = np.cos((2 * i + 1) * np.pi / (2 * n))     # first-kind nodes
        lam = _FIT_RATE * (tk + 1.0) / 2.0
        g = (_defects(lam, self.x, self.kind).T / lam).T
        coeffs = np.polynomial.chebyshev.chebfit(tk, g.reshape(n, -1), n - 1)
        self._coeffs = coeffs.reshape(g.shape)

    def __call__(self, lam):
        lam = np.asarray(check_rates(lam, "kernel defect"))
        shape = lam.shape + np.shape(self.x)
        lam = lam.ravel()
        out = np.empty((lam.size,) + np.shape(self.x))
        small = lam < _FIT_RATE
        if np.any(small):
            if self._coeffs is None:
                self._fit()
            tk = 2.0 * lam[small] / _FIT_RATE - 1.0
            # chebval puts the x axes of the coefficients first, lam last
            g = np.polynomial.chebyshev.chebval(tk, self._coeffs)
            out[small] = np.moveaxis(lam[small] * g, -1, 0)
        if np.any(~small):
            out[~small] = _defects(lam[~small], self.x, self.kind)
        return float(out[0]) if not shape else out.reshape(shape)
