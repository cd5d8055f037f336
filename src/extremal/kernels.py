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

so node interpolation is exact.  The series alone decides where it stops,
cell by cell: the cell of a point is its nearest node c0 (so du lies in
[-1/2, 1/2]), and it keeps the nodes below its horizon
max(512, ceil(c0 + 1/2) + 96), plus the Euler-Maclaurin value of the pairs
dropped from a0 on.  With b(u) = 1/(x-u) - 1/(x+u) a pair is exactly
g(s) = (f b)'(s), so that tail is
-f(a0) b(a0) + g(a0)/2 - g'(a0)/12 + g'''(a0)/720 from the caller's
f^(0..4)(a0), at the 1e-13 level even for power-law exponents near 2.  A
caller may cap the node count; where the cap binds no tail is added.

Where the horizon binds, the sum is split as in the fast multipole method
for lattice sources (Greengard-Rokhlin 1987; Dutt-Gu-Rokhlin 1996).  The
nodes sigma with |sigma - c0| < 3 (mirror nodes, the node 0 of Z and the
collapsing node among them) are summed at the point.  The rest of the
series, tail included, is analytic in du for |du| < 3: it is sampled once
per cell at 16 first-kind Chebyshev offsets, and each point takes a
barycentric interpolation in du, within ~1e-15 relative of the direct sum.
The cell is the unit of state: its row holds the 16 samples and the pairs
(a, b) = (f(|sigma|), sign(sigma) f'(|sigma|)) of its five near nodes (a =
f(0), b = 0 at the node 0 of Z), so a point reads its cell's row and no
node.  A point then costs O(1), and its value depends on its own x alone,
not on the other points of the call.  G and H keep their cell rows in a
_CellCache; L and M build theirs per call.

A point's cell may keep at most 2^20 nodes (_MAX_NODES), so G, H and U
take |x| up to about 1.05e6; past that, and wherever an uncapped L/M cell
or a cap of K(lam) > 2^20 (lam <~ 3.5e-5) would keep more, the series
raises DomainError before it allocates a node.  Node counts stay in floats
until they are checked, so no |x|, however large, overflows them: L and M
with a cap K(lam) <= 2^20 take every finite x.

L and M (f = e^{-lam s}, f(0) = 1) are capped at K(lam) =
ceil(log(1/eps)/lam) + 10 nodes (eps = 1e-16), which binds for lam >~
0.0734; a cap past 2^20 could never bind, so K is clamped there and no
rate, however small, overflows it.  Since sum_s sinc(x - s)^2 = 1 and
|P(x)/(x -+ s)| <= 1/pi, the pairs dropped from s0 = first node + K on
sum to at most
e^{-lam s0} (1 + 2 lam / (pi (1 - e^{-lam}))) at every x (below 6e-17 for
lam >= 0.1); a point whose nearest node was dropped gets no collapse, as P
vanishes there.  Where the cap binds the K(lam) nodes are summed
directly, and the rates of one call share the work that depends on the
points alone: per block of points one table of 1/(x - s) and 1/(x + s)
over the longest cap, from which each rate takes two row dot products
over its own first K(lam) nodes (2 divisions per (point, node) for the
whole call).  Smaller rates take the tail and the far field in the cells
whose horizon is below K(lam).  eval_L and eval_M report the nodes kept and
the bound of their point's cell.

The Fourier transforms (supported on [-1, 1]) have the closed forms

    Lhat = [(1-|t|) sinh(l/2) cos(pi t) + (l/2pi)|sin(pi t)| cosh(l/2)] / Dh
    Mhat = [(1-|t|) sinh(l/2) cosh(l/2) + (l/2pi)|sin(pi t)| cos(pi t)] / Dh
    Dh   = sinh(l/2)^2 + sin(pi t)^2

evaluated in e^{-l/2}-scaled form so nothing overflows for any lam > 0.

The periodized kernel p(lam, x) = -2/lam + sum_m e^{-lam|x+m|} and its
x-derivative j (eval_p, eval_j, re-exported by periodic) are one ladder,
_periodized: p is a non-negative term minus specfun's minorant defect,
whose series alone carries the 2/lam cancellation.  p(lam, 1/2) is minus
that defect and p(lam, 0) is specfun's majorant defect, both bit for bit.

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
import threading

import numpy as np

from dataclasses import dataclass

from .errors import DomainError, check_finite, check_kind
from .specfun import _check_rate, check_rates, defect_minorant

_EPS_TAIL = 1e-16
_NODE_TOL = 1e-6
_CHUNK = 65_536  # max matrix cells per vectorized block
_MIN_HORIZON = 512
_MAX_NODES = 1 << 20  # most nodes a point's cell may keep
_GAP = 96
_R = 3          # nodes nearer a point's cell node than _R are summed directly
_Q = 16         # far-field samples per cell
_NODE_BLOCK = 128  # nodes per block of a cell's far-field sum
_A = _Q + _R - 1  # cell row column of a at c0; a at c0 + j is column _A + j
_B = _A + 2 * _R - 1  # and b at c0 + j is column _B + j
_OFFSETS = 0.5 * np.cos((2 * np.arange(_Q) + 1) * np.pi / (2 * _Q))
_WEIGHTS = (-1.0) ** np.arange(_Q) * np.sin((2 * np.arange(_Q) + 1) * np.pi / (2 * _Q))


@dataclass(frozen=True)
class KernelEval:
    """One kernel evaluation with its truncation bookkeeping."""

    lam: float
    x: float
    value: float
    trunc_terms: int
    tail_bound: float


def _trunc_terms(lam):
    """K(lam), the most node pairs L and M keep at any x.  A cap past
    _MAX_NODES can never bind (the series raises first), so K is clamped
    there in floats: no rate, however small, overflows the int."""
    return int(math.ceil(min(math.log(1.0 / _EPS_TAIL) / lam, _MAX_NODES))) + 10


def _cell(y, first):
    """(c0, du) at y = |x| >= 0: the lattice node c0 nearest y (the node 0
    counts on Z) and du = y - c0 in [-1/2, 1/2]."""
    c0 = np.floor(y) + 0.5 if first == 0.5 else np.rint(y)
    return c0, y - c0


def _truncation(c0, first, cap):
    """(n, tail) of the cells with nearest node c0, a number or an array: n
    nodes from first on, and whether the tail from first + n is added, i.e.
    whether the cell's horizon max(512, ceil(c0 + 1/2) + 96) binds before
    the cap.  n is a whole float, so that no |x| overflows the count."""
    n = np.ceil(np.maximum(_MIN_HORIZON, np.ceil(c0 + 0.5) + _GAP) - first)
    if cap is None:
        return n, np.full(np.shape(n), True)
    return np.minimum(n, cap), n < cap


def _bder(x, u, k):
    """k-th u-derivative of b(u) = 1/(x-u) - 1/(x+u)."""
    fk = math.factorial(k)
    return fk * (1.0 / (x - u) ** (k + 1) + (-1.0) ** (k + 1) / (x + u) ** (k + 1))


def _em_tail(x, a0, d):
    """Euler-Maclaurin value of sum_{k>=0} (f b)'(a0 + k), elementwise in x
    and a0, from d = f^(0..4)(a0)."""
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


class _CellCache:
    """Rows of floats keyed by float, each built once: a cell's row (see
    _cell_samples), or f and f' at a node.  The first build fixes the row
    width.

    Reads take no lock and see the (keys, rows) table as one tuple; a
    build holds the lock, so threads that miss the same key build it once.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._table = None

    @staticmethod
    def _find(table, cells):
        """Where each cell sits in the table, and the cells it lacks."""
        if table is None:
            return np.zeros(len(cells), dtype=np.int64), cells
        known = table[0]
        pos = np.minimum(np.searchsorted(known, cells), len(known) - 1)
        return pos, cells[known[pos] != cells]

    def rows(self, cells, build):
        """The rows of the sorted distinct cells; build(new) makes the rows
        of the cells not held yet."""
        table = self._table
        pos, new = self._find(table, cells)
        if new.size:
            with self._lock:
                table = self._table
                pos, new = self._find(table, cells)
                if new.size:
                    keys, rows = new, build(new)
                    if table is not None:
                        keys = np.concatenate([table[0], keys])
                        rows = np.concatenate([table[1], rows])
                    order = np.argsort(keys, kind="stable")
                    table = self._table = keys[order], rows[order]
                    pos, _ = self._find(table, cells)
        return table[1][pos]


def _pairs(sigma, first, f, fp, f0):
    """(a, b) at the lattice nodes sigma, from f and f' on the positive
    nodes first, first + 1, ...: a = f(|sigma|) and b = sign(sigma)
    f'(|sigma|), or a = f0 and b = 0 at the node 0 of Z."""
    k = (np.abs(sigma) - first).astype(np.int64)    # -1: the node 0 of Z
    kk = np.maximum(k, 0)
    a = f[kk] if f0 is None else np.where(k < 0, f0, f[kk])
    return a, np.sign(sigma) * fp[kk]


def _cell_samples(c0, first, nodes, derivs, f0):
    """The row of each cell c0 (a sorted array): its far field at c0 +
    _OFFSETS, then the pairs (a, b) of its near nodes c0 + j, |j| < _R, as
    a (len(c0), _B + _R) array laid out [samples | a | b].

    A cell's far field is the series without its near nodes: every lattice
    node sigma below the cell's horizon (mirrors -s and the node 0 of Z
    included) with |sigma - c0| >= _R, plus the Euler-Maclaurin tail from
    the horizon on.  It is analytic in du for |du| < _R, so _Q Chebyshev
    samples on [-1/2, 1/2] hold it to rounding.  The cells are summed in
    blocks of at most _CHUNK (cell, sample, node) triples, over node blocks
    of _NODE_BLOCK in which the nodes a cell leaves out enter as zeros; a
    row thus takes the same operations whatever cells share its block.
    """
    n, _ = _truncation(c0, first, None)
    a0 = first + n
    horizons, col = np.unique(a0, return_inverse=True)
    d = derivs(horizons)[:, col, None]
    f, fp = nodes(first + np.arange(n.max(), dtype=float))
    out = np.empty((len(c0), _B + _R))
    out[:, _Q:] = np.hstack(_pairs(c0[:, None] + np.arange(1 - _R, _R), first, f, fp, f0))
    pad = np.zeros(-len(f) % _NODE_BLOCK)
    f, fp = np.concatenate([f, pad]), np.concatenate([fp, pad])
    rows = max(1, _CHUNK // (_Q * _NODE_BLOCK))
    for i in range(0, len(c0), rows):
        c = c0[i:i + rows, None, None]
        m = n[i:i + rows, None, None]
        y = c + _OFFSETS[:, None]
        total = 0.0
        for j in range(0, int(m.max()), _NODE_BLOCK):
            k = np.arange(j, j + _NODE_BLOCK)
            s = first + k
            kept = k < m
            block = slice(j, j + _NODE_BLOCK)
            fd, fpd = (np.where(kept & (np.abs(s - c) >= _R), v[block], 0.0)
                       for v in (f, fp))
            fm, fpm = (np.where(kept & (s + c >= _R), v[block], 0.0)
                       for v in (f, fp))
            r = 1.0 / (y - s)
            terms = (fd * r + fpd) * r
            r = 1.0 / (y + s)
            terms += (fm * r - fpm) * r
            total = total + np.sum(terms, axis=2)
        y = y[..., 0]
        if f0 is not None:
            total = total + np.where(c[..., 0] >= _R, f0 / y ** 2, 0.0)
        out[i:i + rows, :_Q] = total + _em_tail(y, a0[i:i + rows, None], d[:, i:i + rows])
    return out


def _interpolate(du, F):
    """Barycentric interpolation of the rows F (len(du), _Q), sampled at
    _OFFSETS, to the offsets du: a loop over the samples, so that a value
    takes the same operations whatever the length of du."""
    num = den = 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        for q in range(_Q):
            w = _WEIGHTS[q] / (du - _OFFSETS[q])
            num = num + w * F[:, q]
            den = den + w
        out = num / den
    on = np.nonzero(du[:, None] == _OFFSETS)
    out[on[0]] = F[on]
    return out


def _near(y, c0, du, rows, inv, hit):
    """Sum over the near nodes sigma = c0 + j, |j| < _R, of each point of
    a/(y - sigma)^2 + b/(y - sigma), with (a, b) from the row inv of its
    cell; the node c0 of a point in hit is left to the collapse."""
    total = 0.0
    for j in range(1 - _R, _R):
        d = du if j == 0 else y - (c0 + j)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            term = rows[inv, _A + j] / d ** 2 + rows[inv, _B + j] / d
        if j == 0:
            term = np.where(hit, 0.0, term)
        total = total + term
    return total


def _collapse(vals, hit, du, a, b):
    """Add sinc(du)^2 (a + du b), the pair (a, b) of each point's nearest
    node, to vals at the points hit."""
    vals[hit] += np.sinc(du) ** 2 * (a + du * b)


def _far(y, c0, du, first, nodes, derivs, f0, cells):
    """The series at points whose cell's horizon binds, read off the cell
    rows alone: the near nodes directly, the rest from the cell's samples,
    and the node collapse."""
    keys, inv = np.unique(c0, return_inverse=True)
    rows = (_cell_samples(keys, first, nodes, derivs, f0) if cells is None else
            cells.rows(keys, lambda new: _cell_samples(new, first, nodes, derivs, f0)))
    hit = np.abs(du) < _NODE_TOL
    vals = (np.sin(np.pi * du) / np.pi) ** 2 * (
        _interpolate(du, rows[inv, :_Q]) + _near(y, c0, du, rows, inv, hit))
    _collapse(vals, hit, du[hit], rows[inv[hit], _A], rows[inv[hit], _B])
    return vals


def _direct(y, c0, du, first, series, f0):
    """The series at y over the first len(f) nodes of each (f, f') in series
    and no tail: the points where each cap binds, as a (len(series),
    len(y)) array.

    One table per block of points serves every series: r+ = 1/(y - s) and
    r- = 1/(y + s) over the longest of them, r+ zeroed at each point's
    collapsing node, a = r+^2 + r-^2 and b = r+ - r-.  A series then takes
    the row dot products a.f + b.f' over its own columns.  The columns run
    from the last node down to the first, so the small far terms are added
    first, and einsum reduces each row on its own (a BLAS product does
    not): a value does not depend on the other points or series of the
    call.  A point whose nearest node is past a series' nodes gets no
    collapse from it.
    """
    m = max(len(f) for f, _ in series)
    s = first + np.arange(m - 1, -1, -1, dtype=float)     # column m - 1 - k: s_k
    backward = [(np.ascontiguousarray(f[::-1]), np.ascontiguousarray(fp[::-1]))
                for f, fp in series]
    out = np.empty((len(series), len(y)))
    rows = max(1, _CHUNK // m)
    table = np.empty((4, min(rows, len(y)), m))     # r+, r-, a, b: one buffer for all blocks
    for i in range(0, len(y), rows):
        yi, ci, dui = y[i:i + rows], c0[i:i + rows], du[i:i + rows]
        rp, rm, a, b = table[:, :len(yi)]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            np.divide(1.0, np.subtract(yi[:, None], s, out=rp), out=rp)
            zero = None if f0 is None else f0 / yi ** 2
        np.divide(1.0, np.add(yi[:, None], s, out=rm), out=rm)
        hit = np.nonzero((np.abs(dui) < _NODE_TOL) & (ci - first < m))[0]
        k = (ci[hit] - first).astype(np.int64)    # nearest node s_k; -1: 0
        rp[hit[k >= 0], m - 1 - k[k >= 0]] = 0.0
        if f0 is not None:
            zero[hit[k < 0]] = 0.0
        np.subtract(rp, rm, out=b)
        np.add(np.multiply(rp, rp, out=a), np.multiply(rm, rm, out=rm), out=a)
        px = (np.sin(np.pi * dui) / np.pi) ** 2
        for j, ((f, fp), (fb, fpb)) in enumerate(zip(series, backward)):
            n = len(f)
            total = (np.einsum("ik,k->i", a[:, m - n:], fb)
                     + np.einsum("ik,k->i", b[:, m - n:], fpb))
            if f0 is not None:
                total = zero + total
            vals = px * total
            kept = hit[k < n]
            if kept.size:
                _collapse(vals, kept, dui[kept], *_pairs(ci[kept], first, f, fp, f0))
            out[j, i:i + rows] = vals
    return out


def _lattice_series(x, series, f0=None):
    """Interpolation series through (f, f') on Z + 1/2, or on Z when f0 is
    given, for each of a list of series that share the lattice.

    Vectorized over x and even in x bit-for-bit; with P(x) = (cos(pi x)/pi)^2
    on Z + 1/2 and (sin(pi x)/pi)^2 on Z it evaluates

        P(x) [f0/x^2 + sum_s f(s) (1/(x-s)^2 + 1/(x+s)^2)
                     + f'(s) (1/(x-s) - 1/(x+s)) + tail(|x|, a0)].

    A series is (nodes, derivs, cap, cells): ``nodes(s)`` returns f and f'
    at the positive nodes s = first, first + 1, ... (first = 1/2, or 1 with
    f0) and ``derivs(a0)`` f^(0..4) at a sorted array of distinct a0, as a
    (5, len(a0)) array; _truncation of the cell of |x| (its nearest node c0) and ``cap``
    (None: no cap) pick its n nodes and whether the tail is added; ``cells``
    keeps its cell rows (a _CellCache; None builds them per call).
    The series whose cap binds at every point are summed directly in one
    _direct call.  For any other, the n nodes are summed directly where its
    cap binds, and a point whose nearest node lies past them gets no node
    collapse; elsewhere the near nodes are summed directly and the rest
    comes from the samples of the cell.  A value depends on its own x and
    its own series alone.  The f0/x^2 term is the unpaired node 0 of the
    integer lattice.  Non-finite x, or a point whose cell would keep more
    than _MAX_NODES nodes, raises DomainError.

    Returns one value per series: a float for a scalar x, else an array of
    the shape of x.
    """
    x = check_finite(x)
    y = np.abs(x).ravel()
    first = 0.5 if f0 is None else 1.0
    c0, du = _cell(y, first)
    out = np.empty((len(series), len(y)))
    capped = {}
    for j, (nodes, derivs, cap, cells) in enumerate(series):
        n, far = _truncation(c0, first, cap)
        if n.max(initial=0) > _MAX_NODES:
            raise DomainError(f"|x| = {float(y.max())!r} needs {n.max():.15g} series nodes, "
                              f"more than the {_MAX_NODES} allowed")
        if y.size and not far.any():
            capped[j] = nodes, cap
            continue
        paths = ((~far, lambda i: _direct(y[i], c0[i], du[i], first,
                                          [nodes(first + np.arange(cap, dtype=float))],
                                          f0)[0]),
                 (far, lambda i: _far(y[i], c0[i], du[i], first, nodes, derivs, f0, cells)))
        for at, path in paths:
            if at.size and at.all():
                out[j] = path(slice(None))      # one path: no copies of the points
            elif at.any():
                out[j, at] = path(at)
    if capped:
        s = first + np.arange(max(cap for _, cap in capped.values()), dtype=float)
        out[list(capped)] = _direct(y, c0, du, first,
                                    [nodes(s[:cap]) for nodes, cap in capped.values()], f0)
    return [float(v[0]) if x.ndim == 0 else v.reshape(x.shape) for v in out]


def _exp_series(lams, x, f0):
    """L (f0 None) or M (f0 = 1) at each of the rates lams, a list of floats:
    f = e^{-lam s} on at most K(lam) nodes.  One value per rate, as
    _lattice_series returns them."""
    def series(lam):
        def nodes(s):
            f = np.exp(-lam * s)
            return f, -lam * f

        def derivs(a0):
            e = np.exp(-lam * a0)
            return np.array([(-lam) ** j * e for j in range(5)])

        return nodes, derivs, _trunc_terms(lam), None

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
    """KernelEval of L (f0 None) or M (f0 = 1) at one point."""
    lam = _check_rate(lam, "the kernel")
    ax = abs(float(check_finite(x)))
    first = 0.5 if f0 is None else 1.0
    n, tail = _truncation(_cell(ax, first)[0], first, _trunc_terms(lam))
    return KernelEval(lam, float(x), _exp_series([lam], ax, f0)[0], int(n),
                      _tail_bound(lam, ax, first + int(n), bool(tail)))


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
    back when both are scalars.  A nan or infinite t raises DomainError.
    """
    lam = check_rates(lam, "the kernel")
    at = np.abs(check_finite(t))
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

    lam broadcasts against t, and |t| = 1 gives 0, as in eval_Lhat; a nan
    or infinite t raises DomainError.
    """
    lam = check_rates(lam, "the kernel")
    at = np.abs(check_finite(t))
    E = np.exp(-0.5 * lam)
    one_m_E2 = -np.expm1(-lam)
    one_m_E4 = -np.expm1(-2.0 * lam)
    st = np.abs(np.sin(np.pi * at))
    ct = np.cos(np.pi * at)
    num = (1.0 - at) * one_m_E4 + 4.0 * E * E * (lam / (2.0 * math.pi)) * st * ct
    den = one_m_E2 ** 2 + 4.0 * E * E * st * st
    vals = np.where(at < 1.0, num / den, 0.0)
    return float(vals) if vals.ndim == 0 else vals


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
    Above LAM_SWITCH the node series is used directly; below, a lazily
    built Chebyshev interpolant of defect/lam on [0, LAM_SWITCH] (degree
    NFIT-1 on first-kind nodes) takes over, because the defect cancels to
    O(lam) and the fit keeps its relative accuracy as lam -> 0.
    """

    LAM_SWITCH = 0.5
    NFIT = 12

    def __init__(self, x, kind="minorant"):
        self.kind = check_kind(kind)
        x = np.abs(np.asarray(x, dtype=float))
        self.x = float(x) if x.ndim == 0 else x
        self._coeffs = None

    def _fit(self):
        n = self.NFIT
        i = np.arange(n)
        tk = np.cos((2 * i + 1) * np.pi / (2 * n))     # first-kind nodes
        lam = self.LAM_SWITCH * (tk + 1.0) / 2.0
        g = (_defects(lam, self.x, self.kind).T / lam).T
        coeffs = np.polynomial.chebyshev.chebfit(tk, g.reshape(n, -1), n - 1)
        self._coeffs = coeffs.reshape(g.shape)

    def __call__(self, lam):
        lam = np.asarray(check_rates(lam, "kernel defect"))
        shape = lam.shape + np.shape(self.x)
        lam = lam.ravel()
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
            out[~small] = _defects(lam[~small], self.x, self.kind)
        return float(out[0]) if not shape else out.reshape(shape)
