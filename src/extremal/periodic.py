"""Periodization and extremal trigonometric polynomials.

The periodized exponential kernel on R/Z,

    p(lam, x) = -2/lam + sum_m e^{-lam|x+m|}
              = cosh(lam({x} - 1/2)) / sinh(lam/2) - 2/lam,

has mean zero, and for each degree N it has extremal trigonometric
polynomials l(lam, N; .) <= p(lam, .) <= m(lam, N; .), with means
-dm_minor(lam/(N+1))/(N+1) and +dm_major(lam/(N+1))/(N+1).  l touches p at
the N + 1 nodes x_k = (k + 1/2)/(N + 1) and m at x_k = k/(N + 1).
Superposing over an admissible measure mu gives q_mu(x) = int p(lam,x) dmu
and its extremal polynomials g_mu <= q_mu <= h_mu, which touch q_mu at the
same nodes; their means are the sharp form constants -A(N+1, mu) and
B(N+1, mu), the measure's defect_moment at N + 1, and q_mu is Measure.q.
Specializing mu to the multiplicative Haar measure yields u_N = -g_mu,
the degree-N majorant of log|2 sin(pi x)| with mean log2/(N+1).

A polynomial of degree N that touches a kernel at N + 1 equally spaced
nodes matches its value and its derivative there (at the majorant node
x = 0 the derivative of the even polynomial is 0), and these 2N + 2
numbers fix it: this is Hermite interpolation with the Fejer kernel
(Vaaler, Bull. AMS 12 (1985)).  So every polynomial here is built from the
kernel and its derivative sampled at its nodes, by two FFTs (_from_nodes):
l and m from the kernels ladder of p and j, g and h from one call of the
measure's q ladder at all the nodes (x = 0 included), whose closed forms
need no integral.  Only the mean is a kernel defect (l, m) or a sharp
constant (g, h): one defect_moment call, which takes the gate and the
dilation.  The paper's route, the dilated measure's transform moments of
Lhat and Mhat, is not in the library: the tests keep it as the oracle of
the node route.  A TrigPoly writes its coefficients as
CSV or JSON text and reads none back.  p and its derivative j live in
kernels, re-exported as eval_p and eval_j.
"""

import numpy as np

from dataclasses import dataclass
from typing import Tuple

from . import kernels, measures, specfun
from .errors import DomainError, check_count, check_finite, is_count

_SYM_TOL = 1e-12
# one coefficient of the JSON text, as json.dumps(..., indent=1) writes it
_JSON_ROW = '  {{\n   "n": {},\n   "re": {!r},\n   "im": {!r}\n  }}'


@dataclass(frozen=True)
class TrigPoly:
    """Real-valued trigonometric polynomial sum_{|n|<=N} c(n) e(nx).

    coeffs holds c(-N)..c(N), which must be finite and conjugate-symmetric;
    evaluation uses the folded real form, so values are exactly real.
    """

    degree: int
    coeffs: Tuple[complex, ...]

    def __post_init__(self):
        N = check_count(self.degree, "degree")
        c = np.asarray(self.coeffs, dtype=complex)
        if c.shape != (2 * N + 1,):
            raise DomainError(f"degree {N} needs {2 * N + 1} coefficients, "
                              f"got {len(self.coeffs)}")
        bad = ~np.isfinite(c)
        if bad.any():
            raise DomainError(f"coefficient c({int(np.argmax(bad)) - N}) is not finite")
        tol = _SYM_TOL * np.abs(c).max(initial=1.0)
        bad = np.abs(c[N::-1] - c[N:].conj()) > tol
        if bad.any():
            raise DomainError(f"coefficients not conjugate-symmetric at "
                              f"n = {int(np.argmax(bad))}")
        object.__setattr__(self, "degree", N)
        object.__setattr__(self, "coeffs", tuple(c.tolist()))

    def coeff(self, n):
        """c(n) for an integer -degree <= n <= degree (a bool is not one)."""
        if not is_count(n):
            raise DomainError(f"coefficient index must be an integer, got {n!r}")
        if abs(n) > self.degree:
            raise DomainError(f"coefficient index {n} exceeds degree {self.degree}")
        return self.coeffs[self.degree + n]

    @property
    def mean(self):
        """Mean over one period, = c(0)."""
        return self.coeff(0).real

    def evaluate(self, x):
        """Value at x (scalar or array); exactly real by folding +-n.  A nan
        or infinite x raises DomainError.  Each point's sum over n is an
        einsum, never a BLAS product, and a lone point is summed beside its
        copy, so a value does not depend on the batch it is evaluated in."""
        x = check_finite(x)
        xs = np.repeat(x.reshape(-1), 2 if x.size == 1 else 1)
        N = self.degree
        n = np.arange(1, N + 1)
        c = np.array(self.coeffs[N + 1:], dtype=complex)
        ang = 2.0 * np.pi * xs[:, None] * n
        out = self.coeff(0).real + 2.0 * (np.einsum("ik,k->i", np.cos(ang), c.real)
                                          - np.einsum("ik,k->i", np.sin(ang), c.imag))
        out = out[:x.size].reshape(x.shape)
        return float(out) if x.ndim == 0 else out

    # -- coefficient text (shortest round-trip decimals) --------------------

    def to_csv_text(self):
        N = self.degree
        return "n,re,im\n" + "".join(f"{n},{c.real!r},{c.imag!r}\n"
                                     for n, c in zip(range(-N, N + 1), self.coeffs))

    def to_json_text(self):
        """The text json.dumps(obj, indent=1) + "\n" writes for obj = {"degree":
        N, "coeffs": [{"n": n, "re": c(n).real, "im": c(n).imag}, ...]}, byte
        for byte, from a row template: json writes a finite float as its repr."""
        N = self.degree
        rows = ",\n".join(_JSON_ROW.format(n, c.real, c.imag)
                          for n, c in zip(range(-N, N + 1), self.coeffs))
        return f'{{\n "degree": {N},\n "coeffs": [\n{rows}\n ]\n}}\n'


eval_p = kernels.eval_p
eval_j = kernels.eval_j


def trig_minorant_l(lam, N):
    """Extremal degree-N trig minorant of p(lam, .); touches at (n-1/2)/(N+1)."""
    lam = specfun._check_rate(lam, "trig_minorant_l")
    return _single_poly(lam, N, "minorant")


def trig_majorant_m(lam, N):
    """Extremal degree-N trig majorant of p(lam, .); touches at n/(N+1)."""
    lam = specfun._check_rate(lam, "trig_majorant_m")
    return _single_poly(lam, N, "majorant")


def _nodes(N, kind):
    """The N + 1 touching nodes x_k = x_0 + k/(N+1), k = 0..N, with x_0 =
    1/(2(N+1)) for kind "minorant" and 0 for "majorant", each taken in
    (-1/2, 1/2], so that the nodes come in exactly opposite pairs."""
    j = np.arange(N + 1) + (0.5 if kind == "minorant" else 0.0)
    return np.where(j > 0.5 * (N + 1), j - (N + 1), j) / (N + 1.0)


def _from_nodes(N, kind, c0, q, dq):
    """The real even degree-N polynomial with mean c0 that takes the values
    q and the derivatives dq at the nodes of kind.

    With V_n and W_n the FFTs of q and dq/(2 pi i) over the nodes, each
    times e(-n x_0)/(N+1), c(+-n) = [W_n - (n - N - 1) V_n]/(N + 1) for
    n = 1..N (and V_0 = c(0)); the phase and both 1/(N+1) are applied
    once, to the combination.
    """
    n = np.arange(1, N + 1)
    x0 = 0.5 if kind == "minorant" else 0.0
    # np.fft is reached here, at call time, so importing the package does
    # not load it
    V, W = np.fft.fft(np.stack([q, dq / (2j * np.pi)]))[:, 1:]
    phase = np.exp(-2j * np.pi * x0 * n / (N + 1.0))
    v = ((W - (n - N - 1.0) * V) * phase).real / (N + 1.0) ** 2
    return TrigPoly(N, np.concatenate([v[::-1], [c0], v]))


def _single_poly(lam, N, kind):
    """l (kind "minorant") or m ("majorant"): mean -+ the kind's kernel defect
    at lam/(N+1), over N+1, and p(lam, .) and j(lam, .) at the nodes."""
    N = check_count(N, "degree")
    with np.errstate(all="ignore"):
        pj = specfun._finite("p", lam, kernels._periodized(lam, _nodes(N, kind), (0, 1)))
    u = lam / (N + 1.0)
    try:
        c0 = -specfun.defect_minorant(u) if kind == "minorant" else specfun.defect_majorant(u)
    except DomainError as exc:   # name the lam and N given beside the rate of the mean
        raise DomainError(f"{exc}, the rate lam/(N+1) of the mean at lam = {lam!r}, "
                          f"N = {N}") from None
    return _from_nodes(N, kind, c0 / (N + 1.0), *pj)


def _superposed_poly(measure, N, kind, tol=1e-9):
    """g_mu (kind "minorant") or h_mu ("majorant"), real and even: c(0) is
    the sharp form constant -A(N+1, mu) or B(N+1, mu), and the other
    coefficients come from q_mu and q_mu' at the nodes."""
    N = check_count(N, "degree")
    c0 = measure.defect_moment(kind, tol, N + 1.0)
    return _from_nodes(N, kind, -c0 if kind == "minorant" else c0,
                       *measure._q(_nodes(N, kind), (0, 1), tol))


def trig_minorant_g(measure, N, tol=1e-9):
    """Extremal degree-N trig minorant of q_mu; touches at (n-1/2)/(N+1)."""
    return _superposed_poly(measure, N, "minorant", tol)


def trig_majorant_h(measure, N, tol=1e-9):
    """Extremal degree-N trig majorant of q_mu (needs the cond47 moment);
    touches at n/(N+1)."""
    return _superposed_poly(measure, N, "majorant", tol)


def log_sin_majorant(N):
    """u_N: degree-N trig majorant of log|2 sin(pi x)|, mean log2/(N+1).

    u_N = -g_mu for the multiplicative Haar measure, whose q_mu and q_mu'
    are closed; its coefficients obey -1/(2|n|) <= c(n) <= 0 for
    1 <= |n| <= N.
    """
    g = trig_minorant_g(measures.HaarLog(), N)
    return TrigPoly(g.degree, tuple(-c.real for c in g.coeffs))
