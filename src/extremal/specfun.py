"""Numerically stable special functions used by the extremal constructions.

Two hyperbolic "defect" functions appear throughout as sharp constants:

    defect_minorant(lam) = 2/lam - csch(lam/2)   (L^1 gap below e^{-lam|x|})
    defect_majorant(lam) = coth(lam/2) - 2/lam   (L^1 gap above e^{-lam|x|})

Both are differences of quantities that blow up like 2/lam as lam -> 0, so a
direct evaluation loses all digits for small lam.  With y = lam/2,

    2/lam - csch(y) = (sinh y - y)/(y sinh y),   sinh y - y = y^3 sum_k y^2k/(2k+3)!,

a series of positive terms, is the one small-rate series: the minorant
takes it below ``_SERIES_SWITCH`` = 4 and the direct formula above, where
it cancels by less than 3x.  The majorant is tanh(lam/4) minus the
minorant, the value kernels' periodized p takes at x = 0, bit for bit.
Both are good to 1e-15 relative against mpmath over lam in [1e-300, 1e6].

hurwitz_zeta(s, a) = sum_{k >= 0} (k + a)^-s is the one zeta series: five
direct terms, then the Euler-Maclaurin remainder at n = a + 5 (Johansson,
arXiv:1309.2877), n^(1-s)/(s-1) + n^-s/2 + sum_{j=1..10} B_2j/(2j)!
s(s+1)...(s+2j-2) n^(-s-2j+1).  It is good to 1e-13 max(1, |zeta|) for s in
(-1, 2) and at s = 2, 3, 4, and analytic in s, so s <= 0 needs no functional
equation.  zeta(s) is hurwitz_zeta(s, 1) on (-1, 2) \\ {1}; gamma(s) on
(-1, 1) \\ {0} wraps the C library implementation behind the documented domain.

The defect functions and hurwitz_zeta take a scalar or a numpy array
through one elementwise code path; a scalar comes back as a Python float.

No global state; every function is pure.
"""

import math

import numpy as np

from .errors import DomainError, is_real

# sinh y - y = y^3 sum_k _SINH_SERIES[k] y^2k below the switch: 11 terms
# leave a tail below 2e-18 relative at y = 2, where the direct branch
# cancels by about 2x.
_SERIES_SWITCH = 4.0
_SINH_SERIES = tuple(1.0 / math.factorial(2 * k + 3) for k in range(11))


def check_rates(lam, what):
    """lam as a float, or a float array if it has a shape; DomainError naming
    what unless it holds finite positive ints or floats (no bool, in any shape)."""
    if is_real(lam) and 0.0 < lam < math.inf:
        return float(lam)
    arr = np.asarray(lam)
    if arr.dtype.kind not in "iuf" or not np.all((arr > 0.0) & np.isfinite(arr)):
        got = f", got {lam!r}" if arr.ndim == 0 else " everywhere"
        raise DomainError(f"{what} requires finite rates lam > 0{got}")
    return float(arr) if arr.ndim == 0 else arr.astype(float)


def _check_rate(lam, what):
    """check_rates for one rate: a float (a 0-d array is one), no other shape."""
    lam = check_rates(lam, what)
    if not isinstance(lam, float):
        raise DomainError(f"{what} takes one rate lam, got shape {lam.shape}")
    return lam


def _finite(what, lam, out):
    """out, values of a finite function of the rates lam taken under np.errstate(
    all="ignore"); DomainError naming the first rate where one is not a float."""
    bad = ~np.isfinite(out)
    if bad.any():
        rate = float(np.broadcast_to(lam, bad.shape)[bad][0])
        raise DomainError(f"{what} leaves the floats at lam = {rate!r}")
    return out


def _minorant(lam):
    """defect_minorant at checked rates (a float, or an array), as an array,
    each rate by its own branch: y S(y^2) (y / sinh y) below _SERIES_SWITCH,
    with y = lam/2 and S the series of (sinh y - y)/y^3 (y^3 is never formed:
    it underflows where lam/12 does not), and 2/lam - 2e^{-y}/(1 - e^{-lam})
    above."""
    lam = np.asarray(lam)
    small = lam < _SERIES_SWITCH
    out = np.empty_like(lam)
    if not small.all():
        big = lam[~small]
        out[~small] = 2.0 / big - 2.0 * np.exp(-0.5 * big) / -np.expm1(-big)
    if small.any():
        y = 0.5 * lam[small]
        z, acc = y * y, _SINH_SERIES[-1]
        for c in _SINH_SERIES[-2::-1]:
            acc = acc * z + c
        out[small] = y * acc * (y / np.sinh(y))
    return out


def defect_minorant(lam):
    """Integral of e^{-lam|x|} minus its extremal type-2pi minorant: 2/lam - csch(lam/2).

    Positive and increasing on lam > 0.  Raises DomainError for lam <= 0.
    Elementwise on arrays.
    """
    out = _minorant(check_rates(lam, "defect_minorant"))
    return float(out) if out.ndim == 0 else out


def defect_majorant(lam):
    """Integral of the extremal type-2pi majorant minus e^{-lam|x|}: coth(lam/2) - 2/lam.

    Elementwise on arrays, like defect_minorant.  It is tanh(lam/4) minus
    the minorant defect, with tanh(lam/4) = (w t) t for w = 1/(1 - e^{-lam})
    and t = expm1(-lam/2): p(lam, 0) of kernels, written as it writes it.
    w leaves the floats below lam ~ 5.6e-309, which raises DomainError.
    """
    lam = check_rates(lam, "defect_majorant")
    with np.errstate(all="ignore"):
        w = 1.0 / -np.expm1(-lam)
        t = np.expm1(-0.5 * lam)
        out = _finite("defect_majorant", lam, (w * t) * t - _minorant(lam))  # t * t underflows
    return float(out) if out.ndim == 0 else out


# B_2, B_4, ..., B_20: the Bernoulli numbers of the Euler-Maclaurin remainder
_BERNOULLI = (1.0 / 6.0, -1.0 / 30.0, 1.0 / 42.0, -1.0 / 30.0, 5.0 / 66.0,
              -691.0 / 2730.0, 7.0 / 6.0, -3617.0 / 510.0, 43867.0 / 798.0,
              -174611.0 / 330.0)


def hurwitz_zeta(s, a):
    """Hurwitz zeta sum_{k >= 0} (k + a)^-s, continued analytically in s.

    s is a finite real other than 1; a >= 0 is a scalar or an array of ints
    or floats (not bools), and a scalar a gives a float.  At a = 0 the k = 0
    term is 0^-s: 0 for s < 0, 1 for s = 0, and a DomainError for s > 0.
    """
    if not (is_real(s) and math.isfinite(s) and s != 1.0):
        raise DomainError(f"hurwitz_zeta needs a finite real s != 1, got {s!r}")
    s = float(s)
    a = np.asarray(a)
    if (a.dtype.kind not in "iuf" or not np.all((a >= 0.0) & np.isfinite(a))
            or (s > 0.0 and np.any(a == 0.0))):
        raise DomainError("hurwitz_zeta needs finite real a >= 0, and a > 0 for s > 0")
    x = np.atleast_1d(a).astype(float)    # a scalar a is the one-point array
    n = x + 5.0
    # Horner in n^-2 over j of B_2j/(2j)! (s+1)...(s+2j-2) n^(2-2j)
    acc = np.zeros_like(n)
    for j in range(len(_BERNOULLI), 0, -1):
        acc = _BERNOULLI[j - 1] / math.factorial(2 * j) + acc * (
            (s + 2 * j - 1) * (s + 2 * j) / (n * n))
    # the k = 0 term and the pole term are both large for small a and s near
    # 1, and cancel: their sum comes first, before the moderate terms
    out = x ** -s + n ** (1.0 - s) / (s - 1.0)
    out += (np.sum((x[..., None] + np.arange(1.0, 5.0)) ** -s, axis=-1)
            + 0.5 * n ** -s + s * n ** (-s - 1.0) * acc)
    return float(out[0]) if a.ndim == 0 else out


def zeta(s):
    """Riemann zeta on (-1, 2) \\ {1}: hurwitz_zeta(s, 1), exactly -1/2 at 0."""
    if not (is_real(s) and -1.0 < s < 2.0 and s != 1.0):
        raise DomainError(f"zeta implemented on (-1, 2) excluding 1, got {s!r}")
    return hurwitz_zeta(s, 1.0)


def gamma(s):
    """Euler Gamma on (-1, 1) \\ {0} (the range the power-law kernels need)."""
    if not (is_real(s) and -1.0 < s < 1.0 and s != 0.0):
        raise DomainError(f"gamma implemented on (-1, 1) excluding 0, got {s!r}")
    s = float(s)
    return math.gamma(s)
