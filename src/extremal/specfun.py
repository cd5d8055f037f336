"""Numerically stable special functions used by the extremal constructions.

Two hyperbolic "defect" functions appear throughout as sharp constants:

    defect_minorant(lam) = 2/lam - csch(lam/2)   (L^1 gap below e^{-lam|x|})
    defect_majorant(lam) = coth(lam/2) - 2/lam   (L^1 gap above e^{-lam|x|})

Both are differences of quantities that blow up like 2/lam as lam -> 0, so a
direct evaluation loses all digits for small lam.  We switch to the Taylor
expansion below ``_TAYLOR_SWITCH``; the coefficients come from the standard
csch/coth Laurent series and both branches carry <= ~2e-13 relative error in
a window around the switch.

zeta(s) is evaluated on (-1, 2) \\ {1} through the alternating eta series with
the fixed 64-term Cohen-Villegas-Zagier acceleration (geometric convergence
at rate (3+sqrt(8))^-1, far past double precision at n = 64); s <= 0 goes
through the functional equation.  gamma(s) on (-1, 1) \\ {0} wraps the C
library implementation behind the documented domain.

The defect functions take a scalar or a numpy array through one
elementwise code path; a scalar comes back as a Python float.

No global state; every function is pure.
"""

import math

import numpy as np

from .errors import DomainError, is_real

# Direct/Taylor switch for the defect functions.  At the switch the direct
# branch's cancellation error is ~24*eps/lam^2 ~ 8e-14 relative and the
# lam^9 Taylor tail is ~1e-14 relative, so both branches are good to ~1e-13.
_TAYLOR_SWITCH = 0.25

# 2/lam - csch(lam/2) = lam/12 - 7 lam^3/2880 + 31 lam^5/483840
#                       - 127 lam^7/77414400 + 511 lam^9/12262440960 - ...
_MINOR_COEFFS = (
    1.0 / 12.0,
    -7.0 / 2880.0,
    31.0 / 483840.0,
    -127.0 / 77414400.0,
    511.0 / 12262440960.0,
)

# coth(lam/2) - 2/lam = lam/6 - lam^3/360 + lam^5/15120
#                       - lam^7/604800 + lam^9/23950080 - ...
_MAJOR_COEFFS = (
    1.0 / 6.0,
    -1.0 / 360.0,
    1.0 / 15120.0,
    -1.0 / 604800.0,
    1.0 / 23950080.0,
)


def _odd_poly(lam, coeffs):
    """Evaluate sum_k coeffs[k] * lam^(2k+1) by Horner in lam^2."""
    l2 = lam * lam
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * l2 + c
    return acc * lam


def _check_rates(lam, name):
    """lam as a float array; DomainError unless every entry is finite and > 0."""
    lam = np.asarray(lam, dtype=float)
    if not np.all((lam > 0.0) & np.isfinite(lam)):
        got = f", got {float(lam)!r}" if lam.ndim == 0 else " everywhere"
        raise DomainError(f"{name} requires finite lam > 0{got}")
    return lam


def _branches(lam, coeffs, direct):
    """Taylor series below _TAYLOR_SWITCH, direct(lam) above; a float for a scalar."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.where(lam < _TAYLOR_SWITCH, _odd_poly(lam, coeffs), direct(lam))
    return float(out) if out.ndim == 0 else out


def defect_minorant(lam):
    """Integral of e^{-lam|x|} minus its extremal type-2pi minorant: 2/lam - csch(lam/2).

    Positive and increasing on lam > 0.  Raises DomainError for lam <= 0.
    Elementwise on arrays.
    """
    lam = _check_rates(lam, "defect_minorant")
    # csch(y/2) = 2 e^{-y/2} / (1 - e^{-y}), no overflow
    return _branches(lam, _MINOR_COEFFS,
                     lambda y: 2.0 / y - 2.0 * np.exp(-0.5 * y) / (-np.expm1(-y)))


def defect_majorant(lam):
    """Integral of the extremal type-2pi majorant minus e^{-lam|x|}: coth(lam/2) - 2/lam.

    Elementwise on arrays, like defect_minorant.
    """
    lam = _check_rates(lam, "defect_majorant")
    # coth(y/2) = 1 + 2 e^{-y} / (1 - e^{-y})
    return _branches(lam, _MAJOR_COEFFS,
                     lambda y: (1.0 + 2.0 * np.exp(-y) / (-np.expm1(-y))) - 2.0 / y)


def _eta(s):
    """Dirichlet eta(s) by the 64-term Cohen-Villegas-Zagier acceleration."""
    n = 64
    d = (3.0 + math.sqrt(8.0)) ** n
    d = 0.5 * (d + 1.0 / d)
    b = -1.0
    c = -d
    acc = 0.0
    for k in range(n):
        c = b - c
        acc += c * (k + 1.0) ** (-s)
        b *= (k + n) * (k - n) / ((k + 0.5) * (k + 1.0))
    return acc / d


def zeta(s):
    """Riemann zeta on (-1, 2) \\ {1}.

    (0, 2): eta series, zeta = eta(s) / (1 - 2^{1-s}) with the 1 - 2^{1-s}
    factor through expm1 to stay stable near s = 1.  (-1, 0]: functional
    equation against zeta(1 - s) with 1 - s in [1, 2).
    """
    if not (is_real(s) and -1.0 < s < 2.0 and s != 1.0):
        raise DomainError(f"zeta implemented on (-1, 2) excluding 1, got {s!r}")
    s = float(s)
    if s > 0.0:
        return _eta(s) / (-math.expm1((1.0 - s) * math.log(2.0)))
    if s == 0.0:
        return -0.5
    return (
        2.0 ** s
        * math.pi ** (s - 1.0)
        * math.sin(0.5 * math.pi * s)
        * math.gamma(1.0 - s)
        * zeta(1.0 - s)
    )


def gamma(s):
    """Euler Gamma on (-1, 1) \\ {0} (the range the power-law kernels need)."""
    if not (is_real(s) and -1.0 < s < 1.0 and s != 0.0):
        raise DomainError(f"gamma implemented on (-1, 1) excluding 0, got {s!r}")
    s = float(s)
    return math.gamma(s)
