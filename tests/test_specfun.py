"""Special-function checks against high-precision fixture values and mpmath."""

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from extremal import kernels, specfun
from extremal.errors import DomainError

# Reference values computed once with mpmath 1.3.0 at 40 decimal digits:
# defect_minorant = 2/lam - csch(lam/2), defect_majorant = coth(lam/2) - 2/lam.
_DEFECT_CASES = [
    (1e-9, 8.3333333333333333e-11, 1.6666666666666667e-10),
    (1e-6, 8.3333333333330903e-8, 1.6666666666666389e-7),
    (1e-3, 8.3333330902777842e-5, 0.00016666666388888896),
    (0.01, 0.00083333090278418484, 0.0016666638888955026),
    (0.05, 0.0041663628672430554, 0.0083329861317778089),
    (0.1, 0.0083309034183214392, 0.016663889550099248),
    (0.2, 0.016647242703890362, 0.033311132253989610),
    (0.25, 0.020795418371915586, 0.041623328375596928),
    (0.3, 0.024934530334000561, 0.049925160353498538),
    (0.5, 0.041364836697999640, 0.082988165073596568),
    (0.75, 0.061489597770119153, 0.12384360213802036),
    (1.0, 0.080965248665056281, 0.16395341373865285),
    (1.5, 0.11725689810638279, 0.24110050024440316),
    (2.0, 0.14908187176067845, 0.31303528549933130),
    (3.0, 0.19702422607144208, 0.43812472631584524),
    (5.0, 0.23471633014490444, 0.61356730981260846),
    (8.0, 0.21335642967413439, 0.75067115040168249),
    (13.0, 0.15083926866364770, 0.84615836682287832),
    (20.0, 0.099909200140287878, 0.90000000412230725),
    (50.0, 0.039999999972224112, 0.96000000000000000),
    (100.0, 0.020000000000000000, 0.98000000000000000),
    (700.0, 0.0028571428571428571, 0.99714285714285714),
]

# mpmath 1.3.0 zeta/gamma at the same precision.
_ZETA_CASES = [
    (-0.9, -0.10119350398535189),
    (-0.5, -0.20788622497735457),
    (-0.25, -0.32045126422857728),
    (0.0, -0.5),
    (0.25, -0.81327840526189166),
    (0.5, -1.4603545088095868),
    (0.75, -3.4412853869452229),
    (0.9, -9.4301140194022524),
    (1.1, 10.584448464950810),
    (1.25, 4.5951118258429434),
    (1.5, 2.6123753486854883),
    (1.75, 1.9623200994513420),
    (1.9, 1.7497464351250608),
    (1.99, 1.6544100235290304),
]
# gamma is only offered on (-1, 1) \ {0}: the Gamma(1 - sigma) range that
# the power-law measures need.
_GAMMA_CASES = [
    (-0.9, -10.570564109631924),
    (-0.75, -4.8341465442958777),
    (-0.5, -3.5449077018110321),
    (-0.25, -4.9016668098607106),
    (-0.1, -10.686287021193194),
    (0.1, 9.5135076986687318),
    (0.25, 3.6256099082219083),
    (0.5, 1.7724538509055160),
    (0.75, 1.2254167024651776),
    (0.9, 1.0686287021193194),
]


@pytest.mark.parametrize("lam,dm,dM", _DEFECT_CASES)
def test_defects_match_reference(lam, dm, dM):
    scale = max(1.0, abs(dm))
    assert abs(specfun.defect_minorant(lam) - dm) <= 1e-11 * scale
    scale = max(1.0, abs(dM))
    assert abs(specfun.defect_majorant(lam) - dM) <= 1e-11 * scale


def test_defects_match_mpmath_to_rounding():
    """One series below the switch and the direct formula above, both within
    1e-15 relative of mpmath from lam = 1e-300 to 1e4; the 2/lam cancellation
    needs about twice the bits of lam's exponent on top of the working digits."""
    lams = np.geomspace(1e-300, 1e4, 1500)
    lams = np.concatenate([lams, np.linspace(0.2, 6.0, 300)])
    got = specfun.defect_minorant(lams), specfun.defect_majorant(lams)
    for i, lam in enumerate(lams.tolist()):
        with mpmath.workprec(120 + 2 * max(0, -math.frexp(lam)[1])):
            rate = mpmath.mpf(lam)
            dm = 2 / rate - mpmath.csch(rate / 2)
            dM = mpmath.coth(rate / 2) - 2 / rate
            assert abs(got[0][i] - dm) <= 1e-15 * dm, lam
            assert abs(got[1][i] - dM) <= 1e-15 * dM, lam


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.floats(math.log(1e-300), math.log(700.0)).map(math.exp))
def test_the_defects_are_p_at_its_touching_points(lam):
    # p(lam, 0) and -p(lam, 1/2), bit for bit, for a scalar and an array
    assert kernels.eval_p(lam, 0.0) == specfun.defect_majorant(lam)
    assert kernels.eval_p(lam, 0.5) == -specfun.defect_minorant(lam)
    lams = np.array([lam, 2.0 * lam])
    assert np.array_equal(kernels.eval_p(lams, 0.0), specfun.defect_majorant(lams))
    assert np.array_equal(kernels.eval_p(lams, 0.5), -specfun.defect_minorant(lams))


def test_defect_branch_consistency():
    """The small-rate series agrees with the closed forms to 1e-12 on
    lam in [0.15, 0.4]."""
    for lam in np.linspace(0.15, 0.4, 101):
        lam = float(lam)
        closed_m = 2.0 / lam - 1.0 / math.sinh(lam / 2.0)
        closed_M = 1.0 / math.tanh(lam / 2.0) - 2.0 / lam
        assert abs(specfun.defect_minorant(lam) - closed_m) <= 1e-12
        assert abs(specfun.defect_majorant(lam) - closed_M) <= 1e-12


def test_each_rate_takes_its_own_branch_alone():
    """Rates on both sides of _SERIES_SWITCH, in one array, as floats and
    as arrays of one branch: each has the bits of its branch's formula, so
    neither branch is evaluated at (or warns for) the other's rates."""
    switch = specfun._SERIES_SWITCH
    lams = np.concatenate([np.geomspace(1e-300, switch, 200, endpoint=False),
                           [np.nextafter(switch, 0.0), switch, np.nextafter(switch, 9.0)],
                           np.geomspace(switch, 1e300, 200)])
    small = lams < switch
    y = 0.5 * lams[small]
    acc = 0.0
    for c in reversed(specfun._SINH_SERIES):
        acc = acc * y * y + c
    series = y * acc * (y / np.sinh(y))
    big = lams[~small]
    direct = 2.0 / big - 2.0 * np.exp(-0.5 * big) / -np.expm1(-big)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mixed = specfun.defect_minorant(lams)
        alone = [specfun.defect_minorant(lams[small]), specfun.defect_minorant(big)]
        floats = np.array([specfun.defect_minorant(float(lam)) for lam in lams])
    for got in (mixed, np.concatenate(alone), floats):
        assert got[small].tobytes() == series.tobytes()
        assert got[~small].tobytes() == direct.tobytes()


def test_defect_positivity_ordering_monotonicity():
    lams = np.logspace(-12, 3, 400)
    dm = np.array([specfun.defect_minorant(float(l)) for l in lams])
    dM = np.array([specfun.defect_majorant(float(l)) for l in lams])
    assert np.all(dm > 0.0)
    assert np.all(dm < dM)
    assert np.all(np.diff(dM) > 0.0)
    # the minorant defect peaks near lam ~ 5.6 and is monotone before that
    assert np.all(np.diff(dm[lams < 5.0]) > 0.0)


def test_defect_majorant_limit():
    assert abs(specfun.defect_majorant(1e3) - (1.0 - 2e-3)) <= 1e-12
    assert specfun.defect_minorant(1e-12) <= 1e-12


def test_majorant_defect_and_p_past_the_floats_raise_naming_the_rate():
    """The majorant defect (about lam/6, 1.7e-321 at lam = 1e-320), p and j
    are finite, but 1/(1 - e^{-lam}) leaves the floats below lam ~ 5.6e-309:
    one DomainError naming the first such rate, and no warning.  At a rate
    just above, the values are those of the unchecked formulas, bit for bit."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=r"^defect_majorant leaves the floats at lam = 1e-320$"):
            specfun.defect_majorant(1e-320)
        with pytest.raises(DomainError, match=r"at lam = 1e-315$"):
            specfun.defect_majorant(np.array([1.0, 1e-315, 1e-320]))
        with pytest.raises(DomainError, match=r"^j leaves the floats at lam = 1e-310$"):
            kernels.eval_j(np.array([[1.0], [1e-310]]), np.array([0.25, 0.5]))
        with pytest.raises(DomainError, match=r"^p leaves the floats at lam = 1e-310$"):
            kernels.eval_p(1e-310, 0.0)
        lam = 5.6e-309
        x = np.linspace(0.0, 1.0, 9)
        assert specfun.defect_majorant(lam) == 9.33333333333334e-310
        for k, fn in enumerate((kernels.eval_p, kernels.eval_j)):
            got, ref = fn(lam, x), kernels._periodized(lam, x, (k,))[0]
            assert got.tobytes() == ref.tobytes() and np.all(np.isfinite(got))


@pytest.mark.parametrize("s,val", _ZETA_CASES)
def test_zeta_reference(s, val):
    assert abs(specfun.zeta(s) - val) <= 1e-11 * max(1.0, abs(val))


def test_zeta_domain():
    with pytest.raises(DomainError):
        specfun.zeta(1.0)
    with pytest.raises(DomainError):
        specfun.zeta(2.5)
    with pytest.raises(DomainError):
        specfun.zeta(-1.5)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.floats(-1.0, 2.0, exclude_min=True, exclude_max=True).filter(
           lambda s: abs(s - 1.0) >= 1e-3),
       st.floats(1e-3, 50.0))
def test_hurwitz_zeta_matches_mpmath(s, a):
    # mpmath reflects s < 0 through 1 - s, which needs the bits of a tiny s
    with mpmath.workprec(100 + max(0, -math.frexp(s)[1])):
        ref = float(mpmath.zeta(s, a))
    assert abs(specfun.hurwitz_zeta(s, a) - ref) <= 1e-13 * max(1.0, abs(ref))


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("a", [1e-3, 0.5, 1.0, 40.5])
def test_hurwitz_zeta_at_the_integers_of_the_period_tail(k, a):
    ref = float(mpmath.zeta(k, a))
    assert abs(specfun.hurwitz_zeta(k, a) - ref) <= 1e-13 * ref


def test_hurwitz_zeta_array_is_the_scalar_call():
    a = np.array([[0.0, 0.25], [0.5, 7.0]])
    got = specfun.hurwitz_zeta(-0.5, a)
    assert got.shape == a.shape
    assert got.tolist() == [[specfun.hurwitz_zeta(-0.5, float(v)) for v in row]
                            for row in a]
    # at a = 0 the k = 0 term 0^0.5 is 0
    assert got[0, 0] == pytest.approx(specfun.zeta(-0.5), rel=1e-14)
    assert isinstance(specfun.hurwitz_zeta(0.5, 0.25), float)


@pytest.mark.parametrize("s,a", [(1.0, 0.5), (math.nan, 0.5), (math.inf, 0.5),
                                 (0.5, -0.1), (-0.5, np.array([0.5, -1e-300])),
                                 (0.5, math.nan), (0.5, 0.0), (1.5, np.array([1.0, 0.0])),
                                 (0.5, True), (-0.5, np.array([True, False]))])
def test_hurwitz_zeta_domain(s, a):
    with pytest.raises(DomainError):
        specfun.hurwitz_zeta(s, a)


@pytest.mark.parametrize("s,val", _GAMMA_CASES)
def test_gamma_reference(s, val):
    assert abs(specfun.gamma(s) - val) <= 1e-11 * max(1.0, abs(val))


def test_gamma_poles():
    for s in (0.0, -1.0, -2.0):
        with pytest.raises(DomainError):
            specfun.gamma(s)


def test_defect_domain():
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            specfun.defect_minorant(bad)
        with pytest.raises(DomainError):
            specfun.defect_majorant(bad)
