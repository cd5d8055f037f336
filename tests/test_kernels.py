"""Single-kernel extremal functions: sandwich, interpolation, transforms."""

import functools
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from extremal import kernels, measures, quadrature, specfun, verify
from extremal.errors import DivergenceError, DomainError
from extremal.verify import cos_window_integral
from oracles import transform_moment

PROPS = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@pytest.mark.parametrize("lam", [1e-8, 1e-4, 1e-2, 0.1, 1.0, 10.0])
def test_sandwich(lam):
    """One-sided at every rate, on both branches of the truncation."""
    xs = np.concatenate([np.linspace(-25.0, 25.0, 10_000),
                         np.linspace(-500.0, 500.0, 2001)])
    e = np.exp(-lam * np.abs(xs))
    assert np.min(e - kernels.minorant_values(lam, xs)) >= -1e-11
    assert np.min(kernels.majorant_values(lam, xs) - e) >= -1e-11


@pytest.mark.parametrize("lam", [0.3, 1.0, 4.0])
def test_node_interpolation(lam):
    """Value and slope match the kernel on the interpolation lattices."""
    s = np.arange(0, 12, dtype=float) + 0.5       # minorant: half-integers
    n = np.arange(1, 12, dtype=float)             # majorant: integers
    assert np.max(np.abs(kernels.minorant_values(lam, s)
                         - np.exp(-lam * s))) <= 1e-10
    assert np.max(np.abs(kernels.majorant_values(lam, n)
                         - np.exp(-lam * n))) <= 1e-10
    h = 1e-6
    for x in (0.5, 2.5, 7.5):
        fd = (kernels.minorant_values(lam, x + h)
              - kernels.minorant_values(lam, x - h)) / (2.0 * h)
        assert abs(fd + lam * math.exp(-lam * x)) <= 1e-5 * (1.0 + lam)
    for x in (1.0, 3.0, 8.0):
        fd = (kernels.majorant_values(lam, x + h)
              - kernels.majorant_values(lam, x - h)) / (2.0 * h)
        assert abs(fd + lam * math.exp(-lam * x)) <= 1e-5 * (1.0 + lam)


def test_majorant_value_at_zero():
    # the majorant interpolates at 0 as well: M(lam, 0) = 1
    for lam in (0.2, 1.0, 5.0):
        assert abs(kernels.majorant_values(lam, 0.0) - 1.0) <= 1e-12


def test_evenness_bitwise():
    xs = np.linspace(0.0, 17.3, 257)
    for lam in (0.4, 2.0):
        l1 = kernels.minorant_values(lam, xs)
        l2 = kernels.minorant_values(lam, -xs)
        assert np.array_equal(l1, l2)
        m1 = kernels.majorant_values(lam, xs)
        m2 = kernels.majorant_values(lam, -xs)
        assert np.array_equal(m1, m2)


def _mp_hat(lam, t, majorant):
    """Lhat or Mhat at (lam, t), |t| < 1, from the sinh form in 40 digits."""
    with mpmath.workdps(40):
        lam, t = mpmath.mpf(lam), abs(mpmath.mpf(t))
        sh, ch = mpmath.sinh(lam / 2), mpmath.cosh(lam / 2)
        s, c = abs(mpmath.sin(mpmath.pi * t)), mpmath.cos(mpmath.pi * t)
        c2 = lam / (2 * mpmath.pi) * s
        num = (1 - t) * sh * ch + c2 * c if majorant else (1 - t) * sh * c + c2 * ch
        return float(num / (sh ** 2 + s ** 2))


@pytest.mark.parametrize("kind", ["L", "M"])
def test_transforms_at_rates_whose_square_underflows(kind):
    """Dh ~ (lam/2)^2 at t = 0 underflows below lam ~ 1.5e-154; the
    transforms stay within 1e-14 of mpmath down to lam = 1e-300, with t
    where sin(pi t)^2 underflows too (1e-170) and where it dominates."""
    hat = kernels.eval_Mhat if kind == "M" else kernels.eval_Lhat
    lams = 10.0 ** np.linspace(-300.0, -140.0, 33)
    ts = np.array([0.0, 1e-170, 1e-3, 0.3])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = hat(lams[:, None], ts)
    for i, lam in enumerate(lams):
        for j, t in enumerate(ts):
            want = _mp_hat(lam, t, kind == "M")
            assert abs(got[i, j] - want) <= 1e-14 * want, (lam, t, got[i, j], want)


def test_transform_values_at_zero():
    """that(0) is the integral: csch(lam/2) for L, coth(lam/2) for M."""
    for lam in (0.25, 1.0, 6.0):
        assert abs(kernels.eval_Lhat(lam, 0.0)
                   - 1.0 / math.sinh(lam / 2.0)) <= 1e-13
        assert abs(kernels.eval_Mhat(lam, 0.0)
                   - 1.0 / math.tanh(lam / 2.0)) <= 1e-13
        total = 2.0 / lam
        assert kernels.eval_Lhat(lam, 0.0) == pytest.approx(
            total - specfun.defect_minorant(lam), abs=1e-12)
        assert kernels.eval_Mhat(lam, 0.0) == pytest.approx(
            total + specfun.defect_majorant(lam), abs=1e-12)


def test_transform_support():
    # the band edge |t| = 1 included, where sin(pi t) does not round to 0
    ts = np.array([-2.0, -1.5, -1.0000001, -1.0, 1.0, 1.0000001, 1.2, 5.0])
    for lam in (1e-15, 1e-9, 1.0):
        assert np.all(kernels.eval_Lhat(lam, ts) == 0.0)
        assert np.all(kernels.eval_Mhat(lam, ts) == 0.0)
    assert kernels.eval_Lhat(1e-15, 1.0) == 0.0


def test_transform_remark_bound():
    for lam in 10.0 ** np.linspace(-1, 1, 7):
        ts = np.linspace(-0.999, 0.999, 333)
        cap = 2.0 * lam / (lam * lam + 4.0 * math.pi ** 2 * ts ** 2)
        assert np.min(cap - kernels.eval_Lhat(lam, ts)) >= -1e-12


@pytest.mark.parametrize("lam,t", [(0.5, 0.3), (1.0, 0.7), (2.0, -0.45)])
def test_transform_vs_numeric_ft(lam, t):
    """Forward numeric Fourier integral reproduces the closed forms."""
    exp_ft = 2.0 * lam / (lam * lam + 4.0 * math.pi ** 2 * t * t)
    ft_dl = cos_window_integral(
        lambda x: np.exp(-lam * np.abs(x)) - kernels.minorant_values(lam, x), t)
    assert abs((exp_ft - ft_dl) - kernels.eval_Lhat(lam, t)) <= 1e-6
    ft_dm = cos_window_integral(
        lambda x: kernels.majorant_values(lam, x) - np.exp(-lam * np.abs(x)), t)
    assert abs((exp_ft + ft_dm) - kernels.eval_Mhat(lam, t)) <= 1e-6


@PROPS
@given(st.floats(-2.0, 1.0),
       st.one_of(st.floats(-500.0, 500.0),
                 st.integers(-1000, 1000).map(lambda k: k / 2.0)))
def test_fourier_inversion(log_lam, x):
    """L and M are band-limited: inverting the closed Lhat and Mhat over
    [-1, 1] recovers the series at any rate and point, the nodes included."""
    lam = 10.0 ** log_lam

    def closed(t):
        return (np.stack([kernels.eval_Lhat(lam, t), kernels.eval_Mhat(lam, t)], axis=1)
                * np.cos(2.0 * np.pi * x * t)[:, None])

    inv = 2.0 * quadrature.integrate_finite(closed, 0.0, 1.0, tol=1e-14).value
    assert abs(inv[0] - kernels.minorant_values(lam, x)) <= 1e-14
    assert abs(inv[1] - kernels.majorant_values(lam, x)) <= 1e-14


def test_eval_point_wrappers():
    r = kernels.eval_L(1.0, -2.2)
    assert r.value == pytest.approx(kernels.minorant_values(1.0, 2.2), abs=0.0)
    assert r.tail_bound >= 0.0 and r.tail_bound <= 1e-12
    r = kernels.eval_M(1.0, 2.2)
    assert r.value == pytest.approx(kernels.majorant_values(1.0, 2.2), abs=0.0)


def _cap(lam):
    """K(lam) = ceil(log(1e16)/lam) + 10, the nodes L and M keep at most."""
    return math.ceil(math.log(1e16) / lam) + 10


def test_eval_point_wrappers_bound_the_tail_past_the_last_node():
    """Points past the K(lam) kept nodes: a finite tail bound, the kernel value."""
    r = kernels.eval_L(10.0, 100.5)
    assert r.trunc_terms == _cap(10.0)
    assert math.isfinite(r.tail_bound) and 0.0 < r.tail_bound <= 1e-15
    assert abs(r.value - math.exp(-1005.0)) <= 1e-15
    r = kernels.eval_M(10.0, 100.0)
    assert r.trunc_terms == _cap(10.0)
    assert math.isfinite(r.tail_bound) and 0.0 < r.tail_bound <= 1e-15
    for lam in (0.1, 0.37, 1.0, 10.0):
        for x in (0.0, 3.3, 1e3, 1e9):
            assert kernels.eval_L(lam, x).tail_bound <= 1e-16
            assert kernels.eval_M(lam, x).tail_bound <= 1e-16


@pytest.mark.parametrize("lam", [0.1, 1.0, 10.0])
def test_nodes_past_the_truncation_interpolate(lam):
    """L and M at lattice nodes up to 2000, far past the last kept node."""
    s = np.arange(0, 2000, dtype=float) + 0.5
    n = np.arange(0, 2001, dtype=float)
    assert len(s) > _cap(lam)
    assert np.max(np.abs(kernels.minorant_values(lam, s) - np.exp(-lam * s))) <= 1e-15
    assert np.max(np.abs(kernels.majorant_values(lam, n) - np.exp(-lam * n))) <= 1e-15


def _nsum_series(lam, x, first):
    """L (first = 1/2) or M (first = 1) at x > 0: mpmath's Euler-Maclaurin
    sum of the paired node terms at 20 digits."""
    with mpmath.workdps(20):
        lam, x = mpmath.mpf(lam), mpmath.mpf(x)

        def pair(k):
            s = first + k
            f = mpmath.exp(-lam * s)
            return f * (1 / (x - s) ** 2 + 1 / (x + s) ** 2) - lam * f * (
                1 / (x - s) - 1 / (x + s))

        total = mpmath.nsum(pair, [0, mpmath.inf], method="euler-maclaurin")
        if first == 0.5:
            return float((mpmath.cos(mpmath.pi * x) / mpmath.pi) ** 2 * total)
        return float((mpmath.sin(mpmath.pi * x) / mpmath.pi) ** 2 * (1 / x ** 2 + total))


def _check_tail_bound(lam, x, kept, rounding=0.0):
    """trunc_terms is the count kept of nodes summed directly, and the
    value is within 1e-15 of an mpmath sum and within tail_bound of it up
    to rounding: two ulps of the value, plus ``rounding`` absolute where
    the pairs cancel to far below their size."""
    for ev, first in ((kernels.eval_L, 0.5), (kernels.eval_M, 1.0)):
        r = ev(lam, x)
        assert r.trunc_terms == kept
        assert 0.0 < r.tail_bound <= 1e-12
        err = abs(r.value - _nsum_series(lam, x, first))
        assert err <= min(1e-15, r.tail_bound + 2 * math.ulp(r.value) + rounding)


@pytest.mark.parametrize("lam", [1e-8, 1e-3])
@pytest.mark.parametrize("x", [3.3, 100.7])
def test_small_rates_take_the_horizon_and_the_tail(lam, x):
    """Small rates take the head and the window (32 nodes at 3.3, where the
    window lies inside the head; 63 at 100.7) and the Euler-Maclaurin block
    and tail, not the ~36.8/lam nodes of K(lam); tail_bound bounds their
    remainders."""
    _check_tail_bound(lam, x, 32 if x < 10.0 else 63)


@pytest.mark.parametrize("lam, x, kept, rounding", [
    (0.5, 1000.3, 32, 0.0),                      # the window past the cap K(lam)
    (1.0, 3.3, 47, 0.0),                         # a cap of at most 63 nodes alone
    # pairs of size up to 1e-5 cancel to a value of about 1e-6 here, so
    # their rounding, about 1e-20, is far above tail_bound ~ 6e-26
    (2.0, 100.7, 29, 1e-19),
], ids=["past-cap", "capped-1", "capped-2"])
def test_tail_bound_bounds_the_error_under_a_cap(lam, x, kept, rounding):
    """A point whose window lies past the cap takes the head and one block
    to the cap; a cap of at most 63 nodes is summed alone: tail_bound then
    bounds the dropped pairs (and the block's remainder)."""
    _check_tail_bound(lam, x, kept, rounding)


def test_report_takes_the_horizon_of_the_cell():
    """trunc_terms is the head of 32 nodes and the window of the point's
    nearest node past it: every x of a cell reports the same, 31 window
    nodes far out, fewer where the window reaches into the head."""
    for ev, cell, kept in ((kernels.eval_L, (416.0, 416.3, 416.999), 63),
                           (kernels.eval_M, (416.6, 417.0, 417.4), 63),
                           (kernels.eval_L, (40.0, 40.2, 40.9), 56),
                           (kernels.eval_M, (39.6, 40.0, 40.4), 55)):
        assert [ev(1e-8, x).trunc_terms for x in cell] == [kept] * 3


@pytest.mark.parametrize("lam", [1e-18, 1e-20, 1e-300, 5e-324])
def test_tiny_rates_clamp_the_cap(lam):
    """K(lam) is clamped in floats where it can no longer bind, so no rate
    overflows the node count: L and M read 1 to rounding near 0, and a
    point keeps its head and window at any |x| the series takes."""
    x = np.array([0.0, 0.3, -1.0, 3.3, 7.5])
    assert np.max(np.abs(kernels.minorant_values(lam, x) - 1.0)) <= 1e-15
    assert np.max(np.abs(kernels.majorant_values(lam, x) - 1.0)) <= 1e-15
    assert kernels.eval_L(lam, 3.3).trunc_terms == 32
    assert kernels.eval_M(lam, 3.3).trunc_terms == 32
    assert kernels.eval_L(lam, 1e15).trunc_terms == 63


def test_haar_transform_moment_bounds():
    moment = functools.partial(transform_moment, measures.HaarLog())
    assert moment("minorant", 1.0) == 0.0
    assert moment("minorant", 1.7) == 0.0
    for t in (0.1, 0.4, 0.9):
        v = moment("minorant", t)
        assert 0.0 <= v <= 0.5 / t + 1e-12
    with warnings.catch_warnings(), pytest.raises(DivergenceError):
        warnings.simplefilter("error")      # diverges without a numpy warning
        moment("minorant", 0.0)


def test_defect_at_point_matches_direct():
    """Chebyshev small-lam branch agrees with the node series at every rate,
    and stays positive down to extreme lam."""
    for kind in ("minorant", "majorant"):
        d = kernels.KernelDefectAtPoint(2.2, kind)
        lams = 10.0 ** np.linspace(-8, 1, 40)
        vals = d(lams)
        e = np.exp(-lams * 2.2)
        if kind == "minorant":
            direct = e - np.array([kernels.minorant_values(l, 2.2) for l in lams])
        else:
            direct = np.array([kernels.majorant_values(l, 2.2) for l in lams]) - e
        assert np.max(np.abs(vals - direct)) <= 1e-13
        tiny = d(10.0 ** np.linspace(-8, -2, 25))
        assert np.all(tiny > 0.0)
        assert np.all(vals > 0.0)


defect_rates = st.lists(st.floats(math.log(1e-8), math.log(30.0)).map(math.exp),
                        min_size=1, max_size=6)
defect_points = st.lists(st.one_of(st.integers(-12, 12).map(float),
                                   st.integers(-12, 11).map(lambda k: k + 0.5),
                                   st.floats(-15.0, 15.0)),
                         min_size=1, max_size=6)


@pytest.mark.parametrize("kind", ["minorant", "majorant"])
@PROPS
@given(defect_rates, defect_points)
def test_defect_at_point_array_x_equals_scalar_instances(kind, lams, xs):
    """An array of points gives the per-point defects, on both sides of
    _FIT_RATE, at lattice nodes and at 0."""
    lams = np.array(lams + [1e-8, 0.3, 2.0])
    xs = np.array(xs + [0.0])
    got = kernels.KernelDefectAtPoint(xs, kind)(lams)
    assert got.shape == (lams.size, xs.size)
    for j, x in enumerate(xs):
        ref = kernels.KernelDefectAtPoint(float(x), kind)(lams)
        assert np.max(np.abs(got[:, j] - ref)) <= 1e-13


def test_defect_at_point_shapes_and_scalars():
    d = kernels.KernelDefectAtPoint(np.array([0.5, 1.0, 3.2]), "majorant")
    assert d(np.ones((2, 4))).shape == (2, 4, 3)
    assert d(0.2).shape == (3,)
    assert type(kernels.KernelDefectAtPoint(1.3)(0.7)) is float
    assert type(kernels.KernelDefectAtPoint(1.3)(0.2)) is float
    with pytest.raises(DomainError):
        d(np.array([0.5, 0.0]))
    with pytest.raises(DomainError):
        kernels.KernelDefectAtPoint(1.0, "upper")


def _period_tail_by_loop(f, horizon=64, fit_lo=40, tol=1e-11):
    """integral_with_period_tail with one scalar integral per period."""
    head = quadrature.integrate_finite(f, 0.0, float(fit_lo), tol=tol).value
    ms = np.arange(fit_lo, horizon)
    vals = np.array([
        quadrature.integrate_finite(f, float(m), float(m + 1), tol=tol).value
        for m in ms
    ])
    mid = ms + 0.5
    V = np.vstack([mid ** -2.0, mid ** -3.0, mid ** -4.0]).T
    coef, *_ = np.linalg.lstsq(V, vals, rcond=None)
    tail = float(sum(c * specfun.hurwitz_zeta(k, fit_lo + 0.5)
                     for c, k in zip(coef, (2.0, 3.0, 4.0))))
    return head + tail


@pytest.mark.parametrize("kind", ["minorant", "majorant"])
@pytest.mark.parametrize("lam", [0.5, 1.0, 3.0])
def test_period_tail_vector_integral_equals_period_loop(lam, kind):
    """The criterion-2 integrands give the per-period loop's value, alone
    and as the columns of one (..., 2) integrand of the rates lam and 2 lam."""
    def f(x, rate=lam):
        e = np.exp(-rate * np.abs(x))
        if kind == "minorant":
            return e - kernels.minorant_values(rate, x)
        return kernels.majorant_values(rate, x) - e

    loop = [_period_tail_by_loop(lambda x, r=r: f(x, r)) for r in (lam, 2.0 * lam)]
    assert abs(verify.integral_with_period_tail(f) - loop[0]) <= 1e-12
    both = verify.integral_with_period_tail(
        lambda x: np.stack([f(x), f(x, 2.0 * lam)], axis=-1))
    assert both.shape == (2,)
    assert np.max(np.abs(both - loop)) <= 1e-12


def test_cos_window_integral_of_a_family_equals_the_scalar_calls():
    """An array of frequencies gives each scalar call's value."""
    lam, ts = 0.8, np.array([0.3, -0.65, 1.2])

    def lo(x):
        return np.exp(-lam * np.abs(x)) - kernels.minorant_values(lam, x)

    by_t = cos_window_integral(lo, ts)
    assert by_t.shape == (3,)
    assert np.max(np.abs(by_t - [cos_window_integral(lo, t) for t in ts])) <= 1e-12


def test_lambda_validation():
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            kernels.minorant_values(bad, 1.0)
        with pytest.raises(DomainError):
            kernels.eval_Lhat(bad, 0.5)
