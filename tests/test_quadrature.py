"""Adaptive quadrature battery: known integrals, error honesty, divergence."""

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from extremal import kernels, measures, quadrature, verify
from extremal.errors import ConvergenceError, DivergenceError, DomainError
from oracles import transform_moment

# (integrand, a, b, exact value) for the finite-interval battery
_FINITE_CASES = [
    (lambda x: x ** 2, 0.0, 1.0, 1.0 / 3.0),
    (lambda x: np.exp(x), -1.0, 1.0, math.e - 1.0 / math.e),
    (lambda x: 1.0 / np.sqrt(x), 0.0, 1.0, 2.0),
    (lambda x: np.log(x), 0.0, 1.0, -1.0),
    (lambda x: x ** -0.9, 0.0, 1.0, 10.0),
    (lambda x: np.sin(x), 0.0, 10.0 * math.pi, 0.0),
    (lambda x: np.cos(50.0 * x), 0.0, 1.0, math.sin(50.0) / 50.0),
    (lambda x: 1.0 / (1.0 + 25.0 * x * x), -1.0, 1.0, 0.4 * math.atan(5.0)),
    (lambda x: np.sqrt(np.abs(x - 0.3)), 0.0, 1.0,
     (0.3 ** 1.5 + 0.7 ** 1.5) / 1.5),
    (lambda x: x * np.exp(-x), 0.0, 30.0, 1.0 - 31.0 * math.exp(-30.0)),
]


@pytest.mark.parametrize("f,a,b,exact", _FINITE_CASES)
def test_finite_battery(f, a, b, exact):
    res = quadrature.integrate_finite(f, a, b, tol=1e-11)
    assert abs(res.value - exact) <= 1e-10
    assert abs(res.value - exact) <= 10.0 * max(res.abs_err_est, 1e-13)
    assert 0 < res.evaluations <= quadrature.DEFAULT_BUDGET


def test_semiinfinite_battery():
    cases = [
        (lambda x: np.exp(-x), 1.0),
        (lambda x: np.exp(-x * x), 0.5 * math.sqrt(math.pi)),
        (lambda x: 1.0 / (1.0 + x * x), 0.5 * math.pi),
        (lambda x: x * x * np.exp(-x), 2.0),
        (lambda x: np.exp(-2.0 * x) * np.cos(x), 0.4),
    ]
    for f, exact in cases:
        res = quadrature.integrate_semiinfinite(f, tol=1e-11)
        assert abs(res.value - exact) <= 1e-9


def test_cos_window_integral_batches_its_panels(monkeypatch):
    """A tapered forward transform: one integrand call per pass, not per panel."""
    calls, results = [], []
    plain = quadrature.refine

    def counting(f, *args, **kwargs):
        def g(x):
            calls.append(np.size(x))
            return f(x)

        results.append(plain(g, *args, **kwargs))
        return results[-1]

    monkeypatch.setattr(quadrature, "refine", counting)
    lam, t = 0.7, 0.45
    ft = verify.cos_window_integral(
        lambda x: np.exp(-lam * np.abs(x)) - kernels.minorant_values(lam, x), t)
    closed = 2.0 * lam / (lam * lam + 4.0 * math.pi ** 2 * t * t)
    assert abs(closed - ft - kernels.eval_Lhat(lam, t)) <= 1e-6
    (res,) = results
    assert sum(calls) == res.evaluations
    assert len(calls) <= res.evaluations / 300


@pytest.mark.parametrize("name, most", [("2-defect-integrals", 2),
                                        ("3-transforms", 2),
                                        ("4-log-majorant", 3)])
def test_whole_line_criteria_take_vector_integrals(name, most, monkeypatch):
    """Criteria 2-4 take each family of integrands as vector integrals: at
    most 2, 2 and 3 quadrature calls, where one scalar integral per rate,
    kind and frequency took 12, 42 and 8 (criterion 3 inverts the closed
    transforms of its 40 columns in one integral)."""
    plain = quadrature.refine
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1])
        return plain(*args, **kwargs)

    monkeypatch.setattr(quadrature, "refine", counting)
    verify.run_criterion(name)
    assert 0 < len(calls) <= most


@pytest.mark.parametrize("name, end, count, most", [
    ("2-defect-integrals", 40.0, 1, 920),
    ("3-transforms", 448.0, 1, 17_000),
    ("4-log-majorant", 448.0, 1, 24_100),
    ("10-et-bounds", 1.0, 1, 620)])
def test_verify_integrals_start_from_their_natural_partitions(
        name, end, count, most, monkeypatch):
    """At seed 7, the integrand evaluations of criterion 2's [0, 40] head
    (unit panels), of criteria 3 and 4's tapered windows on [0, 448] (one
    panel per cycle), each graded toward 0 alone, and of criterion 10's
    vector integral of its 20 Jensen integrands on [0, 1] (periodic, no
    graded end).  From one panel graded at both ends they took 1815,
    28 860, 36 360 and 8580 (the last as 20 scalar integrals; 5640 from
    the unit panel)."""
    plain = quadrature.refine
    evals = []

    def counting(f, edges, *args, **kwargs):
        res = plain(f, edges, *args, **kwargs)
        if edges[-1] == end:
            evals.append(res.evaluations)
        return res

    monkeypatch.setattr(quadrature, "refine", counting)
    verify.run_criterion(name, 7)
    assert len(evals) == count
    assert sum(evals) <= most


@pytest.mark.parametrize("budget", [15, 44, 45, 75, 300, 901, 1500])
def test_budget_is_never_overrun(budget):
    """A pass that would overrun the budget is trimmed to the panels that fit."""
    points = []

    def f(x):
        points.append(np.size(x))
        return np.cos(40.0 * x) / np.sqrt(x)

    try:
        res = quadrature.integrate_finite(f, 0.0, 1.0, tol=1e-12, budget=budget)
    except ConvergenceError as exc:
        assert math.isfinite(exc.estimate) and exc.err_estimate > 0.0
        assert abs(exc.estimate - 0.21699344350153) <= 10.0 * exc.err_estimate + 1e-9
    else:
        assert res.evaluations <= budget
        assert abs(res.value - 0.21699344350153) <= 1e-9
    assert sum(points) <= max(budget, 15)


def _counting(f):
    calls = []

    def g(x):
        calls.append(np.size(x))
        return f(x)

    return g, calls


def test_an_endpoint_singularity_takes_graded_passes():
    """int_0^1 cos(x)/sqrt(x) = 2 int_0^1 cos(t^2) dt: each pass cuts the
    panel at 0 at 2^-8, ..., 1/2 of its width, so 11 integrand calls reach
    tol (one bisection level a pass took 68)."""
    with mpmath.workdps(30):
        exact = float(2 * mpmath.quad(lambda t: mpmath.cos(t * t), [0, 1]))
    f, calls = _counting(lambda x: np.cos(x) / np.sqrt(x))
    res = quadrature.integrate_finite(f, 0.0, 1.0, tol=1e-10)
    assert abs(res.value - exact) <= 1e-10
    assert len(calls) <= 12 and res.evaluations <= 1500


def test_refine_grades_only_the_ends_its_caller_marks():
    """The same singular end 0 of cos(x)/sqrt(x) on [0, 1]: marked, graded
    passes reach tol in 12 integrand calls; unmarked, its panel is bisected
    like any other, one level a pass, and takes more than 60."""
    with mpmath.workdps(30):
        exact = float(2 * mpmath.quad(lambda t: mpmath.cos(t * t), [0, 1]))
    for graded, fewest, most in (((0.0,), 1, 12), ((), 61, 100)):
        f, calls = _counting(lambda x: np.cos(x) / np.sqrt(x))
        res = quadrature.refine(f, (0.0, 1.0), graded, tol=1e-10)
        assert abs(res.value - exact) <= 1e-10
        assert fewest <= len(calls) <= most


def test_singularities_at_the_interior_edge_of_the_half_line_map():
    """int_0^inf lam^-1/2/(1 + lam) = pi is singular on both sides of u = 0,
    the interior edge of (-1, 0, 1): lam^-1/2 at 0 and |u|^-1/2 from the tail.
    11 integrand calls reach tol (71 took one level a pass)."""
    f, calls = _counting(lambda lam: 1.0 / (np.sqrt(lam) * (1.0 + lam)))
    res = quadrature.integrate_semiinfinite(f, tol=1e-10)
    assert abs(res.value - math.pi) <= 1e-10
    assert len(calls) <= 12 and res.evaluations <= 3000


def test_graded_cuts_and_their_parents():
    """A panel with one end on an edge is cut at 2^-8, ..., 1/2 of its width
    from that end, any other bisected; every child names its own parent."""
    pa, pb = np.array([0.0, 2.0, 5.0]), np.array([1.0, 4.0, 6.0])
    lo, hi, (qa, qb) = quadrature._cut(pa, pb, {0.0, 6.0})
    toward_0 = [0.0] + [2.0 ** -k for k in range(8, 0, -1)] + [1.0]
    toward_6 = [5.0] + [6.0 - 2.0 ** -k for k in range(1, 9)] + [6.0]
    cuts = toward_0 + [2.0, 3.0, 4.0] + toward_6
    assert lo.tolist() == [c for c in cuts[:-1] if c not in (1.0, 4.0)]
    assert hi.tolist() == [c for c in cuts[1:] if c not in (2.0, 5.0)]
    assert qa.tolist() == [0.0] * 9 + [2.0] * 2 + [5.0] * 9
    assert qb.tolist() == [1.0] * 9 + [4.0] * 2 + [6.0] * 9


def test_graded_cuts_drop_points_that_round_onto_their_neighbours():
    """Near 1, w/2^k below half an ulp rounds onto the end: those cut points
    go, and a panel no cut point splits raises DivergenceError."""
    ulp = math.ulp(1.0)
    lo, hi, _ = quadrature._cut(np.array([1.0]), np.array([1.0 + 8 * ulp]), {1.0})
    assert lo.tolist() == [1.0, 1.0 + ulp, 1.0 + 2 * ulp, 1.0 + 4 * ulp]
    assert hi.tolist() == [1.0 + ulp, 1.0 + 2 * ulp, 1.0 + 4 * ulp, 1.0 + 8 * ulp]
    with pytest.raises(DivergenceError, match="float resolution"):
        quadrature._cut(np.array([1.0]), np.array([1.0 + ulp]), {1.0})
    with pytest.raises(DivergenceError, match="float resolution"):
        quadrature._cut(np.array([1.0]), np.array([1.0 + ulp]), set())


def test_zero_width_interval():
    res = quadrature.integrate_finite(lambda x: x, 2.0, 2.0)
    assert res.value == 0.0 and res.evaluations == 0


def test_endpoint_validation():
    with pytest.raises(DomainError):
        quadrature.integrate_finite(lambda x: x, 0.0, math.inf)


def test_divergence_detection():
    # chasing the 1/x singularity into subnormals overflows on purpose
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises((DivergenceError, ConvergenceError)):
            quadrature.integrate_finite(lambda x: 1.0 / x, 0.0, 1.0,
                                        budget=60_000)
        with pytest.raises((DivergenceError, ConvergenceError)):
            quadrature.integrate_semiinfinite(lambda x: 1.0 / (1.0 + x),
                                              budget=60_000)


def test_budget_exhaustion_carries_estimate():
    f = lambda x: np.cos(1e4 * x)
    with pytest.raises(ConvergenceError) as exc:
        quadrature.integrate_finite(f, 0.0, 1.0, tol=1e-14, budget=900)
    assert math.isfinite(exc.value.estimate)
    assert exc.value.err_estimate > 0.0


def test_convergence_error_carries_the_whole_half_line_estimate():
    """Head and mapped tail share one heap, so the estimate covers both."""
    f = lambda x: np.where(x < 1.0, np.cos(300.0 * x), 0.0) + np.exp(-x)
    with pytest.raises(ConvergenceError) as exc:
        quadrature.integrate_semiinfinite(f, tol=1e-13, budget=600)
    assert abs(exc.value.estimate - (1.0 + math.sin(300.0) / 300.0)) <= 1e-3


def test_convergence_error_carries_the_whole_piecewise_estimate():
    """The pieces of a breakpoint weight share one heap and one budget."""
    mu = measures.Weight(np.ones_like, breakpoints=(0.0, 1.0, 2.0))
    g = lambda lam: np.where(lam < 1.0, np.cos(3e4 * lam), 0.0) + np.exp(-lam)
    with pytest.raises(ConvergenceError) as exc:
        measures.integrate(g, mu, tol=1e-13)
    exact = math.sin(3e4) / 3e4 + 1.0 - math.exp(-2.0)
    assert abs(exc.value.estimate - exact) <= 1e-6


def test_cancelling_integrands_stop_at_the_rounding_floor():
    """50 eps int |f| > tol: the summed panel floors exceed 50 eps |int f|,
    and refinement stops at twice them instead of running out of budget."""
    c = np.cos(np.arange(17.0))[::-1]
    res = quadrature.integrate_finite(lambda x: 3.0 * np.polyval(c, x), 0.5, 2.0)
    exact = 3.0 * np.diff(np.polyval(np.polyint(c), [0.5, 2.0]))[0]
    assert abs(res.value - exact) <= res.abs_err_est <= 1e-9
    res = quadrature.integrate_semiinfinite(
        lambda x: 1e5 * (np.exp(-x) - 2.0 * np.exp(-2.0 * x)))
    assert abs(res.value) <= res.abs_err_est <= 1e-8


@pytest.mark.parametrize("t, value", [(2.30e-4, 161745.04765427308),
                                      (1e-4, 564188.7203012803),
                                      (5e-5, 1595768.2582945162)])
def test_half_line_floor_is_shared_by_head_and_tail(t, value):
    """The head holds nearly all of the rounding floor; the tail's small
    truncation error must not stall the one heap."""
    mu = measures.PowerLaw(1.5, 2.0)
    assert transform_moment(mu, "minorant", t) == pytest.approx(value, rel=1e-13)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.floats(-0.9, 3.0, exclude_min=True), st.floats(0.05, 20.0))
def test_semiinfinite_gamma_integrals(b, a):
    """int_0^inf lam^b e^{-a lam} dlam = Gamma(b+1)/a^{b+1} within tol."""
    exact = math.gamma(b + 1.0) / a ** (b + 1.0)
    res = quadrature.integrate_semiinfinite(lambda x: x ** b * np.exp(-a * x))
    assert abs(res.value - exact) <= max(quadrature.DEFAULT_TOL,
                                         50.0 * quadrature._EPS * abs(exact))


def test_haar_invariance():
    """Frullani: int (e^-lam - e^-2lam) dlam/lam = log 2, scale-invariantly."""
    mu = measures.HaarLog()
    base = measures.integrate(
        lambda lam: np.exp(-lam) - np.exp(-2.0 * lam), mu, tol=1e-12).value
    assert abs(base - math.log(2.0)) <= 1e-10
    for c in (0.1, 3.0, 40.0):
        scaled = measures.integrate(
            lambda lam: np.exp(-c * lam) - np.exp(-2.0 * c * lam), mu,
            tol=1e-12).value
        assert abs(scaled - base) <= 1e-10


def test_integrate_measure_atoms():
    mu = measures.Atomic((0.5, 2.0, 7.0), (1.0, 0.25, 0.5))
    res = measures.integrate(lambda lam: lam ** 2, mu)
    assert res.value == pytest.approx(0.25 + 1.0 + 24.5, abs=1e-14)
    assert res.abs_err_est == 0.0


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-10])
def test_tolerance_must_be_finite_and_positive(tol):
    with pytest.raises(DomainError):
        quadrature.integrate_finite(lambda x: np.sin(50.0 * x), 0.0, 1.0, tol=tol)
    with pytest.raises(DomainError):
        quadrature.integrate_semiinfinite(lambda x: np.exp(-x), tol=tol)
    with pytest.raises(DomainError):
        quadrature.integrate_finite(np.exp, 1.0, 1.0, tol=tol)
    with pytest.raises(DomainError):       # an atom sum never reaches refine
        measures.integrate(np.exp, measures.Atomic((1.0,), (1.0,)), tol=tol)


def _mp_reference(alpha, omega, phi, b):
    """mpmath's integral of x^alpha and of cos(omega x + phi) over [0, b]."""
    with mpmath.workdps(20):
        cuts = mpmath.linspace(0, b, 2 + int(omega * b / math.pi))
        power = mpmath.quad(lambda x: x ** alpha, [0, b])
        wave = mpmath.quad(lambda x: mpmath.cos(omega * x + phi), cuts)
        return float(power), float(wave)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(st.floats(-0.8, 2.0), st.floats(1.0, 60.0), st.floats(0.0, 2.0 * math.pi),
       st.floats(0.5, 3.0), st.sampled_from([1e-8, 1e-10, 1e-12]))
def test_matches_mpmath_on_oscillatory_and_endpoint_power_integrands(
        alpha, omega, phi, b, tol):
    """Scalar and two-component integrals within the tolerance asked for."""
    power, wave = _mp_reference(alpha, omega, phi, b)

    def floor(ref):
        return tol + 50.0 * quadrature._EPS * abs(ref)

    res = quadrature.integrate_finite(lambda x: x ** alpha, 0.0, b, tol=tol)
    assert abs(res.value - power) <= floor(power)
    res = quadrature.integrate_finite(lambda x: np.cos(omega * x + phi), 0.0, b, tol=tol)
    assert abs(res.value - wave) <= floor(wave)
    res = quadrature.integrate_finite(
        lambda x: np.stack([x ** alpha, np.cos(omega * x + phi)], axis=1), 0.0, b, tol=tol)
    assert abs(res.value[0] - power) <= floor(power)
    assert abs(res.value[1] - wave) <= floor(wave)
