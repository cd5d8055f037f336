"""Adaptive quadrature battery: known integrals, error honesty, divergence."""

import math
import warnings

import numpy as np
import pytest

from extremal import measures, quadrature
from extremal.errors import ConvergenceError, DivergenceError, DomainError

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


def test_scalar_callable_is_wrapped():
    res = quadrature.integrate_finite(math.exp, 0.0, 1.0, tol=1e-12)
    assert abs(res.value - (math.e - 1.0)) <= 1e-11


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
