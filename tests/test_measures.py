"""Measure families: kernel superpositions f_mu, dilation, CSV loading."""

import math
import os
import re
import tempfile
import warnings

import mpmath
import numpy as np
import pytest

from extremal import forms, kernels, measures, periodic, polybound, specfun, superposed
from extremal.errors import AdmissibilityError, DomainError

_GAMMA_M05 = -3.5449077018110321   # Gamma(-1/2), mpmath 1.3.0


def _families():
    return [
        measures.HaarLog(),
        measures.PowerLaw(0.5),
        measures.PowerLaw(1.5),
        measures.Atomic((0.5, 1.0, 3.0), (0.2, 1.0, 0.7)),
        measures.Weight(lambda lam: np.exp(-lam)),
    ]


def test_haar_f_values():
    mu = measures.HaarLog()
    assert mu.f(1.0) == 0.0
    assert abs(mu.f(2.0) + math.log(2.0)) <= 1e-15
    assert mu.f(-2.0) == mu.f(2.0)
    assert mu.f(0.0) == math.inf


def test_power_law_f_values():
    # f(x) = Gamma(1-sigma) * (|x|^{sigma-1} - 1); Gamma(-1/2) < 0 keeps it
    # decreasing for sigma = 3/2
    mu = measures.PowerLaw(1.5)
    assert abs(mu.f(4.0) - _GAMMA_M05 * (2.0 - 1.0)) <= 1e-12
    assert abs(mu.f(0.0) - (-_GAMMA_M05)) <= 1e-12   # finite at 0 for sigma > 1
    mu = measures.PowerLaw(0.5)
    assert mu.f(0.0) == math.inf
    assert mu.f(1.0) == 0.0


def test_atomic_f_is_the_finite_sum():
    pts, ws = (0.5, 2.0), (1.0, 0.25)
    mu = measures.Atomic(pts, ws)
    x = 1.7
    expect = sum(w * (math.exp(-l * x) - math.exp(-l))
                 for l, w in zip(pts, ws))
    assert abs(mu.f(x) - expect) <= 1e-15
    assert mu.f(0.0) == pytest.approx(
        sum(w * (1.0 - math.exp(-l)) for l, w in zip(pts, ws)), abs=1e-15)


# |x| from 1e-6 to the series' limit 1.05e6, and 1 -+ [1e-12, 0.4]
_NEAR_ONE = np.outer([-1.0, 1.0], np.geomspace(1e-12, 0.4, 30)).ravel() + 1.0


@pytest.mark.parametrize("sigma", [0.2, 0.5, 0.7, 1.3, 1.5, 1.9, 1.99])
def test_power_law_f_has_full_relative_accuracy(sigma):
    # kappa Gamma(1-sigma) expm1((sigma-1) log|x|): |x|^(sigma-1) - 1 would
    # cancel near |x| = 1, to 2.2e-4 relative at 1 + 1e-12
    mu = measures.PowerLaw(sigma)
    xs = np.concatenate([np.geomspace(1e-6, 1.05e6, 200), _NEAR_ONE])
    with mpmath.workdps(40):
        s = mpmath.mpf(sigma)
        ref = np.array([float(mpmath.gamma(1 - s) * (mpmath.mpf(x) ** (s - 1) - 1))
                        for x in xs])
    for got in (mu.f(xs), mu.f_derivs(xs)[0]):
        assert np.max(np.abs(got / ref - 1.0)) <= 4e-15


def test_atomic_f_has_full_relative_accuracy_near_one():
    # the atom sum of the base ladder, e^{-lam a} - e^{-lam} without
    # cancellation: a difference of exponentials read 2.1e-5 at 1 + 1e-12
    mu = measures.Atomic((0.5, 1.0, 3.0), (0.2, 1.0, 0.7))
    xs = np.outer([-1.0, 1.0], 10.0 ** -np.arange(3, 13)).ravel() + 1.0
    with mpmath.workdps(40):
        ref = np.array([float(sum(w * (mpmath.exp(-lam * mpmath.mpf(x)) - mpmath.exp(-lam))
                                  for lam, w in zip(mu.points, mu.weights)))
                        for x in xs])
    for got in (mu.f(xs), mu.f_derivs(xs)[0]):
        assert np.max(np.abs(got / ref - 1.0)) <= 1e-14


def test_weight_f_matches_quadrature():
    mu = measures.Weight(lambda lam: np.exp(-lam))
    # int_0^inf e^-lam (e^{-lam x} - e^-lam) dlam = 1/(1+x) - 1/2
    for x in (0.5, 1.0, 3.0):
        assert abs(mu.f(x) - (1.0 / (1.0 + x) - 0.5)) <= 1e-9


def test_evenness_and_monotonicity():
    xs = np.linspace(0.05, 8.0, 60)
    for mu in _families():
        fx = np.array([float(mu.f(float(x))) for x in xs])
        fneg = np.array([float(mu.f(float(-x))) for x in xs])
        assert np.array_equal(fx, fneg)
        assert np.all(np.diff(fx) < 1e-12)   # nonincreasing in |x|


def test_classify():
    assert measures.HaarLog().classify() == measures.Admissibility(True, False)
    assert measures.PowerLaw(0.5).classify().cond47 is False
    assert measures.PowerLaw(1.5).classify().cond47 is True
    assert measures.Atomic((1.0,), (1.0,)).classify().cond47 is True
    assert measures.Weight(lambda lam: np.exp(-lam)).classify().cond47 is True


def test_weight_divergent_mass_rejected():
    # density ~ 1/lam^2 near 0 has no finite minorant moment
    w = measures.Weight(lambda lam: 1.0 / np.asarray(lam) ** 2)
    with np.errstate(over="ignore"), pytest.raises(AdmissibilityError):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            w.classify()


@pytest.mark.parametrize("delta", [0.5, 2.0])
def test_dilation_identity(delta):
    """f_nu(x) = f_mu(x/delta) - f_mu(1/delta) for nu = mu.dilate(delta)."""
    for mu in _families():
        nu = mu.dilate(delta)
        shift = mu.f(1.0 / delta)
        for x in (0.3, 1.0, 2.6, 9.0):
            lhs = nu.f(x)
            rhs = mu.f(x / delta) - shift
            assert abs(lhs - rhs) <= 1e-9 * (1.0 + abs(rhs))


def test_dilate_validation():
    with pytest.raises(DomainError):
        measures.HaarLog().dilate(0.0)
    with pytest.raises(DomainError):
        measures.HaarLog().dilate(-2.0)


def test_power_law_sigma_domain():
    for bad in (0.0, 1.0, 2.0, 2.5, -0.3):
        with pytest.raises(DomainError):
            measures.PowerLaw(bad)


def test_atomic_validation():
    with pytest.raises(DomainError):
        measures.Atomic((), ())
    with pytest.raises(DomainError):
        measures.Atomic((1.0, 0.5), (1.0, 1.0))     # not increasing
    with pytest.raises(DomainError):
        measures.Atomic((1.0, 2.0), (1.0, -1.0))    # negative weight


@pytest.mark.parametrize("bp", [(2.0, 1.0), (1.0,), (), (-1.0, 1.0), (0.5, 0.5, 1.0),
                                (0.0, math.inf), (math.nan, 1.0)], ids=repr)
def test_weight_breakpoints_validation(bp):
    # each of these used to integrate silently to a wrong number
    with pytest.raises(DomainError, match="breakpoints"):
        measures.Weight(np.ones_like, breakpoints=bp)


def test_weight_breakpoints_from_zero_are_accepted():
    mu = measures.Weight(np.ones_like, breakpoints=(0, 1, 2.5))
    assert mu.breakpoints == (0.0, 1.0, 2.5)
    assert abs(measures.integrate(np.ones_like, mu).value - 2.5) <= 1e-12


def test_integrate_dispatch():
    mu = measures.Atomic((1.0, 2.0), (0.5, 0.25))
    res = measures.integrate(lambda lam: lam, mu)
    assert res.value == pytest.approx(1.0, abs=1e-14)
    haar = measures.integrate(
        lambda lam: np.exp(-lam) - np.exp(-3.0 * lam), measures.HaarLog(),
        tol=1e-12)
    assert abs(haar.value - math.log(3.0)) <= 1e-10


@pytest.mark.parametrize("g", [lambda lam: np.ones((2, 2, 2)), lambda lam: np.ones(3),
                               lambda lam: np.float64(1.0)],
                         ids=["three-axes", "wrong-length", "scalar"])
def test_an_atom_sum_follows_the_integrand_contract(g):
    # the shapes refine refuses are refused by the atom sum too, by name
    with pytest.raises(DomainError, match="integrand returned shape"):
        measures.integrate(g, measures.Atomic((1.0, 2.0), (1.0, 1.0)))


def _write(tmpdir, name, text):
    path = os.path.join(tmpdir, name)
    with open(path, "w") as fh:
        fh.write(text)
    return path


def test_atomic_csv_round_trip():
    with tempfile.TemporaryDirectory() as td:
        path = _write(td, "m.csv", "lambda,weight\n0.5,1.0\n2.0,0.25\n")
        mu = measures.atomic_from_csv(path)
        lams, ws = mu.atoms
        assert np.array_equal(lams, [0.5, 2.0])
        assert np.array_equal(ws, [1.0, 0.25])


def test_weight_csv_piecewise_density():
    with tempfile.TemporaryDirectory() as td:
        path = _write(td, "w.csv", "lambda,weight\n1.0,2.0\n3.0,1.0\n4.0,0.5\n")
        mu = measures.weight_from_csv(path)
        # total mass: 2*(3-1) + 1*(4-3) = 5
        res = measures.integrate(lambda lam: np.ones_like(lam), mu, tol=1e-10)
        assert abs(res.value - 5.0) <= 1e-8


def test_measure_csv_validation():
    cases = [
        "lam,weight\n1.0,1.0\n",               # wrong header
        "lambda,weight\n1.0,1.0\n0.5,1.0\n",   # not increasing
        "lambda,weight\n-1.0,1.0\n",           # nonpositive lambda
        "lambda,weight\n1.0,0.0\n",            # nonpositive weight
        "lambda,weight\n1.0,abc\n",            # non-numeric
        "lambda,weight\n",                      # no rows
    ]
    with tempfile.TemporaryDirectory() as td:
        for i, text in enumerate(cases):
            path = _write(td, f"bad{i}.csv", text)
            with pytest.raises(DomainError):
                measures.atomic_from_csv(path)


def test_parse_error_carries_line_number():
    with tempfile.TemporaryDirectory() as td:
        path = _write(td, "bad.csv", "lambda,weight\n1.0,1.0\n2.0,xyz\n")
        with pytest.raises(DomainError, match=":3:"):
            measures.atomic_from_csv(path)


# every CSV reader of the package, with its header and one good row
READERS = [(measures.atomic_from_csv, "lambda,weight", "1.0,2.0"),
           (forms.points_from_csv, "xi,re,im", "0.0,1.0,0.0"),
           (polybound.roots_from_csv, "re,im", "1.0,0.0")]


@pytest.mark.parametrize("read,header,good", READERS,
                         ids=["measure", "points", "roots"])
@pytest.mark.parametrize("case", ["header", "width", "number", "empty"])
def test_csv_readers_reject_bad_input_naming_the_line(tmp_path, read, header,
                                                      good, case):
    bad = {"header": f"x{header}\n{good}\n",
           "width": f"{header}\n{good}\n{good},1.0\n",
           "number": f"{header}\n{good}\n{good[:-1]}z\n",
           "empty": f"{header}\n\n"}[case]
    path = tmp_path / "bad.csv"
    path.write_text(bad)
    where = {"header": f"{path}: expected header '{header}'",
             "empty": f"{path}: no data rows"}.get(case, f"{path}:3: ")
    with pytest.raises(DomainError, match=re.escape(where)):
        read(str(path))


@pytest.mark.parametrize("delta", [np.int64(2), np.float64(2.0)], ids=repr)
def test_dilate_accepts_numpy_scalars(delta):
    for mu in (measures.PowerLaw(0.5), measures.Atomic((1.0, 3.0), (0.5, 2.0))):
        assert mu.dilate(delta) == mu.dilate(2.0)


# one numeric argument of each validating entry point, as a function of it
_NUMERIC_ARGUMENTS = {
    "rate": lambda v: kernels.minorant_values(v, 0.3),
    "dilation": lambda v: superposed.Minorant(measures.HaarLog(), v),
    "power-sigma": lambda v: measures.PowerLaw(v),
    "degree": lambda v: periodic.trig_minorant_l(1.0, v),
    "witness-N": lambda v: forms.sharpness_witness(measures.HaarLog(), 1.0, v),
    "hls-sigma": lambda v: forms.hls_constants(v),
    "hls-gamma-sigma": lambda v: forms.hls_gamma_route(v),
    "et-N": lambda v: polybound.disk_sup_bound([0.5], v),
    "oracle-samples": lambda v: polybound.sup_log_oracle([0.5], v),
    "zeta": specfun.zeta,
    "gamma": specfun.gamma,
    "hurwitz-s": lambda v: specfun.hurwitz_zeta(v, 1.0),
    # the rate rule takes arrays too, and a bool in any shape is refused
    "eval_p-rate": lambda v: kernels.eval_p(v, 0.3),
    "defect-rate": specfun.defect_minorant,
    "majorant-defect-rate": specfun.defect_majorant,
    "defect-at-point-rate": lambda v: kernels.KernelDefectAtPoint(0.3)(v),
    "defect-at-point-rate-array":
        lambda v: kernels.KernelDefectAtPoint(np.array([0.3, 2.0]))(v),
    "Lhat-rate-array": lambda v: kernels.eval_Lhat(np.array([v, v]), 0.3),
    "rate-0d-array": lambda v: kernels.minorant_values(np.array(v), 0.3),
}


@pytest.mark.parametrize("value", [True, False])
@pytest.mark.parametrize("call", list(_NUMERIC_ARGUMENTS.values()),
                         ids=list(_NUMERIC_ARGUMENTS))
def test_a_bool_is_not_a_number(call, value):
    with pytest.raises(DomainError):
        call(value)


# the entry points that take one rate, each as a function of it
_ONE_RATE = {
    "eval_L": lambda lam: kernels.eval_L(lam, 0.3).value,
    "eval_M": lambda lam: kernels.eval_M(lam, 0.3).value,
    "minorant_values": lambda lam: kernels.minorant_values(lam, np.array([0.5, 1.0])),
    "majorant_values": lambda lam: kernels.majorant_values(lam, [1.0]),
    "trig_minorant_l": lambda lam: periodic.trig_minorant_l(lam, 3).coeffs,
    "trig_majorant_m": lambda lam: periodic.trig_majorant_m(lam, 3).coeffs,
}


@pytest.mark.parametrize("lam", [[0.5, 1.0], np.array([1.0, 2.0]), np.array([0.7])],
                         ids=["list", "array", "one-element-array"])
@pytest.mark.parametrize("call", list(_ONE_RATE.values()), ids=list(_ONE_RATE))
def test_a_one_rate_entry_point_refuses_an_array_of_rates(call, lam):
    with pytest.raises(DomainError, match="one rate"):
        call(lam)
    assert np.array_equal(call(np.array(0.7)), call(0.7))


def test_a_numpy_float32_is_a_real_number():
    assert measures.PowerLaw(np.float32(0.5)) == measures.PowerLaw(0.5)
    assert forms.hls_constants(np.float32(1.5)) == forms.hls_constants(1.5)
    assert forms.hls_gamma_route(np.float32(0.5)) == forms.hls_gamma_route(0.5)
    assert specfun.zeta(np.float32(0.5)) == specfun.zeta(0.5)
    assert specfun.hurwitz_zeta(np.float32(0.5), 1.0) == specfun.zeta(0.5)
