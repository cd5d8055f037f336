"""Periodized kernels, extremal trig polynomials, and TrigPoly round-trips."""

import json
import math
import os
import tempfile

import numpy as np
import pytest

from extremal import measures, periodic
from extremal.errors import AdmissibilityError, DomainError
from extremal.periodic import TrigPoly

HAAR = measures.HaarLog()
PL05 = measures.PowerLaw(0.5)
PL15 = measures.PowerLaw(1.5)
ATOM = measures.Atomic((0.5, 2.0), (1.0, 0.25))

# frozen closed-form anchors
P_2_0 = 0.31303528549933146          # coth(1) - 1
CSCH_1 = 0.8509181282393216          # 1/sinh(1)
B_PL15 = 1.4738749600452898          # 2*Gamma(-1/2)*zeta(-1/2)


# -- TrigPoly container -----------------------------------------------------

def test_trig_poly_basics():
    tp = TrigPoly(1, (0.5 - 0.25j, 2.0, 0.5 + 0.25j))
    assert tp.mean == 2.0
    assert tp.coeff(-1) == 0.5 - 0.25j
    x = 0.3
    expect = 2.0 + 2.0 * (0.5 * math.cos(2 * math.pi * x)
                          - 0.25 * math.sin(2 * math.pi * x))
    assert abs(tp.evaluate(x) - expect) <= 1e-15
    vals = tp.evaluate(np.array([0.0, 0.25, x]))
    assert vals.shape == (3,)
    assert vals.dtype == float


def test_trig_poly_validation():
    with pytest.raises(DomainError):
        TrigPoly(-1, ())
    with pytest.raises(DomainError):
        TrigPoly(1, (1.0, 2.0))                    # wrong count
    with pytest.raises(DomainError):
        TrigPoly(1, (0.5j, 1.0, 0.5j))             # not conjugate-symmetric
    with pytest.raises(DomainError):
        TrigPoly(0, (1.0,)).coeff(1)


def test_csv_round_trip_is_bit_exact():
    tp = periodic.trig_minorant_l(1.7, 6)
    with tempfile.TemporaryDirectory() as td:
        path = os.path.join(td, "poly.csv")
        tp.to_csv(path)
        back = TrigPoly.from_csv(path)
    assert back.degree == tp.degree
    assert all(a == b for a, b in zip(back.coeffs, tp.coeffs))


def test_json_round_trip_is_bit_exact():
    tp = TrigPoly(2, (0.1 - 0.7j, 0.5 + 0.25j, 2.0, 0.5 - 0.25j, 0.1 + 0.7j))
    back = TrigPoly.from_json_obj(tp.to_json_obj())
    assert back.coeffs == tp.coeffs
    with tempfile.TemporaryDirectory() as td:
        path = os.path.join(td, "poly.json")
        tp.to_json(path)
        with open(path) as fh:
            obj = json.load(fh)
        assert TrigPoly.from_json_obj(obj).coeffs == tp.coeffs


def test_csv_parse_errors():
    cases = [
        "k,re,im\n0,1.0,0.0\n",                      # header
        "n,re,im\n0,1.0,0.0\n2,0.5,0.0\n-2,0.5,0.0\n",  # gap at +-1
        "n,re,im\n",                                  # empty
        "n,re,im\n4611686018427387904,1.0,0.0\n",     # |n| = 2**62: count, not list
    ]
    with tempfile.TemporaryDirectory() as td:
        for i, text in enumerate(cases):
            path = os.path.join(td, f"bad{i}.csv")
            with open(path, "w") as fh:
                fh.write(text)
            with pytest.raises(DomainError):
                TrigPoly.from_csv(path)


def test_csv_reads_a_whole_float_n_as_json_does(tmp_path):
    path = tmp_path / "poly.csv"
    path.write_text("n,re,im\n-1.0,0.5,0.25\n0,2,0\n1.0,0.5,-0.25\n")
    obj = {"degree": 1, "coeffs": [{"n": n, "re": re, "im": im} for n, re, im in
                                   [(-1.0, 0.5, 0.25), (0, 2, 0), (1.0, 0.5, -0.25)]]}
    assert TrigPoly.from_csv(str(path)) == TrigPoly.from_json_obj(obj)
    with pytest.raises(DomainError):
        TrigPoly.from_json_obj(dict(obj, degree=2 ** 62))


@pytest.mark.parametrize("rows,line", [
    ("-1,.5,0\n0,1,0\n0,7,0\n1,.5,0\n", 4),      # duplicated n = 0
    ("-1,.5,0\n0,one,0\n1,.5,0\n", 3),           # non-numeric cell
    ("-1,.5,0\n0.5,1,0\n1,.5,0\n", 3),           # non-integer n
])
def test_csv_bad_rows_name_their_line(tmp_path, rows, line):
    path = tmp_path / "bad.csv"
    path.write_text("n,re,im\n" + rows)
    with pytest.raises(DomainError, match=f"{path}:{line}: "):
        TrigPoly.from_csv(str(path))


@pytest.mark.parametrize("entries,index", [
    ([(-1, 0.5), (0, 1.0), (0, 7.0), (1, 0.5)], 2),
    ([(-1, 0.5), (0, "one"), (1, 0.5)], 1),
    ([(-1, 0.5), (0.5, 1.0), (1, 0.5)], 1),
])
def test_json_bad_entries_name_their_index(entries, index):
    obj = {"degree": 1,
           "coeffs": [{"n": n, "re": re, "im": 0.0} for n, re in entries]}
    with pytest.raises(DomainError, match=rf"coeffs\[{index}\]: "):
        TrigPoly.from_json_obj(obj)


# -- periodized kernel ------------------------------------------------------

def test_p_closed_values():
    assert abs(periodic.eval_p(2.0, 0.0) - P_2_0) <= 1e-15
    # p(lam, 1/2) = csch(lam/2) - 2/lam (negated minorant defect)
    assert abs(periodic.eval_p(2.0, 0.5) - (CSCH_1 - 1.0)) <= 1e-15
    assert periodic.eval_p(2.0, 1.0) == periodic.eval_p(2.0, 0.0)  # period 1


@pytest.mark.parametrize("lam", [0.009, 0.5, 2.0, 17.0])
def test_p_matches_lattice_sum(lam):
    xs = np.linspace(0.0, 1.0, 41)
    span = int(math.ceil(45.0 / lam)) + 2     # tail below 1e-15 of 2/lam
    n = np.arange(-span, span + 1)
    direct = np.exp(-lam * np.abs(xs[:, None] + n[None, :])).sum(axis=1) - 2.0 / lam
    assert np.max(np.abs(periodic.eval_p(lam, xs) - direct)) <= 5e-13


def test_p_mean_is_zero():
    from extremal import quadrature
    for lam in (0.3, 1.0, 8.0):
        res = quadrature.integrate_finite(
            lambda x: periodic.eval_p(lam, x), 0.0, 1.0, tol=1e-13)
        assert abs(res.value) <= 1e-12


def test_j_is_the_derivative():
    lam = 1.3
    for x in (0.1, 0.37, 0.74):
        h = 1e-6
        fd = (periodic.eval_p(lam, x + h) - periodic.eval_p(lam, x - h)) / (2 * h)
        assert abs(periodic.eval_j(lam, x) - fd) <= 1e-8
    assert periodic.eval_j(lam, 0.0) == 0.0
    assert periodic.eval_j(lam, 1.0) == 0.0


def test_p_and_j_validation():
    with pytest.raises(DomainError):
        periodic.eval_p(0.0, 0.3)
    with pytest.raises(DomainError):
        periodic.eval_j(-1.0, 0.3)


# -- single-kernel extremal polynomials --------------------------------------

@pytest.mark.parametrize("lam", [0.2, 1.0, 5.0])
@pytest.mark.parametrize("N", [0, 3, 9])
def test_single_kernel_sandwich(lam, N):
    l = periodic.trig_minorant_l(lam, N)
    m = periodic.trig_majorant_m(lam, N)
    xs = (np.arange(2048) + 0.5) / 2048
    pv = periodic.eval_p(lam, xs)
    assert np.min(pv - l.evaluate(xs)) >= -1e-11
    assert np.min(m.evaluate(xs) - pv) >= -1e-11


def test_single_kernel_rate_validation():
    for make in (periodic.trig_minorant_l, periodic.trig_majorant_m):
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                make(bad, 3)
        # numpy scalar rates are rates like any other real
        assert make(np.int64(2), 3) == make(2.0, 3)
        assert make(np.float32(0.5), 3) == make(0.5, 3)


def test_single_kernel_touch_points_and_means():
    lam, N = 1.0, 4
    l = periodic.trig_minorant_l(lam, N)
    m = periodic.trig_majorant_m(lam, N)
    lo = (np.arange(1, N + 2) - 0.5) / (N + 1)
    hi = np.arange(N + 1) / (N + 1)
    assert np.max(np.abs(l.evaluate(lo) - periodic.eval_p(lam, lo))) <= 1e-10
    assert np.max(np.abs(m.evaluate(hi) - periodic.eval_p(lam, hi))) <= 1e-10
    # means are the scaled one-sided kernel defects
    u = lam / (N + 1)
    csch = 1.0 / math.sinh(u / 2.0)
    coth = math.cosh(u / 2.0) / math.sinh(u / 2.0)
    assert abs(l.mean - (-(2.0 / u - csch) / (N + 1))) <= 1e-12
    assert abs(m.mean - (coth - 2.0 / u) / (N + 1)) <= 1e-12


# -- superposed periodized kernels -------------------------------------------

def test_q_haar_is_negative_log_sin():
    xs = np.array([0.1, 0.25, 0.5, 0.8])
    expect = -np.log(np.abs(2.0 * np.sin(np.pi * xs)))
    assert np.max(np.abs(periodic.q_mu(HAAR, xs) - expect)) <= 1e-14
    assert periodic.q_mu(HAAR, 0.5) == -math.log(2.0)


def test_q_sentinels_and_array_guard():
    assert measures.is_plus_inf(periodic.q_mu(HAAR, 0.0))
    assert measures.is_plus_inf(periodic.q_mu(PL05, 1.0))
    with pytest.raises(DomainError):
        periodic.q_mu(HAAR, np.array([0.0, 0.5]))
    # finite q(0) for sigma > 1 has a closed form
    assert abs(periodic.q_mu(PL15, 0.0) - B_PL15) <= 1e-12


def test_q_atomic_is_weighted_p_sum():
    xs = np.linspace(0.05, 0.95, 7)
    lams, ws = ATOM.atoms
    expect = sum(w * periodic.eval_p(l, xs) for l, w in zip(lams, ws))
    assert np.max(np.abs(periodic.q_mu(ATOM, xs) - expect)) <= 1e-13


def test_q_power_law_by_quadrature():
    # spot check against direct measure integration of eval_p
    x = 0.3
    direct = measures.integrate(lambda lam: periodic.eval_p(lam, x), PL05,
                                tol=1e-11).value
    assert abs(periodic.q_mu(PL05, x) - direct) <= 1e-9


@pytest.mark.parametrize("mu", [PL05, PL15], ids=["power0.5", "power1.5"])
def test_q_power_law_is_even_and_finite_next_to_the_integers(mu):
    # the closed form takes the exact distance to the nearest integer, where
    # x mod 1 rounds -1e-17 to 1.0
    xs = np.array([1e-17, 0.3, 2.7, 1.0 - 2.0 ** -40])
    assert np.array_equal(periodic.q_mu(mu, -xs), periodic.q_mu(mu, xs))
    if mu.sigma < 1.0:
        assert periodic.q_mu(mu, -1e-17) == pytest.approx(
            math.gamma(1.0 - mu.sigma) * 1e-17 ** (mu.sigma - 1.0), rel=1e-7)


@pytest.mark.parametrize("mu", [HAAR, PL05, PL15, ATOM],
                         ids=lambda m: m.family)
def test_superposed_minorant_sandwich(mu):
    N = 5
    g = periodic.trig_minorant_g(mu, N)
    xs = (np.arange(1024) + 0.5) / 1024
    qv = np.array([float(periodic.q_mu(mu, float(x))) for x in xs])
    assert np.min(qv - g.evaluate(xs)) >= -1e-9
    lo = (np.arange(1, N + 2) - 0.5) / (N + 1)
    qlo = np.array([float(periodic.q_mu(mu, float(x))) for x in lo])
    assert np.max(np.abs(g.evaluate(lo) - qlo)) <= 1e-9


@pytest.mark.parametrize("mu", [PL15, ATOM], ids=lambda m: m.family)
def test_superposed_majorant_sandwich(mu):
    N = 5
    h = periodic.trig_majorant_h(mu, N)
    xs = (np.arange(1024) + 0.5) / 1024
    qv = np.array([float(periodic.q_mu(mu, float(x))) for x in xs])
    assert np.min(h.evaluate(xs) - qv) >= -1e-9
    hi = np.arange(N + 1) / (N + 1)
    qhi = np.array([float(periodic.q_mu(mu, float(x))) for x in hi])
    assert np.max(np.abs(h.evaluate(hi) - qhi)) <= 1e-9


def test_atomic_superposition_matches_weighted_single_kernels():
    N = 4
    g = periodic.trig_minorant_g(ATOM, N)
    lams, ws = ATOM.atoms
    parts = [periodic.trig_minorant_l(l, N) for l in lams]
    for n in range(-N, N + 1):
        combo = sum(w * p.coeff(n) for w, p in zip(ws, parts))
        assert abs(g.coeff(n) - combo) <= 1e-12


def test_majorant_rejects_divergent_families():
    for mu in (HAAR, PL05):
        with pytest.raises(AdmissibilityError) as exc:
            periodic.trig_majorant_h(mu, 3)
        assert "cond47" in str(exc.value)
        assert repr(mu) in str(exc.value)


# -- log|2 sin| majorant ------------------------------------------------------

@pytest.mark.parametrize("N", [0, 1, 4, 16])
def test_log_sin_majorant_suite(N):
    u = periodic.log_sin_majorant(N)
    assert abs(u.mean - math.log(2.0) / (N + 1)) <= 1e-14
    xs = (np.arange(2048) + 0.5) / 2048
    target = np.log(np.abs(2.0 * np.sin(np.pi * xs)))
    assert np.min(u.evaluate(xs) - target) >= -1e-9
    nodes = (np.arange(1, N + 2) - 0.5) / (N + 1)
    tn = np.log(np.abs(2.0 * np.sin(np.pi * nodes)))
    assert np.max(np.abs(u.evaluate(nodes) - tn)) <= 1e-9
    for n in range(1, N + 1):
        c = u.coeff(n)
        assert abs(c.imag) == 0.0
        assert -0.5 / n - 1e-12 <= c.real <= 1e-15


def test_log_sin_majorant_example_mean():
    assert abs(periodic.log_sin_majorant(8).mean - math.log(2.0) / 9.0) <= 1e-15


def test_minorant_mean_is_variationally_maximal():
    """Perturb-and-repair: no nearby degree-N minorant of p beats l's mean."""
    lam, N = 1.0, 4
    l = periodic.trig_minorant_l(lam, N)
    xs = (np.arange(4096) + 0.5) / 4096
    pv = periodic.eval_p(lam, xs)
    rng = np.random.default_rng(11)
    for _ in range(20):
        re = rng.normal(size=N) * 0.05
        im = rng.normal(size=N) * 0.05
        d0 = rng.normal() * 0.05
        cs = [complex(r, -i) for r, i in zip(re[::-1], im[::-1])]
        cs += [complex(d0, 0.0)] + [complex(r, i) for r, i in zip(re, im)]
        pert = TrigPoly(N, tuple(cs))
        cand = l.evaluate(xs) + pert.evaluate(xs)
        shift = np.max(cand - pv)          # push back below p
        cand_mean = l.mean + d0 - shift
        assert cand_mean <= l.mean + 1e-9
