"""Sharp Hermitian form constants, witnesses, and the HLS specialization."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from extremal import forms, measures, specfun
from extremal.errors import AdmissibilityError, DomainError

HAAR = measures.HaarLog()
PL05 = measures.PowerLaw(0.5)
PL15 = measures.PowerLaw(1.5)
ATOM = measures.Atomic((0.5, 2.0), (1.0, 0.25))

B_PL15 = 1.4738749600452898          # 2*Gamma(-1/2)*zeta(-1/2)


def quadrature_route_A(measure, delta=1.0, tol=1e-10):
    """A(delta, mu) by direct measure quadrature (closed-form cross-check)."""
    return measures.integrate(
        lambda lam: specfun.defect_minorant(lam / delta) / delta,
        measure, tol=tol).value


def quadrature_route_B(measure, delta=1.0, tol=1e-10):
    """B(delta, mu) by direct measure quadrature (closed-form cross-check)."""
    return measures.integrate(
        lambda lam: specfun.defect_majorant(lam / delta) / delta,
        measure, tol=tol).value


# -- form kernel r_mu ---------------------------------------------------------

def test_r_haar_closed_form():
    assert forms.r_mu(HAAR, 2.0) == 0.25
    ts = np.array([0.5, 1.0, 4.0])
    assert np.allclose(forms.r_mu(HAAR, ts), 0.5 / ts, rtol=0, atol=1e-15)
    assert forms.r_mu(HAAR, -2.0) == 0.25


def test_r_power_law_closed_form():
    s = 1.5
    C = math.pi / ((2.0 * math.pi) ** s * math.sin(math.pi * s / 2.0))
    for t in (0.5, 1.0, 3.0):
        assert abs(forms.r_mu(PL15, t) - C * t ** (-s)) <= 1e-15


def test_r_atomic_closed_form():
    lams, ws = ATOM.atoms
    t = 0.7
    expect = sum(2.0 * l * w / (l * l + 4.0 * math.pi ** 2 * t * t)
                 for l, w in zip(lams, ws))
    assert abs(forms.r_mu(ATOM, t) - expect) <= 1e-15


def test_r_weight_matches_quadrature():
    mu = measures.Weight(lambda lam: np.exp(-lam))
    t = 0.4
    val = forms.r_mu(mu, t, tol=1e-11)
    brute = measures.integrate(
        lambda lam: 2.0 * lam / (lam * lam + 4.0 * math.pi ** 2 * t * t),
        mu, tol=1e-12).value
    assert abs(val - brute) <= 1e-10


def test_r_divergence_sentinels():
    # a divergent r_mu(0) is the float inf, alone or in place in an array
    for mu in (HAAR, PL05):
        v = forms.r_mu(mu, 0.0)
        assert type(v) is float and v == math.inf
        r = forms.r_mu(mu, np.array([0.0, 1.0]))
        assert r[0] == math.inf and r[1] == forms.r_mu(mu, 1.0)
    # atomic r(0) is finite
    assert forms.r_mu(ATOM, 0.0) > 0.0


@pytest.mark.parametrize("mu, t", [(HAAR, 1e-310), (PL15, 1e-300)], ids=["haar", "power1.5"])
def test_r_mu_past_the_floats_is_inf_without_a_warning(mu, t):
    # 1/t and t^-sigma leave the floats at a subnormal distance, as Lhat and
    # Mhat do past theirs: the value is inf and nothing warns
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v = forms.r_mu(mu, t)
        r = forms.r_mu(mu, np.array([t, 1.0]))
    assert type(v) is float and v == math.inf
    assert r[0] == math.inf and r[1] == forms.r_mu(mu, 1.0)


@pytest.mark.parametrize("mu", [HAAR, PL05, measures.Weight(lambda lam: np.exp(-lam))],
                         ids=["haar", "power0.5", "weight"])
def test_coincident_points_raise_where_r_mu_zero_diverges(mu):
    sets = [[0.0, 1.0], [0.5, 2.0, 0.5]]
    with pytest.raises(DomainError, match="points 0 and 2 of set 1 coincide"):
        forms.evaluate_forms(mu, sets, [[1.0, 1.0], [1.0, -1.0, 1j]])
    with pytest.raises(DomainError, match="points 0 and 1 of set 0 coincide"):
        forms.evaluate_form(mu, [3.0, 3.0], [1.0, 1.0])


def test_coincident_points_keep_a_finite_r_mu_zero():
    # atomic r_mu(0) is finite, so a repeated point is one more finite term
    v = forms.evaluate_form(ATOM, [0.5, 2.0, 0.5], [1.0, 1.0, 1.0])
    assert v == pytest.approx(2.0 * (2.0 * forms.r_mu(ATOM, 1.5) + forms.r_mu(ATOM, 0.0)),
                              rel=1e-15)


# -- sharp constants ----------------------------------------------------------

def test_lower_constant_haar():
    assert abs(HAAR.defect_moment("minorant") - math.log(2.0)) <= 1e-14
    assert abs(HAAR.defect_moment("minorant", delta=4.0)
               - math.log(2.0) / 4.0) <= 1e-14


@pytest.mark.parametrize("mu", [HAAR, PL05, PL15, ATOM],
                         ids=lambda m: m.family)
@pytest.mark.parametrize("delta", [0.5, 1.0, 3.0])
def test_lower_constant_dual_routes(mu, delta):
    closed = mu.defect_moment("minorant", delta=delta)
    quad = quadrature_route_A(mu, delta)
    assert abs(closed - quad) <= 1e-8 * max(1.0, abs(closed))


@pytest.mark.parametrize("mu", [PL15, ATOM], ids=lambda m: m.family)
@pytest.mark.parametrize("delta", [0.5, 1.0, 3.0])
def test_upper_constant_dual_routes(mu, delta):
    closed = mu.defect_moment("majorant", delta=delta)
    quad = quadrature_route_B(mu, delta)
    assert abs(closed - quad) <= 1e-8 * max(1.0, abs(closed))


def test_upper_constant_power15_value_and_scaling():
    assert abs(PL15.defect_moment("majorant") - B_PL15) <= 1e-12
    assert abs(PL15.defect_moment("majorant", delta=2.0)
               - B_PL15 / 2.0 ** 1.5) <= 1e-12


def test_upper_constant_rejects_divergent_families():
    with pytest.raises(AdmissibilityError):
        HAAR.defect_moment("majorant")
    with pytest.raises(AdmissibilityError) as exc:
        PL05.defect_moment("majorant")
    assert "cond31" in str(exc.value)
    # the gate is the measure's own, not its dilation's
    with pytest.raises(AdmissibilityError) as exc:
        PL05.defect_moment("majorant", delta=5.0)
    assert repr(PL05) in str(exc.value)


def test_form_bound_container():
    fb = forms.form_bound(PL15)
    assert fb.B is not None and fb.A > 0.0
    assert forms.form_bound(HAAR).B is None


# -- HLS specialization -------------------------------------------------------

def test_hls_sigma_one_is_log4():
    c = forms.hls_constants(1.0, delta=1.0)
    assert c.lower == math.log(4.0)
    assert c.upper is None
    assert forms.hls_constants(1.0, delta=2.0).lower == math.log(4.0) / 2.0


@pytest.mark.parametrize("sigma", [0.25, 0.5, 0.75, 1.25, 1.75])
def test_hls_dual_routes_agree(sigma):
    a = forms.hls_constants(sigma)
    b = forms.hls_gamma_route(sigma)
    assert abs(a.lower - b.lower) <= 1e-10 * max(1.0, abs(a.lower))
    if sigma > 1.0:
        assert abs(a.upper - b.upper) <= 1e-10 * max(1.0, abs(a.upper))
    else:
        assert a.upper is None and b.upper is None


def test_hls_sigma_two_continuity_extension():
    c = forms.hls_constants(2.0)
    assert c.continuity_extension is True
    assert abs(c.lower - math.pi ** 2 / 6.0) <= 1e-15
    assert abs(c.upper - math.pi ** 2 / 3.0) <= 1e-15
    assert forms.hls_constants(1.5).continuity_extension is False


def test_hls_validation():
    for bad in (0.0, -1.0, 2.5):
        with pytest.raises(DomainError):
            forms.hls_constants(bad)
    with pytest.raises(DomainError):
        forms.hls_gamma_route(1.0)


# -- form evaluation and bounds ----------------------------------------------

def test_two_point_alternating_form():
    for delta in (1.0, 2.0):
        ps = forms.PointSet((0.0, delta), delta)
        val = forms.evaluate_form(HAAR, ps, np.array([1.0, -1.0]))
        assert abs(val - (-1.0 / delta)) <= 1e-14


def test_form_matches_direct_double_sum():
    rng = np.random.default_rng(3)
    ps = forms.random_point_set(rng, 6, 1.0)
    a = rng.normal(size=6) + 1j * rng.normal(size=6)
    val = forms.evaluate_form(ATOM, ps, a)
    brute = 0.0
    for m in range(6):
        for n in range(6):
            if m != n:
                brute += (a[m] * np.conj(a[n])
                          * forms.r_mu(ATOM, ps.xi[m] - ps.xi[n])).real
    assert abs(val - brute) <= 1e-12 * max(1.0, abs(brute))


@pytest.mark.parametrize("mu", [HAAR, PL15, ATOM], ids=lambda m: m.family)
@pytest.mark.parametrize("lattice", [False, True], ids=["random", "lattice"])
def test_form_matches_dense_hermitian_matrix(mu, lattice):
    """The pair sum equals conj(a) R a with the full matrix R of r_mu over
    every ordered pair; a lattice repeats distances, which share one r_mu."""
    rng = np.random.default_rng(11)
    for _ in range(8):
        n = int(rng.integers(2, 40))
        xi = (np.arange(n) * 1.5 if lattice
              else np.array(forms.random_point_set(rng, n, 1.0).xi))
        a = rng.normal(size=n) + 1j * rng.normal(size=n)
        off = ~np.eye(n, dtype=bool)
        R = np.zeros((n, n))
        R[off] = forms.r_mu(mu, (xi[:, None] - xi[None, :])[off])
        dense = np.conj(a) @ R @ a
        energy = float(np.sum(np.abs(a) ** 2))
        val = forms.evaluate_form(mu, xi, a)
        assert isinstance(val, float)
        assert abs(val - dense) <= 1e-13 * energy


def test_form_single_point_is_zero():
    assert forms.evaluate_form(HAAR, forms.PointSet((1.0,), 1.0),
                               np.array([2.0 + 1j])) == 0.0


def test_form_coefficient_count_mismatch():
    ps = forms.PointSet((0.0, 1.0), 1.0)
    with pytest.raises(DomainError):
        forms.evaluate_form(HAAR, ps, np.array([1.0]))


@pytest.mark.parametrize("mu", [HAAR, PL05, PL15, ATOM],
                         ids=lambda m: m.family)
def test_lower_bound_holds_on_random_trials(mu):
    rng = np.random.default_rng(17)
    A = mu.defect_moment("minorant")
    for _ in range(10):
        n = int(rng.integers(2, 20))
        ps = forms.random_point_set(rng, n, 1.0)
        a = rng.normal(size=n) + 1j * rng.normal(size=n)
        energy = float(np.sum(np.abs(a) ** 2))
        val = forms.evaluate_form(mu, ps, a)
        assert val >= -A * energy - 1e-9 * energy


@pytest.mark.parametrize("mu", [PL15, ATOM], ids=lambda m: m.family)
def test_upper_bound_holds_on_random_trials(mu):
    rng = np.random.default_rng(23)
    B = mu.defect_moment("majorant")
    for _ in range(10):
        n = int(rng.integers(2, 20))
        ps = forms.random_point_set(rng, n, 1.0)
        a = rng.normal(size=n) + 1j * rng.normal(size=n)
        energy = float(np.sum(np.abs(a) ** 2))
        val = forms.evaluate_form(mu, ps, a)
        assert val <= B * energy + 1e-9 * energy


def test_witness_ratio_converges_to_sharp_constant():
    A = HAAR.defect_moment("minorant")
    prev = 0.0
    for N in (10, 50, 200, 500):
        w = forms.sharpness_witness(HAAR, 1.0, N, kind="lower")
        assert prev < w <= A + 1e-12
        prev = w
    assert (A - prev) / A <= 0.01          # 0.14% gap at N = 500
    B = PL15.defect_moment("majorant")
    wu = forms.sharpness_witness(PL15, 1.0, 500, kind="upper")
    assert wu <= B + 1e-12
    assert forms.sharpness_witness(HAAR, 1.0, 0) == 0.0
    with pytest.raises(DomainError):
        forms.sharpness_witness(HAAR, 1.0, 5, kind="middle")


def test_form_report_payload():
    ps = forms.PointSet((0.0, 1.0), 1.0)
    rep = forms.form_report(HAAR, 1.0, ps, np.array([1.0, -1.0]))
    assert set(rep) == {"bound", "form_value", "slack", "witness_ratio"}
    assert rep["slack"] >= 0.0
    assert abs(rep["form_value"] - (-1.0)) <= 1e-14
    # two alternating points attain 1/(2 log2) of the sharp constant
    assert abs(rep["witness_ratio"] - 0.5 / math.log(2.0)) <= 1e-12


# -- point sets ---------------------------------------------------------------

def test_point_set_validation():
    with pytest.raises(DomainError):
        forms.PointSet((), 1.0)
    with pytest.raises(DomainError):
        forms.PointSet((0.0, 0.5), 1.0)       # gap below declared delta
    with pytest.raises(DomainError):
        forms.PointSet((0.0, math.inf), 1.0)
    with pytest.raises(DomainError):
        forms.PointSet((0.0, 2.0), -1.0)


def test_random_point_set_separation():
    rng = np.random.default_rng(5)
    for _ in range(20):
        ps = forms.random_point_set(rng, 12, 0.7)
        assert len(ps.xi) == 12
        assert np.min(np.diff(np.sort(np.asarray(ps.xi)))) >= 0.7


def test_points_csv_round_trip_and_errors(tmp_path):
    good = tmp_path / "pts.csv"
    good.write_text("xi,re,im\n0.0,1.0,0.0\n1.5,-1.0,0.25\n")
    xi, a = forms.points_from_csv(str(good))
    assert np.array_equal(xi, [0.0, 1.5])
    assert a[1] == -1.0 + 0.25j
    bad = tmp_path / "bad.csv"
    bad.write_text("xi,re,im\n0.0,1.0,0.0\n1.5,oops,0.0\n")
    with pytest.raises(DomainError, match=":3:"):
        forms.points_from_csv(str(bad))
    empty = tmp_path / "empty.csv"
    empty.write_text("xi,re,im\n")
    with pytest.raises(DomainError):
        forms.points_from_csv(str(empty))


@pytest.mark.parametrize("N", [2.5, 2.0, -1], ids=repr)
def test_witness_rejects_a_non_integer_or_negative_N(N):
    with pytest.raises(DomainError):
        forms.sharpness_witness(HAAR, 1.0, N)


def _form_alone(mu, xi, a):
    """The form of one set, written out: one r_mu value per distinct
    distance of the set, and one dot product."""
    m, n = np.triu_indices(len(xi), k=1)
    if m.size == 0:
        return 0.0
    uniq, inv = np.unique(np.abs(xi[m] - xi[n]), return_inverse=True)
    weights = a.real[m] * a.real[n] + a.imag[m] * a.imag[n]
    return 2.0 * float(weights @ forms.r_mu(mu, uniq)[inv])


# a set: its size, whether it is a lattice delta n + offset, and a seed for
# its gaps, offset and coefficients
form_sets = st.tuples(st.integers(1, 40), st.booleans(), st.integers(0, 2 ** 32 - 1))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([HAAR, PL05, PL15, ATOM]), st.lists(form_sets, min_size=1, max_size=6))
def test_a_set_has_its_form_bits_in_any_batch(mu, drawn):
    """evaluate_forms over a batch of 1-40-point sets, lattices among them
    (whose distances repeat within and across sets): each entry has the bits
    of evaluate_form on its set alone and of the set written out, for Haar,
    power laws on both sides of sigma = 1 and an atomic measure."""
    sets, coeffs = [], []
    for count, lattice, seed in drawn:
        rng = np.random.default_rng(seed)
        delta = rng.choice([0.5, 1.0, 2.0])
        if lattice:     # raw points, as a PointSet may see a gap round below delta
            sets.append(delta * np.arange(count) + rng.uniform(-1.0, 1.0))
        else:
            sets.append(forms.random_point_set(rng, count, delta))
        coeffs.append(rng.normal(size=count) + 1j * rng.normal(size=count))
    batch = forms.evaluate_forms(mu, sets, coeffs)
    alone = [forms.evaluate_form(mu, ps, a) for ps, a in zip(sets, coeffs)]
    written = [_form_alone(mu, np.array(getattr(ps, "xi", ps)), a)
               for ps, a in zip(sets, coeffs)]
    assert batch.tolist() == alone == written
    assert np.array(alone).view(np.uint64).tolist() == batch.view(np.uint64).tolist()


def test_forms_take_one_r_call_over_every_distance(monkeypatch):
    """A batch makes one r call over the distinct distances of all its
    sets; a batch of single points makes none and gives zeros."""
    calls = []
    r = measures.PowerLaw.r

    def counted(self, t, tol=1e-10):
        calls.append(np.array(t))
        return r(self, t, tol)

    monkeypatch.setattr(measures.PowerLaw, "r", counted)
    sets = [(0.0, 1.0, 2.0), (5.0,), (0.0, 2.0, 3.5)]
    coeffs = [np.ones(3), np.ones(1), np.ones(3)]
    forms.evaluate_forms(PL05, sets, coeffs)
    assert len(calls) == 1 and calls[0].tolist() == [1.0, 1.5, 2.0, 3.5]
    assert forms.evaluate_forms(PL05, [(1.0,), (2.0,)], [[1.0], [1j]]).tolist() == [0.0, 0.0]
    assert len(calls) == 1
    with pytest.raises(DomainError, match="coefficient count"):
        forms.evaluate_forms(PL05, sets, [np.ones(3), np.ones(2), np.ones(3)])
