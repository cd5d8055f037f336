"""Periodized kernels, extremal trig polynomials, and TrigPoly's coefficient text."""

import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from extremal import measures, periodic, quadrature, specfun
from extremal.errors import AdmissibilityError, DomainError
from extremal.periodic import TrigPoly
import oracles

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
    # a bool or a float is not a coefficient index, not even 1.0
    u = periodic.log_sin_majorant(3)
    for n in (True, 1.0):
        with pytest.raises(DomainError, match="must be an integer"):
            u.coeff(n)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_trig_poly_refuses_non_finite_points(bad):
    tp = TrigPoly(1, (0.5 - 0.25j, 2.0, 0.5 + 0.25j))
    for x in (bad, np.array([0.25, bad])):
        with pytest.raises(DomainError, match="must be finite"):
            tp.evaluate(x)


def test_trig_poly_values_do_not_depend_on_their_batch():
    # a lone point and the same point in a batch take the same sum over n
    xs = np.random.default_rng(1).uniform(-1.0, 1.0, 999)
    picks = xs[::37]
    for N in (1, 4, 16, 64, 257):
        tp = periodic.log_sin_majorant(N)
        batch = tp.evaluate(xs)[::37]
        assert [tp.evaluate(x) for x in picks] == batch.tolist()
        assert tp.evaluate(picks[:1]).tolist() == batch[:1].tolist()
        assert tp.evaluate(xs.reshape(27, 37))[:, 0].tolist() == batch.tolist()


def test_csv_round_trip_is_bit_exact():
    tp = periodic.trig_minorant_l(1.7, 6)
    back = oracles.from_csv_text(tp.to_csv_text())
    assert back.degree == tp.degree
    assert all(a == b for a, b in zip(back.coeffs, tp.coeffs))


def test_json_round_trip_is_bit_exact():
    tp = TrigPoly(2, (0.1 - 0.7j, 0.5 + 0.25j, 2.0, 0.5 - 0.25j, 0.1 + 0.7j))
    back = oracles.from_json_text(tp.to_json_text())
    assert back.coeffs == tp.coeffs
    assert back == tp


# every float json writes: signed zeros, subnormals and the largest exponents
_any_float = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(_any_float, _any_float), max_size=12), _any_float,
       st.sampled_from([0.0, -0.0]))
def test_json_text_is_the_json_module_text(cs, c0, im0):
    c = [complex(re, im) for re, im in cs]
    tp = TrigPoly(len(c), tuple(z.conjugate() for z in c[::-1])
                  + (complex(c0, im0),) + tuple(c))
    assert tp.to_json_text() == json.dumps(oracles.to_json_obj(tp), indent=1) + "\n"


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.0, math.nan)],
                         ids=["nan", "inf", "-inf", "nan-imag"])
def test_trig_poly_refuses_non_finite_coefficients(bad):
    # NaN compares false, so the symmetry check alone would let it through
    with pytest.raises(DomainError, match=r"c\(-1\) is not finite"):
        TrigPoly(1, (bad, 0.0, bad))
    with pytest.raises(DomainError, match="not finite"):
        TrigPoly(0, (bad,))


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


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.floats(math.log(1e-6), 0.0).map(math.exp),
       st.floats(0.0, 1.0, exclude_max=True))
def test_p_matches_mpmath_at_small_rates(lam, x):
    """p has no series of its own: its 2/lam cancellation is the minorant
    defect's, and p adds at most 1e-14 max(|p|, lam/12) to the defect's own
    error (itself within 1e-15 relative, see test_specfun)."""
    with mpmath.workdps(40):
        rate = mpmath.mpf(lam)
        defect = 2 / rate - 1 / mpmath.sinh(rate / 2)
        ref = mpmath.cosh(rate * (mpmath.mpf(x) - 0.5)) / mpmath.sinh(rate / 2) - 2 / rate
        err = float(abs(periodic.eval_p(lam, x) - ref))
        inherited = float(abs(specfun.defect_minorant(lam) - defect))
    assert err <= 1e-14 * max(abs(float(ref)), lam / 12.0) + inherited


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
    assert np.max(np.abs(HAAR.q(xs) - expect)) <= 1e-14
    assert HAAR.q(0.5) == -math.log(2.0)


def test_q_sentinels_and_array_guard():
    # q diverges at the integers: the float inf, alone or in place in an array
    for mu, x in ((HAAR, 0.0), (PL05, 1.0)):
        v = mu.q(x)
        assert type(v) is float and v == math.inf
    q = HAAR.q(np.array([0.0, 0.5, -3.0]))
    assert q[0] == q[2] == math.inf and q[1] == HAAR.q(0.5)
    # finite q(0) for sigma > 1 has a closed form
    assert abs(PL15.q(0.0) - B_PL15) <= 1e-12


def test_q_atomic_is_weighted_p_sum():
    xs = np.linspace(0.05, 0.95, 7)
    lams, ws = ATOM.atoms
    expect = sum(w * periodic.eval_p(l, xs) for l, w in zip(lams, ws))
    assert np.max(np.abs(ATOM.q(xs) - expect)) <= 1e-13


def test_q_power_law_by_quadrature():
    # spot check against direct measure integration of eval_p
    x = 0.3
    direct = measures.integrate(lambda lam: periodic.eval_p(lam, x), PL05,
                                tol=1e-11).value
    assert abs(PL05.q(x) - direct) <= 1e-9


@pytest.mark.parametrize("mu", [PL05, PL15], ids=["power0.5", "power1.5"])
def test_q_power_law_is_even_and_finite_next_to_the_integers(mu):
    # the closed form takes the exact distance to the nearest integer, where
    # x mod 1 rounds -1e-17 to 1.0
    xs = np.array([1e-17, 0.3, 2.7, 1.0 - 2.0 ** -40])
    assert np.array_equal(mu.q(-xs), mu.q(xs))
    if mu.sigma < 1.0:
        assert mu.q(-1e-17) == pytest.approx(
            math.gamma(1.0 - mu.sigma) * 1e-17 ** (mu.sigma - 1.0), rel=1e-7)


def test_q_power_law_at_the_integers_is_the_majorant_defect_moment():
    # q_mu' is odd, so 0 at the integers, and q_mu(0) = int p(lam, 0) dmu
    q, dq = PL15._q(np.array([0.0, 1.0, -3.0]), (0, 1), 1e-9)
    assert np.all(dq == 0.0)
    moment = PL15.defect_moment("majorant")
    assert np.all(np.abs(q - moment) <= 1e-13 * moment)


def test_weight_polynomials_count_their_integrals(tmp_path, monkeypatch):
    """A compactly supported weight classifies with the cond47 moment alone,
    and g and h each take it, their mean and one q ladder at the nodes."""
    path = tmp_path / "w.csv"
    path.write_text("lambda,weight\n0.5,1.0\n1.0,2.0\n3.0,0.5\n6.0,1.0\n9.0,0.3\n")
    mu = measures.weight_from_csv(str(path))
    calls = []
    inner = quadrature.refine
    monkeypatch.setattr(quadrature, "refine",
                        lambda *a, **k: calls.append(1) or inner(*a, **k))
    for run, count in [(mu.classify, 1),
                       (lambda: periodic.trig_minorant_g(mu, 4), 3),
                       (lambda: periodic.trig_majorant_h(mu, 4), 3)]:
        calls.clear()
        run()
        assert len(calls) == count


@pytest.mark.parametrize("mu", [HAAR, PL05, PL15, ATOM],
                         ids=lambda m: m.family)
def test_superposed_minorant_sandwich(mu):
    N = 5
    g = periodic.trig_minorant_g(mu, N)
    xs = (np.arange(1024) + 0.5) / 1024
    qv = np.array([float(mu.q(float(x))) for x in xs])
    assert np.min(qv - g.evaluate(xs)) >= -1e-9
    lo = (np.arange(1, N + 2) - 0.5) / (N + 1)
    qlo = np.array([float(mu.q(float(x))) for x in lo])
    assert np.max(np.abs(g.evaluate(lo) - qlo)) <= 1e-9


@pytest.mark.parametrize("mu", [PL15, ATOM], ids=lambda m: m.family)
def test_superposed_majorant_sandwich(mu):
    N = 5
    h = periodic.trig_majorant_h(mu, N)
    xs = (np.arange(1024) + 0.5) / 1024
    qv = np.array([float(mu.q(float(x))) for x in xs])
    assert np.min(h.evaluate(xs) - qv) >= -1e-9
    hi = np.arange(N + 1) / (N + 1)
    qhi = np.array([float(mu.q(float(x))) for x in hi])
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


# -- the node route against the paper's transform-moment route ------------

def _node_mean(mu, N, kind, tol):
    """V_0: the mean of q_mu over the N + 1 nodes of kind."""
    return float(np.mean(mu._q(periodic._nodes(N, kind), (0,), tol)[0]))


_atomic_measures = st.lists(
    st.tuples(st.floats(0.01, 100.0), st.floats(0.1, 10.0)),
    min_size=1, max_size=4, unique_by=lambda a: a[0]).map(
        lambda atoms: measures.Atomic(*zip(*sorted(atoms))))
_kinds = st.sampled_from(["minorant", "majorant"])
# (measure, kind) per family; the majorant moment of sigma near 1 is too
# slow a quadrature for the oracle
_ROUTE_CASES = {
    "haar": st.tuples(st.just(HAAR), st.just("minorant")),
    "power-minorant": st.tuples(st.floats(0.1, 1.8).filter(lambda s: abs(s - 1.0) > 1e-3)
                                .map(measures.PowerLaw), st.just("minorant")),
    "power-majorant": st.tuples(st.floats(1.2, 1.8).map(measures.PowerLaw),
                                st.just("majorant")),
    "atomic": st.tuples(_atomic_measures, _kinds),
    "weight-exp": st.tuples(st.just(measures.Weight(lambda lam: np.exp(-lam))), _kinds),
}


@pytest.mark.parametrize("case", list(_ROUTE_CASES.values()), ids=list(_ROUTE_CASES))
@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_node_route_matches_the_transform_moments(case, data):
    """c(n), n >= 1, from q and q' at the nodes equals the dilated measure's
    transform moment over N + 1 (the quadrature oracle), and the mean of q
    over the nodes is the closed c(0)."""
    mu, kind = data.draw(case)
    N = data.draw(st.integers(0, 64))
    poly = periodic._superposed_poly(mu, N, kind, tol=1e-12)
    nu = mu.dilate(N + 1.0)
    ref = oracles.transform_moment(nu, kind, np.arange(1, N + 1) / (N + 1.0), 1e-11) / (N + 1.0)
    c = np.array(poly.coeffs[N + 1:])
    assert np.max(np.abs(c - ref), initial=0.0) <= 1e-10
    assert np.array_equal(c.imag, np.zeros(N))
    assert poly.coeffs[:N] == poly.coeffs[N + 1:][::-1]
    assert abs(_node_mean(mu, N, kind, 1e-12) - poly.mean) <= 1e-13


@pytest.mark.parametrize("sigma", [1.0 - 1e-3, 1.0 + 1e-3, 0.5, 1.5])
def test_power_law_q_prime_matches_mpmath(sigma):
    """q = Gamma(1-sigma) [zeta(1-sigma, d) + zeta(1-sigma, 1-d)], d the
    distance to Z, to 1e-13 of Gamma times the sum of the |zeta| (the zeta
    series' accuracy), and q' = -Gamma(2-sigma) [zeta(2-sigma, {x}) -
    zeta(2-sigma, 1-{x})] to 1e-13 relative; the poles of the two zetas of
    q' cancel near sigma = 1, which adds about eps/|1-sigma|."""
    xs = np.array([1e-6, 0.01, 0.3, 0.49, 0.5, 0.77, 0.999, -0.3, 2.3])
    q, dq = measures.PowerLaw(sigma)._q(xs, (0, 1), 1e-9)
    assert np.array_equal(q, measures.PowerLaw(sigma).q(xs))
    with mpmath.workdps(40):
        s = 2 - mpmath.mpf(sigma)
        for x, got, got_q in zip(xs, dq, q):
            frac = mpmath.mpf(x) - mpmath.floor(x)
            ref = float(-mpmath.gamma(s) * (mpmath.zeta(s, frac) - mpmath.zeta(s, 1 - frac)))
            eps = np.finfo(float).eps
            assert abs(got - ref) <= 1e-13 * abs(ref) + 16.0 * eps / abs(1.0 - sigma), x
            d = min(frac, 1 - frac)
            g, za, zb = mpmath.gamma(s - 1), mpmath.zeta(s - 1, d), mpmath.zeta(s - 1, 1 - d)
            scale = float(1e-13 * abs(g) * max(1, abs(za) + abs(zb)))
            assert abs(got_q - float(g * (za + zb))) <= scale, x


def _mp_majorant_moment(sigma, N, n):
    """c(n) of h for PowerLaw(sigma): (N+1)^-sigma int Mhat(lam, n/(N+1))
    lam^-sigma dlam by mpmath, with lam = v^(1/(2-sigma)) on (0, 1], where
    the integrand grows like lam^(1-sigma)."""
    t = mpmath.mpf(n) / (N + 1)
    s = mpmath.mpf(sigma)
    sn, cs = mpmath.sin(mpmath.pi * t), mpmath.cos(mpmath.pi * t)

    def mhat(lam):
        e2 = mpmath.exp(-lam)
        return (((1 - t) * -mpmath.expm1(-2 * lam) + 2 * e2 * lam / mpmath.pi * sn * cs)
                / (mpmath.expm1(-lam) ** 2 + 4 * e2 * sn * sn))

    p = 1 / (2 - s)
    head = mpmath.quad(lambda v: p * v ** (p - 1) * mhat(v ** p) * v ** (-p * s), [0, 1])
    tail = mpmath.quad(lambda lam: mhat(lam) * lam ** -s, [1, mpmath.inf])
    return float((head + tail) * mpmath.mpf(N + 1) ** -s)


@pytest.mark.parametrize("sigma", [1.9, 1.95, 1.99, 1.999])
@pytest.mark.parametrize("N,n", [(64, 1), (8, 3)])
def test_majorant_near_sigma_two_matches_mpmath(sigma, N, n):
    # the transform-moment quadrature does not reach these: the moment's
    # integrand grows like lam^(1-sigma) and dyadic bisection runs out of
    # floats.  At sigma = 1.95, N = 64, mpmath gives c(1) = 1.11294098539334.
    with mpmath.workdps(30):
        ref = _mp_majorant_moment(sigma, N, n)
    got = periodic.trig_majorant_h(measures.PowerLaw(sigma), N).coeff(n).real
    assert abs(got - ref) <= 1e-12 * abs(ref)
