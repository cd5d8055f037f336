"""The moment methods of the measure classes.

Atomic moments are the explicit weighted sums of the single-rate kernels;
a Weight's vector methods equal one scalar integral per point; every
closed form of HaarLog and PowerLaw matches the quadrature fallback of the
Measure base; the moments of a kind take its gate, and the defect moment
at delta is that of the dilation; f, r_mu and q_mu share one
divergent-point rule without a numpy warning; and a scalar f or f' is
exactly the array call at that point.
"""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from extremal import forms, kernels, measures, periodic, polybound, specfun
from extremal.errors import AdmissibilityError, DomainError
from oracles import transform_moment

PROPS = settings(max_examples=40, deadline=None, derandomize=True, database=None)

rates = st.floats(math.log(0.05), math.log(20.0)).map(math.exp)
atomic = st.lists(st.tuples(rates, st.floats(0.01, 10.0)), min_size=1, max_size=5,
                  unique_by=lambda a: a[0]).map(
    lambda a: measures.Atomic(*zip(*sorted(a))))
points = st.lists(st.floats(0.01, 5.0).filter(lambda v: v not in (1.0, 2.0, 3.0, 4.0)),
                  min_size=1, max_size=6)


def _sum(mu, kernel):
    """sum_i w_i kernel(lam_i) and sum_i w_i |kernel(lam_i)|, term by term."""
    terms = [w * np.asarray(kernel(l), dtype=float)
             for l, w in zip(mu.points, mu.weights)]
    return sum(terms), sum(np.abs(t) for t in terms)


def _assert_sum(value, expected, rel=1e-13):
    total, scale = expected
    assert np.all(np.abs(np.asarray(value) - total) <= rel * scale)


@PROPS
@given(atomic, points)
def test_atomic_moments_are_weighted_kernel_sums(mu, xs):
    ts = np.asarray(xs)
    _assert_sum(mu.r(ts), _sum(mu, lambda l: 2.0 * l / (l * l + 4.0 * math.pi ** 2 * ts ** 2)))
    _assert_sum(mu.q(ts), _sum(mu, lambda l: kernels.eval_p(l, ts)))
    _assert_sum(mu.q(xs[0]), _sum(mu, lambda l: kernels.eval_p(l, xs[0])))
    _assert_sum(mu.defect_moment("minorant"), _sum(mu, specfun.defect_minorant))
    _assert_sum(mu.defect_moment("majorant"), _sum(mu, specfun.defect_majorant))
    us = ts / (1.0 + ts)
    _assert_sum(transform_moment(mu, "minorant", us),
                _sum(mu, lambda l: kernels.eval_Lhat(l, us)))
    _assert_sum(transform_moment(mu, "majorant", us),
                _sum(mu, lambda l: kernels.eval_Mhat(l, us)))


def _table_weight(tmp_path):
    path = tmp_path / "w.csv"
    path.write_text("lambda,weight\n0.2,1.0\n0.9,2.5\n3.0,0.4\n8.0,1.0\n")
    return measures.weight_from_csv(str(path))


def _scalar(mu, kernel, tol):
    return measures.integrate(kernel, mu, tol=tol).value


@pytest.mark.parametrize("which", ["exp", "table"])
def test_weight_vector_methods_equal_scalar_integrals(which, tmp_path):
    mu = (measures.Weight(lambda lam: np.exp(-lam)) if which == "exp"
          else _table_weight(tmp_path))
    xs = np.array([0.05, 0.4, 1.3, 2.75, 9.0])
    tol = 1e-10
    f, fp, fd = mu.f(xs), mu.f_prime(-xs), mu.f_derivs(xs)
    r, q = mu.r(xs, tol), mu.q(xs, 1e-9)
    for i, a in enumerate(xs):
        assert abs(f[i] - _scalar(mu, lambda l: np.exp(-l * a) - np.exp(-l), tol)) <= tol
        assert abs(fp[i] - _scalar(mu, lambda l: l * np.exp(-l * a), tol)) <= tol
        assert abs(fd[0][i] - f[i]) <= tol
        for k in range(1, 5):
            d = _scalar(mu, lambda l: (-l) ** k * np.exp(-l * a), tol)
            assert abs(fd[k][i] - d) <= tol
        rr = _scalar(mu, lambda l: 2.0 * l / (l * l + 4.0 * math.pi ** 2 * a * a), tol)
        assert abs(r[i] - rr) <= tol
        assert abs(q[i] - _scalar(mu, lambda l: kernels.eval_p(l, a), 1e-9)) <= 1e-9
    assert [d.shape for d in fd] == [xs.shape] * 5
    assert mu.f(xs.reshape(5, 1)).shape == (5, 1)
    assert isinstance(mu.f(0.4), float) and isinstance(mu.f_prime(-0.4), float)


def test_r_mu_zero_sentinel_and_array_rejection():
    # a divergent r_mu(0) is the float inf, alone or in place in an array
    weight = measures.Weight(lambda lam: np.exp(-lam))
    v = forms.r_mu(weight, 0.0)
    assert type(v) is float and v == math.inf
    for mu in (measures.HaarLog(), measures.PowerLaw(0.5), weight):
        r = forms.r_mu(mu, np.array([0.5, 0.0, 2.0]))
        assert r.shape == (3,) and r[1] == math.inf
        assert np.array_equal(r[[0, 2]], forms.r_mu(mu, np.array([0.5, 2.0])))
    atom = measures.Atomic((0.5, 2.0), (1.0, 3.0))
    assert forms.r_mu(atom, np.array([0.0, 1.0]))[0] == pytest.approx(
        2.0 / 0.5 + 6.0 / 2.0, rel=1e-15)


CLOSED = [measures.HaarLog(), measures.PowerLaw(0.5), measures.PowerLaw(1.5, 2.0)]


@pytest.mark.parametrize("mu", CLOSED, ids=repr)
def test_closed_forms_match_the_quadrature_fallback(mu):
    base = measures.Measure
    ts = np.array([0.3, 1.0, 4.5])
    xs = np.array([0.1, 0.5, 0.85])
    assert np.allclose(mu.r(ts), base.r(mu, ts, 1e-11), rtol=1e-8, atol=0)
    # the defect moments by quadrature (base.defect_moment would take the
    # closed _q at 1/2 and 0)
    assert mu.defect_moment("minorant") == pytest.approx(
        measures.integrate(specfun.defect_minorant, mu, 1e-11).value, rel=1e-8)
    if mu.classify().cond47:
        assert mu.defect_moment("majorant") == pytest.approx(
            measures.integrate(specfun.defect_majorant, mu, 1e-11).value, rel=1e-8)
    # q and q' (the _q ladder; base.q would dispatch to the closed _q)
    assert np.allclose(mu._q(xs, (0, 1), 1e-9), base._q(mu, xs, (0, 1), 1e-10),
                       rtol=0, atol=1e-8)


DERIVS_CLOSED = [measures.HaarLog(), measures.PowerLaw(0.5), measures.PowerLaw(1.5, 2.0)]


@pytest.mark.parametrize("mu", DERIVS_CLOSED, ids=repr)
def test_closed_derivative_ladders_match_the_quadrature_fallback(mu):
    us = np.array([0.3, 1.0, 4.5, 512.0])
    closed = np.array(mu.f_derivs(us))
    base = measures.Measure._derivs(mu, us, range(5))
    assert closed.shape == base.shape == (5, 4)
    assert np.all(np.abs(closed - base) <= 1e-10)


def test_base_f_converges_for_a_density_singular_at_zero():
    # e^{-lam a} - e^{-lam} taken as a difference cancels as lam -> 0, and
    # lam^-1.5 magnifies its rounding error past the quadrature budget
    singular = measures.Weight(lambda lam: lam ** -1.5)
    assert abs(singular.f(0.3) - measures.PowerLaw(1.5).f(0.3)) <= 1e-10


@pytest.mark.parametrize("sigma, us", [(1.5, [1e-3]),
                                       (0.5, np.geomspace(0.01, 600.0, 12))],
                         ids=["power1.5-near-0", "power0.5-wide"])
def test_base_derivative_ladder_converges_for_singular_densities(sigma, us):
    weight = measures.Weight(lambda lam: lam ** -sigma)
    closed = np.array(measures.PowerLaw(sigma).f_derivs(us))
    assert np.allclose(weight.f_derivs(us), closed, rtol=1e-8, atol=0)


def test_haar_majorant_moments_and_unknown_kinds_raise():
    haar = measures.HaarLog()
    with pytest.raises(AdmissibilityError):
        haar.defect_moment("majorant")
    with pytest.raises(AdmissibilityError):
        transform_moment(haar, "majorant", np.array([0.5]))
    # the closed form 2 Gamma(1-s) zeta(1-s) reads -5.18 at s = 0.5, where
    # the moment is +inf
    with pytest.raises(AdmissibilityError, match="cond47"):
        measures.PowerLaw(0.5).defect_moment("majorant")
    for mu in (haar, measures.PowerLaw(1.5), measures.Atomic((1.0,), (1.0,))):
        with pytest.raises(DomainError):
            mu.defect_moment("upper")
    with pytest.raises(DomainError):
        transform_moment(measures.Atomic((1.0,), (1.0,)), "upper", np.array([0.5]))


def test_weight_majorant_moments_take_the_gate():
    # the base moments gate the kind before any quadrature, as HaarLog does
    mu = measures.Weight(lambda lam: lam ** -0.5)
    with pytest.raises(AdmissibilityError, match="cond47"):
        mu.defect_moment("majorant")
    with pytest.raises(AdmissibilityError, match="cond47"):
        transform_moment(mu, "majorant", np.array([0.5]))


@pytest.mark.parametrize("mu", [measures.HaarLog(), measures.PowerLaw(0.5),
                                measures.PowerLaw(1.5, 2.0),
                                measures.Atomic((0.5, 2.0), (1.0, 3.0)),
                                measures.Weight(lambda lam: np.exp(-lam))],
                         ids=["haar", "power0.5", "power1.5", "atomic", "weight"])
def test_defect_moment_at_delta_is_that_of_the_dilation(mu):
    kinds = ["minorant", "majorant"] if mu.classify().cond47 else ["minorant"]
    for kind in kinds:
        for delta in (0.5, 3.0):
            assert (mu.defect_moment(kind, 1e-10, delta)
                    == mu.dilate(delta).defect_moment(kind, 1e-10) / delta)


def test_q_mu_integer_points_are_the_majorant_defect_moment():
    mu = measures.Atomic((0.5, 2.0), (1.0, 3.0))
    q = mu.q(np.array([0.0, 0.25, 2.0]))
    assert q[0] == q[2] == mu.defect_moment("majorant")
    assert q[0] == pytest.approx(sum(w * kernels.eval_p(l, 0.0)
                                     for l, w in zip(mu.points, mu.weights)), rel=1e-15)


# f(0) = r(0) = q(0) = +inf for each; the Weight is the Haar density
DIVERGENT_AT_ZERO = [measures.HaarLog(), measures.PowerLaw(0.5),
                     measures.Weight(lambda lam: 1.0 / lam)]


@pytest.mark.parametrize("mu", DIVERGENT_AT_ZERO, ids=["haar", "power0.5", "weight"])
def test_divergent_point_is_the_sentinel_for_a_scalar_and_an_error_in_an_array(mu):
    # the one rule: the float inf for a scalar, inf in place in an array
    calls = [(mu.f, [1.0, 0.0]),
             (lambda t: forms.r_mu(mu, t), [1.0, 0.0]),
             (mu.q, [0.5, 0.0])]
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # the divergence raises no numpy warning
        for call, pts in calls:
            v = call(0.0)
            assert type(v) is float and v == math.inf
            out = call(np.array(pts))
            assert out.shape == (2,) and out[1] == math.inf
            assert out[0] == call(pts[0]) and math.isfinite(out[0])


# each call with a grid and the indices of its divergent points
DIVERGENT_GRIDS = {
    "f": (lambda mu, x: mu.f(x), [0.3, 0.0, -1.7, 2.0, -0.0], [1, 4]),
    "r_mu": (lambda mu, t: forms.r_mu(mu, t), [0.3, 0.0, 1.7, 2.0, 0.0], [1, 4]),
    "q": (lambda mu, x: mu.q(x), [0.25, 1.0, -0.6, -2.0, 3.5, 0.0], [1, 3, 5]),
}


@pytest.mark.parametrize("mu", DIVERGENT_AT_ZERO, ids=["haar", "power0.5", "weight"])
@pytest.mark.parametrize("name", sorted(DIVERGENT_GRIDS))
def test_finite_entries_are_the_call_without_the_divergent_points(mu, name):
    call, pts, bad = DIVERGENT_GRIDS[name]
    pts = np.array(pts)
    at = np.isin(np.arange(pts.size), bad)
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # no numpy warning either way
        out = call(mu, pts)
        rest = call(mu, pts[~at])
    assert np.all(out[at] == math.inf)
    assert np.all(np.isfinite(rest))
    assert np.array_equal(out[~at], rest)            # bit for bit


@pytest.mark.parametrize("mu", DIVERGENT_AT_ZERO, ids=["haar", "power0.5", "weight"])
def test_f_and_q_never_see_a_divergent_point(mu, monkeypatch):
    seen = []
    for name in ("_derivs", "_q"):
        inner = getattr(type(mu), name)
        monkeypatch.setattr(type(mu), name,
                            lambda self, x, *a, inner=inner: seen.append(np.copy(x))
                            or inner(self, x, *a))
    mu.f(np.array([0.0, 0.5, -0.0, 3.0]))
    mu.q(np.array([0.0, 0.5, 2.0, 0.25]))
    assert [x.tolist() for x in seen] == [[0.5, 3.0], [0.5, 0.25]]


def test_classify_runs_only_with_a_divergent_candidate(monkeypatch):
    mu = measures.Weight(lambda lam: np.exp(-lam))
    monkeypatch.setattr(measures.Weight, "classify",
                        lambda self: pytest.fail("classify without a candidate"))
    assert np.all(np.isfinite(mu.f(np.array([0.5, 2.0]))))
    assert np.all(np.isfinite(mu.q(np.array([0.25, 0.5]))))


FAMILIES = [measures.HaarLog(), measures.PowerLaw(0.5), measures.PowerLaw(1.5, 2.0),
            measures.Atomic((0.5, 1.0, 3.0), (0.2, 1.0, 0.7)),
            measures.Weight(lambda lam: np.exp(-lam))]
signed = st.floats(0.01, 50.0).flatmap(lambda a: st.sampled_from([a, -a]))


@PROPS
@given(xs=st.lists(signed, min_size=1, max_size=6))
@pytest.mark.parametrize("mu", FAMILIES,
                         ids=["haar", "power0.5", "power1.5", "atomic", "weight"])
def test_scalar_f_and_f_prime_are_the_array_call(mu, xs):
    # r, q and transform_moment too: each scalar is the one-point array call
    t = xs[0] / 60.0                                   # |t| in (1.6e-4, 0.84)
    cases = [(fn, x) for fn in (mu.f, mu.f_prime) for x in xs] + [
        (mu.r, abs(t)), (mu.q, t), (lambda t: transform_moment(mu, "minorant", t), t)]
    for fn, x in cases:
        s = fn(x)
        assert isinstance(s, float)
        assert s == fn(np.array([x]))[0]


# every entry that takes evaluation points, each with a measure of FAMILIES
POINT_ENTRIES = {
    "f": lambda mu, x: mu.f(x),
    "f_prime": lambda mu, x: mu.f_prime(x),
    "f_derivs": lambda mu, x: mu.f_derivs(x),
    "q": lambda mu, x: mu.q(x),
    "r_mu": lambda mu, x: forms.r_mu(mu, x),
    "Lhat": lambda mu, x: kernels.eval_Lhat(1.0, x),
    "Mhat": lambda mu, x: kernels.eval_Mhat(1.0, x),
    "p": lambda mu, x: kernels.eval_p(1.0, x),
    "j": lambda mu, x: kernels.eval_j(1.0, x),
}


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("entry", POINT_ENTRIES)
def test_a_non_finite_point_raises_domain_error(entry, x):
    # not a nan, a 0 or a numpy warning, and the message names the point,
    # not a quadrature abscissa of a Weight
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for mu in FAMILIES:
            for pts in (x, np.array([0.5, x])):
                with pytest.raises(DomainError, match="evaluation points must be finite"):
                    POINT_ENTRIES[entry](mu, pts)


@pytest.mark.parametrize("u", [0.0, -2.0], ids=["zero", "negative"])
def test_f_derivs_refuses_a_point_that_is_not_positive(u):
    # not an infinity, a nan, a numpy warning or f at some other point: an
    # even f_mu is not what the ladder at |u| gives for its odd orders, and
    # the message names the point, not a quadrature abscissa of a Weight
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for mu in FAMILIES:
            for pts in (u, np.array([0.5, u])):
                with pytest.raises(DomainError, match=f"positive points, got {u!r}"):
                    mu.f_derivs(pts)


def test_one_kind_rule_and_one_count_rule():
    haar = measures.HaarLog()
    for call in (lambda: haar.require("upper"),
                 lambda: kernels.KernelDefectAtPoint(0.5, "upper")):
        with pytest.raises(DomainError,
                           match="unknown kind 'upper'; use 'minorant' or 'majorant'"):
            call()
    for what, call in (("degree", lambda N: periodic.trig_minorant_l(1.0, N)),
                       ("N", lambda N: forms.sharpness_witness(haar, 1.0, N)),
                       ("N", lambda N: polybound.disk_sup_bound([0.5], N))):
        for N in (-1, True, 1.5):
            message = f"{what} must be a nonnegative integer, got {N!r}"
            with pytest.raises(DomainError, match=re.escape(message)):
                call(N)


def test_an_atom_sum_does_not_depend_on_the_other_points():
    """The atom sum takes the atoms one after another: f^(0..2p) of a node
    alone has the bits of the same node inside a 700-node call."""
    mu = measures.Atomic((0.3, 1.7, 4.0, 6.0, 9.0), (1.0, 0.5, 2.0, 0.3, 0.1))
    nodes = np.arange(700) + 0.5
    orders = range(kernels._ROWS)
    batch = mu._derivs(nodes, orders)
    alone = np.hstack([mu._derivs(nodes[i:i + 1], orders) for i in range(len(nodes))])
    assert alone.tobytes() == batch.tobytes()
