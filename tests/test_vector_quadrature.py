"""Vector-valued integrands: one integral of (n, m) values equals m scalar ones.

Also the array forms this enables: kernel transforms over arrays of rates,
the defect functions on arrays, q_mu over a grid, and the CLI q path.
"""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from extremal import cli, kernels, measures, periodic, quadrature, specfun, verify
from extremal.errors import DivergenceError, DomainError
from oracles import transform_moment

PROPS = settings(max_examples=40, deadline=None, derandomize=True, database=None)
TOL = 1e-10

rates = st.floats(math.log(0.05), math.log(20.0)).map(math.exp)
freqs = st.floats(0.0, 40.0)


def _components(fn, params):
    """An (n, m) integrand from a scalar family fn(x, p), one column per p."""
    ps = np.asarray(params, dtype=float)
    return lambda x: fn(np.asarray(x)[:, None], ps[None, :])


def _assert_matches_scalars(vec, scalars):
    assert isinstance(vec.value, np.ndarray) and vec.value.shape == (len(scalars),)
    assert vec.abs_err_est.shape == vec.value.shape
    for k, s in enumerate(scalars):
        assert isinstance(s.value, float)
        assert abs(vec.value[k] - s.value) <= TOL
        assert vec.abs_err_est[k] <= max(TOL, 50.0 * np.finfo(float).eps
                                         * abs(vec.value[k]))


@PROPS
@given(st.lists(st.tuples(rates, freqs), min_size=1, max_size=6))
def test_finite_vector_equals_scalar_integrals(params):
    def fn(x, a, b):
        return np.exp(-a * x) * np.cos(b * x)

    a_s, b_s = (np.array(v) for v in zip(*params))
    vec = quadrature.integrate_finite(
        lambda x: fn(x[:, None], a_s, b_s), 0.0, 3.0, tol=TOL)
    scalars = [quadrature.integrate_finite(
        lambda x, a=a, b=b: fn(x, a, b), 0.0, 3.0, tol=TOL) for a, b in params]
    _assert_matches_scalars(vec, scalars)
    # abscissae, not abscissae times components
    assert vec.evaluations % 15 == 0
    assert vec.evaluations <= sum(s.evaluations for s in scalars)


@PROPS
@given(st.lists(rates, min_size=1, max_size=6))
def test_semiinfinite_vector_equals_scalar_integrals(cs):
    def fn(x, c):
        return np.exp(-c * x) / (1.0 + x * x)

    vec = quadrature.integrate_semiinfinite(_components(fn, cs), tol=TOL)
    scalars = [quadrature.integrate_semiinfinite(
        lambda x, c=c: fn(np.asarray(x), c), tol=TOL) for c in cs]
    _assert_matches_scalars(vec, scalars)


@PROPS
@given(st.lists(rates, min_size=1, max_size=5),
       st.lists(st.floats(0.1, 4.0), min_size=2, max_size=6, unique=True),
       st.lists(st.floats(0.2, 3.0), min_size=6, max_size=6))
def test_breakpoint_weight_vector_equals_scalar_integrals(cs, cuts, heights):
    bp = np.sort(np.asarray(cuts))
    hs = np.asarray(heights[:len(bp)])

    def density(lam):
        idx = np.clip(np.searchsorted(bp, lam, side="right") - 1, 0, len(bp) - 1)
        return np.where((lam >= bp[0]) & (lam < bp[-1]), hs[idx], 0.0)

    mu = measures.Weight(density, breakpoints=tuple(bp.tolist()))

    def fn(lam, c):
        return np.exp(-c * lam) * lam

    vec = measures.integrate(_components(fn, cs), mu, tol=TOL)
    scalars = [measures.integrate(lambda lam, c=c: fn(np.asarray(lam), c), mu,
                                  tol=TOL) for c in cs]
    _assert_matches_scalars(vec, scalars)


@PROPS
@given(st.lists(rates, min_size=1, max_size=5),
       st.lists(rates, min_size=1, max_size=5, unique=True))
def test_atomic_vector_equals_scalar_sums(cs, atoms):
    pts = tuple(sorted(atoms))
    mu = measures.Atomic(pts, tuple(1.0 + 0.5 * k for k in range(len(pts))))

    def fn(lam, c):
        return np.exp(-c * lam) - np.exp(-lam)

    vec = measures.integrate(_components(fn, cs), mu, tol=TOL)
    scalars = [measures.integrate(lambda lam, c=c: fn(np.asarray(lam), c), mu)
               for c in cs]
    assert np.array_equal(vec.abs_err_est, np.zeros(len(cs)))
    _assert_matches_scalars(vec, scalars)


def test_one_column_integrand_returns_arrays():
    res = quadrature.integrate_finite(lambda x: np.exp(x)[:, None], 0.0, 1.0)
    assert res.value.shape == (1,) and res.abs_err_est.shape == (1,)
    assert abs(res.value[0] - (math.e - 1.0)) <= 1e-12


def test_array_integrand_errors_are_not_retried_point_by_point():
    calls = []

    def g(lam):
        calls.append(np.shape(lam))
        raise DomainError("integrand rejects this range")

    with pytest.raises(DomainError, match="rejects"):
        quadrature.integrate_finite(g, 0.0, 1.0)
    assert calls == [(15,)]
    calls.clear()
    with pytest.raises(DomainError, match="rejects"):
        measures.integrate(g, measures.PowerLaw(0.5))
    assert calls == [(30,)]         # both half-line pieces share the first call


def test_tabulated_weight_polynomial_takes_one_call(tmp_path):
    """The pieces of a 6-row table are the first panels of one heap, so a
    degree-20 polynomial, which the 15-point Kronrod rule integrates
    exactly, converges in the first integrand call."""
    rows = [(0.5, 2.0), (0.75, 1.0), (1.0, 3.0), (1.5, 0.5), (1.75, 4.0), (2.0, 1.0)]
    path = tmp_path / "w.csv"
    path.write_text("lambda,weight\n" + "".join(f"{l},{w}\n" for l, w in rows))
    p = np.polynomial.Polynomial([math.cos(k) / math.factorial(k) for k in range(21)])
    ip = p.integ()
    exact = sum(w * (ip(b) - ip(a)) for (a, w), (b, _) in zip(rows, rows[1:]))
    calls = []

    def g(lam):
        calls.append(np.shape(lam))
        return p(lam)

    res = measures.integrate(g, measures.weight_from_csv(path))
    assert abs(res.value - exact) <= 1e-13
    assert calls == [(75,)]


def test_scalar_only_callables_raise_type_error():
    """An integrand takes arrays: a scalar-only callable fails on its first
    call with its own TypeError, in a plain integral, an atom sum and a
    Weight's density alike, never with an IndexError further on."""
    with pytest.raises(TypeError):
        quadrature.integrate_finite(math.exp, 0.0, 1.0)
    with pytest.raises(TypeError):
        measures.integrate(math.exp, measures.Atomic((0.5, 1.0), (2.0, 1.0)))
    with pytest.raises(TypeError):
        measures.Weight(lambda l: math.exp(-l)).f(2.0)


# -- bounded slices of a pass --------------------------------------------------

def _criterion3_defects(x):
    """A wide 40-column integrand, the forward transform that criterion 3
    once took on [0, 448]: both one-sided defects at 20 rates, each column
    under its own cosine."""
    rng = np.random.default_rng(7)
    lams = 10.0 ** rng.uniform(-0.5, 0.5, 20)
    ts = np.tile(rng.uniform(0.05, 0.9, 20), 2)
    return verify._kernel_defects(lams, x) * np.cos(2.0 * math.pi
                                                    * np.multiply.outer(x, ts))


# (integrand, interval, columns m) for the slice tests
_SLICED = {
    "scalar": (lambda x: np.cos(40.0 * x) / np.sqrt(x), (0.0, 1.0), 1),
    "m=3": (_components(lambda x, p: np.exp(-p * x) * np.sin(p * x), [0.5, 3.0, 40.0]),
            (0.0, 10.0), 3),
    "criterion-3": (_criterion3_defects, (0.0, 448.0), 40),
}


def _sliced_result(case, width, monkeypatch):
    """The QuadResult of a case with _SLICE = width, and every call's size."""
    f, (a, b), m = case
    sizes = []

    def g(x):
        out = f(x)
        sizes.append(np.size(out))
        return out

    monkeypatch.setattr(quadrature, "_SLICE", width)
    res = quadrature.integrate_finite(g, a, b, tol=1e-9, budget=400_000)
    return res, sizes


def _bits(res):
    return tuple(np.asarray(v, dtype=float).tobytes()
                 for v in (res.value, res.abs_err_est)) + (res.evaluations,)


@pytest.mark.parametrize("name", list(_SLICED))
def test_values_do_not_depend_on_the_slice_width(name, monkeypatch):
    """A pass evaluated one panel per call, in slices of 1000 values or of
    2^16 gives the same QuadResult, bit for bit, and after the first call
    no call returns more than max(_SLICE, 15 m) values."""
    case = _SLICED[name]
    m = case[2]
    results = []
    for width in (15 * m, 1000, 2 ** 16):
        res, sizes = _sliced_result(case, width, monkeypatch)
        assert max(sizes[1:], default=0) <= max(width, 15 * m)
        results.append(_bits(res))
    assert results[0] == results[1] == results[2]


def test_weight_r_does_not_depend_on_the_slice_width(monkeypatch):
    """r of a Weight at 200 points: one 200-column integral."""
    mu = measures.Weight(lambda l: np.exp(-l))
    ts = np.linspace(0.05, 10.0, 200)
    values = []
    for width in (15 * 200, 1000, 2 ** 16):
        monkeypatch.setattr(quadrature, "_SLICE", width)
        values.append(mu.r(ts).tobytes())
    assert values[0] == values[1] == values[2]


def test_wrong_integrand_shape_raises():
    with pytest.raises(DomainError, match="shape"):
        quadrature.integrate_finite(lambda x: np.ones((15, 2, 2)), 0.0, 1.0)


# -- array kernel transforms ---------------------------------------------------

lam_lists = st.lists(st.floats(math.log(1e-3), math.log(1e3)).map(math.exp),
                     min_size=1, max_size=6)
t_lists = st.lists(st.floats(-1.5, 1.5), min_size=1, max_size=6)
ULPS = 4.0 * np.finfo(float).eps


@PROPS
@given(lam_lists, t_lists)
def test_array_transforms_equal_elementwise_calls(lams, ts):
    lam = np.asarray(lams)[:, None]
    t = np.asarray(ts)[None, :]
    for fn in (kernels.eval_Lhat, kernels.eval_Mhat):
        grid = fn(lam, t)
        assert grid.shape == (len(lams), len(ts))
        for i, l in enumerate(lams):
            for j, tv in enumerate(ts):
                ref = fn(l, tv)
                assert isinstance(ref, float)
                assert abs(grid[i, j] - ref) <= ULPS * max(1.0, abs(ref))


@PROPS
@given(lam_lists, st.integers(0, 5),
       st.sampled_from([0.0, -1.0, -1e-300, math.nan, math.inf, -math.inf]))
def test_array_transforms_reject_any_bad_rate(lams, where, bad):
    lam = np.asarray(lams)
    lam[where % lam.size] = bad
    for fn in (kernels.eval_Lhat, kernels.eval_Mhat):
        with pytest.raises(DomainError):
            fn(lam, 0.3)
        with pytest.raises(DomainError):
            fn(lam[:, None], np.linspace(0.0, 1.0, 4))


def test_haar_transform_moment_array_matches_scalars():
    moment = functools.partial(transform_moment, measures.HaarLog())
    ts = np.array([-1.2, -0.5, 0.125, 0.7, 1.0])
    vec = moment("minorant", ts, 1e-10)
    for t, v in zip(ts, vec):
        assert abs(v - moment("minorant", float(t), 1e-10)) <= 1e-10
    assert vec[0] == 0.0 and vec[-1] == 0.0
    with pytest.raises(DivergenceError):
        moment("minorant", np.array([0.5, 0.0]))


# -- defect functions on arrays ------------------------------------------------


@PROPS
@given(st.lists(st.floats(math.log(1e-6), math.log(1e4)).map(math.exp),
                min_size=1, max_size=12))
def test_defect_functions_on_arrays_match_scalars(lams):
    lam = np.asarray(lams)
    for fn in (specfun.defect_minorant, specfun.defect_majorant):
        vals = fn(lam)
        for l, v in zip(lams, vals):
            # both branches cancel terms of size 2/lam; an ulp of those
            # bounds the rounding difference between numpy and math
            assert abs(v - fn(l)) <= 8.0 * np.finfo(float).eps * (1.0 + 2.0 / l)


@pytest.mark.parametrize("bad", [0.0, -2.0, math.nan, math.inf])
def test_defect_functions_reject_bad_array_entries(bad):
    for fn in (specfun.defect_minorant, specfun.defect_majorant):
        with pytest.raises(DomainError):
            fn(np.array([0.5, bad, 3.0]))


@pytest.mark.parametrize("kind,sigma", [("minorant", 0.5), ("majorant", 1.5)])
def test_weight_defect_moment_matches_closed_form(kind, sigma):
    mu = measures.Weight(lambda lam: lam ** -sigma)
    quad = mu.defect_moment(kind, 1e-11)
    closed = measures.PowerLaw(sigma).defect_moment(kind, 1e-11)
    assert abs(quad - closed) <= 1e-9


# -- q_mu on arrays ------------------------------------------------------------

q_points = st.lists(st.floats(0.01, 2.99).filter(lambda v: v != 1.0 and v != 2.0),
                    min_size=1, max_size=4)


@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(q_points, st.sampled_from([0.5, 1.5]))
def test_q_mu_array_equals_scalar_calls(xs, sigma):
    mu = measures.PowerLaw(sigma)
    tol = 1e-9
    vec = mu.q(np.asarray(xs), tol=tol)
    for x, v in zip(xs, vec):
        assert abs(v - mu.q(x, tol=tol)) <= tol


def test_q_mu_array_with_integers_and_a_weight():
    pl = measures.PowerLaw(1.5)
    xs = np.array([0.0, 0.3, 1.0, 1.75])
    vec = pl.q(xs)
    for x, v in zip(xs, vec):
        assert abs(v - pl.q(float(x))) <= 1e-9
    w = measures.Weight(lambda lam: np.exp(-lam))
    vec = w.q(xs)
    for x, v in zip(xs, vec):
        assert abs(v - w.q(float(x))) <= 1e-9


def test_trig_polynomials_of_degree_zero():
    for mu in (measures.PowerLaw(1.5), measures.HaarLog()):
        assert periodic.trig_minorant_g(mu, 0).degree == 0
    assert periodic.trig_majorant_h(measures.PowerLaw(1.5), 0).degree == 0


# -- CLI -----------------------------------------------------------------------


def test_cli_q_grid_prints_inf_at_integers(capsys):
    assert cli.main(["eval", "--kind", "q", "--measure", "haar",
                     "--grid", "0:1:3"]) == 0
    expect = "x,value\n0.0,inf\n0.5,{!r}\n1.0,inf\n".format(
        measures.HaarLog().q(0.5))
    assert capsys.readouterr().out == expect


def test_cli_q_grid_mixes_sentinels_and_one_array_call(capsys):
    assert cli.main(["eval", "--kind", "q", "--measure", "power:0.5",
                     "--grid", "0:2:5"]) == 0
    rows = [r.split(",") for r in capsys.readouterr().out.splitlines()[1:]]
    mu = measures.PowerLaw(0.5)
    for x, v in rows:
        ref = mu.q(float(x))
        if ref == math.inf:
            assert v == "inf"
        else:
            assert abs(float(v) - ref) <= 1e-9


def test_fmt_prints_numpy_floats_as_plain_numbers():
    assert cli._fmt(np.float64(0.1)) == "0.1"
    assert cli._fmt(np.float64(-2.5e-300)) == "-2.5e-300"
    assert cli._fmt(np.float32(0.5)) == "0.5"
    assert cli._fmt(0.1) == "0.1" and cli._fmt(True) == "true"
    assert cli._fmt(3) == "3"
