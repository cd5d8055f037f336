"""Properties of the lattice-interpolation series shared by L, M, G and H."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from extremal import kernels, measures, superposed
from extremal.errors import DomainError

PROPS = settings(max_examples=150, deadline=None, derandomize=True, database=None)

lams = st.floats(math.log(0.1), math.log(10.0)).map(math.exp)
xs = st.one_of(
    st.floats(-60.0, 60.0),
    st.integers(-120, 120).map(lambda k: k / 2.0),               # exact nodes
    st.tuples(st.integers(-120, 120), st.floats(-3e-6, 3e-6)).map(
        lambda t: t[0] / 2.0 + t[1]),                            # near nodes
)


def _one_atom(lam):
    return measures.Atomic((lam,), (1.0,))


def _bits(v):
    return np.float64(v).tobytes()


@PROPS
@given(lams, xs)
def test_single_kernel_is_one_atom_superposition(lam, x):
    """L = G_{delta_lam} + e^{-lam} and M = H_{delta_lam} + e^{-lam}."""
    shift = math.exp(-lam)
    g = superposed.Minorant(_one_atom(lam)).value(x)
    h = superposed.Majorant(_one_atom(lam)).value(x)
    assert abs(kernels.minorant_values(lam, x) - (g + shift)) <= 1e-13
    assert abs(kernels.majorant_values(lam, x) - (h + shift)) <= 1e-13


@PROPS
@given(lams, xs)
def test_values_are_even_bit_for_bit(lam, x):
    g = superposed.Minorant(_one_atom(lam))
    h = superposed.Majorant(_one_atom(lam))
    for fn in (lambda v: kernels.minorant_values(lam, v),
               lambda v: kernels.majorant_values(lam, v), g.value, h.value):
        assert _bits(fn(x)) == _bits(fn(-x))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_points_raise(bad):
    g = superposed.Minorant(measures.HaarLog())
    h = superposed.Majorant(measures.PowerLaw(1.5))
    for fn in (lambda v: kernels.minorant_values(1.0, v),
               lambda v: kernels.majorant_values(1.0, v), g.value, h.value):
        for x in (bad, np.array([0.5, bad, 2.0])):
            with pytest.raises(DomainError, match="finite"):
                fn(x)


def test_array_shape_is_kept():
    x = np.linspace(-3.0, 3.0, 12).reshape(3, 4)
    flat = kernels.majorant_values(0.8, x.ravel())
    assert np.array_equal(kernels.majorant_values(0.8, x), flat.reshape(3, 4))
    flat = kernels.minorant_values(0.8, x.ravel())
    assert np.array_equal(kernels.minorant_values(0.8, x), flat.reshape(3, 4))


def _long_series(lam, x, first):
    """L (first = 1/2) or M (first = 1) by a direct sum over the nodes up to
    |x| + ceil(log(1e14)/lam) + 10; the nearest node's term, whatever its
    distance du, in the closed form sinc(du)^2 (f + du f')."""
    y = np.abs(np.asarray(x, dtype=float))[:, None]
    s = np.arange(first, y.max() + math.ceil(math.log(1e14) / lam) + 10)
    near = np.rint(y - first) + first            # first = 1 allows the node 0
    du = y - near
    f = np.exp(-lam * s)
    # the unpaired node 0 of M carries f(0) = 1 and no slope term
    node = np.where(near == 0.0, 1.0, np.exp(-lam * near) * (1.0 - lam * du))
    with np.errstate(divide="ignore", invalid="ignore"):
        direct = np.where(s == near, 0.0, f / (y - s) ** 2 - lam * f / (y - s))
        zero = np.where(near == 0.0, 0.0, 1.0 / y ** 2) if first == 1.0 else 0.0
    total = zero + np.sum(direct + f / (y + s) ** 2 + lam * f / (y + s), axis=1,
                          keepdims=True)
    value = (np.sin(np.pi * du) / np.pi) ** 2 * total + np.sinc(du) ** 2 * node
    return value[:, 0]


far_xs = st.one_of(
    st.floats(-500.0, 500.0),
    st.integers(-1000, 1000).map(lambda k: k / 2.0),             # exact nodes
    st.tuples(st.integers(-1000, 1000), st.floats(-3e-6, 3e-6)).map(
        lambda t: t[0] / 2.0 + t[1]),                            # near nodes
)


@PROPS
@given(st.floats(math.log(1e-3), math.log(10.0)).map(math.exp),
       st.lists(far_xs, min_size=1, max_size=8))
def test_short_truncation_matches_a_long_one(lam, xs):
    """K(lam) nodes, or the horizon and the Euler-Maclaurin tail where K(lam)
    is more: within 1e-15 of a direct sum with nodes reaching past |x|."""
    xs = np.array(xs)
    assert np.max(np.abs(kernels.minorant_values(lam, xs)
                         - _long_series(lam, xs, 0.5))) <= 1e-15
    assert np.max(np.abs(kernels.majorant_values(lam, xs)
                         - _long_series(lam, xs, 1.0))) <= 1e-15


atomic_measures = st.lists(
    st.tuples(lams, st.floats(0.01, 1.0)), min_size=1, max_size=5,
    unique_by=lambda atom: atom[0]).map(
        lambda atoms: measures.Atomic(*zip(*sorted(atoms))))


@PROPS
@given(atomic_measures, st.lists(far_xs, min_size=1, max_size=8))
def test_one_sided_over_random_atomic_measures(mu, xs):
    """sum_i w_i L(lam_i, .) <= sum_i w_i e^{-lam_i|.|} <= sum_i w_i M(lam_i, .),
    and G_mu <= f_mu <= H_mu, to -1e-11."""
    xs = np.array(xs)
    atoms = list(zip(mu.points, mu.weights))
    e = sum(w * np.exp(-lam * np.abs(xs)) for lam, w in atoms)
    lo = sum(w * kernels.minorant_values(lam, xs) for lam, w in atoms)
    hi = sum(w * kernels.majorant_values(lam, xs) for lam, w in atoms)
    assert np.min(e - lo) >= -1e-11
    assert np.min(hi - e) >= -1e-11
    f = mu.f(xs)
    assert np.min(f - superposed.Minorant(mu).value(xs)) >= -1e-11
    assert np.min(superposed.Majorant(mu).value(xs) - f) >= -1e-11
