"""Power-sum sup-norm bounds for monic polynomials on the unit disk."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from extremal import polybound
from extremal.errors import DomainError


def test_reflect_roots():
    a = np.array([0.3 + 0.1j, 2.0, -1.0 + 1.0j])
    b = polybound.reflect_roots(a)
    assert b[0] == a[0]
    assert abs(b[1] - 0.5) <= 1e-16
    assert abs(b[2] - 1.0 / np.conj(a[2])) <= 1e-16
    assert np.all(np.abs(b) <= 1.0 + 1e-12)
    # rounding-level excursions beyond |z| = 1 stay put
    c = polybound.reflect_roots(np.array([1.0 + 1e-16]))
    assert c[0] == 1.0 + 1e-16


def test_equality_witness_single_root_at_one():
    sb = polybound.disk_sup_bound(np.array([1.0]), 0)
    assert sb.M == 1 and sb.N == 0
    assert abs(sb.bound - math.log(2.0)) <= 1e-15
    assert sb.logplus_sum == 0.0
    assert sb.power_sums == ()
    sup = polybound.sup_log_oracle(np.array([1.0]))
    assert abs(sup - math.log(2.0)) <= 1e-9   # attained at z = -1
    assert sb.bound >= sup - 1e-12


def test_power_sums_and_bound_formula():
    a = np.array([0.5, -0.5])
    N = 4
    sb = polybound.disk_sup_bound(a, N)
    expect_sums = (0.0, 0.5, 0.0, 0.125)
    assert np.allclose(sb.power_sums, expect_sums, rtol=0, atol=1e-15)
    expect = 2.0 * math.log(2.0) / (N + 1.0) + 0.5 / 2.0 + 0.125 / 4.0
    assert abs(sb.bound - expect) <= 1e-15
    # true sup is log(5/4) at z = +-i
    sup = polybound.sup_log_oracle(a)
    assert abs(sup - math.log(1.25)) <= 1e-9
    assert sb.bound >= sup


def test_exterior_root_contributes_logplus():
    sb = polybound.disk_sup_bound(np.array([2.0]), 0)
    assert abs(sb.logplus_sum - math.log(2.0)) <= 1e-15
    assert abs(sb.bound - 2.0 * math.log(2.0)) <= 1e-15
    sup = polybound.sup_log_oracle(np.array([2.0]))
    assert abs(sup - math.log(3.0)) <= 1e-9   # |z - 2| at z = -1


@pytest.mark.parametrize("N", [0, 1, 4, 16])
def test_bound_is_sound_on_random_root_sets(N):
    rng = np.random.default_rng(29)
    for _ in range(30):
        m = int(rng.integers(1, 12))
        a = rng.normal(scale=0.8, size=m) + 1j * rng.normal(scale=0.8, size=m)
        sup = polybound.sup_log_oracle(a, samples=8192)
        sb = polybound.disk_sup_bound(a, N)
        assert sb.bound >= sup - 1e-9


def test_jensen_gap_small_off_circle():
    for roots in ([0.3 + 0.4j], [0.5, 1.7, -2.2], [0.1j, 0.9, 1.5 - 0.5j]):
        assert polybound.jensen_gap(np.array(roots)) <= 1e-8


def test_jensen_gap_warns_near_circle():
    with pytest.warns(RuntimeWarning):
        polybound.jensen_gap(np.array([1.0 + 5e-10]))


def test_bound_report_payload():
    rep = polybound.bound_report(np.array([1.0]), 0)
    assert set(rep) == {"M", "N", "bound", "sup_estimate", "slack",
                        "logplus_sum", "power_sums"}
    assert rep["slack"] >= -1e-12
    assert abs(rep["slack"]) <= 1e-9           # equality case
    rep2 = polybound.bound_report(np.array([0.4, 1.3 + 0.2j]), 8)
    assert rep2["M"] == 2 and rep2["N"] == 8
    assert len(rep2["power_sums"]) == 8
    assert rep2["slack"] >= -1e-12


def test_validation():
    with pytest.raises(DomainError):
        polybound.disk_sup_bound(np.array([]), 1)
    with pytest.raises(DomainError):
        polybound.disk_sup_bound(np.array([np.inf]), 1)
    with pytest.raises(DomainError):
        polybound.disk_sup_bound(np.array([1.0]), -1)
    with pytest.raises(DomainError):
        polybound.disk_sup_bound(np.array([1.0]), 1.5)
    with pytest.raises(DomainError):
        polybound.sup_log_oracle(np.array([1.0]), samples=100)


@pytest.mark.parametrize("samples", [2048.5, math.nan, 4096.0, True, "8192"])
def test_oracle_rejects_non_integer_samples(samples):
    with pytest.raises(DomainError, match="samples"):
        polybound.sup_log_oracle(np.array([1.0]), samples=samples)


def test_oracle_takes_numpy_integer_samples():
    assert polybound.sup_log_oracle(np.array([1.0]), np.int64(8192)) == \
        polybound.sup_log_oracle(np.array([1.0]), 8192)


def test_bound_rejects_boolean_degree():
    with pytest.raises(DomainError):
        polybound.disk_sup_bound(np.array([0.5]), True)


def test_roots_csv_round_trip_and_errors(tmp_path):
    good = tmp_path / "roots.csv"
    good.write_text("re,im\n1.0,0.0\n-0.5,0.25\n")
    roots = polybound.roots_from_csv(str(good))
    assert np.array_equal(roots, [1.0 + 0.0j, -0.5 + 0.25j])
    bad = tmp_path / "bad.csv"
    bad.write_text("re,im\n1.0,0.0\nxyz,0.0\n")
    with pytest.raises(DomainError, match=":3:"):
        polybound.roots_from_csv(str(bad))
    wrong = tmp_path / "wrong.csv"
    wrong.write_text("real,imag\n1.0,0.0\n")
    with pytest.raises(DomainError):
        polybound.roots_from_csv(str(wrong))


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_oracle(a, samples):
    """The oracle's former route, kept as its dual: the same grid and
    bracket, then golden-section search with one-point evaluations down to
    width 1e-13."""
    xs = (np.arange(samples) + 0.5) / samples
    vals = polybound._log_abs_on_circle(xs, a)
    best = int(np.nanargmax(np.where(np.isfinite(vals), vals, -np.inf)))
    lo, hi = (best - 1.0) / samples, (best + 2.0) / samples

    def g(x):
        return float(polybound._log_abs_on_circle(np.array([x]), a)[0])

    c, d = hi - _GOLDEN * (hi - lo), lo + _GOLDEN * (hi - lo)
    gc, gd = g(c), g(d)
    while hi - lo > 1e-13:
        if gc >= gd:
            hi, d, gd = d, c, gc
            c = hi - _GOLDEN * (hi - lo)
            gc = g(c)
        else:
            lo, c, gc = c, d, gd
            d = lo + _GOLDEN * (hi - lo)
            gd = g(d)
    grid_best = float(vals[best]) if math.isfinite(vals[best]) else -math.inf
    return max(grid_best, gc, gd)


def test_zoom_is_never_below_golden_section():
    """On 200 random root sets with M <= 64 the zoom finds at least what
    golden-section search finds on the same bracket, to 1e-13."""
    rng = np.random.default_rng(20261018)
    gaps = []
    for _ in range(200):
        m = int(rng.integers(1, 65))
        a = rng.uniform(-2, 2, m) + 1j * rng.uniform(-2, 2, m)
        gaps.append(polybound.sup_log_oracle(a, 8192) - _golden_oracle(a, 8192))
    assert min(gaps) >= -1e-13
    assert max(gaps) <= 1e-9     # same cell, same maximum


def _circle(xs):
    return np.exp(2j * np.pi * np.asarray(xs, dtype=float))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.lists(st.floats(0.0, 1.0), max_size=6),
       st.lists(st.integers(0, 8191), max_size=6),
       st.lists(st.tuples(st.floats(0.2, 3.0), st.floats(0.0, 1.0)), max_size=6))
def test_oracle_with_roots_on_the_circle_and_the_grid(on_circle, on_grid, free):
    """Roots on the circle, on grid points of the 8192-sample grid and off
    the circle: the oracle is finite, not below its grid or the golden
    route, and below the power-sum bound."""
    roots = np.concatenate([
        _circle(on_circle), _circle((np.array(on_grid) + 0.5) / 8192),
        np.array([r for r, _ in free]) * _circle([t for _, t in free]),
        [0.1]])
    sup = polybound.sup_log_oracle(roots, 8192)
    grid = polybound._log_abs_on_circle((np.arange(8192) + 0.5) / 8192, roots)
    assert math.isfinite(sup)
    assert sup >= np.max(grid[np.isfinite(grid)])
    assert sup >= _golden_oracle(roots, 8192) - 1e-13
    for N in (0, 4, 16):
        assert polybound.disk_sup_bound(roots, N).bound >= sup - 1e-9


@pytest.mark.parametrize("samples", [8192, 65536])
def test_oracle_evaluates_the_circle_nine_times(samples, monkeypatch):
    """One FFT of every 8th cell, then nine product-form calls: the cells
    the screen keeps (one to eight intervals of 8 cells with their ends),
    and 8 zoom steps of 33 points."""
    shapes, ffts = [], []
    evaluate, fft = polybound._log_abs_on_circle, np.fft.fft

    def counted(xs, a, owner=None, counts=None):
        shapes.append(np.shape(xs))
        return evaluate(xs, a, owner, counts)

    def counted_fft(c, n):
        ffts.append(n)
        return fft(c, n)

    monkeypatch.setattr(polybound, "_log_abs_on_circle", counted)
    monkeypatch.setattr(np.fft, "fft", counted_fft)
    rng = np.random.default_rng(5)
    for m in (1, 7, 40):
        a = rng.normal(size=m) + 1j * rng.normal(size=m)
        kept = int(np.count_nonzero(polybound._grid_cells(a[None], samples)))
        shapes.clear()
        ffts.clear()
        polybound.sup_log_oracle(a, samples)
        assert ffts == [samples // 8]
        assert shapes == [(kept,)] + [(1, 33)] * 8
        assert 9 <= kept <= 65


def test_oracle_takes_each_root_count_in_lockstep(monkeypatch):
    """Five sets of four root counts that take one or two product-form
    groups: one FFT per number of groups, of all its sets padded to its
    largest count, on every 8th cell, and nine product-form calls per
    number: the kept cells of all its sets, then 8 zoom steps of 33 points,
    a row for each set."""
    shapes, ffts = [], []
    evaluate, fft = polybound._log_abs_on_circle, np.fft.fft

    def counted(xs, a, owner=None, counts=None):
        shapes.append(np.shape(xs))
        return evaluate(xs, a, owner, counts)

    def counted_fft(c, n):
        ffts.append((np.shape(c), n))
        return fft(c, n)

    monkeypatch.setattr(polybound, "_log_abs_on_circle", counted)
    monkeypatch.setattr(np.fft, "fft", counted_fft)
    rng = np.random.default_rng(6)
    sets = [rng.normal(size=m) + 1j * rng.normal(size=m) for m in (9, 4, 12, 3, 4)]
    polybound.sup_log_oracles(sets, 8192)
    assert ffts == [((3, 5), 1024), ((2, 13), 1024)]
    assert len(shapes) == 18 and len(shapes[0]) == len(shapes[9]) == 1
    assert 3 * 9 <= shapes[0][0] <= 3 * 65 and 2 * 9 <= shapes[9][0] <= 2 * 65
    assert shapes[1:9] == [(3, 33)] * 8 and shapes[10:] == [(2, 33)] * 8


def _root_sets(samples):
    """Root sets of every kind the oracle branches on: 1-32 complex roots,
    real roots and sets closed under conjugation (real coefficients), a
    root on a grid point beside two roots near 1e200 (E is not finite, so
    every cell is kept and one is -inf), and 48-64 equally spaced roots on
    the unit circle (2E reaches the peak)."""
    coord = st.floats(-2.0, 2.0)
    free = st.lists(st.tuples(coord, coord), min_size=1, max_size=32).map(
        lambda rs: np.array([complex(x, y) for x, y in rs]))
    real = st.lists(coord, min_size=1, max_size=32).map(
        lambda rs: np.array(rs, dtype=complex))
    closed = st.tuples(st.lists(st.tuples(coord, coord), min_size=1, max_size=15),
                       st.lists(coord, max_size=2)).map(
        lambda p: np.concatenate([[complex(x, y) for x, y in p[0]],
                                  [complex(x, -y) for x, y in p[0]], p[1]]))
    on_grid = st.tuples(st.integers(0, samples - 1), st.floats(0.0, 1.0),
                        st.lists(st.tuples(coord, coord), max_size=8)).map(
        lambda p: np.concatenate([_circle([(p[0] + 0.5) / samples]),
                                  1e200 * _circle([p[1], p[1] + 0.5]),
                                  [complex(x, y) for x, y in p[2]]]))
    flat = st.tuples(st.integers(48, 64), st.floats(0.0, 1.0)).map(
        lambda p: _circle(np.arange(p[0]) / p[0] + p[1]))
    return st.one_of(free, real, closed, on_grid, flat)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([1024, 8192]).flatmap(
    lambda s: st.tuples(st.just(s), st.lists(_root_sets(s), min_size=1, max_size=8))))
def test_a_set_has_its_oracle_bits_in_any_batch(drawn):
    """sup_log_oracle of a root set alone is, bit for bit, its entry of a
    batch of sets of mixed root counts, whatever the kind of each set; a
    set's polynomial is np.poly's, bit for bit, where that is finite; sets
    near 1e200 and on the flat circle keep every cell."""
    samples, sets = drawn
    batch = polybound.sup_log_oracles(sets, samples)
    alone = np.array([polybound.sup_log_oracle(a, samples) for a in sets])
    assert batch.view(np.uint64).tolist() == alone.view(np.uint64).tolist()
    for a in sets:
        with np.errstate(over="ignore", invalid="ignore"):   # roots near 1e200
            c, ref = polybound._poly(a[None])[0], np.asarray(np.poly(a), complex)
        if np.all(np.isfinite(ref)):
            assert np.array_equal(c.view(float), ref.view(float))
        else:
            assert not np.all(np.isfinite(c))
        if len(a) >= 48 or np.max(np.abs(a)) > 1e199:
            assert polybound._grid_cells(a[None], samples).all()


def _screened_sets(samples):
    """Root sets the coarse screen sees: 1-64 complex roots, real roots,
    sets closed under conjugation, 1-64 roots on the unit circle, a root on
    a grid point among free roots, and the sets of _root_sets (roots near
    1e200, where E is not finite and every cell is kept, and the flat
    circle)."""
    coord = st.floats(-2.0, 2.0)
    free = st.lists(st.tuples(coord, coord), min_size=1, max_size=64).map(
        lambda rs: np.array([complex(x, y) for x, y in rs]))
    real = st.lists(coord, min_size=1, max_size=64).map(
        lambda rs: np.array(rs, dtype=complex))
    closed = st.lists(st.tuples(coord, coord), min_size=1, max_size=32).map(
        lambda rs: np.array([complex(x, s * y) for x, y in rs for s in (1, -1)]))
    circle = st.lists(st.floats(0.0, 1.0), min_size=1, max_size=64).map(_circle)
    on_grid = st.tuples(st.integers(0, samples - 1),
                        st.lists(st.tuples(coord, coord), max_size=32)).map(
        lambda p: np.concatenate([_circle([(p[0] + 0.5) / samples]),
                                  [complex(x, y) for x, y in p[1]]]))
    return st.one_of(free, real, closed, circle, on_grid, _root_sets(samples))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([1024, 8192, 65536]).flatmap(
    lambda s: st.tuples(st.just(s), st.lists(_screened_sets(s), min_size=1, max_size=3))))
def test_the_screen_keeps_the_oracle_bits(drawn):
    """The coarse screen of _grid_cells keeps the first argmax of the
    product form over the whole grid, and the oracle has the bits it has
    with every cell kept, the trivially safe superset."""
    samples, sets = drawn
    screened = polybound.sup_log_oracles(sets, samples)
    with mock.patch.object(polybound, "_grid_cells",
                           lambda alpha, samples: np.ones((len(alpha), samples), bool)):
        every = polybound.sup_log_oracles(sets, samples)
    assert screened.view(np.uint64).tolist() == every.view(np.uint64).tolist()
    grid = (np.arange(samples) + 0.5) / samples
    for a in sets:
        best = int(np.argmax(polybound._log_abs_on_circle(grid, a)))
        with np.errstate(over="ignore", invalid="ignore"):   # roots near 1e200
            assert polybound._grid_cells(a[None], samples)[0, best]


def _log_sum(xs, a):
    """The oracle's former circle values: one logarithm per root."""
    z = np.exp(2j * np.pi * np.asarray(xs, dtype=float))
    with np.errstate(divide="ignore"):
        return sum(np.log(np.abs(z - am)) for am in a)


def _product_grid_oracle(a, samples):
    """The oracle with the product form on every cell of the grid."""
    vals = polybound._log_abs_on_circle((np.arange(samples) + 0.5) / samples, a)
    best = int(np.argmax(vals))
    sup, lo, hi = float(vals[best]), (best - 1.0) / samples, (best + 2.0) / samples
    while hi - lo > 1e-13:
        xs = lo + (hi - lo) * np.arange(33) / 32.0
        vals = polybound._log_abs_on_circle(xs, a)
        j = int(np.argmax(vals))
        sup = max(sup, float(vals[j]))
        j = min(max(j, 1), 31)
        lo, hi = xs[j - 1], xs[j + 1]
    return best, sup


def test_fft_keeps_the_cell_of_the_product_grid():
    """On 200 root sets drawn as criterion 10 draws them, the FFT keeps the
    product grid's best cell, and the oracle is that of the product grid;
    the product form is within 1e-13 of one logarithm per root."""
    rng = np.random.default_rng(20261020)
    samples, grid = 8192, (np.arange(8192) + 0.5) / 8192
    for _ in range(200):
        m = int(rng.integers(1, 33))
        a = rng.uniform(-2, 2, m) + 1j * rng.uniform(-2, 2, m)
        best, sup = _product_grid_oracle(a, samples)
        assert polybound._grid_cells(a[None], samples)[0, best]
        assert abs(polybound.sup_log_oracle(a, samples) - sup) <= 1e-13
        product, loop = polybound._log_abs_on_circle(grid, a), _log_sum(grid, a)
        assert np.max(np.abs(product - loop)) <= 1e-13 * max(1.0, np.max(np.abs(loop)))


def test_rounding_gate_keeps_every_cell_of_a_flat_circle():
    """F = z^64 - 2^64 (64 equally spaced roots at radius 2): np.poly rounds
    its coefficients by about eps 3^64, far above the spread 2 of |F| on the
    circle, so every cell goes to the product form; sup log|F| = log(2^64 + 1)."""
    a = 2.0 * np.exp(2j * np.pi * np.arange(64) / 64)
    assert polybound._grid_cells(a[None], 8192).all()
    assert abs(polybound.sup_log_oracle(a, 8192) - math.log(2.0 ** 64 + 1.0)) <= 1e-13


def test_product_form_takes_roots_far_outside_the_circle():
    """Each factor is scaled by max(1, |alpha|), so products of 8 roots near
    1e200 do not overflow."""
    a = np.concatenate([1e200 * np.exp(2j * np.pi * np.arange(9) / 9), [0.5, 1.5j]])
    xs = np.linspace(0.0, 1.0, 101)
    loop = _log_sum(xs, a)
    assert np.all(np.isfinite(polybound._log_abs_on_circle(xs, a)))
    assert np.max(np.abs(polybound._log_abs_on_circle(xs, a) - loop)) <= 1e-13 * np.max(loop)
    assert polybound.sup_log_oracle(a, 8192) >= np.max(loop) * (1.0 - 1e-13)


def test_bound_of_lower_degree_from_the_same_power_sums():
    """SupBound.at(n) is disk_sup_bound(alpha, n).bound, bit for bit."""
    rng = np.random.default_rng(3)
    a = rng.uniform(-2, 2, 17) + 1j * rng.uniform(-2, 2, 17)
    sb = polybound.disk_sup_bound(a, 64)
    assert sb.at(64) == sb.bound
    for n in range(65):
        assert sb.at(n) == polybound.disk_sup_bound(a, n).bound
    for bad in (65, -1, 2.0, True):
        with pytest.raises(DomainError):
            sb.at(bad)


def test_power_sums_match_the_product_loop():
    """The cumulative-product power sums against N successive products."""
    rng = np.random.default_rng(11)
    a = rng.uniform(-2, 2, 40) + 1j * rng.uniform(-2, 2, 40)
    beta = polybound.reflect_roots(a)
    cur, loop = np.ones_like(beta), []
    for _ in range(64):
        cur = cur * beta
        loop.append(abs(complex(np.sum(cur))))
    sums = polybound.disk_sup_bound(a, 64).power_sums
    assert len(sums) == 64
    assert np.max(np.abs(np.array(sums) - loop)) <= 1e-13


def _bound_alone(a, n, rows):
    """The bound of degree n written out for one set: its log+ sum, the
    power sums of one cumulative product over ``rows`` >= n rows, and the
    terms s_k/k added in order."""
    mods = np.abs(a)
    logplus = float(np.sum(np.log(mods[mods > polybound._INTERIOR_GUARD])))
    beta = polybound.reflect_roots(a)
    powers = np.cumprod(np.broadcast_to(beta, (rows, len(a))), axis=0)[:n]
    partial = 0.0
    for k, s in enumerate(np.abs(np.sum(powers, axis=1)).tolist(), start=1):
        partial += s / k
    return logplus + len(a) * math.log(2.0) / (n + 1.0) + partial


# a root: on the unit circle, or of modulus 10^e for e in [-8, 8], at a
# drawn angle; a set of 1-12 of them
_moduli = st.one_of(st.just(1.0), st.floats(-8.0, 8.0).map(lambda e: 10.0 ** e))
_roots = st.lists(st.tuples(_moduli, st.floats(0.0, 1.0)), min_size=1, max_size=12).map(
    lambda rs: np.array([r * np.exp(2j * np.pi * t) for r, t in rs]))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 40), st.lists(_roots, min_size=1, max_size=8))
def test_a_set_has_its_bound_bits_in_any_batch(N, sets):
    """disk_sup_bounds over a batch of sets of mixed root counts, roots on,
    inside and outside the circle with moduli 1e-8 ... 1e8: each entry is
    disk_sup_bound of its set alone, and its at(n) is, bit for bit, the
    bound of degree n written out from the same products.  That is the
    bound of degree n alone for every n <= N but n = 2 < N: numpy's cumprod
    of exactly two rows multiplies the second as a vector product, which
    can round beta^2 apart from the row-by-row products of three or more."""
    for a, sb in zip(sets, polybound.disk_sup_bounds(sets, N)):
        assert sb == polybound.disk_sup_bound(a, N)
        for n in range(N + 1):
            assert sb.at(n) == _bound_alone(a, n, N)
            if n != 2 or N == 2:
                assert sb.at(n) == polybound.disk_sup_bound(a, n).bound


def test_jensen_gaps_of_a_batch():
    """jensen_gaps of a batch is one vector integral: every gap is small,
    the batch of one is jensen_gap, and a root near the circle in any set
    warns once."""
    rng = np.random.default_rng(5)
    sets = [rng.uniform(0.2, 0.8, m) * np.exp(2j * np.pi * rng.uniform(size=m))
            * np.where(rng.uniform(size=m) < 0.5, 1.0, 2.5) for m in (1, 3, 3, 8)]
    gaps = polybound.jensen_gaps(sets)
    assert gaps.shape == (4,) and np.all(gaps <= 1e-8)
    assert polybound.jensen_gap(sets[0]) == polybound.jensen_gaps(sets[:1])[0]
    with pytest.warns(RuntimeWarning, match="unit circle") as caught:
        polybound.jensen_gaps(sets + [np.array([1.0 + 5e-10])])
    assert len(caught) == 1
