"""Properties of the lattice-interpolation series shared by L, M, G and H."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from extremal import kernels, measures, superposed, verify
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
    g = superposed.Minorant(measures.HaarLog())
    h = superposed.Majorant(measures.PowerLaw(1.5))
    for fn in (lambda v: kernels.minorant_values(1e-3, v),
               lambda v: kernels.majorant_values(0.8, v), g.value, h.value):
        assert fn(np.zeros((0, 3))).shape == (0, 3)


def _em_pairs(y, a0, d):
    """Euler-Maclaurin value of sum_{k>=0} g(a0 + k) for the pairs g(s) =
    (f b)'(s), b(u) = 1/(y-u) - 1/(y+u), from d = f^(0..4)(a0)."""
    b = [math.factorial(k) * ((y - a0) ** -(k + 1) - (-1) ** k * (y + a0) ** -(k + 1))
         for k in range(5)]
    g = d[1] * b[0] + d[0] * b[1]
    g1 = d[2] * b[0] + 2 * d[1] * b[1] + d[0] * b[2]
    g3 = d[4] * b[0] + 4 * d[3] * b[1] + 6 * d[2] * b[2] + 4 * d[1] * b[3] + d[0] * b[4]
    return -d[0] * b[0] + g / 2 - g1 / 12 + g3 / 720


def _long_series(x, first, f, fp, horizon, derivs=None, f0=None):
    """The series at each x by a direct sum, point by point, over the nodes
    s = first, first + 1, ... below horizon(|x|), plus the Euler-Maclaurin
    value of the pairs from there on when derivs(a0) gives f^(0..4)(a0).
    f0 is the node 0 of Z (first = 1); the nearest node's term, whatever
    its distance du, is in the closed form sinc(du)^2 (f + du f')."""
    out = []
    for y in np.abs(np.atleast_1d(np.asarray(x, dtype=float))):
        s = np.arange(first, horizon(y))
        near = np.rint(y - first) + first        # first = 1 allows the node 0
        du = y - near
        fs, fps = f(s), fp(s)
        far = s != near
        total = (np.sum(fs[far] / (y - s[far]) ** 2 + fps[far] / (y - s[far]))
                 + np.sum(fs / (y + s) ** 2 - fps / (y + s)))
        if f0 is not None and near != 0.0:
            total += f0 / y ** 2
        if derivs is not None:
            total += _em_pairs(y, s[-1] + 1.0, derivs(s[-1] + 1.0))
        # the unpaired node 0 of M carries f(0) and no slope term
        node = f0 if near == 0.0 else f(near) + du * fp(near)
        out.append((np.sin(np.pi * du) / np.pi) ** 2 * total + np.sinc(du) ** 2 * node)
    return np.array(out)


def _long_exp(lam, x, first):
    """L (first = 1/2) or M (first = 1) with the nodes up to
    |x| + ceil(log(1e14)/lam) + 10 and no tail."""
    return _long_series(x, first, lambda s: np.exp(-lam * s),
                        lambda s: -lam * np.exp(-lam * s),
                        lambda y: y + math.ceil(math.log(1e14) / lam) + 10,
                        f0=None if first == 0.5 else 1.0)


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
                         - _long_exp(lam, xs, 0.5))) <= 1e-15
    assert np.max(np.abs(kernels.majorant_values(lam, xs)
                         - _long_exp(lam, xs, 1.0))) <= 1e-15


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


sigmas = st.floats(0.05, 1.95).filter(lambda s: abs(s - 1.0) > 0.02)
closed_form_measures = st.one_of(st.just(measures.HaarLog()),
                                 sigmas.map(measures.PowerLaw), atomic_measures)
# y = k/2 + tiny lies near a node of one lattice and at du ~ +-1/2 of the other
lattice_ys = st.one_of(
    st.floats(-1000.0, 1000.0),
    st.tuples(st.integers(-2000, 2000), st.floats(-3e-6, 3e-6)).map(
        lambda t: t[0] / 2.0 + t[1]),
)


@PROPS
@given(closed_form_measures, st.floats(0.5, 3.0),
       st.lists(lattice_ys, min_size=1, max_size=6))
def test_far_field_matches_a_direct_sum(mu, delta, ys):
    """G_nu(delta x) and H_nu(delta x) against a direct sum over the nodes
    below max(512, ceil(|delta x|) + 96) plus the Euler-Maclaurin tail:
    within 1e-14 max(1, |value|) where both horizons are 512 on both
    lattices (|delta x| < 415.5), and 2e-13 max(1, |value|) beyond, where
    the cell's horizon may be a node longer."""
    nu = measures.dilate(mu, delta)
    xs = np.array(ys) / delta
    y = np.abs(xs * delta)
    tol = np.where(y < 415.5, 1e-14, 2e-13)
    kinds = [(superposed.Minorant, 0.5, None)]
    if mu.classify().cond47:
        kinds.append((superposed.Majorant, 1.0, nu.f(0.0)))
    for cls, first, f0 in kinds:
        ref = _long_series(xs * delta, first, nu.f, nu.f_prime,
                           lambda v: max(512, math.ceil(v) + 96),
                           lambda a0: [d[0] for d in nu.f_derivs(a0)], f0)
        err = np.abs(cls(mu, delta).value(xs) - ref)
        assert np.all(err <= tol * np.maximum(1.0, np.abs(ref)))


tables = st.lists(st.floats(0.05, 6.0), min_size=2, max_size=4, unique=True).flatmap(
    lambda bp: st.lists(st.floats(0.1, 2.0), min_size=len(bp) - 1,
                        max_size=len(bp) - 1).map(
        lambda w: measures.Weight(
            lambda lam, bp=sorted(bp), w=w: np.select(
                [(lam >= a) & (lam < b) for a, b in zip(bp, bp[1:])], w, 0.0),
            tuple(sorted(bp)))))
all_measures = st.one_of(
    closed_form_measures, tables,
    st.floats(0.5, 2.0).map(lambda c: measures.Weight(lambda lam: np.exp(-c * lam))))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(all_measures, st.floats(0.5, 3.0), st.floats(0.05, 50.0))
def test_dilation_identity_over_random_measures(mu, delta, x):
    """f_nu(x) = f_mu(x/delta) - f_mu(1/delta) for nu = dilate(mu, delta),
    over all four families."""
    nu = measures.dilate(mu, delta)
    rhs = mu.f(x / delta) - mu.f(1.0 / delta)
    assert abs(nu.f(x) - rhs) <= 1e-9 * (1.0 + abs(rhs))


# Points near 0, at nodes of either lattice (du = 0 on one, +-1/2 on the
# other), next to a node, either side of the 512-node horizon, far past it,
# and past the cap K(1e-3) of L and M.
BATCH = np.array([0.0, 1e-9, -0.3, 0.5, 1.0, 2.5, -3.0, 7.5 + 1e-7, 12.25,
                  100.7, 415.5, -416.0, 416.7, 1000.0, -5000.2, 40000.3])


def _bit_identical_alone_and_in_batches(make):
    """make() gives a fresh evaluator; each value of BATCH taken alone by a
    fresh one has the bits of the same point inside the batch, inside the
    reversed batch, and inside a batch that a warm evaluator takes."""
    batch = make()(BATCH)
    alone = np.array([make()(x) for x in BATCH])
    warm = make()
    warm(BATCH[::-1] * 0.5)
    reverse = warm(BATCH[::-1])[::-1]
    for values in (alone, reverse):
        assert values.tobytes() == batch.tobytes()


@pytest.mark.parametrize("mu", [measures.HaarLog(), measures.PowerLaw(1.5),
                                measures.PowerLaw(0.5),
                                measures.Atomic((0.3, 2.0), (1.0, 0.5))],
                         ids=lambda m: m.family)
def test_superposed_values_do_not_depend_on_their_batch(mu):
    """G and H of the closed-form families.  A Weight is left out: it takes
    its node values from one vector integral over the nodes a call first
    asks for, so the cache it builds depends on the batch."""
    _bit_identical_alone_and_in_batches(lambda: superposed.Minorant(mu, 1.3).value)
    if mu.classify().cond47:
        _bit_identical_alone_and_in_batches(lambda: superposed.Majorant(mu).value)
    # each cell row a warm instance holds is the row its cell builds alone
    g = superposed.Minorant(mu, 1.3)
    g.value(BATCH)
    keys, rows = g._cells._table
    assert len(keys) and np.array_equal(keys, np.unique(keys))
    for c0, row in zip(keys, rows):
        alone = kernels._cell_samples(np.array([c0]), 0.5, superposed.Minorant(mu, 1.3)._nodes,
                                      lambda a0: g.nu._derivs(a0, range(5)), None)
        assert alone.tobytes() == row.tobytes()


def test_log_majorant_values_do_not_depend_on_their_batch():
    _bit_identical_alone_and_in_batches(lambda: superposed.eval_U)


@pytest.mark.parametrize("lam", [1e-8, 1e-3, 0.03, 0.07])
def test_small_rate_values_do_not_depend_on_their_batch(lam):
    """L and M where the horizon binds, below lam ~ 0.0734, and the far
    field is sampled per call (and, at 1e-3, the cap past |x| ~ 3.7e4)."""
    _bit_identical_alone_and_in_batches(lambda: lambda x: kernels.minorant_values(lam, x))
    _bit_identical_alone_and_in_batches(lambda: lambda x: kernels.majorant_values(lam, x))


@pytest.mark.parametrize("lam", [0.1, 0.5, 3.0])
def test_capped_rate_values_do_not_depend_on_their_batch(lam):
    """L and M where the cap K(lam) binds at every point, so that the
    shared reciprocal table of _direct sums them."""
    _bit_identical_alone_and_in_batches(lambda: lambda x: kernels.minorant_values(lam, x))
    _bit_identical_alone_and_in_batches(lambda: lambda x: kernels.majorant_values(lam, x))


CHUNK_POINTS = np.concatenate([np.linspace(-700.0, 700.0, 2801), BATCH])


def _one_rate_defect(lam, x, kind):
    e = np.exp(-lam * np.abs(x))
    if kind == "minorant":
        return e - kernels.minorant_values(lam, x)
    return kernels.majorant_values(lam, x) - e


# capped rates from K(0.08) = 471 nodes down to 12, and one (1e-3) that
# takes the far field at these points
RATES = [0.08, 0.1, 0.37, 0.5, 1.0, 3.0, 7.5, 20.0, 1e-3]


@pytest.mark.parametrize("kind", ["minorant", "majorant"])
def test_defects_have_the_bits_of_each_rate_alone(kind):
    """Each row of a many-rate _defects call has the bits of the one-rate
    defect from minorant_values/majorant_values, whatever other rates share
    the call: shuffled, reversed, overlapping and repeated rate sets."""
    x = np.concatenate([CHUNK_POINTS[::5], BATCH])
    alone = {lam: _one_rate_defect(lam, x, kind).tobytes() for lam in RATES}
    shuffled = [RATES[i] for i in np.random.default_rng(19).permutation(len(RATES))]
    for lams in (RATES, RATES[::-1], shuffled, RATES[:4], RATES[3:7] + [0.1, 3.0, 0.1],
                 [20.0], [0.5, 1e-3, 0.5]):
        got = kernels._defects(lams, x, kind)
        assert [row.tobytes() for row in got] == [alone[lam] for lam in lams]


def _chunk_values():
    """L/M capped and at lam = 1e-3, a many-rate defect call, G and H of
    fresh instances, at CHUNK_POINTS."""
    return np.concatenate([
        kernels.minorant_values(1.0, CHUNK_POINTS),
        kernels.majorant_values(1.0, CHUNK_POINTS),
        kernels.minorant_values(1e-3, CHUNK_POINTS),
        kernels.majorant_values(1e-3, CHUNK_POINTS),
        kernels._defects([3.0, 0.08, 1e-3, 0.5], CHUNK_POINTS, "minorant").ravel(),
        kernels._defects([0.1, 7.5, 1.0], CHUNK_POINTS, "majorant").ravel(),
        superposed.Minorant(measures.HaarLog()).value(CHUNK_POINTS),
        superposed.Majorant(measures.PowerLaw(1.5)).value(CHUNK_POINTS)])


@pytest.mark.parametrize("chunk", [4096, 262_144])
def test_values_do_not_depend_on_the_chunk_size(chunk, monkeypatch):
    """Capped sums reduce each row on its own and cell samples run over
    fixed node blocks, so the block size moves no bit."""
    default = _chunk_values()
    monkeypatch.setattr(kernels, "_CHUNK", chunk)
    assert _chunk_values().tobytes() == default.tobytes()


def _direct_per_rate(lam, x, f0):
    """The capped sum of L (f0 None) or M (f0 = 1) as it was written for one
    rate at a time, kept as the dual of the shared reciprocal table: four
    divisions per (point, node) and a pairwise np.sum per row."""
    y = np.abs(np.asarray(x, dtype=float))
    first = 0.5 if f0 is None else 1.0
    c0, du = kernels._cell(y, first)
    n = kernels._trunc_terms(lam)
    s = first + np.arange(n, dtype=float)
    f = np.exp(-lam * s)
    fp = -lam * f
    k = (c0 - first).astype(int)
    dx = y[:, None] - s[None, :]
    px = y[:, None] + s[None, :]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        direct = f[None, :] / dx ** 2 + fp[None, :] / dx
        zero = None if f0 is None else f0 / y ** 2
    mirror = f[None, :] / px ** 2 - fp[None, :] / px
    hit = np.nonzero((np.abs(du) < kernels._NODE_TOL) & (k < n))[0]
    kh = k[hit]
    on_zero = kh < 0
    direct[hit[~on_zero], kh[~on_zero]] = 0.0
    if f0 is not None:
        zero[hit[on_zero]] = 0.0
    total = np.sum(direct + mirror, axis=1)
    if f0 is not None:
        total = zero + total
    vals = (np.sin(np.pi * du) / np.pi) ** 2 * total
    if hit.size:
        kernels._collapse(vals, hit, du[hit], *kernels._pairs(c0[hit], first, f, fp, f0))
    return vals


capped_rates = st.lists(st.floats(math.log(0.08), math.log(20.0)).map(math.exp),
                        min_size=1, max_size=5)
wide_points = st.lists(st.one_of(
    st.floats(-1000.0, 1000.0),
    st.integers(-2000, 2000).map(lambda k: k / 2.0),             # nodes of both lattices
    st.tuples(st.integers(-2000, 2000), st.floats(-3e-6, 3e-6)).map(
        lambda t: t[0] / 2.0 + t[1])), min_size=1, max_size=8)   # next to nodes


@pytest.mark.parametrize("f0", [None, 1.0], ids=["L", "M"])
@PROPS
@given(capped_rates, wide_points)
def test_shared_table_matches_the_per_rate_sum(f0, lams, xs):
    """The capped rates of one call, through one shared table, against the
    per-rate sum: within 2e-15 max(1, |value|)."""
    xs = np.array(xs + [0.0])
    for lam, got in zip(lams, kernels._exp_series(lams, xs, f0)):
        ref = _direct_per_rate(lam, xs, f0)
        assert np.all(np.abs(got - ref) <= 2e-15 * np.maximum(1.0, np.abs(ref)))


def test_capped_rates_share_one_direct_call(monkeypatch):
    """A _defects call whose rates are all capped makes one _direct call for
    all of them, and verify's _kernel_defects makes two, one per kind."""
    calls = []
    direct = kernels._direct

    def counted(*args):
        calls.append(len(args[4]))
        return direct(*args)

    monkeypatch.setattr(kernels, "_direct", counted)
    kernels._defects([0.1, 3.0, 0.5, 20.0, 0.5], np.linspace(-50.0, 50.0, 301), "minorant")
    assert calls == [5]
    calls.clear()
    lams = 10.0 ** np.linspace(-0.5, 0.5, 5)      # the rates criterion 3 draws
    verify._kernel_defects(lams, np.linspace(-60.0, 60.0, 450))
    assert calls == [5, 5]


@pytest.mark.parametrize("call", [
    lambda: superposed.eval_U(2.0 ** 21),
    lambda: superposed.Majorant(measures.PowerLaw(1.5)).value([1.0, -3e6]),
    lambda: kernels.minorant_values(1e-8, 2e6),
    lambda: kernels.eval_M(1e-8, 1e10),
], ids=["U", "H", "L-tail", "M-cap"])
def test_node_limit_raises_before_allocating(call):
    """A point whose cell would keep more than _MAX_NODES nodes raises
    DomainError, with no node array allocated (a peak far below the 8 MB
    of 2^20 nodes)."""
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match="series nodes"):
            call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 18


def test_node_limit_spares_capped_rates_and_the_last_cells():
    """Capped L/M never reach the limit, and G/U take the cells below it."""
    assert kernels._truncation(1e9, 0.5, kernels._trunc_terms(0.1))[0] < 400
    n, _ = kernels._truncation(np.array([1e6, 2.0 ** 20]), 0.5, None)
    assert n[0] <= kernels._MAX_NODES < n[1]
    assert math.isfinite(superposed.eval_U(1e5))


@pytest.mark.parametrize("x", [2.0 ** 63, 1e19, -1e300], ids=["2^63", "1e19", "-1e300"])
def test_node_counts_do_not_overflow(x, recwarn):
    """Past |x| = 2^63 the node count no longer fits an int64: L and M,
    capped, are 0 there, G, H and U raise DomainError, and nothing warns."""
    for lam in (0.5, 1.0):
        assert kernels.minorant_values(lam, x) == 0.0
        assert kernels.majorant_values(lam, x) == 0.0
        assert np.all(kernels._defects([lam, 3.0], [x, -x], "majorant") == 0.0)
    for call in (superposed.Minorant(measures.PowerLaw(1.5)).value,
                 superposed.Majorant(measures.PowerLaw(1.5)).value, superposed.eval_U):
        with pytest.raises(DomainError, match="series nodes"):
            call(x)
    ev = kernels.eval_M(0.01, 1e300)
    assert ev.value == 0.0 and math.isfinite(ev.tail_bound)
    assert not recwarn.list
