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
    within 1e-14 max(1, |value|) for |delta x| < 415.5, and 2e-13 max(1,
    |value|) beyond."""
    nu = mu.dilate(delta)
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
    """f_nu(x) = f_mu(x/delta) - f_mu(1/delta) for nu = mu.dilate(delta),
    over all four families."""
    nu = mu.dilate(delta)
    rhs = mu.f(x / delta) - mu.f(1.0 / delta)
    assert abs(nu.f(x) - rhs) <= 1e-9 * (1.0 + abs(rhs))


# Points near 0, at nodes of either lattice (du = 0 on one, +-1/2 on the
# other), next to a node, with and without a block before the window, far
# out, and past the cap K(1e-3) of L and M.
BATCH = np.array([0.0, 1e-9, -0.3, 0.5, 1.0, 2.5, -3.0, 7.5 + 1e-7, 12.25,
                  47.5, -48.0, 48.7, 100.7, 415.5, -416.0, 416.7, 1000.0, -5000.2,
                  40000.3])


def _bit_identical_alone_and_in_batches(make, points=BATCH):
    """make() gives a fresh evaluator; each of the points taken alone by a
    fresh one has the bits of the same point inside the batch of them all,
    inside the reversed batch, and inside a batch that a warm evaluator
    takes, one that other points filled first."""
    points = np.asarray(points, dtype=float)
    batch = make()(points)
    alone = np.array([make()(x) for x in points])
    warm = make()
    warm(points[::-1] * 0.5)
    reverse = warm(points[::-1])[::-1]
    for values in (alone, reverse):
        assert values.tobytes() == batch.tobytes()


@pytest.mark.parametrize("mu", [measures.HaarLog(), measures.PowerLaw(1.5),
                                measures.PowerLaw(0.5),
                                measures.Atomic((0.3, 2.0), (1.0, 0.5))],
                         ids=lambda m: m.family)
def test_superposed_values_do_not_depend_on_their_batch(mu):
    """G and H of the closed-form families.  A Weight is left out: a call
    takes its node values from one vector integral over the nodes of its
    batch, so its values depend on the batch (though never on an earlier
    call)."""
    _bit_identical_alone_and_in_batches(lambda: superposed.Minorant(mu, 1.3).value)
    if mu.classify().cond47:
        _bit_identical_alone_and_in_batches(lambda: superposed.Majorant(mu).value)


def test_log_majorant_values_do_not_depend_on_their_batch():
    _bit_identical_alone_and_in_batches(lambda: superposed.eval_U)


@pytest.mark.parametrize("lam", [1e-8, 1e-3, 0.03, 0.07])
def test_small_rate_values_do_not_depend_on_their_batch(lam):
    """L and M with caps past 63 nodes, so that each point's window, block
    and tail follow its nearest node (and, at 1e-3, its window lies past the
    cap from |x| ~ 3.7e4 on)."""
    _bit_identical_alone_and_in_batches(lambda: lambda x: kernels.minorant_values(lam, x))
    _bit_identical_alone_and_in_batches(lambda: lambda x: kernels.majorant_values(lam, x))


@pytest.mark.parametrize("lam", [0.1, 0.5, 3.0])
def test_capped_rate_values_do_not_depend_on_their_batch(lam):
    """L and M with a cap K(lam) past every window of BATCH but the last
    (0.1), past a few of them (0.5), and short of the head (3.0, 23 nodes)."""
    _bit_identical_alone_and_in_batches(lambda: lambda x: kernels.minorant_values(lam, x))
    _bit_identical_alone_and_in_batches(lambda: lambda x: kernels.majorant_values(lam, x))


def _series_case(kind, arg):
    """A fresh-evaluator factory: L or M at the rate arg, or G or H of the
    closed-form measure arg."""
    if kind == "L":
        return lambda: lambda x: kernels.minorant_values(arg, x)
    if kind == "M":
        return lambda: lambda x: kernels.majorant_values(arg, x)
    cls = superposed.Minorant if kind == "G" else superposed.Majorant
    return lambda: cls(arg).value


series_cases = st.one_of(
    st.tuples(st.sampled_from("LM"), st.floats(math.log(1e-4), math.log(20.0)).map(math.exp)),
    st.tuples(st.just("G"), closed_form_measures),
    st.tuples(st.just("H"), st.one_of(st.floats(1.05, 1.95).map(measures.PowerLaw),
                                      atomic_measures)))
batch_points = st.lists(st.one_of(
    st.floats(-2000.0, 2000.0),
    st.integers(-4000, 4000).map(lambda k: k / 2.0),
    st.tuples(st.integers(-4000, 4000), st.floats(-3e-6, 3e-6)).map(
        lambda t: t[0] / 2.0 + t[1]),
    st.floats(1e4, 1e7)), min_size=1, max_size=8)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(series_cases, batch_points)
def test_values_do_not_depend_on_their_batch(case, points):
    """L and M at drawn rates, G of HaarLog, PowerLaw and Atomic measures and
    H of the cond47 ones: a value alone, inside a drawn batch, and after
    other points warmed the evaluator, bit for bit."""
    _bit_identical_alone_and_in_batches(_series_case(*case), points)


CHUNK_POINTS = np.concatenate([np.linspace(-700.0, 700.0, 2801), BATCH])


def _one_rate_defect(lam, x, kind):
    e = np.exp(-lam * np.abs(x))
    if kind == "minorant":
        return e - kernels.minorant_values(lam, x)
    return kernels.majorant_values(lam, x) - e


# capped rates from K(0.08) = 471 nodes down to 12, and one (1e-3) whose
# horizon binds before its cap at most of these points
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
    """L/M capped and at lam = 1e-3 and 1e-4, a many-rate defect call, G and
    H of fresh instances, at CHUNK_POINTS."""
    return np.concatenate([
        kernels.minorant_values(1.0, CHUNK_POINTS),
        kernels.majorant_values(1.0, CHUNK_POINTS),
        kernels.minorant_values(1e-3, CHUNK_POINTS),
        kernels.minorant_values(1e-4, CHUNK_POINTS),
        kernels.majorant_values(1e-3, CHUNK_POINTS),
        kernels._defects([3.0, 0.08, 1e-3, 0.5], CHUNK_POINTS, "minorant").ravel(),
        kernels._defects([0.1, 7.5, 1.0], CHUNK_POINTS, "majorant").ravel(),
        superposed.Minorant(measures.HaarLog()).value(CHUNK_POINTS),
        superposed.Majorant(measures.PowerLaw(1.5)).value(CHUNK_POINTS)])


@pytest.mark.parametrize("chunk", [4096, 262_144])
def test_values_do_not_depend_on_the_chunk_size(chunk, monkeypatch):
    """The node sum reduces each row on its own, a lone row beside its
    copy, and a point's end terms are elementwise, so the block size moves
    no bit."""
    default = _chunk_values()
    monkeypatch.setattr(kernels, "_CHUNK", chunk)
    assert _chunk_values().tobytes() == default.tobytes()


capped_rates = st.lists(st.floats(math.log(1e-4), math.log(20.0)).map(math.exp),
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
    """The rates of one call, capped or not, through one shared table:
    each has the bits of the rate taken alone, and lies within 2e-15
    max(1, |value|) of a direct sum below max(512, |x| + 96) with its
    Euler-Maclaurin tail.  The short caps of 0.7, 3 and 10 join every
    call, with points past them."""
    lams = lams + [0.7, 3.0, 10.0]
    xs = np.array(xs + [0.0, 100.7, -1000.5])
    first = 0.5 if f0 is None else 1.0
    for lam, got in zip(lams, kernels._exp_series(lams, xs, f0)):
        assert got.tobytes() == kernels._exp_series([lam], xs, f0)[0].tobytes()
        ref = _long_series(xs, first, lambda s: np.exp(-lam * s),
                           lambda s: -lam * np.exp(-lam * s),
                           lambda y: max(512, math.ceil(y) + 96),
                           lambda a0: [(-lam) ** j * math.exp(-lam * a0) for j in range(5)], f0)
        assert np.all(np.abs(got - ref) <= 2e-15 * np.maximum(1.0, np.abs(ref)))


def test_capped_rates_share_one_direct_call(monkeypatch):
    """A _defects call makes one node-sum call for all its rates, capped
    or not, and verify's _kernel_defects makes two, one per kind."""
    calls = []
    node_sum = kernels._node_sum

    def counted(*args):
        calls.append(len(args[6]))
        return node_sum(*args)

    monkeypatch.setattr(kernels, "_node_sum", counted)
    kernels._defects([0.1, 3.0, 0.5, 20.0, 0.5], np.linspace(-50.0, 50.0, 301), "minorant")
    assert calls == [5]
    calls.clear()
    kernels._defects([1e-3, 0.03, 0.5], np.linspace(-500.0, 500.0, 301), "majorant")
    assert calls == [3]
    calls.clear()
    lams = 10.0 ** np.linspace(-0.5, 0.5, 5)      # the rates criterion 3 draws
    verify._kernel_defects(lams, np.linspace(-60.0, 60.0, 450))
    assert calls == [5, 5]


@pytest.mark.parametrize("call", [
    lambda: superposed.eval_U(2.0 ** 52),
    lambda: superposed.Majorant(measures.PowerLaw(1.5)).value([1.0, -3e16]),
    lambda: kernels.minorant_values(1e-17, 2.0 ** 53),
    lambda: kernels.eval_M(1e-20, 1e16),
], ids=["U", "H", "L-tail", "M-cap"])
def test_node_limit_raises_before_allocating(call):
    """A point whose window reaches 2^52, where half-integers stop being
    floats, raises DomainError unless its series' cap ends before the
    window (L and M at rates whose K(lam) stays below 2^52), with no node
    array allocated."""
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match="series nodes"):
            call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 18


def test_node_limit_spares_capped_rates_and_the_last_cells():
    """L and M sum their head alone where the window lies past the cap, and
    G, H and U take points far past the old limit of 2^20 nodes, up to
    2^52."""
    assert kernels.eval_L(0.1, 1e9).trunc_terms == 32
    assert kernels.eval_M(0.1, 1e9).trunc_terms == 32
    assert kernels.eval_L(1e-8, 1e10).trunc_terms == 32
    for x in (1e9 + 0.3, 2.0 ** 52 - 64.0):
        assert superposed.eval_U(x) >= math.log(x)
    h = superposed.Majorant(measures.PowerLaw(1.5)).value(np.array([3e6, 1e12 + 0.5]))
    assert np.all(np.isfinite(h))


def _long_double_g(x, derivs, f, fp):
    """G at x on Z + 1/2 in long double: a direct sum over the nodes below
    4|x| + 100 and the Euler-Maclaurin tail (B_2 ... B_16) from there, from
    derivs(a) = f^(0..16)(a)."""
    ld = np.longdouble
    pi = ld("3.14159265358979323846264338327950288")
    y = ld(abs(x))
    n = int(4 * abs(x)) + 100
    total = ld(0)
    for start in range(0, n, 1 << 16):          # blocks keep the arrays small
        s = np.arange(start, min(start + (1 << 16), n), dtype=ld) + ld(0.5)
        total += np.sum(f(s) * (1 / (y - s) ** 2 + 1 / (y + s) ** 2)
                        + fp(s) * (1 / (y - s) - 1 / (y + s)))
    a = s[-1] + 1
    d = derivs(a)
    u = [1 / (y - a), -1 / (y + a)]
    c = [sum(d[i] / math.factorial(i) * (u[0] ** (m - i + 1) + u[1] ** (m - i + 1))
             for i in range(m + 1)) for m in range(17)]
    bern = [ld(1) / 6, ld(-1) / 30, ld(1) / 42, ld(-1) / 30, ld(5) / 66,
            ld(-691) / 2730, ld(7) / 6, ld(-3617) / 510]
    total -= c[0] - c[1] / 2 + sum(b * c[2 * j + 2] for j, b in enumerate(bern))
    du = y - (np.floor(y) + ld(0.5))
    return float(np.sin(pi * du) ** 2 / pi ** 2 * total)


def _haar_ladder(a):
    return [-np.log(a)] + [np.longdouble((-1) ** k * math.factorial(k - 1)) / a ** k
                           for k in range(1, 17)]


def _power_ladder(sigma, g):
    def ladder(a):
        out, fac = [g * np.expm1((sigma - 1) * np.log(a))], g
        for k in range(1, 17):
            fac = fac * (sigma - k)
            out.append(fac * a ** (sigma - 1 - k))
        return out
    return ladder


@pytest.mark.parametrize("x", [1e5 + 0.3, 1e6 - 0.2])
def test_large_points_match_a_long_double_sum(x):
    """HaarLog and PowerLaw(1.5) G at |x| >= 1e5, within 1e-15 relative of
    a long-double direct sum over the nodes below 4|x| and its tail."""
    g = np.longdouble(measures.PowerLaw(1.5)._gamma_factor)
    sigma = np.longdouble(1.5)
    refs = {measures.HaarLog(): _long_double_g(x, _haar_ladder, lambda s: -np.log(s),
                                               lambda s: -1 / s),
            measures.PowerLaw(1.5): _long_double_g(
                x, _power_ladder(sigma, g), lambda s: g * np.expm1((sigma - 1) * np.log(s)),
                lambda s: g * (sigma - 1) * s ** (sigma - 2))}
    for mu, ref in refs.items():
        got = superposed.Minorant(mu).value(x)
        assert abs(got / ref - 1.0) <= 1e-15


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


def _underflow_edge(first):
    """The least rate lam at which e^{-lam first} underflows to 0, as the
    node rows of L (first 1/2) or M (first 1) take it."""
    lo, hi = 700.0 / first, 760.0 / first
    while np.nextafter(lo, hi) < hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if np.exp(-mid * first) == 0.0 else (mid, hi)
    return hi


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([None, 1.0]),
       st.lists(st.one_of(st.integers(-4, 4).map(lambda k: ("edge", k)),
                          st.floats(math.log(800.0), math.log(1e300)).map(
                              lambda v: ("far", math.exp(v))),
                          st.floats(math.log(0.1), math.log(40.0)).map(
                              lambda v: ("near", math.exp(v)))),
                min_size=1, max_size=8),
       wide_points)
def test_underflowed_rates_have_the_bits_of_each_rate_alone(f0, drawn, xs):
    """Rates within 4 ulps of the edge where e^{-lam first} underflows, on
    both sides of it, and rates far past it (up to 1e300), mixed with
    ordinary ones: each _defects row has the bits of the rate alone, signed
    zeros included, though the underflowed rates share one engine row."""
    first = 0.5 if f0 is None else 1.0
    edge = _underflow_edge(first)
    lams = []
    for what, v in drawn:
        lam = edge if what == "edge" else v
        for _ in range(abs(v) if what == "edge" else 0):    # v ulps from the edge
            lam = np.nextafter(lam, math.inf if v > 0 else 0.0)
        lams.append(float(lam))
    kind = "minorant" if f0 is None else "majorant"
    xs = np.array(xs + [0.0, 0.5, -1.0, 1e6 + 0.25])
    batch = kernels._defects(lams, xs, kind)
    for lam, got in zip(lams, batch):
        alone = kernels._defects([lam], xs, kind)[0]
        assert got.view(np.uint64).tolist() == alone.view(np.uint64).tolist()


@pytest.mark.parametrize("f0", [None, 1.0], ids=["L", "M"])
def test_underflowed_rates_take_one_engine_row(f0, monkeypatch):
    """Past the edge every node row is 0 and the cap 11: one engine row
    serves all such rates, that of the first of them, and every other rate,
    the one an ulp below the edge included, takes its own; the shared row
    goes first."""
    first = 0.5 if f0 is None else 1.0
    edge = _underflow_edge(first)
    below = float(np.nextafter(edge, 0.0))
    seen = []
    engine = kernels._lattice_series

    def counted(x, series, f0=None):
        nodes, caps = series
        seen.append((nodes(np.array([first]), 1)[0, :, 0].tolist(), caps))
        return engine(x, series, f0)

    monkeypatch.setattr(kernels, "_lattice_series", counted)
    kernels._exp_series([0.3, edge, 5.0, 2.0 * edge, 1e300, below],
                        np.linspace(-40.0, 40.0, 81), f0)
    assert seen == [(np.exp(-np.array([edge, 0.3, 5.0, below]) * first).tolist(),
                     (11, kernels._cap(0.3), kernels._cap(5.0), 11))]
    assert seen[0][0][0] == 0.0 < seen[0][0][3]
    assert kernels._exp_series([], np.zeros(3), f0).shape == (0, 3)
