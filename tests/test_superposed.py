"""Band-limited one-sided approximants built from kernel superpositions."""

import math
import sys
import threading
import time

import numpy as np
import pytest

from extremal import measures, superposed
from extremal.errors import AdmissibilityError, DomainError

HAAR = measures.HaarLog()
PL05 = measures.PowerLaw(0.5)
PL15 = measures.PowerLaw(1.5)
ATOM = measures.Atomic((0.5, 1.0, 3.0), (0.2, 1.0, 0.7))

MINORANT_FAMILIES = [HAAR, PL05, PL15, ATOM]
MAJORANT_FAMILIES = [PL15, ATOM]


def _targets(obj, xs):
    return np.array([float(obj.target(float(x))) for x in xs])


@pytest.mark.parametrize("mu", MINORANT_FAMILIES, ids=lambda m: m.family)
def test_minorant_interpolates_at_half_integers(mu):
    g = superposed.Minorant(mu)
    nodes = np.arange(0, 12, dtype=float) + 0.5
    vals = g.value(nodes)
    tgts = _targets(g, nodes)
    assert np.max(np.abs(vals - tgts)) <= 1e-10 * (1.0 + np.max(np.abs(tgts)))


@pytest.mark.parametrize("mu", MAJORANT_FAMILIES, ids=lambda m: m.family)
def test_majorant_interpolates_at_integers(mu):
    h = superposed.Majorant(mu)
    nodes = np.arange(0, 12, dtype=float)
    vals = h.value(nodes)
    tgts = _targets(h, nodes)
    assert np.max(np.abs(vals - tgts)) <= 1e-10 * (1.0 + np.max(np.abs(tgts)))


@pytest.mark.parametrize("mu", MINORANT_FAMILIES, ids=lambda m: m.family)
def test_minorant_stays_below(mu):
    g = superposed.Minorant(mu)
    xs = np.linspace(-30.0, 30.0, 1201)
    xs = xs[np.abs(xs) > 1e-3]      # target may diverge at 0
    slack = _targets(g, xs) - g.value(xs)
    assert slack.min() >= -1e-11


@pytest.mark.parametrize("mu", MAJORANT_FAMILIES, ids=lambda m: m.family)
def test_majorant_stays_above(mu):
    h = superposed.Majorant(mu)
    xs = np.linspace(-30.0, 30.0, 1201)
    slack = h.value(xs) - _targets(h, xs)
    assert slack.min() >= -1e-11


def test_values_are_even_bit_for_bit():
    xs = np.linspace(0.05, 9.0, 40)
    for mu in (HAAR, PL15):
        g = superposed.Minorant(mu)
        assert np.array_equal(g.value(xs), g.value(-xs))
    h = superposed.Majorant(PL15)
    assert np.array_equal(h.value(xs), h.value(-xs))


@pytest.mark.parametrize("delta", [0.5, 2.0])
def test_dilated_minorant_sandwich_and_nodes(delta):
    g = superposed.Minorant(PL05, delta)
    nodes = (np.arange(0, 8, dtype=float) + 0.5) / delta
    assert np.max(np.abs(g.value(nodes) - _targets(g, nodes))) <= 1e-10
    xs = np.linspace(0.01, 12.0, 400)
    assert np.min(_targets(g, xs) - g.value(xs)) >= -1e-11


def test_dilated_majorant_sandwich_and_nodes():
    h = superposed.Majorant(PL15, 2.0)
    nodes = np.arange(0, 8, dtype=float) / 2.0
    assert np.max(np.abs(h.value(nodes) - _targets(h, nodes))) <= 1e-10
    xs = np.linspace(0.0, 12.0, 400)
    assert np.min(h.value(xs) - _targets(h, xs)) >= -1e-11


def test_defect_routes_agree():
    pts = (0.37, 1.9, 4.25)
    cases = [superposed.Minorant(mu) for mu in MINORANT_FAMILIES]
    cases += [superposed.Majorant(mu) for mu in MAJORANT_FAMILIES]
    for approximant in cases:
        for x in pts:
            prof = approximant.defect(x)
            assert abs(prof.series_value - prof.integral_value) <= 1e-7
            assert prof.series_value >= -1e-11


ATOM2 = measures.Atomic((0.8, 2.0), (1.0, 0.5))


@pytest.mark.parametrize("delta", [0.7, 2.0])
@pytest.mark.parametrize("cls, mu", [
    (superposed.Minorant, HAAR), (superposed.Minorant, PL05),
    (superposed.Minorant, PL15), (superposed.Minorant, ATOM2),
    (superposed.Majorant, PL15), (superposed.Majorant, ATOM2),
], ids=["G-haar", "G-power0.5", "G-power1.5", "G-atomic",
        "H-power1.5", "H-atomic"])
def test_defect_over_points_equals_pointwise(cls, mu, delta):
    """One vector integral over an array of points gives the per-point
    defects, at and between the lattice nodes of the dilated approximant."""
    obj = cls(mu, delta)
    xs = np.array([0.37, 1.0 / delta, 1.5 / delta, 4.25, 11.9])
    prof = obj.defect(xs)
    assert prof.series_value.shape == prof.integral_value.shape == xs.shape
    for i, x in enumerate(xs):
        ref = obj.defect(float(x))
        assert isinstance(ref.integral_value, float)
        assert abs(prof.series_value[i] - ref.series_value) <= 1e-9
        assert abs(prof.integral_value[i] - ref.integral_value) <= 1e-9
        assert prof.abs_err[i] <= 1e-7


def test_value_via_defect_matches_direct():
    """The target minus (G) or plus (H) the integral of the defect gives the
    value of the series."""
    g = superposed.Minorant(PL05)
    for x in (0.6, 2.3):
        assert abs(float(g.target(x)) - g.defect(x).integral_value - g.value(x)) <= 1e-7
    h = superposed.Majorant(ATOM)
    for x in (0.6, 2.3):
        assert abs(float(h.target(x)) + h.defect(x).integral_value - h.value(x)) <= 1e-7


def test_value_via_defect_takes_no_series(monkeypatch):
    """The integral route of defect() alone: int (kernel defect at x) dnu
    takes no lattice-series call, and a diverging target says so before
    any series is summed."""
    expected = [superposed.Minorant(PL05).defect(x).integral_value for x in (0.6, 2.3)]

    def no_series(*args):
        raise AssertionError("lattice series called")

    monkeypatch.setattr(superposed, "_lattice_series", no_series)
    g = superposed.Minorant(PL05)
    for x, gap in zip((0.6, 2.3), expected):
        res = measures.integrate(superposed.KernelDefectAtPoint(x, "minorant"), g.nu, tol=1e-9)
        assert res.value == gap
    h = superposed.Majorant(ATOM)
    res = measures.integrate(superposed.KernelDefectAtPoint(0.6, "majorant"), h.nu, tol=1e-9)
    assert math.isfinite(res.value)
    with pytest.raises(DomainError, match="target diverges"):
        superposed.Minorant(HAAR).defect(0.0)


def test_weight_family_round_trip():
    mu = measures.Weight(lambda lam: np.exp(-lam))
    h = superposed.Majorant(mu)
    xs = np.array([0.0, 0.5, 1.0, 2.75])
    vals = h.value(xs)
    tgts = _targets(h, xs)
    assert np.all(vals - tgts >= -1e-9)
    assert abs(vals[2] - tgts[2]) <= 1e-9      # node x = 1


def test_weight_batch_spanning_many_scales_converges_as_its_points_do():
    # each point alone is the closed PowerLaw(1.9) value, -656.387 and
    # -2655194.6, and so is the batch of both: graded chains toward lam = 0,
    # ranked by the columns not yet converged, stop before lam^-1.9 overflows
    mu = measures.Weight(lambda lam: lam ** -1.9)
    xs = np.array([100.0, 1e6 - 0.2])
    closed = superposed.Minorant(measures.PowerLaw(1.9)).value(xs)
    for x, v in zip(xs, closed):
        assert superposed.Minorant(mu).value(x) == pytest.approx(v, rel=1e-10)
    assert np.allclose(superposed.Minorant(mu).value(xs), closed, rtol=1e-10, atol=0)


def test_majorant_rejects_divergent_families():
    for mu in (HAAR, PL05):
        with pytest.raises(AdmissibilityError) as exc:
            superposed.Majorant(mu)
        assert "cond47" in str(exc.value)
        assert repr(mu) in str(exc.value)


def test_log_majorant():
    xs = np.linspace(-20.0, 20.0, 801)
    xs = xs[np.abs(xs) > 1e-3]
    u = superposed.eval_U(xs)
    assert np.min(u - np.log(np.abs(xs))) >= -1e-11
    nodes = np.arange(0, 10, dtype=float) + 0.5
    assert np.max(np.abs(superposed.eval_U(nodes) - np.log(nodes))) <= 1e-10


def test_input_validation():
    g = superposed.Minorant(HAAR)
    with pytest.raises(DomainError):
        g.value(np.inf)
    with pytest.raises(DomainError, match="target diverges"):
        g.defect(0.0)
    with pytest.raises(DomainError):
        superposed.Minorant(HAAR, delta=-1.0)


class _CountingMeasure:
    """Delegates to a measure and counts (slowly) the scalar f(0) calls; its
    dilation counts its own."""

    def __init__(self, inner):
        self.inner = inner
        self.zero_calls = 0

    def f(self, x):
        if np.ndim(x) == 0:
            self.zero_calls += 1
            time.sleep(0.01)
        return self.inner.f(x)

    def dilate(self, delta):
        return _CountingMeasure(self.inner.dilate(delta))

    def __getattr__(self, name):
        return getattr(self.inner, name)


def test_majorant_zero_node_computed_once_across_threads():
    """H takes f_nu(0) once, when it is built, and threads read that value."""
    h = superposed.Majorant(_CountingMeasure(ATOM))
    assert h.nu.zero_calls == 1
    expected = superposed.Majorant(ATOM).value(0.3)
    results = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=lambda: results.append(h.value(0.3)))
                   for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [expected] * 8
    assert h.nu.zero_calls == 1


class _HeldDerivs:
    """Delegates to a measure; _derivs signals that it started and waits."""

    def __init__(self, inner):
        self.inner = inner
        self.started = threading.Event()
        self.release = threading.Event()

    def _derivs(self, ax, orders):
        self.started.set()
        self.release.wait(timeout=30.0)
        return self.inner._derivs(ax, orders)

    def __getattr__(self, name):
        return getattr(self.inner, name)


def test_node_cache_publishes_f_and_f_prime_together():
    """A call that reads the nodes while another call is still building
    them gets matching f and f' blocks, those of its own _derivs call:
    calls on one instance share no node rows."""
    s = np.arange(600) + 0.5
    expected = superposed.Minorant(ATOM)._nodes(s, 2)
    g = superposed.Minorant(ATOM)
    g.nu = _HeldDerivs(g.nu)
    got = []
    writer = threading.Thread(target=g._nodes, args=(s, 2))
    reader = threading.Thread(target=lambda: got.append(g._nodes(s, 2)))
    writer.start()
    try:
        assert g.nu.started.wait(timeout=30.0)
        reader.start()
        reader.join(timeout=0.1)
    finally:
        g.nu.release.set()
    for t in (writer, reader):
        t.join(timeout=30.0)
    assert not any(t.is_alive() for t in (writer, reader))
    (f, fp), = got
    assert f.tobytes() == expected[0].tobytes()
    assert fp.tobytes() == expected[1].tobytes()


class _CountingDerivs:
    """Delegates to a measure; _derivs records the nodes it is asked for."""

    def __init__(self, inner, built):
        self.inner = inner
        self.built = built

    def _derivs(self, ax, orders):
        self.built.extend(np.asarray(ax).tolist())
        time.sleep(0.01)
        return self.inner._derivs(ax, orders)

    def __getattr__(self, name):
        return getattr(self.inner, name)


def test_each_cell_is_sampled_once_across_threads():
    """Eight threads on one instance get the bits of one call, and each
    call asks for each node's row once."""
    xs = np.linspace(-40.0, 40.0, 321)
    expected = superposed.Majorant(ATOM).value(xs)
    once = []
    h = superposed.Majorant(ATOM)
    h.nu = _CountingDerivs(h.nu, once)
    h.value(xs)
    assert once and sorted(once) == sorted(set(once))
    built = []
    h.nu.built = built
    results = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=lambda: results.append(h.value(xs)))
                   for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == 8
    assert all(r.tobytes() == expected.tobytes() for r in results)
    assert sorted(built) == sorted(once * 8)


WARM_CASES = [HAAR, PL05, PL15, ATOM,
              measures.Weight(lambda lam: lam ** -0.5 * np.exp(-lam))]


@pytest.mark.parametrize("mu", WARM_CASES, ids=lambda m: m.family)
def test_a_warm_instance_gives_the_bits_of_a_fresh_one(mu):
    """G, and H where cond47 holds, keep nothing between calls: an
    instance that took 800.2 and a grid first gives each point the bits of
    a fresh instance, a Weight too."""
    xs = (3.3, np.array([0.2, 3.3, 17.5, 801.7]))
    classes = [superposed.Minorant] + [superposed.Majorant] * mu.classify().cond47
    for cls in classes:
        warm = cls(mu)
        warm.value(800.2)
        warm.value(np.linspace(-60.0, 60.0, 241))
        for x in xs:
            assert np.float64(warm.value(x)).tobytes() == np.float64(cls(mu).value(x)).tobytes()
