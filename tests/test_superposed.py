"""Band-limited one-sided approximants built from kernel superpositions."""

import math
import sys
import threading
import time

import numpy as np
import pytest

from extremal import kernels, measures, superposed
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
    cases = [(mu, "minorant") for mu in MINORANT_FAMILIES]
    cases += [(mu, "majorant") for mu in MAJORANT_FAMILIES]
    for mu, kind in cases:
        for x in pts:
            prof = superposed.defect(mu, kind, x)
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
    g = superposed.Minorant(PL05)
    for x in (0.6, 2.3):
        assert abs(g.value_via_defect(x) - g.value(x)) <= 1e-7
    h = superposed.Majorant(ATOM)
    for x in (0.6, 2.3):
        assert abs(h.value_via_defect(x) - h.value(x)) <= 1e-7


def test_value_via_defect_takes_no_series(monkeypatch):
    """The integral route alone: the value of defect() at x, with no
    lattice-series call, and a diverging target says so."""
    expected = [superposed.Minorant(PL05).defect(x).integral_value for x in (0.6, 2.3)]

    def no_series(*args):
        raise AssertionError("lattice series called")

    monkeypatch.setattr(superposed, "_lattice_series", no_series)
    g = superposed.Minorant(PL05)
    for x, gap in zip((0.6, 2.3), expected):
        assert g.value_via_defect(x) == float(g.target(x)) - gap
    assert math.isfinite(superposed.Majorant(ATOM).value_via_defect(0.6))
    with pytest.raises(DomainError, match="finite target"):
        superposed.Minorant(HAAR).value_via_defect(0.0)


def test_weight_family_round_trip():
    mu = measures.Weight(lambda lam: np.exp(-lam))
    h = superposed.Majorant(mu)
    xs = np.array([0.0, 0.5, 1.0, 2.75])
    vals = h.value(xs)
    tgts = _targets(h, xs)
    assert np.all(vals - tgts >= -1e-9)
    assert abs(vals[2] - tgts[2]) <= 1e-9      # node x = 1


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


def test_module_level_wrappers():
    x = 1.8
    assert superposed.eval_G(HAAR, x) == superposed.Minorant(HAAR).value(x)
    assert superposed.eval_H(PL15, x) == superposed.Majorant(PL15).value(x)
    assert superposed.eval_G_dilated(PL05, 2.0, x) == superposed.Minorant(PL05, 2.0).value(x)
    assert superposed.eval_H_dilated(PL15, 2.0, x) == superposed.Majorant(PL15, 2.0).value(x)


def test_input_validation():
    g = superposed.Minorant(HAAR)
    with pytest.raises(DomainError):
        g.value(np.inf)
    with pytest.raises(DomainError):
        g.defect(0.0)            # target diverges there
    with pytest.raises(DomainError):
        superposed.defect(HAAR, "upper", 1.0)
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
    """A reader while the node cache grows sees matching f and f' blocks:
    the build publishes both at once, so it never gets a long f with the
    old, short f'."""
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
        reader.join(timeout=0.1)        # a reader that does not wait returns now
    finally:
        g.nu.release.set()
    for t in (writer, reader):
        t.join(timeout=30.0)
    assert not any(t.is_alive() for t in (writer, reader))
    (f, fp), = got
    assert f.tobytes() == expected[0].tobytes()
    assert fp.tobytes() == expected[1].tobytes()


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
    """Threads that miss the same nodes build each node's row, the unit of
    the cache, once."""
    xs = np.linspace(-40.0, 40.0, 321)
    expected = superposed.Majorant(ATOM).value(xs)
    built = []
    h = superposed.Majorant(ATOM)
    h.nu = _CountingDerivs(h.nu, built)
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
    assert built and sorted(built) == sorted(set(built))
    assert np.array_equal(h._node_rows._table[0], sorted(built))
