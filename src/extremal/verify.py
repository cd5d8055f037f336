"""Numbered verification checks over the whole library, with JSON reports.

Each acceptance-style criterion is a function returning CheckResult rows;
suites bundle them for the CLI.  Everything is driven by one seeded RNG,
and reports serialize deterministically (sorted keys, shortest-decimal
floats), so a rerun with the same seed is byte-identical.

Whole-line integrals of band-limited defects need care: the defects decay
only like sin^2(pi x)/x^2.  Two devices keep the checks at 1e-6..1e-8
accuracy with modest budgets:

  * plain integrals use per-period integrals I_m = int_m^{m+1} D, taken
    together as one vector integral over the period, fitted to a/m^2 +
    b/m^3 + c/m^4 on a window and summed beyond the horizon by the
    Hurwitz zeta of specfun; a family of rates and kernel kinds is one
    vector integral under the quadrature module's (n, m) contract;
  * Fourier integrals of one integrand use a raised-cosine taper over one
    last window, which suppresses the truncation boundary term of every
    oscillatory component by (frequency gap)^{-2}; test frequencies stay
    away from 0 and 1 so the gap never degenerates.

L and M need neither: their closed transforms vanish outside [-1, 1], so
criterion 3 inverts them on [0, 1].  Criterion 8 reads its witness checks
off the N = 2000 rows of sharpness_table, which run_suite also reports.

The criteria are independent: each draws from its own RNG seeded afresh,
and only criterion 8 reads the one shared input, the sharpness table, which
run_suite builds first.  So run_suite runs a suite's criteria in up to one
forked worker per usable CPU and puts the rows back in suite order: the
report is the one that running the criteria in order gives, byte for byte.
The workers are bare os.fork children, with no process pool: the parent
writes the criteria's indices, longest first (LONGEST_FIRST), as one-byte
tokens into one task pipe, each worker takes the next token when it is
free, pickles its rows (or the exception of a failing criterion) down its
own pipe and leaves by os._exit, and the parent reaps every worker on
every path.  With one usable CPU or one criterion it runs them in order in
the calling process.
"""

import math
import os
import pickle

import numpy as np

from dataclasses import dataclass, asdict

from . import forms, kernels, measures, periodic, polybound, quadrature, specfun, superposed
from .errors import DomainError


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    observed: float
    expected: str
    tol: float


def _check(name, passed, observed, expected, tol):
    return CheckResult(name, bool(passed), float(observed), expected, float(tol))


# -- tail machinery -------------------------------------------------------


def integral_with_period_tail(f):
    """int_0^inf f, f with per-period mass ~ a/m^2 + b/m^3 + c/m^4.

    f maps an array x to x.shape values, or to x.shape + (k,) for k
    integrands at once, which give a (k,) array.  Integrates [0, 40]
    adaptively from its unit panels [m, m + 1), graded toward 0 alone, and
    the periods [m, m + 1), 40 <= m < 64, as one vector integral of
    f(u + m) over u in [0, 1], both at tol 1e-11; fits the model to those
    per-period integrals and closes with the zeta tail.
    """
    head = quadrature.refine(f, np.arange(41.0), (0.0,), tol=1e-11).value
    ms = np.arange(40, 64)
    vals = quadrature.integrate_finite(
        lambda u: f(u[:, None] + ms).reshape(len(u), -1), 0.0, 1.0, tol=1e-11).value
    mid = ms + 0.5
    V = np.vstack([mid ** -2.0, mid ** -3.0, mid ** -4.0]).T
    coef, *_ = np.linalg.lstsq(V, vals.reshape(len(ms), -1), rcond=None)
    tail = [specfun.hurwitz_zeta(k, 40.5) for k in (2.0, 3.0, 4.0)] @ coef
    return head + (float(tail[0]) if np.ndim(head) == 0 else tail)


def cos_window_integral(f, t):
    """2 int_0^inf f(x) cos(2 pi t x) dx for even f with oscillatory x^-2 tail.

    f is a scalar integrand, an array x to x.shape values, and t is a
    frequency or an array of them; a scalar t gives a float, an array t an
    array of t's shape.  Truncates with a raised-cosine taper on
    [X, X + taper] = [384, 448], at tol 1e-9; valid when every frequency
    component of f(x) cos(2 pi t x) stays away from 0.  The integral starts
    from one panel per cycle of its fastest component, which is at most
    1 + max|t| for f of exponential type 2 pi: ceil(448 (1 + max|t|))
    equal panels, graded toward 0 alone.
    """
    X, taper = 384.0, 64.0
    omega = 2.0 * np.pi * np.asarray(t, dtype=float)
    panels = math.ceil((X + taper) * (1.0 + float(np.max(np.abs(t)))))

    def g(x):
        w = np.where(x <= X, 1.0,
                     0.5 * (1.0 + np.cos(np.pi * (x - X) / taper)))
        return (np.cos(np.multiply.outer(omega, x)) * f(x) * w).T

    edges = np.linspace(0.0, X + taper, panels + 1)
    return 2.0 * quadrature.refine(g, edges, (0.0,), tol=1e-9).value


# -- criterion checks ------------------------------------------------------

# the two kinds of one-sided kernel defect, each with its closed whole-line integral
_DEFECTS = {"minorant": specfun.defect_minorant, "majorant": specfun.defect_majorant}


def _kernel_defects(lams, x):
    """e^{-lam|x|} - L(lam, x) for each rate, then M(lam, x) - e^{-lam|x|}
    for each, the kinds of _DEFECTS in turn: x.shape + (2 len(lams),)."""
    return np.concatenate([np.moveaxis(kernels._defects(lams, x, kind), 0, -1)
                           for kind in _DEFECTS], axis=-1)


def check_kernel_sandwich(rng):
    lams = (0.1, 1.0, 10.0)
    worst = np.min(_kernel_defects(lams, np.linspace(-25.0, 25.0, 10_000)), axis=0)
    return [_check(f"sandwich-{kind}-lam={lam}", w >= -1e-11, w, ">= -1e-11", 1e-11)
            for i, lam in enumerate(lams)
            for w, kind in zip(worst[i::len(lams)], _DEFECTS)]


def check_defect_integrals(rng):
    lams = (0.5, 1.0, 3.0)
    ints = 2.0 * integral_with_period_tail(lambda x: _kernel_defects(lams, x))
    out = []
    for i, lam in enumerate(lams):
        for val, (kind, closed) in zip(ints[i::len(lams)], _DEFECTS.items()):
            ref = closed(lam)
            err = abs(val - ref)
            out.append(_check(f"defect-integral-{kind}-lam={lam}", err <= 1e-8,
                              err, f"|2*int - {ref!r}|", 1e-8))
    return out


def check_transforms(rng):
    lams = 10.0 ** rng.uniform(-0.5, 0.5, 20)
    xs = rng.uniform(-30.0, 30.0, 20)

    def closed(t):
        t = t[:, None]
        return (np.hstack([kernels.eval_Lhat(lams, t), kernels.eval_Mhat(lams, t)])
                * np.cos(2.0 * np.pi * t * np.tile(xs, 2)))

    # L(lam, x) = 2 int_0^1 Lhat(lam, t) cos(2 pi x t) dt, and M alike, against
    # e^{-lam|x|} -+ the (lam_i, x_i) diagonal of each kind's series defects
    inv = 2.0 * quadrature.integrate_finite(closed, 0.0, 1.0, tol=1e-14).value
    defects = np.diagonal(_kernel_defects(lams, xs).reshape(20, 2, 20),
                          axis1=0, axis2=2)
    series = np.exp(-lams * np.abs(xs)) + [[-1.0], [1.0]] * defects
    worst = np.max(np.abs(inv.reshape(2, -1) - series), axis=1)
    out = [_check(f"transform-{k}-vs-closed", w <= 1e-12, w,
                  "max |inverse closed - series| over 20 random (lam,x)", 1e-12)
           for k, w in zip("LM", worst)]
    ts = np.array([1.1, 1.5])
    ft = cos_window_integral(
        lambda x: kernels._defects((1.0,), x, "minorant")[0], ts)
    worst = float(np.max(np.abs(kernels._exp_transform(1.0, ts) - ft)))
    out.append(_check("transform-support", worst <= 1e-6, worst,
                      "|numeric Lhat| at t in {1.1, 1.5}", 1e-6))
    lams = 10.0 ** np.linspace(-1, 1, 7)[:, None]
    ts = np.linspace(-0.95, 0.95, 21)
    slack = float(np.min(kernels._exp_transform(lams, ts) - kernels.eval_Lhat(lams, ts)))
    out.append(_check("transform-remark-bound", slack >= -1e-12, slack,
                      "Lhat <= 2lam/(lam^2+4pi^2t^2) on grid", 1e-12))
    return out


def check_log_majorant(rng):
    G = superposed.Minorant(measures.HaarLog())

    def defect(x):
        return -G.value(x) - np.log(np.abs(x))

    xs = np.linspace(-30.0, 30.0, 10_001)
    slack = float(np.min(defect(xs[xs != 0.0])))
    out = [_check("log-majorant-onesided", slack >= -1e-9, slack,
                  "U - log|x| >= 0 on [-30,30]", 1e-9)]
    err = abs(2.0 * integral_with_period_tail(defect) - math.log(2.0))
    out.append(_check("log-majorant-mass", err <= 1e-6, err,
                      "int (U - log|x|) dx = log 2", 1e-6))
    ts = np.array([1.25, 1.5, 2.5, 0.25, 0.5, 0.75])
    ft, cap = cos_window_integral(defect, ts), 0.5 / ts
    worst = float(np.max(np.abs(ft[:3] - cap[:3])))
    out.append(_check("log-majorant-transform-outside", worst <= 1e-6, worst,
                      "F[U - log](t) = 1/(2|t|) for |t| >= 1", 1e-6))
    ft, cap = ft[3:], cap[3:]
    ok = np.all((-1e-9 <= ft) & (ft <= cap + 1e-9))
    out.append(_check("log-majorant-transform-inside", ok, np.max(ft - cap),
                      "F[U - log](t) in [0, 1/(2|t|)] for 0 < |t| < 1", 1e-9))
    return out


# the measure families of criteria 5 and 8, with the superposed kinds each has
_FAMILIES = {"haar": (measures.HaarLog(), "G"),
             "power0.5": (measures.PowerLaw(0.5), "G"),
             "power1.5": (measures.PowerLaw(1.5), "GH"),
             "atomic": (measures.Atomic((0.8, 2.0), (1.0, 0.5)), "GH")}

# (family, kind, check name, expected) of the arithmetic-progression
# witnesses, whose ratios increase to A (kind "lower") or B ("upper")
_WITNESSES = (
    ("haar", "lower", "haar-A", "alternating witness at N=2000 within 2% of log2"),
    ("power0.5", "lower", "power05-A", "alternating witness at N=2000 within 2% of A"),
    ("power1.5", "upper", "power15-B", "constant witness at N=2000 within 2% of B "
                                       "(true deficit ~ 8C/(B sqrt(N)) = 3.4%)"),
)


def check_superposition_routes(rng):
    out = []
    classes = {"G": superposed.Minorant, "H": superposed.Majorant}
    for name, (mu, kinds) in _FAMILIES.items():
        pts = rng.uniform(0.05, 20.0, 50)
        for kind in kinds:
            prof = classes[kind](mu).defect(pts, tol=1e-9)
            worst = float(np.max(np.abs(prof.series_value - prof.integral_value)))
            out.append(_check(f"route-equivalence-{kind}-{name}", worst <= 1e-7,
                              worst, "series vs defect-integral, 50 points",
                              1e-7))
    return out


def check_periodic_sandwich(rng):
    out = []
    worst_sw = worst_node = worst_mean = 0.0
    grid = np.linspace(0.0, 1.0, 4096, endpoint=False)
    for lam in (0.2, 1.0, 5.0):
        for N in (0, 1, 4, 16):
            lp = periodic.trig_minorant_l(lam, N)
            mp = periodic.trig_majorant_m(lam, N)
            pv = periodic.eval_p(lam, grid)
            worst_sw = min(worst_sw,
                           float(np.min(pv - lp.evaluate(grid))),
                           float(np.min(mp.evaluate(grid) - pv)))
            nl = (np.arange(1, N + 2) - 0.5) / (N + 1)
            nm = np.arange(0, N + 1) / (N + 1.0)
            worst_node = max(
                worst_node,
                float(np.max(np.abs(lp.evaluate(nl) - periodic.eval_p(lam, nl)))),
                float(np.max(np.abs(mp.evaluate(nm) - periodic.eval_p(lam, nm)))))
            u = lam / (N + 1.0)
            worst_mean = max(
                worst_mean,
                abs(lp.mean + specfun.defect_minorant(u) / (N + 1.0)),
                abs(mp.mean - specfun.defect_majorant(u) / (N + 1.0)))
    out.append(_check("periodic-sandwich", worst_sw >= -1e-11, worst_sw,
                      "l <= p <= m on 4096 grid", 1e-11))
    out.append(_check("periodic-node-equality", worst_node <= 1e-10,
                      worst_node, "touching at the two node families", 1e-10))
    out.append(_check("periodic-means", worst_mean <= 1e-12, worst_mean,
                      "means match the closed defect forms", 1e-12))
    return out


def check_log_sin_suite(rng):
    out = []
    worst_side = worst_mean = worst_coeff = 0.0
    coeffs_ok = True
    grid = np.linspace(0.0, 1.0, 4096, endpoint=False)[1:]
    target = np.log(np.abs(2.0 * np.sin(np.pi * grid)))
    for N in (1, 4, 16, 64):
        u = periodic.log_sin_majorant(N)
        worst_side = min(worst_side, float(np.min(u.evaluate(grid) - target)))
        worst_mean = max(worst_mean, abs(u.mean - math.log(2.0) / (N + 1.0)))
        lo, c = -0.5 / np.arange(1, N + 1), np.real(u.coeffs[N + 1:])
        coeffs_ok = coeffs_ok and bool(np.all((lo - 1e-12 <= c) & (c <= 1e-15)))
        worst_coeff = max(worst_coeff, np.max(c), np.max(lo - c))
    out.append(_check("log-sin-onesided", worst_side >= -1e-9, worst_side,
                      "u_N >= log|2 sin(pi x)|", 1e-9))
    out.append(_check("log-sin-mean", worst_mean <= 1e-10, worst_mean,
                      "mean = log2/(N+1)", 1e-10))
    out.append(_check("log-sin-coeff-bounds", coeffs_ok, worst_coeff,
                      "-1/(2n) <= c(n) <= 0", 1e-12))
    return out


def check_form_bounds(rng, table=None):
    out = []
    for name, (mu, _) in _FAMILIES.items():
        fb = forms.form_bound(mu, 1.0)
        trials = []
        for _ in range(100):
            n = int(rng.integers(2, 40))
            ps = forms.random_point_set(rng, n, 1.0)
            trials.append((ps, rng.normal(size=n) + 1j * rng.normal(size=n)))
        worst_lo = worst_hi = math.inf
        for (_, a), v in zip(trials, forms.evaluate_forms(mu, *zip(*trials)).tolist()):
            energy = float(np.sum(np.abs(a) ** 2))
            worst_lo = min(worst_lo, (v + fb.A * energy) / energy)
            if fb.B is not None:
                worst_hi = min(worst_hi, (fb.B * energy - v) / energy)
        out.append(_check(f"form-lower-{name}", worst_lo >= -1e-9, worst_lo,
                          "form >= -A sum|a|^2, 100 trials", 1e-9))
        if fb.B is not None:
            out.append(_check(f"form-upper-{name}", worst_hi >= -1e-9,
                              worst_hi, "form <= B sum|a|^2, 100 trials",
                              1e-9))
    # the N = 2000 rows of the sharpness table (the run's, if given), in _WITNESSES order
    last = [row for row in table or sharpness_table() if row["N"] == 2000]
    for (_, _, name, expected), row in zip(_WITNESSES, last):
        rel = abs(row["rel_gap"])
        out.append(_check(f"sharpness-witness-{name}", rel <= 0.02, rel,
                          expected, 0.02))
    return out


def check_hls_constants(rng):
    out = []
    err1 = abs(forms.hls_constants(1.0, 1.0).lower - math.log(4.0))
    out.append(_check("hls-sigma1-lower", err1 <= 1e-14, err1,
                      "lower = log 4 at sigma = 1, delta = 1", 1e-14))
    worst = 0.0
    for s in (0.25, 0.5, 0.75, 1.25, 1.5, 1.75):
        h1 = forms.hls_constants(s, 1.0)
        h2 = forms.hls_gamma_route(s, 1.0)
        worst = max(worst, abs(h1.lower - h2.lower))
        if h1.upper is not None:
            worst = max(worst, abs(h1.upper - h2.upper))
    out.append(_check("hls-functional-equation", worst <= 1e-10, worst,
                      "zeta-form vs Gamma(1-s)zeta(1-s) route", 1e-10))
    return out


def check_polybound(rng):
    out = []
    sets = []
    for _ in range(200):
        M = int(rng.integers(1, 33))
        sets.append(rng.uniform(-2, 2, M) + 1j * rng.uniform(-2, 2, M))
    sups = polybound.sup_log_oracles(sets, 8192)
    bounds = polybound.disk_sup_bounds(sets, 64)
    # the bounds of degrees 0, 1, 4, 16 and 64 of each set, from its one running sum
    degrees = polybound._bound(np.array([sb.logplus_sum for sb in bounds]),
                               np.array([sb.M for sb in bounds]),
                               np.array([sb.power_sums for sb in bounds]))
    worst = np.min(degrees[:, [0, 1, 4, 16, 64]] - sups[:, None])
    out.append(_check("et-soundness", worst >= -1e-9, worst,
                      "bound >= sup oracle, 200 random root sets", 1e-9))
    rep = polybound.bound_report([1.0], 0)
    err = max(abs(rep["bound"] - math.log(2.0)),
              abs(rep["sup_estimate"] - math.log(2.0)))
    out.append(_check("et-equality-witness", err <= 1e-9, err,
                      "alpha={1}, N=0: bound = sup = log 2", 1e-9))
    sets = []
    for _ in range(20):
        M = int(rng.integers(1, 9))
        radii = np.where(rng.uniform(size=M) < 0.5,
                         rng.uniform(0.0, 0.8, M), rng.uniform(1.25, 2.0, M))
        sets.append(radii * np.exp(2j * np.pi * rng.uniform(size=M)))
    worst = float(np.max(polybound.jensen_gaps(sets)))
    out.append(_check("et-jensen", worst <= 1e-8, worst,
                      "Jensen gap on 20 root sets off the circle", 1e-8))
    return out


CRITERIA = (
    ("1-kernel-sandwich", check_kernel_sandwich),
    ("2-defect-integrals", check_defect_integrals),
    ("3-transforms", check_transforms),
    ("4-log-majorant", check_log_majorant),
    ("5-superposition-routes", check_superposition_routes),
    ("6-periodic-sandwich", check_periodic_sandwich),
    ("7-log-sin-suite", check_log_sin_suite),
    ("8-form-bounds", check_form_bounds),
    ("9-hls-constants", check_hls_constants),
    ("10-et-bounds", check_polybound),
)

SUITES = {
    "kernels": ("1-kernel-sandwich", "2-defect-integrals", "3-transforms"),
    "superposed": ("4-log-majorant", "5-superposition-routes"),
    "periodic": ("6-periodic-sandwich", "7-log-sin-suite"),
    "forms": ("8-form-bounds", "9-hls-constants"),
    "et": ("10-et-bounds",),
    "all": tuple(name for name, _ in CRITERIA),
}


def sharpness_table(delta=1.0):
    """Witness-ratio convergence rows for the arithmetic-progression tests."""
    rows = []
    for name, kind, _, _ in _WITNESSES:
        mu = _FAMILIES[name][0]
        fb = forms.form_bound(mu, delta)
        const = fb.A if kind == "lower" else fb.B
        for N in (125, 250, 500, 1000, 2000):
            ratio = forms.sharpness_witness(mu, delta, N, kind)
            rows.append({"family": name, "kind": kind, "N": N, "constant": const,
                         "ratio": ratio, "rel_gap": (const - ratio) / const})
    return rows


def run_criterion(name, seed=7, table=None):
    """CheckResults of one numbered criterion under a fresh seeded RNG;
    criterion 8 reads its witnesses off ``table``, a sharpness_table(),
    when given."""
    fns = dict(CRITERIA)
    if name not in fns:
        raise DomainError(f"unknown criterion {name!r}")
    rng = np.random.default_rng(seed)
    return fns[name](rng, table) if name == "8-form-bounds" else fns[name](rng)


def check_dict(c):
    d = asdict(c)
    d["pass"] = d.pop("passed")
    return d


# the criteria from longest to shortest, by their warm in-process median
# times at seed 7 on a 2-vCPU Linux VM (Python 3.11, numpy 2.4), in ms:
# 10 ~34, 4 ~31, 5 ~30, 8 ~21, 1 ~15, 6 ~13, 3 ~12, 7 ~6, 2 ~5, 9 ~1 on a
# quiet host, up to about 1.6 times that on a loaded one.  A pool fed in
# suite order starts criterion 10 last and then waits on it alone.
LONGEST_FIRST = ("10-et-bounds", "4-log-majorant", "5-superposition-routes",
                 "8-form-bounds", "1-kernel-sandwich", "6-periodic-sandwich",
                 "3-transforms", "7-log-sin-suite", "2-defect-integrals",
                 "9-hls-constants")


def _group(crit, seed, table):
    """The check dicts and the report entry of one criterion of a suite."""
    rows = run_criterion(crit, seed, table)
    return ([check_dict(c) for c in rows],
            {"criterion": crit, "passed": all(c.passed for c in rows)})


def _work(tasks, out, names, seed, table):
    """A forked worker: _group of each criterion whose index it reads from
    the task pipe, a byte a token, until the pipe is empty or a criterion
    raises; then a dict of index to rows, or to that exception, pickled
    down its own pipe.  It leaves by os._exit, so none of the parent's
    handlers or buffers runs twice."""
    code = 1
    try:
        done = {}
        while token := os.read(tasks, 1):
            try:
                done[token[0]] = _group(names[token[0]], seed, table)
            except Exception as exc:
                done[token[0]] = exc
                break
        blob = memoryview(pickle.dumps(done))
        while blob:
            blob = blob[os.write(out, blob):]
        code = 0
    finally:
        os._exit(code)


def _groups(names, seed, table):
    """_group of each criterion in names, in that order.  With two or more
    usable CPUs and criteria, they run in up to one forked worker per CPU,
    which take the criteria longest first from one task pipe, and the
    parent reaps every worker on every path.  The exception of the first
    failing criterion reaches the caller with its class, and a worker that
    dies raises BrokenProcessPool."""
    # no sched_getaffinity on macOS and Windows, where fork is unsafe or absent
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(len(names), cpus)
    if workers < 2:
        return [_group(crit, seed, table) for crit in names]
    # Forked, not spawned: a spawned worker imports numpy and the library
    # afresh, which took 0.4 s for two workers, as long as the whole suite.
    # The tokens are in the pipe and its write end closed before the first
    # fork, so a worker that finds it empty is done.
    tasks, feed = os.pipe()
    os.write(feed, bytes(sorted(range(len(names)), key=lambda i: LONGEST_FIRST.index(names[i]))))
    os.close(feed)
    pids, pipes = [], []
    try:
        for _ in range(workers):
            r, w = os.pipe()
            pipes.append(r)
            try:
                if (pid := os.fork()) == 0:
                    _work(tasks, w, names, seed, table)
                pids.append(pid)
            finally:
                os.close(w)
        blobs = [b"".join(iter(lambda: os.read(r, 1 << 16), b"")) for r in pipes]
    except BaseException:
        import signal
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for fd in [tasks] + pipes:
            os.close(fd)
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
    if any(codes) or not all(blobs):
        # imported here only: a run whose workers all finish loads no concurrent.futures
        from concurrent.futures.process import BrokenProcessPool
        raise BrokenProcessPool(f"a verify worker died: exit codes {codes}")
    done = {}
    for blob in blobs:
        done.update(pickle.loads(blob))
    parts = [done[i] for i in range(len(names))]
    for part in parts:
        if isinstance(part, Exception):
            raise part
    return parts


def run_suite(suite, seed=7, command=None):
    """RunReport dict for a named suite; deterministic for a fixed seed, and
    the same whether its criteria run in forked workers or in order."""
    if suite not in SUITES:
        raise DomainError(f"unknown suite {suite!r}; "
                          f"choose from {sorted(SUITES)}")
    # one sharpness table per run, for criterion 8 and the report
    table = sharpness_table() if "8-form-bounds" in SUITES[suite] else None
    parts = _groups(SUITES[suite], seed, table)
    groups = [group for _, group in parts]
    results = {
        "suite": suite,
        "criteria": groups,
        "passed": all(g["passed"] for g in groups),
    }
    if table is not None:
        results["sharpness_table"] = table
    return {
        "command": command or f"verify --suite {suite} --seed {seed}",
        "seed": int(seed),
        "results": results,
        "checks": [c for checks, _ in parts for c in checks],
    }
