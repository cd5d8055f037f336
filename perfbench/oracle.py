"""Output oracles, one per job type; run after the timed worker has exited.

``check(job, rc)`` returns a list of problems, empty when the job passed.
The references are computed here, independently of the library, from the
closed forms the paper gives, or come from values recorded at the seed
commit (``data/``).  Tolerances are the ones ``extremal.verify`` uses for
the same property:

    kernel sandwich L <= e^{-lam|x|} <= M     1e-11   (criterion 1)
    superposed one-sidedness G, H, U          1e-9    (criterion 4)
    node equality                             1e-10   (criterion 6)
    u_N mean and coefficient bounds           1e-10, 1e-12 (criterion 7)
    form and et slack                         -1e-9 x energy (bounds CLI)

On the real line the values grow like |x|^(sigma-1), so eval checks scale
the tolerance by max(1, |target|).
"""

import csv
import json
import math
import os

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
VERDICTS_PATH = os.path.join(HERE, "data", "verify_verdicts.json")

SANDWICH_TOL = 1e-11
ONESIDED_TOL = 1e-9
NODE_TOL = 1e-10
TARGET_TOL = 1e-12


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _load(job):
    """(format, parsed output) of a job: CSV (header, rows) or a JSON object."""
    fmt = job["check"]["format"]
    if fmt == "json":
        with open(job["output"]) as fh:
            return fmt, json.load(fh)
    return fmt, _read_csv(job["output"])


# -- verify ----------------------------------------------------------------


def check_verify(job, data):
    with open(VERDICTS_PATH) as fh:
        expected = json.load(fh)
    got = {c["name"]: c["pass"] for c in data["checks"]}
    problems = []
    if got != expected["checks"]:
        diff = sorted(k for k in set(got) | set(expected["checks"])
                      if got.get(k) != expected["checks"].get(k))
        problems.append(f"verdicts differ from the seed commit at {diff}")
    groups = {g["criterion"]: g["passed"] for g in data["results"]["criteria"]}
    if groups != expected["criteria"]:
        problems.append("criterion verdicts differ from the seed commit")
    return problems


# -- eval ------------------------------------------------------------------


def _grid(spec):
    a, b, n = spec.split(":")
    return np.linspace(float(a), float(b), int(n))


def _eval_columns(fmt, data):
    if fmt == "json":
        rows = data["results"]["rows"]
        cols = {k: np.array([r[k] for r in rows], dtype=float) for k in rows[0]}
        return cols
    header, rows = data
    arr = np.array(rows, dtype=float).reshape(len(rows), len(header))
    return {h: arr[:, i] for i, h in enumerate(header)}


def _target(check, x):
    """What the approximant one-sidedly approximates, +-inf where divergent."""
    kind = check["kind"]
    ax = np.abs(x)
    if kind in ("L", "M"):
        return np.exp(-check["lambda"] * ax)
    if kind == "U":
        with np.errstate(divide="ignore"):
            return np.log(ax)
    mu = check["measure"]
    delta = check["delta"]
    with np.errstate(divide="ignore"):
        if mu["family"] == "haar":
            return -np.log(ax) - math.log(delta)
        if mu["family"] == "power":
            s = mu["sigma"]
            return math.gamma(1.0 - s) * (ax ** (s - 1.0) - delta ** (1.0 - s))
    lams = np.array(mu["points"])
    ws = np.array(mu["weights"])
    return (np.exp(-ax[:, None] * lams) - np.exp(-lams / delta)) @ ws


def _nodes(check, x):
    """Mask of grid points on the interpolation lattice."""
    kind = check["kind"]
    scale = check.get("delta", 1.0) if kind in ("G", "H") else 1.0
    offset = 0.5 if kind in ("L", "G", "U") else 0.0
    d = scale * np.abs(x) - offset
    return np.abs(d - np.rint(d)) < 1e-9


def check_eval(job, data):
    check = job["check"]
    cols = _eval_columns(check["format"], data)
    x = _grid(check["grid"])
    problems = []
    if cols["x"].shape != x.shape or not np.array_equal(cols["x"], x):
        return ["x column differs from the requested grid"]
    v = cols["value"]
    if not np.all(np.isfinite(v)):
        problems.append("non-finite values")
    t = _target(check, x)
    finite = np.isfinite(t)
    scale = np.where(finite, np.maximum(1.0, np.abs(np.where(finite, t, 0.0))), 1.0)
    sign = -1.0 if check["kind"] in ("L", "G") else 1.0
    tol = SANDWICH_TOL if check["kind"] in ("L", "M") else ONESIDED_TOL
    slack = sign * (v - t)
    worst = float(np.min(np.where(finite, slack / scale, np.inf)))
    if worst < -tol:
        problems.append(f"one-sidedness violated: scaled slack {worst!r} < -{tol}")
    nodes = _nodes(check, x) & finite
    if not np.any(nodes):
        problems.append("grid hits no interpolation node")
    else:
        gap = float(np.max(np.abs(v - t)[nodes] / scale[nodes]))
        if gap > NODE_TOL:
            problems.append(f"node equality violated: scaled gap {gap!r} > {NODE_TOL}")
    if check["with_target"]:
        ct = cols["target"]
        same_inf = np.array_equal(np.isinf(ct), ~finite) and np.array_equal(
            np.sign(ct[~finite]), np.sign(t[~finite]))
        diff = np.abs(np.where(finite, ct, 0.0) - np.where(finite, t, 0.0)) / scale
        if not same_inf or float(np.max(diff)) > TARGET_TOL:
            problems.append("target column differs from the closed form")
    return problems


# -- periodic coefficients ------------------------------------------------------


def _coeff_table(fmt, data):
    """{n: complex c(n)} from a coeffs report."""
    if fmt == "json":
        return {int(e["n"]): complex(e["re"], e["im"]) for e in data["coeffs"]}
    header, rows = data
    if header != ["n", "re", "im"]:
        raise ValueError(f"unexpected header {header}")
    return {int(r[0]): complex(float(r[1]), float(r[2])) for r in rows}


def _tol_of(argv, default):
    return float(argv[argv.index("--tol") + 1]) if "--tol" in argv else default


def check_coeffs(job, data, catalogue):
    entry = catalogue[job["check"]["key"]]
    c = _coeff_table(job["check"]["format"], data)
    N = len(c) // 2
    problems = []
    if sorted(c) != list(range(-N, N + 1)):
        return ["coefficient indices do not cover -N..N"]
    for n in range(1, N + 1):
        if c[-n] != c[n].conjugate():
            problems.append(f"c({-n}) is not the conjugate of c({n})")
            break
    if entry["argv"][2] == "uN":
        if abs(c[0].real - math.log(2.0) / (N + 1)) > 1e-10:
            problems.append("u_N mean differs from log2/(N+1)")
        if not all(-0.5 / n - 1e-12 <= c[n].real <= 1e-15 for n in range(1, N + 1)):
            problems.append("u_N coefficients leave [-1/(2n), 0]")
    tol = _tol_of(job["argv"], 1e-10)
    rec = entry["values"]
    if len(rec) != N + 1:
        return problems + ["degree differs from the recorded one"]
    worst = max(abs(complex(*rec[n]) - c[n]) for n in range(N + 1))
    if worst > tol:
        problems.append(f"coefficients differ from the seed commit by {worst!r} > {tol}")
    return problems


def check_q(job, data, catalogue):
    entry = catalogue[job["check"]["key"]]
    header, rows = data
    vals = np.array([float(r[1]) for r in rows])
    x = np.array([float(r[0]) for r in rows])
    rec = np.array(entry["values"], dtype=float)
    if header != ["x", "value"] or not np.array_equal(x, _grid(entry["argv"][-1])):
        return ["q output is not the requested grid"]
    tol = _tol_of(job["argv"], 1e-9)
    worst = float(np.max(np.abs(vals - rec)))
    if not worst <= tol:
        return [f"q values differ from the seed commit by {worst!r} > {tol}"]
    return []


# -- bounds ------------------------------------------------------------------------


def _bounds_results(fmt, data):
    if fmt == "json":
        return data["results"]
    header, rows = data
    return {k: v for k, v in rows}


def _energy(points_csv):
    _, rows = _read_csv(points_csv)
    return sum(float(r[1]) ** 2 + float(r[2]) ** 2 for r in rows), len(rows)


def check_form(job, data):
    res = _bounds_results(job["check"]["format"], data)
    energy, n = _energy(job["check"]["points"])
    problems = []
    if int(float(res["n_points"])) != n:
        problems.append("n_points differs from the input")
    slack = float(res["slack"])
    if not slack >= -1e-9 * energy:
        problems.append(f"form slack {slack!r} < -1e-9 * energy")
    ratio = float(res["witness_ratio"])
    if not ratio <= 1.0 + 1e-9:
        problems.append(f"witness ratio {ratio!r} exceeds 1")
    return problems


def check_et(job, data):
    res = _bounds_results(job["check"]["format"], data)
    _, rows = _read_csv(job["check"]["roots"])
    alpha = np.array([complex(float(r[0]), float(r[1])) for r in rows])
    N = job["check"]["N"]
    mods = np.abs(alpha)
    outside = mods > 1.0 + 1e-15
    beta = np.where(outside, 1.0 / np.conj(np.where(outside, alpha, 1.0)), alpha)
    bound = (float(np.sum(np.log(mods[outside]))) + len(alpha) * math.log(2.0) / (N + 1)
             + sum(float(abs(np.sum(beta ** n))) / n for n in range(1, N + 1)))
    problems = []
    got = float(res["bound"])
    if abs(got - bound) > 1e-10 * max(1.0, abs(bound)):
        problems.append(f"bound {got!r} differs from the closed form {bound!r}")
    slack = float(res["slack"])
    if not slack >= -1e-9:
        problems.append(f"et slack {slack!r} < -1e-9")
    return problems


def _zeta(s):
    """Riemann zeta for real s != 1 by Euler-Maclaurin from n = 20 on."""
    n = 20
    head = sum(k ** -s for k in range(1, n))
    # Bernoulli terms B_2k/(2k)! for k = 1..4
    bern = (1.0 / 12.0, -1.0 / 720.0, 1.0 / 30240.0, -1.0 / 1209600.0)
    tail = n ** (1.0 - s) / (s - 1.0) + 0.5 * n ** -s
    rising = s
    for k, b in enumerate(bern):
        tail += b * rising * n ** (-s - 2 * k - 1)
        rising *= (s + 2 * k + 1) * (s + 2 * k + 2)
    return head + tail


def check_hls(job, data):
    res = _bounds_results(job["check"]["format"], data)
    s, delta = job["check"]["sigma"], job["check"]["delta"]
    if s == 1.0:
        lower, upper = math.log(4.0) / delta, None
    elif s == 2.0:
        lower, upper = math.pi ** 2 / 6.0 / delta ** 2, math.pi ** 2 / 3.0 / delta ** 2
    else:
        z = _zeta(s)
        lower = (2.0 - 2.0 ** (2.0 - s)) * z / delta ** s
        upper = 2.0 * z / delta ** s if s > 1.0 else None
    problems = []
    if abs(float(res["lower"]) - lower) > 1e-12 * max(1.0, abs(lower)):
        problems.append(f"lower constant {res['lower']} differs from {lower!r}")
    got_upper = res["upper"]
    if upper is None:
        if got_upper not in (None, "None"):
            problems.append("upper constant reported where none exists")
    elif abs(float(got_upper) - upper) > 1e-12 * upper:
        problems.append(f"upper constant {got_upper} differs from {upper!r}")
    return problems


def check(job, rc, catalogue=None):
    """Problems with one finished job (empty list: the job passed)."""
    if rc != job["expect_rc"]:
        return [f"exit code {rc!r}, expected {job['expect_rc']}"]
    try:
        fmt, data = _load(job)
        kind = job["check"]["type"]
        if kind == "verify":
            return check_verify(job, data)
        if kind == "eval":
            return check_eval(job, data)
        if kind == "coeffs":
            return check_coeffs(job, data, catalogue)
        if kind == "q":
            return check_q(job, data, catalogue)
        if kind == "form":
            return check_form(job, data)
        if kind == "et":
            return check_et(job, data)
        return check_hls(job, data)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
