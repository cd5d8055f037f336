"""Command-line front-end: evaluation, coefficient dumps, bounds, verification.

Output discipline: every command builds its complete output text first and
writes it in one step (stdout or --out), so a usage or parse error never
leaves a partial file behind.  CSV cells use shortest round-trip decimal
formatting; JSON is serialized with sorted keys so reruns with identical
flags and seed are byte-identical.

FLAGS holds each optional flag's argparse settings and KINDS the flags each
kind reads.  A command declares the flags its kinds read; a REQUIRED flag
left out, or a flag given to a kind that does not read it, is a usage error.

Exit codes: 0 pass, 1 check failure, 2 usage error, 3 numeric
non-convergence.

Loading this module runs errors and kernels alone (L, M, Lhat, Mhat and
p).  The other modules it names are registered in sys.modules as an import
would, but each runs on its first attribute access, so a command pays for
no module it does not reach.
"""

import argparse
import csv
import importlib.util
import io
import json
import math
import sys

import numpy as np

from . import kernels
from .errors import AdmissibilityError, ConvergenceError, DivergenceError, DomainError


def _deferred(name):
    """The submodule name, in sys.modules as an import leaves it, but run on
    its first attribute access (LazyLoader).  It is not set on the package,
    whose __getattr__ runs it when another module imports it."""
    full = f"{__package__}.{name}"
    if full in sys.modules:
        return sys.modules[full]
    spec = importlib.util.find_spec(full)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[full] = module
    spec.loader.exec_module(module)
    return module


forms = _deferred("forms")
measures = _deferred("measures")
periodic = _deferred("periodic")
polybound = _deferred("polybound")
quadrature = _deferred("quadrature")
superposed = _deferred("superposed")
verify = _deferred("verify")

# the argparse settings of every optional flag
FLAGS = {
    "--lambda": dict(dest="lam", type=float, default=None),
    "--measure": dict(default=None,
                      help="haar | power:sigma | atomic:f.csv | weight:f.csv"),
    "--N": dict(type=int, default=None),
    "--sigma": dict(type=float, default=None),
    "--points": dict(default=None, help="CSV with header xi,re,im"),
    "--coeffs": dict(default=None,
                     help="optional CSV re,im overriding coefficient columns"),
    "--roots": dict(default=None, help="CSV with header re,im"),
    "--with-target": dict(action="store_true", default=False),
    "--delta": dict(type=float, default=1.0),
    "--tol": dict(type=float, default=None),
}
# command -> kind (verify: suite) -> the optional flags that kind reads;
# a command declares the flags its kinds read and no others
KINDS = {
    "eval": {
        "L": ("--lambda", "--with-target"),
        "M": ("--lambda", "--with-target"),
        "Lhat": ("--lambda",),
        "Mhat": ("--lambda",),
        "p": ("--lambda",),
        "q": ("--measure", "--tol"),
        "G": ("--measure", "--with-target", "--delta"),
        "H": ("--measure", "--with-target", "--delta"),
        "U": ("--with-target",),
    },
    "coeffs": {
        "l": ("--lambda", "--N"),
        "m": ("--lambda", "--N"),
        "g": ("--measure", "--N", "--tol"),
        "h": ("--measure", "--N", "--tol"),
        "uN": ("--N",),
    },
    "bounds": {
        "hls": ("--sigma", "--delta"),
        "form": ("--measure", "--points", "--coeffs", "--delta", "--tol"),
        "et": ("--roots", "--N"),
    },
    "verify": dict.fromkeys(("all", "et", "forms", "kernels", "periodic", "superposed"), ()),
}
# the flags a kind cannot do without when it reads them
REQUIRED = ("--lambda", "--measure", "--N", "--sigma", "--points", "--roots")


def _fmt(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _csv_text(header, rows):
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow([_fmt(c) for c in row])
    return buf.getvalue()


def _json_text(obj):
    return json.dumps(obj, indent=1, sort_keys=True) + "\n"


def _json_report(args, argv, results, checks=()):
    """The JSON report of an eval or bounds run; checks are verify.CheckResult rows."""
    return _json_text({"command": "extremal " + " ".join(argv), "seed": args.seed,
                       "results": results, "checks": [verify.check_dict(c) for c in checks]})


def _parse_grid(spec):
    parts = spec.split(":")
    if len(parts) != 3:
        raise DomainError(f"grid must be 'a:b:n', got {spec!r}")
    try:
        a, b, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise DomainError(f"grid must be 'a:b:n' with numeric parts, got {spec!r}")
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError(f"grid endpoints must be finite, got {spec!r}")
    if n < 1:
        raise DomainError(f"grid point count must be >= 1, got {n}")
    return np.linspace(a, b, n)


def _parse_measure(spec):
    if spec == "haar":
        return measures.HaarLog()
    if spec.startswith("power:"):
        try:
            sigma = float(spec[len("power:"):])
        except ValueError:
            raise DomainError(f"bad power-law measure spec {spec!r}")
        return measures.PowerLaw(sigma)
    if spec.startswith("atomic:"):
        return measures.atomic_from_csv(spec[len("atomic:"):])
    if spec.startswith("weight:"):
        return measures.weight_from_csv(spec[len("weight:"):])
    raise DomainError(
        f"unknown measure {spec!r}; use haar, power:sigma, "
        "atomic:file.csv or weight:file.csv")


def _check_flags(args):
    """A usage error for a REQUIRED flag the kind reads but was not given,
    for a flag given (set off its default) that the kind does not read, and
    for a tolerance that is not finite and positive."""
    reads = KINDS[args.command][args.kind]
    where = f"{args.command} --kind {args.kind}"
    for flag, settings in FLAGS.items():
        dest = settings.get("dest", flag[2:].replace("-", "_"))
        # a flag the command does not declare is at its default
        given = getattr(args, dest, settings["default"]) != settings["default"]
        if flag in reads and flag in REQUIRED and not given:
            raise DomainError(f"{where} requires {flag}")
        if flag not in reads and given:
            raise DomainError(f"{flag} is not used by {where}")
    if getattr(args, "tol", None) is not None:
        quadrature.check_tol(args.tol)      # closed forms never reach refine


# -- eval ------------------------------------------------------------------


# the kinds whose values at one rate are one array call over the grid
_OF_RATE = {"Lhat": kernels.eval_Lhat, "Mhat": kernels.eval_Mhat, "p": kernels.eval_p}


def _eval_columns(args):
    """The report's columns on the grid, in order: x and value, then the
    target and the one-sided defect (>= 0) when the target is asked for."""
    xs = _parse_grid(args.grid)
    kind = args.kind
    target = None
    if kind in ("L", "M"):
        lattice = kernels.minorant_values if kind == "L" else kernels.majorant_values
        vals = lattice(args.lam, xs)
        with np.errstate(over="ignore"):        # lam |x| past the floats: e^-inf = 0
            target = np.exp(-args.lam * np.abs(xs))
    elif kind in _OF_RATE:
        vals = _OF_RATE[kind](args.lam, xs)
    elif kind == "q":
        # one call over the grid: inf at the integers where q_mu diverges
        vals = _parse_measure(args.measure).q(xs, args.tol if args.tol is not None else 1e-9)
    elif kind in ("G", "H"):
        cls = superposed.Minorant if kind == "G" else superposed.Majorant
        obj = cls(_parse_measure(args.measure), args.delta)
        vals = obj.value(xs)
        if args.with_target:
            # a quadrature for a Weight, so only when asked; inf at x = 0
            # where f_mu(0) diverges
            target = obj.target(xs)
    else:  # U
        vals = superposed.eval_U(xs)
        with np.errstate(divide="ignore"):
            target = np.log(np.abs(xs))
    columns = {"x": xs, "value": np.asarray(vals, dtype=float)}
    if args.with_target:
        columns["target"] = target
        columns["defect"] = (-1.0 if kind in ("L", "G") else 1.0) * (columns["value"] - target)
    return columns


def cmd_eval(args, argv):
    columns = _eval_columns(args)
    rows = list(zip(*(c.tolist() for c in columns.values())))
    if args.format == "csv":
        return _csv_text(columns, rows), 0
    params = {"kind": args.kind, "grid": args.grid, "delta": args.delta}
    if args.lam is not None:
        params["lambda"] = args.lam
    if args.measure is not None:
        params["measure"] = args.measure
    rows = [dict(zip(columns, r)) for r in rows]
    return _json_report(args, argv, {"params": params, "rows": rows}), 0


# -- coeffs ----------------------------------------------------------------


def cmd_coeffs(args, argv):
    tol = args.tol if args.tol is not None else 1e-10
    kind = args.kind
    if kind == "l":
        poly = periodic.trig_minorant_l(args.lam, args.N)
    elif kind == "m":
        poly = periodic.trig_majorant_m(args.lam, args.N)
    elif kind == "g":
        poly = periodic.trig_minorant_g(_parse_measure(args.measure), args.N,
                                        tol=tol)
    elif kind == "h":
        poly = periodic.trig_majorant_h(_parse_measure(args.measure), args.N,
                                        tol=tol)
    else:
        poly = periodic.log_sin_majorant(args.N)
    if args.format == "csv":
        return poly.to_csv_text(), 0
    return poly.to_json_text(), 0


# -- bounds ----------------------------------------------------------------


def _kv_rows(payload):
    rows = []
    for key in sorted(payload):
        val = payload[key]
        if isinstance(val, (list, tuple)):
            for i, vi in enumerate(val):
                rows.append((f"{key}[{i}]", vi))
        else:
            rows.append((key, val))
    return rows


def _bounds_report(args, argv, results, checks=()):
    """The report of a bounds kind; checks are verify.CheckResult rows."""
    code = 0 if all(c.passed for c in checks) else 1
    if args.format == "csv":
        return _csv_text(("key", "value"), _kv_rows(results)), code
    return _json_report(args, argv, results, checks), code


def cmd_bounds(args, argv):
    tol = args.tol if args.tol is not None else 1e-10
    if args.kind == "hls":
        h = forms.hls_constants(args.sigma, args.delta)
        results = {
            "kind": "hls",
            "sigma": args.sigma,
            "delta": args.delta,
            "lower": h.lower,
            "upper": h.upper,
            "continuity_extension": h.continuity_extension,
        }
        return _bounds_report(args, argv, results)
    if args.kind == "form":
        mu = _parse_measure(args.measure)
        xi, a = forms.points_from_csv(args.points)
        if args.coeffs is not None:
            a = polybound.roots_from_csv(args.coeffs)
            if a.size != xi.size:
                raise DomainError(
                    f"{args.coeffs}: {a.size} coefficients for {xi.size} points")
        ps = forms.PointSet(tuple(xi.tolist()), args.delta)
        rep = forms.form_report(mu, args.delta, ps, a, tol=tol)
        energy = float(np.sum(np.abs(a) ** 2))
        results = {"kind": "form", "measure": args.measure,
                   "delta": args.delta, "n_points": int(xi.size), **rep}
        check = verify.CheckResult("form-lower-bound",
                                   bool(rep["slack"] >= -1e-9 * energy),
                                   rep["slack"], ">= -1e-9 * energy", 1e-9)
        return _bounds_report(args, argv, results, [check])
    roots = polybound.roots_from_csv(args.roots)
    rep = polybound.bound_report(roots, args.N)
    results = {"kind": "et", **rep}
    check = verify.CheckResult("et-soundness", bool(rep["slack"] >= -1e-9),
                               rep["slack"], "bound >= sup_estimate", 1e-9)
    return _bounds_report(args, argv, results, [check])


# -- verify ----------------------------------------------------------------


def cmd_verify(args, argv):
    report = verify.run_suite(args.kind, seed=args.seed,
                              command="extremal " + " ".join(argv))
    code = 0 if all(c["pass"] for c in report["checks"]) else 1
    if args.format == "csv":
        rows = [(c["name"], c["pass"], c["observed"], c["expected"], c["tol"])
                for c in report["checks"]]
        return _csv_text(("name", "pass", "observed", "expected", "tol"),
                         rows), code
    return _json_text(report), code


# -- wiring ----------------------------------------------------------------


def build_parser():
    """The parser: per command its fixed flags and the flags its kinds read."""
    parser = argparse.ArgumentParser(
        prog="extremal",
        description="Extremal band-limited majorants/minorants: evaluation, "
                    "coefficients, sharp constants, verification.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, help_, default_format in (
            ("eval", "evaluate a kernel/transform/periodization", "csv"),
            ("coeffs", "dump trigonometric polynomial coefficients", "csv"),
            ("bounds", "compute sharp constants and verdicts", "json"),
            ("verify", "run a verification suite", "json")):
        kinds = KINDS[command]
        p = sub.add_parser(command, help=help_)
        p.add_argument("--suite" if command == "verify" else "--kind",
                       dest="kind", required=True, choices=tuple(kinds))
        if command == "eval":
            p.add_argument("--grid", required=True, help="a:b:n inclusive grid")
        if command != "coeffs":             # coeffs draws nothing at random
            p.add_argument("--seed", type=int, default=7)
        p.add_argument("--out", help="write output to this path instead of stdout")
        p.add_argument("--format", choices=("csv", "json"), default=default_format)
        read = set().union(*kinds.values())
        for flag, settings in FLAGS.items():
            if flag in read:
                p.add_argument(flag, **settings)
    return parser


_PARSER = build_parser()


def _fuse_grid(argv):
    """Turn '--grid a:b:n' into '--grid=a:b:n' so a negative a parses."""
    out = []
    i = 0
    while i < len(argv):
        if argv[i] == "--grid" and i + 1 < len(argv):
            out.append("--grid=" + argv[i + 1])
            i += 2
        else:
            out.append(argv[i])
            i += 1
    return out


def main(argv=None):
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    args = _PARSER.parse_args(_fuse_grid(argv))
    try:
        _check_flags(args)
        # looked up per call, so a rebound cmd_* is the one that runs
        text, code = globals()[f"cmd_{args.command}"](args, argv)
    except (DomainError, AdmissibilityError, OSError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, DivergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
