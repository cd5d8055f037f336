"""End-to-end command-line behavior: formats, exit codes, determinism."""

import argparse
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from extremal import cli, forms, measures, periodic, quadrature, superposed, verify
from extremal.errors import ConvergenceError, DivergenceError
import oracles


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


# -- eval ---------------------------------------------------------------------

def test_eval_log_majorant_wide_grid(capsys):
    code, out, _ = run_cli(
        ["eval", "--kind", "U", "--grid", "-500:500:1001", "--with-target"],
        capsys)
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["x", "value", "target", "defect"]
    assert len(rows) == 1001
    defects = np.array([float(r[3]) for r in rows])
    assert np.all(defects >= -1e-9)
    mid = rows[500]
    assert float(mid[0]) == 0.0
    assert float(mid[2]) == -math.inf        # log|0|
    assert float(mid[3]) == math.inf


def test_eval_target_past_the_floats_warns_nothing(capsys):
    """lam |x| overflows to inf, and e^-inf = 0 is the target, silently."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(["eval", "--kind", "L", "--lambda", "2", "--grid",
                                  "1e308:1e308:1", "--with-target"], capsys)
    assert code == 0 and err == ""
    assert out.splitlines() == ["x,value,target,defect", "1e+308,0.0,0.0,-0.0"]


def test_eval_transform_at_a_rate_whose_square_underflows(capsys):
    """Lhat(lam, 0) = csch(lam/2), 1.99999999999999995e300 at lam = 1e-300
    (the double nearest 1e-300), which rounds to 1.9999999999999998e+300."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(["eval", "--kind", "Lhat", "--lambda", "1e-300",
                                  "--grid", "-0:0:2"], capsys)
    assert code == 0 and err == ""
    assert out.splitlines() == ["x,value"] + ["0.0,1.9999999999999998e+300"] * 2


@pytest.mark.parametrize("kind", ["Lhat", "Mhat"])
def test_eval_transform_past_the_floats_prints_inf(kind, capsys):
    """csch(lam/2) and coth(lam/2), about 2e310 at lam = 1e-310, leave the
    floats: Lhat(lam, 0) and Mhat(lam, 0) print inf, and nothing warns."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(["eval", "--kind", kind, "--lambda", "1e-310",
                                  "--grid", "0:0.5:2"], capsys)
    assert code == 0 and err == ""
    assert out.splitlines()[1] == "0.0,inf"


def test_eval_dilation_past_the_floats_is_a_domain_error(capsys):
    """At delta = 1e-320 the node derivatives of H for power:1.95 leave the
    floats, though its target, 2.05e305, does not: exit 2 with one error
    line and no row, not nan, and nothing warns.  At delta = 1e-310 the
    value is the target."""
    argv = ["eval", "--kind", "H", "--measure", "power:1.95", "--grid", "0:0:1",
            "--with-target", "--delta"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(argv + ["1e-320"], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "leaves the floats" in err
        code, out, err = run_cli(argv + ["1e-310"], capsys)
    assert code == 0 and err == ""
    _, rows = parse_csv(out)
    assert rows[0][1] == rows[0][2] and float(rows[0][1]) > 6e295


@pytest.mark.parametrize("argv, rate", [
    (["coeffs", "--kind", "l", "--lambda", "1e-320", "--N", "4"], "1e-320"),
    (["coeffs", "--kind", "m", "--lambda", "1e-320", "--N", "4"], "1e-320"),
    (["eval", "--kind", "p", "--lambda", "1e-310", "--grid", "0:0.5:2"], "1e-310"),
], ids=["coeffs-l", "coeffs-m", "eval-p"])
def test_periodized_kernel_past_the_floats_is_a_domain_error(argv, rate, capsys):
    """Below lam ~ 5.6e-309, 1/(1 - e^{-lam}) leaves the floats, though p
    and j do not: exit 2 with one error line naming lam, no row and no
    warning, not inf or nan coefficients or values."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert err == f"error: p leaves the floats at lam = {rate}\n"


def test_the_mean_past_the_floats_names_the_lambda_given(capsys):
    """coeffs --kind m at lam = 1e-307, N = 400: p and j stay finite, but
    the rate lam/(N+1) of the mean leaves the floats; the one error line
    names that rate beside the lam and N given."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(
            ["coeffs", "--kind", "m", "--lambda", "1e-307", "--N", "400"], capsys)
    assert code == 2 and out == ""
    assert err == ("error: defect_majorant leaves the floats at lam = 2.4937655860349e-310, "
                   "the rate lam/(N+1) of the mean at lam = 1e-307, N = 400\n")


def test_eval_transform_vanishes_beyond_band(capsys):
    code, out, _ = run_cli(
        ["eval", "--kind", "Lhat", "--lambda", "1.0", "--grid", "1.25:3:8"],
        capsys)
    assert code == 0
    _, rows = parse_csv(out)
    assert [float(r[1]) for r in rows] == [0.0] * 8


def test_eval_periodized_kernel_value(capsys):
    code, out, _ = run_cli(
        ["eval", "--kind", "p", "--lambda", "2.0", "--grid", "0:0:1"], capsys)
    assert code == 0
    _, rows = parse_csv(out)
    # coth(1) - 1 = 0.31303528549933130364... (mpmath), correctly rounded
    assert rows[0][1] == "0.3130352854993313"


def test_eval_negative_grid_start_parses(capsys):
    code, out, _ = run_cli(
        ["eval", "--kind", "M", "--lambda", "1.0", "--grid", "-2:2:5",
         "--with-target"], capsys)
    assert code == 0
    _, rows = parse_csv(out)
    assert [float(r[0]) for r in rows] == [-2.0, -1.0, 0.0, 1.0, 2.0]
    assert all(float(r[3]) >= -1e-12 for r in rows)


@pytest.mark.parametrize("lam", ["1e-18", "5e-324"])
@pytest.mark.parametrize("kind", ["L", "M"])
def test_eval_tiny_rate_reads_one(kind, lam, capsys):
    """A rate too small for an int node count still evaluates: e^{-lam|x|}
    is 1 to rounding on [0, 1]."""
    code, out, err = run_cli(
        ["eval", "--kind", kind, "--lambda", lam, "--grid", "0:1:2"], capsys)
    assert code == 0, err
    _, rows = parse_csv(out)
    assert len(rows) == 2
    assert all(abs(float(r[1]) - 1.0) <= 1e-14 for r in rows)


def test_eval_json_report_shape(capsys):
    code, out, _ = run_cli(
        ["eval", "--kind", "L", "--lambda", "0.5", "--grid", "0:2:3",
         "--format", "json"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert set(rep) == {"command", "seed", "results", "checks"}
    assert rep["command"].startswith("extremal eval")
    assert rep["seed"] == 7
    assert len(rep["results"]["rows"]) == 3
    assert rep["results"]["params"]["lambda"] == 0.5


def test_eval_superposed_with_target(capsys):
    code, out, _ = run_cli(
        ["eval", "--kind", "H", "--measure", "power:1.5", "--grid", "-2:2:5",
         "--with-target"], capsys)
    assert code == 0
    _, rows = parse_csv(out)
    # integers are interpolation nodes: defect vanishes on this grid
    assert all(abs(float(r[3])) <= 1e-10 for r in rows)


def test_eval_weight_majorant_defect_at_its_node_zero_is_exactly_zero(tmp_path, capsys):
    # a Weight's f_nu(0) in a batch may differ in its last bits from the one
    # H interpolates; H's value and target read the one f_nu(0)
    w = tmp_path / "w.csv"
    w.write_text("lambda,weight\n0.00010961657193663788,1.6695578810875593\n"
                 "1.0724789940773534,0.9029844917315754\n")
    code, out, _ = run_cli(["eval", "--kind", "H", "--measure", f"weight:{w}",
                            "--with-target", "--grid", "-10:10:201"], capsys)
    assert code == 0
    _, rows = parse_csv(out)
    assert rows[100][0] == "0.0" and rows[100][1] == rows[100][2]
    assert rows[100][3] == "0.0"


def test_eval_divergent_periodization_prints_inf(capsys):
    code, out, _ = run_cli(
        ["eval", "--kind", "q", "--measure", "haar", "--grid", "0:1:5"],
        capsys)
    assert code == 0
    _, rows = parse_csv(out)
    vals = [float(r[1]) for r in rows]
    assert vals[0] == math.inf and vals[4] == math.inf
    assert abs(vals[2] - (-math.log(2.0))) <= 1e-15


def test_eval_divergent_target_prints_inf(capsys):
    # the Haar target -log|x| diverges at x = 0 alone
    code, out, _ = run_cli(
        ["eval", "--kind", "G", "--measure", "haar", "--grid", "-1:1:3",
         "--with-target"], capsys)
    assert code == 0
    _, rows = parse_csv(out)
    assert [r[2] for r in rows] == ["-0.0", "inf", "-0.0"]
    assert rows[1][3] == "inf" and math.isfinite(float(rows[1][1]))


WEIGHT_ROWS = "lambda,weight\n0.5,1.0\n1.0,2.0\n3.0,0.5\n6.0,1.0\n"


def _q_text_by_points(mu, xs, tol=1e-9):
    """eval --kind q output from one q_mu call over the grid, inf where it
    diverges."""
    return cli._csv_text(("x", "value"), zip(xs.tolist(), mu.q(xs, tol=tol).tolist()))


def test_eval_q_integer_points_share_one_moment(tmp_path, capsys, monkeypatch):
    """The integer points join the one vector integral of the grid."""
    w = tmp_path / "w.csv"
    w.write_text(WEIGHT_ROWS)
    calls = []
    inner = quadrature.refine
    monkeypatch.setattr(quadrature, "refine",
                        lambda *a, **k: calls.append(1) or inner(*a, **k))
    code, out, _ = run_cli(["eval", "--kind", "q", "--measure", f"weight:{w}",
                            "--grid", "0:10:11"], capsys)
    assert code == 0
    # classify's cond47 integral and one q_mu integral over the grid
    assert len(calls) == 2
    monkeypatch.setattr(quadrature, "refine", inner)
    xs = np.linspace(0.0, 10.0, 11)
    assert out == _q_text_by_points(measures.weight_from_csv(str(w)), xs)


@pytest.mark.parametrize("measure, grid", [("haar", "0:1:5"),
                                           ("power:1.5", "0:3:13")])
def test_eval_q_matches_pointwise_route(measure, grid, capsys):
    code, out, _ = run_cli(["eval", "--kind", "q", "--measure", measure,
                            "--grid", grid], capsys)
    assert code == 0
    mu = cli._parse_measure(measure)
    # a closed form: the one call over the grid is each point's scalar q_mu
    assert out == cli._csv_text(("x", "value"), [(x, mu.q(x)) for x in
                                                  cli._parse_grid(grid).tolist()])
    if measure == "haar":
        assert out == ("x,value\n0.0,inf\n0.25,-0.3465735902799726\n"
                       "0.5,-0.6931471805599453\n0.75,-0.3465735902799727\n"
                       "1.0,inf\n")


@pytest.mark.parametrize("measure", ["haar", "power:1.5", "weight"])
def test_eval_q_is_one_measure_call(measure, tmp_path, capsys, monkeypatch):
    if measure == "weight":
        w = tmp_path / "w.csv"
        w.write_text(WEIGHT_ROWS)
        measure = f"weight:{w}"
    calls = []
    inner = measures.Measure.q
    monkeypatch.setattr(measures.Measure, "q",
                        lambda self, x, tol: calls.append(np.copy(x)) or inner(self, x, tol))
    code, out, _ = run_cli(["eval", "--kind", "q", "--measure", measure,
                            "--grid", "-2:2:9"], capsys)
    assert code == 0
    assert [x.tolist() for x in calls] == [np.linspace(-2.0, 2.0, 9).tolist()]
    if measure == "haar":
        assert [r.split(",")[1] for r in out.splitlines()[1::2]] == ["inf"] * 5


@pytest.mark.parametrize("kind, measure, delta", [
    ("G", "haar", 1.0), ("G", "power:0.5", 1.0), ("G", "power:1.5", 2.0),
    ("H", "power:1.5", 1.0), ("H", "atomic", 0.7), ("G", "weight", 1.0),
    ("H", "weight", 1.0),
])
def test_eval_with_target_matches_scalar_targets(kind, measure, delta,
                                                 tmp_path, capsys):
    """The target column equals the per-point scalar target, inf at 0."""
    if measure == "atomic":
        a = tmp_path / "a.csv"
        a.write_text("lambda,weight\n0.8,1.0\n2.0,0.5\n")
        measure = f"atomic:{a}"
    elif measure == "weight":
        w = tmp_path / "w.csv"
        w.write_text(WEIGHT_ROWS)
        measure = f"weight:{w}"
    code, out, _ = run_cli(["eval", "--kind", kind, "--measure", measure,
                            "--grid", "-3:3:13", "--delta", str(delta),
                            "--with-target"], capsys)
    assert code == 0
    _, rows = parse_csv(out)
    cls = superposed.Minorant if kind == "G" else superposed.Majorant
    obj = cls(cli._parse_measure(measure), delta)
    tol = 1e-9 if measure.startswith("weight:") else 1e-15
    for r in rows:
        x, t = float(r[0]), float(r[2])
        ref = obj.target(x)
        if ref == math.inf:
            assert r[2] == "inf"
            continue
        assert abs(t - ref) <= tol * max(1.0, abs(ref))
    if measure in ("haar", "power:0.5"):
        assert rows[6][0] == "0.0" and rows[6][2] == "inf"


def test_eval_usage_errors(capsys):
    code, _, err = run_cli(
        ["eval", "--kind", "p", "--grid", "0:1:5"], capsys)   # missing lambda
    assert code == 2 and "lambda" in err
    code, _, err = run_cli(
        ["eval", "--kind", "p", "--lambda", "1.0", "--grid", "0:1"], capsys)
    assert code == 2 and "grid" in err
    code, _, err = run_cli(
        ["eval", "--kind", "q", "--measure", "nope", "--grid", "0.1:0.4:2"],
        capsys)
    assert code == 2 and "measure" in err


def test_eval_past_the_node_limit_is_a_usage_error(capsys, tmp_path):
    """|x| = 1e16 is past 2^52, where the series nodes are no longer exact
    floats: exit 2, no output file."""
    out = tmp_path / "g.csv"
    code, _, err = run_cli(["eval", "--kind", "G", "--measure", "haar",
                            "--grid", "0:1e16:2", "--out", str(out)], capsys)
    assert code == 2 and "series nodes" in err
    assert not out.exists()


def test_eval_takes_the_log_majorant_far_out(capsys):
    """U at |x| = 1e9, past the old 2^20-node limit, lies above log|x|."""
    code, out, _ = run_cli(["eval", "--kind", "U", "--grid", "1e9:1e9:1",
                            "--with-target"], capsys)
    assert code == 0
    header, row = out.strip().splitlines()
    cols = dict(zip(header.split(","), map(float, row.split(","))))
    assert cols["value"] >= math.log(1e9) and cols["target"] == math.log(1e9)


@pytest.mark.parametrize("argv", [
    ["bounds", "--kind", "et", "--roots", "{roots}", "--N", "1000000000000"],
    ["coeffs", "--kind", "uN", "--N", "1000000000000"],
    ["eval", "--kind", "p", "--lambda", "1", "--grid", "0:1:1000000000000"],
], ids=["bounds", "coeffs", "eval"])
def test_an_input_too_large_to_allocate_is_a_usage_error(argv, tmp_path, capsys):
    """numpy refuses arrays of terabytes before it allocates anything: the
    MemoryError is exit 2 with one error line and no output file, not a
    traceback and exit 1, the code of a failed check."""
    roots = tmp_path / "roots.csv"
    roots.write_text("re,im\n1.0,0.0\n0.5,0.5\n")
    out = tmp_path / "out.csv"
    code, stdout, err = run_cli([a.format(roots=roots) for a in argv] + ["--out", str(out)],
                                capsys)
    assert code == 2 and stdout == "" and not out.exists()
    assert err.startswith("error: ") and err.count("\n") == 1


def _fmt_cell(v):
    """A CSV cell as the per-row writer formatted it."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, np.floating):
        return repr(float(v))
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _eval_text_by_rows(argv):
    """The eval report written one row at a time: csv.writer over formatted
    cells, or one dict per row through json.dumps.  x, value and target come
    from cli._eval_columns; the defect is taken here, per kind."""
    args = cli._PARSER.parse_args(cli._fuse_grid(argv))
    columns = cli._eval_columns(args)
    xs, vals, target = columns["x"], columns["value"], columns.get("target")
    if args.with_target:
        defect = (-1.0 if args.kind in ("L", "G") else 1.0) * (vals - target)
    if args.format == "csv":
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(("x", "value", "target", "defect") if args.with_target else ("x", "value"))
        for i in range(xs.size):
            cells = [xs[i], vals[i]] + ([target[i], defect[i]] if args.with_target else [])
            w.writerow([_fmt_cell(float(c)) for c in cells])
        return buf.getvalue()
    rows = []
    for i in range(xs.size):
        row = {"x": float(xs[i]), "value": float(vals[i])}
        if args.with_target:
            row["target"] = float(target[i])
            row["defect"] = float(defect[i])
        rows.append(row)
    params = {"kind": args.kind, "grid": args.grid, "delta": args.delta}
    if args.lam is not None:
        params["lambda"] = args.lam
    if args.measure is not None:
        params["measure"] = args.measure
    report = {"command": "extremal " + " ".join(argv), "seed": args.seed,
              "results": {"params": params, "rows": rows}, "checks": []}
    return json.dumps(report, indent=1, sort_keys=True) + "\n"


_EVAL_CASES = [["--kind", "L", "--lambda", "0.7"], ["--kind", "M", "--lambda", "3.0"],
               ["--kind", "Lhat", "--lambda", "0.7"], ["--kind", "Mhat", "--lambda", "3.0"],
               ["--kind", "p", "--lambda", "2.0"], ["--kind", "q", "--measure", "haar"],
               ["--kind", "q", "--measure", "power:1.5", "--tol", "1e-8"],
               ["--kind", "G", "--measure", "haar"],
               ["--kind", "H", "--measure", "power:1.5", "--delta", "0.5"], ["--kind", "U"]]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("case", _EVAL_CASES, ids=lambda c: "-".join(c[1:4:2]))
def test_eval_reports_match_the_per_row_writers(case, fmt, capsys):
    # every kind, with and without the target columns where it reads them,
    # on a grid through 0 and the integers: the +inf of q at the integers
    # and the -inf and +inf targets of U and G at x = 0 included
    extra = [[], ["--with-target"]] if "--with-target" in cli.KINDS["eval"][case[1]] else [[]]
    for more in extra:
        argv = ["eval", *case, "--grid", "-2:2:9", "--format", fmt, *more]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        assert out == _eval_text_by_rows(argv)
        if more and case[1] in ("U", "G"):
            assert ("inf" if fmt == "csv" else "Infinity") in out


# -- coeffs ---------------------------------------------------------------------

def test_coeffs_log_sin_degree_eight(capsys):
    code, out, _ = run_cli(
        ["coeffs", "--kind", "uN", "--N", "8", "--format", "json"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["degree"] == 8
    assert len(obj["coeffs"]) == 17
    mid = obj["coeffs"][8]
    assert mid["n"] == 0
    assert mid["re"] == math.log(2.0) / 9.0


def test_coeffs_csv_round_trips_bit_exact(tmp_path, capsys):
    out_file = tmp_path / "l.csv"
    code, _, _ = run_cli(
        ["coeffs", "--kind", "l", "--lambda", "1.7", "--N", "6",
         "--out", str(out_file)], capsys)
    assert code == 0
    back = oracles.from_csv_text(out_file.read_text())
    direct = periodic.trig_minorant_l(1.7, 6)
    assert back.coeffs == direct.coeffs


def test_coeffs_json_round_trips_bit_exact(capsys):
    code, out, _ = run_cli(
        ["coeffs", "--kind", "h", "--measure", "power:1.5", "--N", "4",
         "--format", "json"], capsys)
    assert code == 0
    back = oracles.from_json_text(out)
    direct = periodic.trig_majorant_h(measures.PowerLaw(1.5), 4, tol=1e-10)
    assert back.coeffs == direct.coeffs


@pytest.mark.parametrize("kind", ["g", "h"])
def test_coeffs_of_a_power_law_near_sigma_two(kind, capsys):
    # q and q' are closed, so no moment integral has to reach lam -> 0,
    # where the one of sigma = 1.95 grows like lam^-0.95
    code, out, err = run_cli(["coeffs", "--kind", kind, "--measure", "power:1.95",
                              "--N", "8", "--format", "json"], capsys)
    assert code == 0 and not err
    poly = oracles.from_json_text(out)
    assert poly == periodic._superposed_poly(
        measures.PowerLaw(1.95), 8, "minorant" if kind == "g" else "majorant")
    assert out == poly.to_json_text()


def test_coeffs_majorant_rejects_haar(tmp_path, capsys):
    out_file = tmp_path / "h.csv"
    code, _, err = run_cli(
        ["coeffs", "--kind", "h", "--measure", "haar", "--N", "3",
         "--out", str(out_file)], capsys)
    assert code == 2
    assert "HaarLog" in err and "cond47" in err
    assert not out_file.exists()         # no partial output on usage errors


def test_coeffs_usage_errors(capsys):
    code, _, err = run_cli(["coeffs", "--kind", "l", "--lambda", "1.0"], capsys)
    assert code == 2 and "--N" in err
    code, _, err = run_cli(["coeffs", "--kind", "g", "--N", "3"], capsys)
    assert code == 2 and "measure" in err


# -- bounds ---------------------------------------------------------------------

def test_bounds_hls_sigma_one(capsys):
    code, out, _ = run_cli(
        ["bounds", "--kind", "hls", "--sigma", "1.0"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["results"]["lower"] == math.log(4.0)
    assert rep["results"]["upper"] is None
    assert rep["checks"] == []


def test_bounds_hls_continuity_flag(capsys):
    code, out, _ = run_cli(
        ["bounds", "--kind", "hls", "--sigma", "2.0", "--delta", "2.0"],
        capsys)
    assert code == 0
    rep = json.loads(out)["results"]
    assert rep["continuity_extension"] is True
    assert abs(rep["lower"] - math.pi ** 2 / 24.0) <= 1e-15


@pytest.mark.parametrize("argv", [["--sigma", "1.5", "--delta", "1e300"],
                                  ["--sigma", "1.99", "--delta", "1e-300"]],
                         ids=["constants-underflow", "constants-overflow"])
def test_bounds_hls_out_of_float_range_is_a_domain_error(argv, capsys):
    """delta^sigma past the floats (an OverflowError, and 0.0 as a divisor)
    is a usage error with one error line, not a traceback."""
    code, out, err = run_cli(["bounds", "--kind", "hls"] + argv, capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "float range" in err


def test_bounds_form_verdict(tmp_path, capsys):
    pts = tmp_path / "pts.csv"
    pts.write_text("xi,re,im\n0.0,1.0,0.0\n1.0,-1.0,0.0\n")
    code, out, _ = run_cli(
        ["bounds", "--kind", "form", "--measure", "haar",
         "--points", str(pts)], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["checks"][0]["name"] == "form-lower-bound"
    assert rep["checks"][0]["pass"] is True
    assert abs(rep["results"]["form_value"] - (-1.0)) <= 1e-14
    assert rep["results"]["slack"] >= 0.0


def test_bounds_form_coefficient_override(tmp_path, capsys):
    pts = tmp_path / "pts.csv"
    pts.write_text("xi,re,im\n0.0,1.0,0.0\n1.0,-1.0,0.0\n")
    coeffs = tmp_path / "a.csv"
    coeffs.write_text("re,im\n1.0,0.0\n1.0,0.0\n")
    code, out, _ = run_cli(
        ["bounds", "--kind", "form", "--measure", "haar",
         "--points", str(pts), "--coeffs", str(coeffs)], capsys)
    assert code == 0
    rep = json.loads(out)
    assert abs(rep["results"]["form_value"] - 1.0) <= 1e-14  # constant signs
    bad = tmp_path / "bad.csv"
    bad.write_text("re,im\n1.0,0.0\n")
    code, _, err = run_cli(
        ["bounds", "--kind", "form", "--measure", "haar",
         "--points", str(pts), "--coeffs", str(bad)], capsys)
    assert code == 2 and "coefficients" in err


def test_bounds_et_equality_witness(tmp_path, capsys):
    roots = tmp_path / "roots.csv"
    roots.write_text("re,im\n1.0,0.0\n")
    code, out, _ = run_cli(
        ["bounds", "--kind", "et", "--roots", str(roots), "--N", "0"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["checks"][0]["name"] == "et-soundness"
    assert rep["checks"][0]["pass"] is True
    assert abs(rep["results"]["bound"] - math.log(2.0)) <= 1e-15
    assert abs(rep["results"]["slack"]) <= 1e-9


def test_bounds_csv_format_is_key_value(tmp_path, capsys):
    code, out, _ = run_cli(
        ["bounds", "--kind", "hls", "--sigma", "1.5", "--format", "csv"],
        capsys)
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["key", "value"]
    asdict = {r[0]: r[1] for r in rows}
    assert "lower" in asdict and "upper" in asdict


def test_bounds_form_weight_csv_prints_plain_floats(tmp_path, capsys):
    w = tmp_path / "w.csv"
    w.write_text("lambda,weight\n0.5,1.0\n1.0,2.0\n3.0,0.5\n6.0,1.0\n")
    pts = tmp_path / "pts.csv"
    pts.write_text("xi,re,im\n0.0,1.0,0.0\n1.5,-1.0,0.5\n3.0,0.5,0.0\n")
    code, out, _ = run_cli(
        ["bounds", "--kind", "form", "--measure", f"weight:{w}",
         "--points", str(pts), "--format", "csv"], capsys)
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["key", "value"]
    values = {k: v for k, v in rows if k not in ("kind", "measure")}
    assert "bound" in values and "slack" in values
    for key, cell in values.items():
        assert math.isfinite(float(cell)), key


def test_bounds_form_at_a_subnormal_distance_is_one_error_line(tmp_path, capsys):
    # r_mu is inf there, with no overflow warning above the error line
    pts = tmp_path / "pts.csv"
    pts.write_text("xi,re,im\n0,1,0\n1e-310,1,0\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(["bounds", "--kind", "form", "--measure", "haar",
                                  "--delta", "1e-310", "--points", str(pts)], capsys)
    assert code == 2 and out == ""
    assert err.splitlines() == [
        "error: points 0 and 1 of set 0 lie 1e-310 apart, where r_mu is not finite"]


def test_bounds_usage_error_leaves_no_file(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    code, _, err = run_cli(
        ["bounds", "--kind", "hls", "--sigma", "3.0", "--out", str(out_file)],
        capsys)
    assert code == 2
    assert not out_file.exists()
    code, _, err = run_cli(
        ["bounds", "--kind", "et", "--roots", str(tmp_path / "missing.csv"),
         "--N", "2"], capsys)
    assert code == 2
    bad = tmp_path / "bad.csv"
    bad.write_text("re,im\n1.0,0.0\n0.5,oops\n")
    code, _, err = run_cli(
        ["bounds", "--kind", "et", "--roots", str(bad), "--N", "2",
         "--out", str(out_file)], capsys)
    assert code == 2 and f"{bad}:3:" in err
    assert not out_file.exists()


# -- verify -------------------------------------------------------------------

def test_verify_reruns_are_byte_identical(capsys):
    argv = ["verify", "--suite", "et", "--seed", "7"]
    code1, out1, _ = run_cli(argv, capsys)
    code2, out2, _ = run_cli(argv, capsys)
    assert code1 == code2 == 0
    assert out1 == out2
    rep = json.loads(out1)
    assert set(rep) == {"command", "seed", "results", "checks"}
    assert rep["command"] == "extremal verify --suite et --seed 7"
    assert all(c["pass"] for c in rep["checks"])


def test_verify_builds_one_sharpness_table(monkeypatch):
    """One run of the all suite builds one sharpness table (15 witness
    ratios), for criterion 8 and the report alike; criterion 8 alone
    builds its own."""
    calls = []
    witness = forms.sharpness_witness

    def counted(*args):
        calls.append(args)
        return witness(*args)

    monkeypatch.setattr(forms, "sharpness_witness", counted)
    report = verify.run_suite("all")
    assert len(calls) == 15 and len(report["results"]["sharpness_table"]) == 15
    calls.clear()
    assert len(verify.run_criterion("8-form-bounds")) == len(
        [c for c in report["checks"] if c["name"].startswith(("form-", "sharpness-"))])
    assert len(calls) == 15


def test_verify_csv_lists_checks(capsys):
    code, out, _ = run_cli(
        ["verify", "--suite", "et", "--format", "csv"], capsys)
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["name", "pass", "observed", "expected", "tol"]
    assert all(r[1] == "true" for r in rows)


def test_verify_rejects_unknown_suite(capsys):
    with pytest.raises(SystemExit):
        cli.main(["verify", "--suite", "everything"])
    capsys.readouterr()


# -- exit-code plumbing ----------------------------------------------------------

def test_nonconvergence_maps_to_exit_3(monkeypatch, capsys):
    def boom(args, argv):
        raise ConvergenceError("tolerance unreachable")
    monkeypatch.setattr(cli, "cmd_eval", boom)
    code, _, err = run_cli(
        ["eval", "--kind", "p", "--lambda", "1.0", "--grid", "0:1:3"], capsys)
    assert code == 3 and "unreachable" in err

    def blow(args, argv):
        raise DivergenceError("integrand blows up")
    monkeypatch.setattr(cli, "cmd_bounds", blow)
    code, _, err = run_cli(["bounds", "--kind", "hls", "--sigma", "0.5"],
                           capsys)
    assert code == 3 and "blows up" in err


def test_console_script_entry_point():
    # the child imports the package the tests import, installed or not
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "extremal.cli", "bounds", "--kind", "hls",
         "--sigma", "1.0"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["results"]["lower"] == math.log(4.0)
    exe = os.path.join(os.path.dirname(sys.executable), "extremal")
    if os.path.exists(exe):
        proc = subprocess.run([exe, "--help"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert "eval" in proc.stdout


# -- what a command loads -------------------------------------------------------

# the submodules loading the CLI runs: L, M, Lhat, Mhat and p need no other
_CLI_LOADS = ["cli", "errors", "kernels", "specfun"]

# run in a fresh interpreter: the extremal submodules run after importing the
# package, after importing the CLI, and after each command of argv[1]; the
# CLI registers the others in sys.modules to run on first use, so a module
# counts once it is a plain module
_LOADED = """
import contextlib, io, json, sys, types
def loaded():
    return sorted(m[len("extremal."):] for m, v in sys.modules.items()
                  if m.startswith("extremal.") and type(v) is types.ModuleType)
import extremal
steps = [loaded()]
from extremal import cli
steps.append(loaded())
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
    steps.append(loaded())
print(json.dumps(steps))
"""


def _in_fresh_interpreter(code, *args):
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_the_package_loads_nothing_and_the_kinds_of_one_rate_add_nothing_to_the_cli():
    argvs = [["eval", "--kind", kind, "--lambda", "2", "--grid", "-1:1:3",
              "--format", fmt] + (["--with-target"] if kind in ("L", "M") else [])
             for kind in ("p", "L", "M", "Lhat", "Mhat") for fmt in ("csv", "json")]
    steps = json.loads(_in_fresh_interpreter(_LOADED, json.dumps(argvs)))
    assert steps == [[]] + [_CLI_LOADS] * (1 + len(argvs))


@pytest.mark.parametrize("argv, adds", [
    (["eval", "--kind", "q", "--measure", "haar", "--grid", "0.1:0.4:3"],
     ["measures", "quadrature"]),
    (["eval", "--kind", "G", "--measure", "haar", "--grid", "-1:1:3"],
     ["measures", "quadrature", "superposed"]),
    (["eval", "--kind", "H", "--measure", "power:1.5", "--grid", "-1:1:3"],
     ["measures", "quadrature", "superposed"]),
    (["eval", "--kind", "U", "--grid", "-1:1:3"], ["measures", "quadrature", "superposed"]),
    (["coeffs", "--kind", "l", "--lambda", "1", "--N", "3"],
     ["measures", "periodic", "quadrature"]),
    (["bounds", "--kind", "hls", "--sigma", "0.5"], ["forms", "measures", "quadrature"]),
    # verify runs every module it imports before it forks its workers
    (["verify", "--suite", "kernels"],
     ["forms", "measures", "periodic", "polybound", "quadrature", "superposed", "verify"]),
], ids=["eval-q", "eval-G", "eval-H", "eval-U", "coeffs", "bounds-hls", "verify"])
def test_a_command_adds_the_modules_it_uses(argv, adds):
    steps = json.loads(_in_fresh_interpreter(_LOADED, json.dumps([argv])))
    assert steps[1:] == [_CLI_LOADS, sorted(_CLI_LOADS + adds)]


def test_the_package_resolves_each_public_name_on_first_access():
    # in a fresh interpreter, so each name goes through the package's lookup
    out = _in_fresh_interpreter(
        "import importlib, json, extremal\n"
        "listed = set(dir(extremal))\n"
        "star = {}\n"
        "exec('from extremal import *', star)\n"
        "print(json.dumps([[name, getattr(extremal, name).__module__, name in listed,\n"
        "                   star.get(name) is getattr(extremal, name)]\n"
        "                  for name in extremal.__all__]))")
    rows = json.loads(out)
    import extremal
    assert [name for name, *_ in rows] == extremal.__all__
    for name, module, listed, starred in rows:
        # the object its module defines under that name
        assert getattr(sys.modules[module], name) is getattr(extremal, name)
        assert listed and starred, name
    with pytest.raises(AttributeError, match="no_such_name"):
        extremal.no_such_name


def test_every_layer_is_in_sys_modules_once_the_cli_loads():
    # a tool that wraps the library from outside, as perfbench's layer tracer
    # does, reads each layer from sys.modules after importing the CLI, and
    # reading a registered module's namespace runs it
    bench = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")
    out = _in_fresh_interpreter(
        "import json, sys\n"
        "from extremal import cli\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from tracer import LAYERS, Tracer\n"
        "missing = [n for n in LAYERS if 'extremal.' + n not in sys.modules]\n"
        "Tracer().install()\n"
        "from extremal import quadrature\n"
        "print(json.dumps([missing, hasattr(quadrature.integrate_finite, '__wrapped__')]))",
        bench)
    assert json.loads(out) == [[], True]


def test_the_verify_suites_are_the_verify_kinds():
    assert tuple(cli.KINDS["verify"]) == tuple(sorted(verify.SUITES))


@pytest.mark.parametrize("argv", [
    ["eval", "--kind", "Lhat", "--lambda", "1", "--grid", "nan:1:3"],
    ["eval", "--kind", "p", "--lambda", "1", "--grid", "0.2:inf:2"],
], ids=["nan-start", "inf-end"])
def test_eval_rejects_a_nonfinite_grid(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and "grid" in err and out == ""


def test_coeffs_rejects_a_nan_tolerance(capsys):
    code, out, err = run_cli(["coeffs", "--kind", "g", "--measure", "power:0.5",
                              "--N", "4", "--tol", "nan"], capsys)
    assert code == 2 and "tolerance" in err and out == ""


@pytest.mark.parametrize("argv", [
    ["coeffs", "--kind", "g", "--measure", "haar", "--N", "0", "--tol", "nan"],
    ["coeffs", "--kind", "g", "--measure", "atomic:{atoms}", "--N", "4", "--tol", "nan"],
    ["coeffs", "--kind", "h", "--measure", "atomic:{atoms}", "--N", "4", "--tol", "nan"],
    ["coeffs", "--kind", "g", "--measure", "atomic:{atoms}", "--N", "4", "--tol", "-1"],
    ["coeffs", "--kind", "h", "--measure", "atomic:{atoms}", "--N", "4", "--tol", "-1"],
    ["eval", "--kind", "q", "--measure", "power:0.5", "--tol", "nan",
     "--grid", "0.25:0.75:3"],
    ["eval", "--kind", "q", "--measure", "haar", "--tol", "-5", "--grid", "0.25:0.75:3"],
    ["bounds", "--kind", "form", "--measure", "haar", "--points", "{points}",
     "--tol", "nan"],
], ids=["g-haar-nan", "g-atomic-nan", "h-atomic-nan", "g-atomic-negative",
        "h-atomic-negative", "q-power-nan", "q-haar-negative", "form-haar-nan"])
def test_every_kind_that_reads_a_tolerance_refuses_a_bad_one(argv, tmp_path, capsys):
    """Closed forms and atom sums never reach the quadrature, so the CLI
    checks --tol itself: not finite and positive is exit 2, for every kind."""
    atoms = tmp_path / "atoms.csv"
    atoms.write_text("lambda,weight\n0.5,1.0\n2.0,0.5\n")
    points = tmp_path / "pts.csv"
    points.write_text("xi,re,im\n0.0,1.0,0.0\n1.0,-1.0,0.0\n")
    argv = [a.format(atoms=atoms, points=points) for a in argv]
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and "tolerance" in err and out == ""


@pytest.mark.parametrize("argv,message", [
    (["eval", "--kind", "L", "--lambda", "1", "--delta", "2", "--grid", "0:1:3"],
     "is not used by"),
    (["eval", "--kind", "L", "--lambda", "1", "--tol", "5", "--grid", "0:1:3"],
     "is not used by"),
    (["coeffs", "--kind", "l", "--lambda", "1", "--N", "1", "--delta", "5"],
     "unrecognized arguments: --delta"),
    (["bounds", "--kind", "hls", "--sigma", "0.5", "--tol", "1e-9"], "is not used by"),
    (["verify", "--suite", "et", "--delta", "2"], "unrecognized arguments: --delta"),
    (["coeffs", "--kind", "l", "--lambda", "1", "--N", "2", "--seed", "5",
      "--format", "json"], "unrecognized arguments: --seed 5"),
    (["coeffs", "--kind", "uN", "--N", "0", "--tol", "inf"], "is not used by"),
], ids=["eval-delta", "eval-tol", "coeffs-delta", "bounds-tol", "verify-delta",
        "coeffs-seed", "uN-inf"])
def test_a_flag_the_kind_ignores_is_a_usage_error(argv, message, tmp_path, capsys):
    """--delta != 1 and --tol are refused where the kind would ignore them
    (u_N is closed and integrates nothing), and coeffs, which draws nothing
    at random, has no --seed."""
    out_path = tmp_path / "out.txt"
    try:
        code = cli.main(argv + ["--out", str(out_path)])
    except SystemExit as exc:          # argparse refuses an unknown flag
        code = exc.code
    out, err = capsys.readouterr()
    assert code == 2 and out == "" and not out_path.exists()
    assert message in err


# -- the flag table ----------------------------------------------------------

def _read_by_command(command):
    return set().union(*cli.KINDS[command].values())


# every (command, kind, flag) where the command declares the flag and the
# kind does not read it, and every (command, kind, flag) the kind requires
_IGNORED = [(c, k, f) for c, kinds in cli.KINDS.items() for k, reads in kinds.items()
            for f in cli.FLAGS if f in _read_by_command(c) and f not in reads]
_MISSING = [(c, k, f) for c, kinds in cli.KINDS.items() for k, reads in kinds.items()
            for f in reads if f in cli.REQUIRED]
_RUNNABLE = [(c, k) for c, kinds in cli.KINDS.items() for k in kinds if c != "verify"]


@pytest.fixture
def flag_values(tmp_path):
    """An argument list for each optional flag that every kind reading it accepts."""
    pts = tmp_path / "pts.csv"
    pts.write_text("xi,re,im\n0.0,1.0,0.0\n1.0,-1.0,0.0\n")
    coeffs = tmp_path / "a.csv"
    coeffs.write_text("re,im\n1.0,0.0\n1.0,0.0\n")
    roots = tmp_path / "roots.csv"
    roots.write_text("re,im\n1.0,0.0\n")
    return {"--lambda": ["1.0"], "--measure": ["power:1.5"], "--N": ["2"],
            "--sigma": ["1.5"], "--points": [str(pts)], "--coeffs": [str(coeffs)],
            "--roots": [str(roots)], "--with-target": [], "--delta": ["2.0"],
            "--tol": ["1e-9"]}


def _kind_argv(command, kind, values, leave_out=None):
    """The kind with every flag it requires, but leave_out."""
    argv = [command, "--kind", kind]
    if command == "eval":
        argv += ["--grid", "0.25:0.75:3"]
    for flag in cli.KINDS[command][kind]:
        if flag in cli.REQUIRED and flag != leave_out:
            argv += [flag, *values[flag]]
    return argv


@pytest.mark.parametrize("command, kind", _RUNNABLE,
                         ids=[f"{c}-{k}" for c, k in _RUNNABLE])
def test_each_kind_runs_on_its_required_flags(command, kind, flag_values, capsys):
    code, out, err = run_cli(_kind_argv(command, kind, flag_values), capsys)
    assert code == 0 and out and not err


@pytest.mark.parametrize("command, kind, flag", _IGNORED,
                         ids=[f"{c}-{k}-{f[2:]}" for c, k, f in _IGNORED])
def test_every_flag_the_kind_does_not_read_is_a_usage_error(
        command, kind, flag, flag_values, tmp_path, capsys):
    out_path = tmp_path / "out.txt"
    argv = _kind_argv(command, kind, flag_values) + [flag, *flag_values[flag]]
    code, out, err = run_cli(argv + ["--out", str(out_path)], capsys)
    assert code == 2 and out == "" and not out_path.exists()
    assert f"{flag} is not used by {command} --kind {kind}" in err


@pytest.mark.parametrize("command, kind, flag", _MISSING,
                         ids=[f"{c}-{k}-{f[2:]}" for c, k, f in _MISSING])
def test_every_required_flag_left_out_is_a_usage_error(
        command, kind, flag, flag_values, tmp_path, capsys):
    out_path = tmp_path / "out.txt"
    argv = _kind_argv(command, kind, flag_values, leave_out=flag)
    code, out, err = run_cli(argv + ["--out", str(out_path)], capsys)
    assert code == 2 and out == "" and not out_path.exists()
    assert f"{command} --kind {kind} requires {flag}" in err


def test_each_command_declares_its_fixed_flags_and_its_kinds_flags():
    sub = next(a for a in cli._PARSER._actions
               if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == list(cli.KINDS)
    for command, parser in sub.choices.items():
        actions = {s: a for a in parser._actions for s in a.option_strings}
        selector = "--suite" if command == "verify" else "--kind"
        fixed = {selector, "--out", "--format", "-h", "--help"}
        fixed |= {"--grid"} if command == "eval" else set()
        fixed |= {"--seed"} if command != "coeffs" else set()
        assert set(actions) == fixed | _read_by_command(command), command
        assert tuple(actions[selector].choices) == tuple(cli.KINDS[command])
        for flag in _read_by_command(command):
            assert actions[flag].default == cli.FLAGS[flag]["default"]


def test_readme_flag_table_matches_the_kinds():
    """The README's kind -> flags table is cli.KINDS, row for row."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(path) as fh:
        text = fh.read()
    table = text.split("| command |", 1)[1].split("\n\n", 1)[0]
    documented = {}
    for line in table.splitlines()[2:]:
        command, kinds, flags = (re.findall(r"`([^`]+)`", cell)
                                 for cell in line.strip("|").split("|"))
        for kind in kinds:
            documented.setdefault(command[0], {})[kind] = tuple(flags)
    assert documented == cli.KINDS
