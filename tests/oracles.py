"""Oracles the tests compare the library against and the library does not need.

transform_moment is the paper's route to the coefficients of the periodic
polynomials, the dilated measure's integral of Lhat or Mhat, which
periodic replaces by the q ladder at the nodes.  to_json_obj is the
object whose ``json.dumps(..., indent=1)`` text TrigPoly.to_json_text
writes, and from_csv_text and from_json_text read the coefficient text of
the ``coeffs`` command back into a TrigPoly.
"""

import csv
import io
import json

from extremal import kernels, measures
from extremal.periodic import TrigPoly


def transform_moment(measure, kind, ts, tol=1e-9):
    """int Lhat(lam, ts) dmu (kind "minorant") or int Mhat(lam, ts) dmu,
    behind the kind's gate."""
    measure.require(kind)
    return measure._integral(measures._by_kind(kind, kernels.eval_Lhat, kernels.eval_Mhat),
                             ts, tol)[0]


def to_json_obj(poly):
    """{"degree": N, "coeffs": [{"n": n, "re": c(n).real, "im": c(n).imag}, ...]}."""
    return {
        "degree": poly.degree,
        "coeffs": [
            {"n": n, "re": poly.coeff(n).real, "im": poly.coeff(n).imag}
            for n in range(-poly.degree, poly.degree + 1)
        ],
    }


def _poly(ns, coeffs):
    """The TrigPoly of the coefficients coeffs at n = ns, which must be -N..N."""
    N = len(ns) // 2
    assert ns == list(range(-N, N + 1))
    return TrigPoly(N, tuple(coeffs))


def from_csv_text(text):
    """The TrigPoly of the CSV text ``n,re,im`` with rows n = -N..N."""
    header, *rows = csv.reader(io.StringIO(text))
    assert header == ["n", "re", "im"]
    return _poly([int(n) for n, _, _ in rows],
                 [complex(float(re), float(im)) for _, re, im in rows])


def from_json_text(text):
    """The TrigPoly of the JSON text of to_json_obj's object."""
    obj = json.loads(text)
    poly = _poly([e["n"] for e in obj["coeffs"]],
                 [complex(e["re"], e["im"]) for e in obj["coeffs"]])
    assert poly.degree == obj["degree"]
    return poly
