"""Extremal band-limited majorants and minorants for decaying kernels.

One-sided approximations by entire functions of exponential type (and their
periodizations by trigonometric polynomials) to e^{-lambda|x|}, log|x| and
superpositions f_mu, together with the sharp Hermitian-form constants and
polynomial sup-norm bounds they imply.

Importing the package loads no submodule: each public name is looked up in
its module on first access (PEP 562), so a command loads only what it uses.
"""

import importlib
import sys

__version__ = "0.1.0"

# each public name -> the submodule that defines it; __all__ is its keys
_HOME = {
    **dict.fromkeys(("AdmissibilityError", "ConvergenceError", "DivergenceError",
                     "DomainError"), "errors"),
    **dict.fromkeys(("defect_minorant", "defect_majorant", "gamma", "hurwitz_zeta",
                     "zeta"), "specfun"),
    **dict.fromkeys(("QuadResult", "integrate_finite", "integrate_semiinfinite"),
                    "quadrature"),
    **dict.fromkeys(("minorant_values", "majorant_values", "eval_L", "eval_M",
                     "eval_Lhat", "eval_Mhat", "eval_p", "eval_j"), "kernels"),
    **dict.fromkeys(("HaarLog", "PowerLaw", "Atomic", "Weight",
                     "atomic_from_csv", "weight_from_csv", "integrate"), "measures"),
    **dict.fromkeys(("Minorant", "Majorant", "DefectProfile", "eval_U"), "superposed"),
    **dict.fromkeys(("TrigPoly", "trig_minorant_l", "trig_majorant_m", "trig_minorant_g",
                     "trig_majorant_h", "log_sin_majorant"), "periodic"),
    **dict.fromkeys(("PointSet", "FormBound", "HlsConstants",
                     "r_mu", "form_bound",
                     "evaluate_form", "form_report", "hls_constants", "hls_gamma_route",
                     "sharpness_witness", "random_point_set", "points_from_csv"), "forms"),
    **dict.fromkeys(("SupBound", "reflect_roots", "disk_sup_bound", "sup_log_oracle",
                     "jensen_gap", "bound_report", "roots_from_csv"), "polybound"),
    **dict.fromkeys(("run_criterion", "run_suite"), "verify"),
}

__all__ = list(_HOME)


def __getattr__(name):
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    elif f"{__name__}.{name}" in sys.modules:
        # a submodule the CLI registered to run on first use: `from . import
        # name` in another module runs it here, as a first import would
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value         # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(_HOME))
