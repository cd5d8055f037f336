"""Extremal band-limited majorants and minorants for decaying kernels.

One-sided approximations by entire functions of exponential type (and their
periodizations by trigonometric polynomials) to e^{-lambda|x|}, log|x| and
superpositions f_mu, together with the sharp Hermitian-form constants and
polynomial sup-norm bounds they imply.
"""

from .errors import (
    AdmissibilityError,
    ConvergenceError,
    DivergenceError,
    DomainError,
)
from .specfun import defect_majorant, defect_minorant, gamma, hurwitz_zeta, zeta
from .quadrature import (
    QuadResult,
    integrate_finite,
    integrate_semiinfinite,
)
from .kernels import (
    eval_L,
    eval_Lhat,
    eval_M,
    eval_Mhat,
    majorant_values,
    minorant_values,
)
from .measures import (
    Atomic,
    HaarLog,
    PowerLaw,
    Weight,
    atomic_from_csv,
    integrate,
    weight_from_csv,
)
from .superposed import (
    DefectProfile,
    Majorant,
    Minorant,
    eval_U,
)
from .periodic import (
    TrigPoly,
    eval_j,
    eval_p,
    log_sin_majorant,
    trig_majorant_h,
    trig_majorant_m,
    trig_minorant_g,
    trig_minorant_l,
)
from .forms import (
    FormBound,
    HlsConstants,
    PointSet,
    evaluate_form,
    form_bound,
    form_report,
    hls_constants,
    hls_gamma_route,
    points_from_csv,
    r_mu,
    random_point_set,
    sharpness_witness,
)
from .polybound import (
    SupBound,
    bound_report,
    disk_sup_bound,
    jensen_gap,
    reflect_roots,
    roots_from_csv,
    sup_log_oracle,
)
from .verify import run_criterion, run_suite

__version__ = "0.1.0"

__all__ = [
    "AdmissibilityError", "ConvergenceError", "DivergenceError", "DomainError",
    "defect_minorant", "defect_majorant", "gamma", "hurwitz_zeta", "zeta",
    "QuadResult", "integrate_finite", "integrate_semiinfinite",
    "minorant_values", "majorant_values",
    "eval_L", "eval_M", "eval_Lhat", "eval_Mhat",
    "HaarLog", "PowerLaw", "Atomic", "Weight",
    "atomic_from_csv", "weight_from_csv", "integrate",
    "Minorant", "Majorant", "DefectProfile", "eval_U",
    "TrigPoly", "eval_p", "eval_j",
    "trig_minorant_l", "trig_majorant_m", "trig_minorant_g",
    "trig_majorant_h", "log_sin_majorant",
    "PointSet", "FormBound", "HlsConstants",
    "r_mu", "form_bound",
    "evaluate_form", "form_report", "hls_constants", "hls_gamma_route",
    "sharpness_witness", "random_point_set", "points_from_csv",
    "SupBound", "reflect_roots", "disk_sup_bound", "sup_log_oracle",
    "jensen_gap", "bound_report", "roots_from_csv",
    "run_criterion", "run_suite",
]
