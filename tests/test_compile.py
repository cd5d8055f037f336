"""Every module compiles cleanly with warnings turned into errors.

An import can be served from a cached bytecode file, which hides
compile-time warnings such as invalid escape sequences; compiling the
source text catches them on every run.  No linter is installed, so a
stdlib ``ast`` scan also checks that every imported name is used, that no
module branches on a measure's ``family`` name, that only ``measures``
reads what a measure is made of (``atoms``, ``breakpoints``, ``weight``),
that only ``Measure`` defines f, f_prime, f_derivs and q, that ``periodic``
builds its polynomials without the transform moments or a point mass, that only
``measures`` raises AdmissibilityError or reads CSV, that one function
holds the Gauss-Kronrod rule, that one function keeps a panel heap and
one slices its passes, that no integrand is probed for a TypeError, and
that only ``kernels`` decides where the lattice series stops (its horizon
and its Euler-Maclaurin tail) and how it splits near nodes from the far
field, that a cell row carries its near nodes (one pair rule, ``_pairs``,
and no node read in ``_far``) and ``kernels._CellCache`` is the one cache
and the one lock of the series, that ``specfun.hurwitz_zeta`` is the one zeta series, that
the one small-rate defect series of ``specfun`` is the minorant's and the
majorant has no series, switch or direct formula of its own, that the
small-rate series of the periodized kernel p is ``specfun``'s minorant
defect alone and ``periodic`` reads q_mu only through the measure, that
``kernels._defects`` is the one loop of kernel defects over rates, that
the flag table of ``cli`` is the only place naming its optional flags,
that no call overrides the quadrature budget, that criterion 3 inverts the
closed ``eval_Lhat`` and ``eval_Mhat`` and takes one tapered forward
transform (``transform-support``'s), that ``superposed`` takes f and its
derivatives from the measure's ``_derivs`` ladder and never calls
``f_prime`` or ``f_derivs``, that ``polybound`` writes its log+ sum
once, that ``cli.cmd_eval`` writes its CSV and JSON rows from one column
table without a per-index loop, that the means of g_mu and h_mu are the
sharp constants A and B of ``forms`` (so ``periodic`` neither dilates a
measure nor reads its defect moment or admissibility gate), that
criterion 8 reads its witnesses off the sharpness table, and that the
count, kind and evaluation-point messages are written only in ``errors``.
"""

import ast
import pathlib
import re
import warnings

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "extremal"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_compiles_without_warnings(path):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        compile(path.read_text(), str(path), "exec")


def _unused_imports(tree):
    """Names a module imports but never reads (``__all__`` counts as a read)."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert _unused_imports(ast.parse(path.read_text())) == []


def _attribute_read(node):
    """The attribute node reads as ``x.name`` or ``getattr(x, "name")``, or None."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "getattr" and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)):
        return node.args[1].value
    return None


def _family_comparisons(tree):
    """Lines that compare a measure's family: ``.family``, a ``family`` name
    or ``getattr(..., "family")`` as an operand of a comparison."""

    def is_family(node):
        return (_attribute_read(node) == "family"
                or (isinstance(node, ast.Name) and node.id == "family"))

    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Compare)
                  and any(is_family(op) for op in [node.left, *node.comparators]))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_branch_on_measure_family(path):
    # closed forms are methods of the measure classes, never picked by name
    assert _family_comparisons(ast.parse(path.read_text())) == []


def _measure_part_reads(tree):
    """Lines that read a measure's ``atoms``, ``breakpoints`` or ``weight``."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if _attribute_read(node) in ("atoms", "breakpoints", "weight"))


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py")
                                        if p.name != "measures.py"),
                         ids=lambda p: p.name)
def test_only_measures_reads_measure_parts(path):
    # measures.integrate is the one integral against a measure
    assert _measure_part_reads(ast.parse(path.read_text())) == []


def _f_ladder_definitions(tree):
    """(class, method) pairs that define f, f_prime, f_derivs, _f or _f_prime."""
    return sorted((cls.name, fn.name) for cls in ast.walk(tree)
                  if isinstance(cls, ast.ClassDef) for fn in cls.body
                  if isinstance(fn, ast.FunctionDef)
                  and fn.name in ("f", "f_prime", "f_derivs", "_f", "_f_prime"))


def test_measure_families_define_f_only_through_derivs():
    # each family states the derivatives of f_mu once, in _derivs
    tree = ast.parse((SRC / "measures.py").read_text())
    assert _f_ladder_definitions(tree) == [
        ("Measure", "f"), ("Measure", "f_derivs"), ("Measure", "f_prime")]


def test_periodic_polynomials_come_from_the_q_ladder():
    # q is order 0 of _q, and periodic builds every polynomial from the
    # ladder at the nodes: neither the transform moments nor a point mass
    tree = ast.parse((SRC / "measures.py").read_text())
    assert sorted(cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                  for fn in cls.body
                  if isinstance(fn, ast.FunctionDef) and fn.name == "q") == ["Measure"]
    tree = ast.parse((SRC / "periodic.py").read_text())
    assert not [node.lineno for node in ast.walk(tree)
                if _attribute_read(node) in ("transform_moment", "Atomic")]


def _raised_names(tree):
    """Names of the exceptions a module raises, as ``raise E(...)`` or
    ``raise mod.E(...)``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            names.add(exc.id if isinstance(exc, ast.Name) else _attribute_read(exc))
    return names


def _modules_where(pred):
    return sorted(p.name for p in SRC.glob("*.py") if pred(ast.parse(p.read_text())))


def test_only_measures_raises_admissibility_error():
    # Measure.require is the one majorant-admissibility gate
    assert _modules_where(
        lambda tree: "AdmissibilityError" in _raised_names(tree)) == ["measures.py"]


def test_only_one_module_reads_csv():
    # measures._csv_rows owns the header, width, number and path:line checks
    assert _modules_where(
        lambda tree: any(isinstance(node, ast.Call)
                         and _attribute_read(node.func) == "reader"
                         for node in ast.walk(tree))) == ["measures.py"]


def _functions_reading(tree, name):
    """Names of the functions whose bodies read the module-level ``name``."""
    return sorted(fn.name for fn in ast.walk(tree)
                  if isinstance(fn, ast.FunctionDef)
                  and any(isinstance(node, ast.Name) and node.id == name
                          and isinstance(node.ctx, ast.Load)
                          for node in ast.walk(fn)))


def test_one_gauss_kronrod_rule():
    # _gk15 reduces every block of panels; no scalar twin of the rule
    tree = ast.parse((SRC / "quadrature.py").read_text())
    assert _functions_reading(tree, "_WK15") == ["_gk15"]


def test_one_panel_heap():
    # refine refines every integral; no second heap splits tol and budget
    tree = ast.parse((SRC / "quadrature.py").read_text())
    assert _functions_reading(tree, "heapq") == ["refine"]


def test_one_slicing_rule_and_no_integrand_probe():
    # _panels alone decides how many values an integrand call returns, and
    # an integrand takes arrays: nothing catches a TypeError to retry it
    tree = ast.parse((SRC / "quadrature.py").read_text())
    assert _functions_reading(tree, "_SLICE") == ["_panels"]
    for name in ("quadrature.py", "measures.py"):
        tree = ast.parse((SRC / name).read_text())
        caught = [node.type for node in ast.walk(tree)
                  if isinstance(node, ast.ExceptHandler) and node.type is not None]
        names = {n.id for t in caught for n in ast.walk(t) if isinstance(n, ast.Name)}
        assert "TypeError" not in names, name


def _defined_names(tree):
    """Names a module binds by def, class or assignment, at any depth."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return names


def test_one_truncation_for_the_lattice_series():
    # _lattice_series alone sets the horizon, adds the tail and splits near
    # from far, for L, M, G and H; the tail enters through the cell samples
    truncation = {"_MIN_HORIZON", "_GAP", "_bder", "_em_tail",
                  "_R", "_Q", "_NODE_BLOCK", "_OFFSETS", "_WEIGHTS"}
    assert _modules_where(lambda tree: _defined_names(tree) & truncation) == [
        "kernels.py"]
    tree = ast.parse((SRC / "kernels.py").read_text())
    assert _functions_reading(tree, "_MIN_HORIZON") == ["_truncation"]
    assert _functions_reading(tree, "_bder") == ["_em_tail"]
    assert _functions_reading(tree, "_em_tail") == ["_cell_samples"]


def _imports_threading(tree):
    return any((isinstance(node, ast.Import) and any(a.name == "threading" for a in node.names))
               or (isinstance(node, ast.ImportFrom) and node.module == "threading")
               for node in ast.walk(tree))


def test_only_the_cell_cache_takes_a_lock():
    # every cache of the series layer is a kernels._CellCache
    assert _modules_where(_imports_threading) == ["kernels.py"]


def test_one_pair_rule_for_the_near_nodes():
    # (a, b) at a node is written once, for the cell rows and the capped sums
    tree = ast.parse((SRC / "kernels.py").read_text())
    assert _functions_reading(tree, "_pairs") == ["_cell_samples", "_direct"]


def test_far_field_reads_cell_rows_alone():
    # a cell row carries the pairs of its near nodes, so _far reads no node
    tree = ast.parse((SRC / "kernels.py").read_text())
    assert "nodes" not in _calls(_function("_far", tree))


def test_cell_cache_takes_its_width_from_its_first_build():
    tree = ast.parse((SRC / "kernels.py").read_text())
    cache = next(c for c in tree.body if isinstance(c, ast.ClassDef) and c.name == "_CellCache")
    init = _function("__init__", cache).args
    assert [a.arg for a in init.posonlyargs + init.args + init.kwonlyargs] == ["self"]
    assert init.vararg is None and init.kwarg is None


def test_one_zeta_series():
    # hurwitz_zeta alone reads the Bernoulli table; zeta, the q of PowerLaw
    # and the period tail of verify all call it
    tree = ast.parse((SRC / "specfun.py").read_text())
    assert _functions_reading(tree, "_BERNOULLI") == ["hurwitz_zeta"]
    assert _modules_where(
        lambda tree: any(isinstance(node, ast.FunctionDef)
                         and ("zeta" in node.name or "hurwitz" in node.name)
                         for node in ast.walk(tree))) == ["specfun.py"]


def test_one_small_rate_series_for_the_defects():
    # the minorant's series of sinh y - y is the one defect table and switch;
    # the majorant is (w t) t minus the minorant at its checked rates, with
    # no table, switch or direct formula of its own
    tree = ast.parse((SRC / "specfun.py").read_text())
    tables = sorted(t.id for node in tree.body if isinstance(node, ast.Assign)
                    for t in node.targets)
    assert tables == ["_BERNOULLI", "_SERIES_SWITCH", "_SINH_SERIES"]
    assert _functions_reading(tree, "_SINH_SERIES") == ["_minorant"]
    assert _functions_reading(tree, "_SERIES_SWITCH") == ["_minorant"]
    assert _functions_reading(tree, "_minorant") == ["defect_majorant",
                                                      "defect_minorant"]
    majorant = next(fn for fn in tree.body if isinstance(fn, ast.FunctionDef)
                    and fn.name == "defect_majorant")
    calls = sorted(ast.unparse(node.func) for node in ast.walk(majorant)
                   if isinstance(node, ast.Call))
    assert calls == ["_minorant", "check_rates", "float", "np.expm1", "np.expm1"]


def _functions_reading_attribute(tree, attr):
    """Names of the functions whose bodies read ``x.attr``, with repeats:
    one entry per read."""
    return sorted(fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
                  for node in ast.walk(fn) if _attribute_read(node) == attr)


def test_one_defect_series_for_the_periodized_kernel():
    # kernels keeps no Taylor switch of its own: its one p/j ladder takes
    # the 2/lam cancellation from specfun's minorant defect, and eval_p and
    # eval_j are orders of it
    tree = ast.parse((SRC / "kernels.py").read_text())
    assert not [t.id for node in tree.body if isinstance(node, ast.Assign)
                for t in node.targets if re.search("SWITCH|TAYLOR", t.id)]
    assert _functions_reading(tree, "defect_minorant") == ["_periodized"]
    assert _functions_reading(tree, "_periodized") == ["_order"]
    assert _functions_reading(tree, "_order") == ["eval_j", "eval_p"]
    # periodic takes q_mu and q_mu' from the measure, the integers included:
    # no integer test (its mean is test_periodic_means_are_the_sharp_constants')
    tree = ast.parse((SRC / "periodic.py").read_text())
    assert _functions_reading_attribute(tree, "q") == ["q_mu"]
    assert _functions_reading_attribute(tree, "_q") == ["_superposed_poly"]
    assert _functions_reading_attribute(tree, "floor") == []


def test_one_kernel_defect_loop():
    # KernelDefectAtPoint and verify's criteria 1-3 all take the one-sided
    # defects of L and M over a set of rates from kernels._defects, which
    # hands all its rates to one _exp_series call; the one-rate entry points
    # are not a second route
    tree = ast.parse((SRC / "kernels.py").read_text())
    assert _functions_reading(tree, "_defects") == ["__call__", "_fit"]
    assert _functions_reading(tree, "_exp_series") == [
        "_defects", "_eval_point", "majorant_values", "minorant_values"]
    assert _functions_reading(tree, "minorant_values") == []
    assert _functions_reading(tree, "majorant_values") == []
    tree = ast.parse((SRC / "verify.py").read_text())
    assert not any(isinstance(node, ast.Attribute)
                   and node.attr in ("minorant_values", "majorant_values")
                   for node in ast.walk(tree))


def test_one_flag_table():
    # FLAGS, KINDS and REQUIRED alone name the optional flags of the CLI:
    # which kind reads which flag is decided nowhere else
    tree = ast.parse((SRC / "cli.py").read_text())
    table = {"FLAGS", "KINDS", "REQUIRED"}
    flag = re.compile(r"--(lambda|measure|N|sigma|points|coeffs|roots"
                      r"|with-target|delta|tol)\b")
    assert {t.id for node in tree.body if isinstance(node, ast.Assign)
            for t in node.targets} >= table
    rest = [node for node in tree.body
            if not (isinstance(node, ast.Assign)
                    and {t.id for t in node.targets} <= table)]
    named = [node.value for top in rest for node in ast.walk(top)
             if isinstance(node, ast.Constant) and isinstance(node.value, str)
             and flag.search(node.value)]
    assert named == []


def test_no_call_overrides_the_quadrature_budget():
    # every integral runs on quadrature.DEFAULT_BUDGET
    assert _modules_where(
        lambda tree: any(isinstance(node, ast.Call)
                         and any(k.arg == "budget" for k in node.keywords)
                         for node in ast.walk(tree))) == []


def test_criterion_3_inverts_the_closed_transforms():
    # L and M come back from eval_Lhat and eval_Mhat on their support; the
    # one tapered forward transform left is transform-support's
    tree = ast.parse((SRC / "verify.py").read_text())
    check = next(fn for fn in tree.body if isinstance(fn, ast.FunctionDef)
                 and fn.name == "check_transforms")
    assert {"eval_Lhat", "eval_Mhat"} <= {_attribute_read(node)
                                         for node in ast.walk(check)}
    calls = [ast.unparse(node.func) for node in ast.walk(check)
             if isinstance(node, ast.Call)]
    assert calls.count("cos_window_integral") == 1


def test_superposed_reads_one_derivative_ladder():
    # the nodes take f and f' from one _derivs call, the horizons f^(0..4)
    tree = ast.parse((SRC / "superposed.py").read_text())
    assert not [node.lineno for node in ast.walk(tree)
                if _attribute_read(node) in ("f_prime", "f_derivs")]


def test_one_log_plus_sum():
    # disk_sup_bound alone sums log+|alpha|; jensen_gap reads its logplus_sum
    tree = ast.parse((SRC / "polybound.py").read_text())
    assert _functions_reading(tree, "_INTERIOR_GUARD") == ["disk_sup_bound",
                                                            "reflect_roots"]


def _function(name, tree):
    return next(fn for fn in ast.walk(tree)
                if isinstance(fn, ast.FunctionDef) and fn.name == name)


def _calls(fn):
    return [ast.unparse(node.func) for node in ast.walk(fn) if isinstance(node, ast.Call)]


def test_eval_rows_come_from_one_column_table():
    # _eval_columns is the one table; CSV and JSON rows are zipped from it
    tree = ast.parse((SRC / "cli.py").read_text())
    assert "range" not in _calls(_function("cmd_eval", tree))
    assert "_eval_columns" in _calls(_function("cmd_eval", tree))


def test_periodic_means_are_the_sharp_constants():
    # the mean of g_mu is -A(N+1, mu) and that of h_mu B(N+1, mu); forms
    # owns the admissibility gate and the dilation they take
    tree = ast.parse((SRC / "periodic.py").read_text())
    assert {"lower_constant_A", "upper_constant_B"} <= {
        _attribute_read(node) for node in ast.walk(_function("_superposed_poly", tree))}
    assert not [node.lineno for node in ast.walk(tree)
                if _attribute_read(node) in ("defect_moment", "dilate", "require")]


def test_criterion_8_reads_the_sharpness_table():
    # the witness ratios and constants are computed once, in sharpness_table
    calls = _calls(_function("check_form_bounds", ast.parse((SRC / "verify.py").read_text())))
    assert "sharpness_table" in calls
    assert not [c for c in calls if c.endswith("sharpness_witness")]


def test_count_kind_and_point_messages_are_written_once():
    # errors.check_count, check_kind and check_finite hold the one text of each
    message = re.compile("must be a nonnegative integer|unknown kind "
                         "|evaluation points must be finite")

    def raises_message(tree):
        return any(isinstance(node, ast.Constant) and isinstance(node.value, str)
                   and message.search(node.value)
                   for r in ast.walk(tree) if isinstance(r, ast.Raise)
                   for node in ast.walk(r))

    assert _modules_where(raises_message) == ["errors.py"]
