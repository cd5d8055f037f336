"""Every module compiles cleanly with warnings turned into errors.

An import can be served from a cached bytecode file, which hides
compile-time warnings such as invalid escape sequences; compiling the
source text catches them on every run.  No linter is installed, so a
stdlib ``ast`` scan also checks that every imported name is used, that no
module branches on a measure's ``family`` name, that only ``measures``
reads what a measure is made of (``atoms``, ``breakpoints``, ``weight``),
that only ``Measure`` defines f, f_prime, f_derivs and q, that no ``src``
module defines the transform moments (an oracle of the tests) and
``periodic`` builds its polynomials without a point mass, that only
``measures`` raises AdmissibilityError or reads CSV, that only ``cli.main``
(the ``--out`` write) and ``measures._csv_rows`` open a file, that one function
holds the Gauss-Kronrod rule, that one function keeps a panel heap and
one slices its passes, that no integrand is probed for a TypeError, and
that the lattice series has one path: ``kernels._lattice_series`` takes
no cell cache and keeps no cell, far field or horizon, only ``kernels``
sets its head, window and Euler-Maclaurin order (and defines no ``_DIRECT``
cap path), no ``src`` module defines a sentinel for a divergent value (it
is the float inf), ``kernels._node_sum`` is the one node sum (the one reader of the
block size, the one table of 1/(y -+ s) and the one caller of the
Euler-Maclaurin end terms, with one ``for`` statement, its loop over the
blocks of points, and none over the series), the end
terms read the Bernoulli numbers of ``specfun`` and ``kernels`` writes
none of its own, no ``src`` module takes a lock or defines a node cache,
and an approximant of ``superposed`` sets its attributes in ``__init__``
alone; that every
private module-level name of
the package is read somewhere in it, that ``specfun.hurwitz_zeta`` is the one zeta series, that
the one small-rate defect series of ``specfun`` is the minorant's and the
majorant has no series, switch or direct formula of its own, that the
small-rate series of the periodized kernel p is ``specfun``'s minorant
defect alone and ``periodic`` reads no ``q`` of a measure, only its ``_q``
ladder, that
``kernels._defects`` is the one route of kernel defects over rates, one
broadcast with no loop, that
the flag table of ``cli`` is the only place naming its optional flags,
that no call overrides the quadrature budget, that criterion 3 inverts the
closed ``eval_Lhat`` and ``eval_Mhat`` and takes one tapered forward
transform (``transform-support``'s), that ``superposed`` takes f and its
derivatives from the measure's ``_derivs`` ladder and never calls
``f_prime`` or ``f_derivs``, that ``polybound`` writes its log+ sum
and the formula of its bound once (criterion 10 reads the lower degrees
of every root set off one ``_bound`` call over the power sums of one
``disk_sup_bounds`` call) and builds the coefficients of F (``np.poly`` or
``_poly``) and calls the FFT, once, only to choose the grid cells, that one function cuts the popped
panels of the heap, that ``cli.cmd_eval`` writes its CSV and JSON rows from one column
table without a per-index loop, that the means of g_mu and h_mu are the
sharp constants A and B, one read of the measure's ``defect_moment`` (so
``periodic`` neither dilates a measure nor reads its admissibility gate,
and imports no ``forms``), that no module-level function only forwards to
a method of a measure or an approximant and ``KernelDefectAtPoint`` has no
per-instance knob, that
criterion 8 reads its witnesses off the sharpness table, that the
count, kind, evaluation-point and dilation messages are written only in
``errors``, and that measures integrate while kernels evaluate: every
single-rate kernel is written in ``kernels`` (``measures`` makes no
``np.exp`` call and ``verify`` writes no transform of its own), the base
methods of ``Measure`` are each one call of its one column integral
``_integral``, no family overrides a method the base already gives
(``Atomic`` defines only its atoms, and ``HaarLog`` no moment), the base
moments take the kind's gate so that ``forms`` reads neither ``require``
nor a delta check, ``eval_Lhat`` and ``eval_Mhat`` share one body, and
the package's ``__init__`` imports no submodule when it loads.
"""

import ast
import pathlib
import re
import warnings

import pytest

import extremal

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "extremal"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_compiles_without_warnings(path):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        compile(path.read_text(), str(path), "exec")


def _private_module_names(tree):
    """The _names (not __dunders__) a module binds at its top level."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def test_every_private_module_name_is_read():
    # a private constant, helper or class nothing reads is a leftover: the
    # package reads each one, as a name or as ``module._name``
    trees = {p.name: ast.parse(p.read_text()) for p in SRC.glob("*.py")}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    assert sorted(f"{path}:{name}" for path, tree in trees.items()
                  for name in _private_module_names(tree) - read) == []


def test_the_package_imports_no_submodule_when_it_loads():
    # __init__ resolves each public name on first access, so importing the
    # package loads nothing a command does not use
    tree = ast.parse((SRC / "__init__.py").read_text())
    top = [node for stmt in tree.body if not isinstance(stmt, ast.FunctionDef)
           for node in ast.walk(stmt)]
    assert [ast.unparse(node) for node in top
            if isinstance(node, ast.ImportFrom)
            and (node.level or node.module.split(".")[0] == "extremal")
            or isinstance(node, ast.Import) and any(a.name.startswith("extremal")
                                                   for a in node.names)
            or isinstance(node, ast.Call) and ast.unparse(node.func).endswith(
                ("import_module", "__import__"))] == []


def _unused_imports(tree):
    """Names a module imports but never reads (a literal ``__all__`` counts as
    a read; a computed one reads its names through the names it computes from)."""
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
                        for t in node.targets)
                and isinstance(node.value, (ast.List, ast.Tuple))):
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


def _modules_defining_transform_moment():
    # the paper's coefficient route is tests/oracles.py's, not the library's
    return _modules_where(lambda tree: "transform_moment" in _defined_names(tree))


def test_periodic_polynomials_come_from_the_q_ladder():
    # q is order 0 of _q, and periodic builds every polynomial from the
    # ladder at the nodes: neither the transform moments nor a point mass
    tree = ast.parse((SRC / "measures.py").read_text())
    assert sorted(cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                  for fn in cls.body
                  if isinstance(fn, ast.FunctionDef) and fn.name == "q") == ["Measure"]
    assert _modules_defining_transform_moment() == []
    tree = ast.parse((SRC / "periodic.py").read_text())
    assert not [node.lineno for node in ast.walk(tree)
                if _attribute_read(node) == "Atomic"]


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


def _calls_open(node):
    """Whether node calls ``open`` or ``x.open``."""
    return any(isinstance(call, ast.Call)
               and (_attribute_read(call.func) == "open"
                    or (isinstance(call.func, ast.Name) and call.func.id == "open"))
               for call in ast.walk(node))


def test_only_the_out_write_and_the_csv_reader_open_a_file():
    # cli.main writes --out and measures._csv_rows reads every CSV input;
    # no other src code reads or writes a file
    assert _modules_where(_calls_open) == ["cli.py", "measures.py"]
    assert sorted((path.name, fn.name) for path in SRC.glob("*.py")
                  for fn in ast.walk(ast.parse(path.read_text()))
                  if isinstance(fn, ast.FunctionDef) and _calls_open(fn)) == [
        ("cli.py", "main"), ("measures.py", "_csv_rows")]


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
    # L, M, G and H take one path: no cell rows, far-field samples, horizon
    # or node limit, and no cells argument; only kernels sets the head, the
    # window and the Euler-Maclaurin order
    gone = {"_cell_samples", "_interpolate", "_near", "_far", "_direct", "_truncation",
            "_OFFSETS", "_WEIGHTS", "_Q", "_R", "_A", "_B", "_MIN_HORIZON", "_MAX_NODES",
            "_GAP", "_pairs", "_bder", "_em_tail", "_NODE_TOL", "_DIRECT"}
    assert _modules_where(lambda tree: _defined_names(tree) & gone) == []
    assert _modules_where(
        lambda tree: _defined_names(tree) & {"_HEAD", "_NEAR", "_EM_ORDER"}) == ["kernels.py"]
    tree = ast.parse((SRC / "kernels.py").read_text())
    series = _function("_lattice_series", tree)
    assert [a.arg for a in series.args.args] == ["x", "series", "f0"]
    assert not [node.lineno for node in ast.walk(series)
                if (isinstance(node, ast.Name) and node.id == "cells")
                or _attribute_read(node) == "cells"]


def test_one_node_sum_for_the_lattice_series():
    # _node_sum alone blocks the points by _CHUNK, builds the table of
    # 1/(y - s) and 1/(y + s) and adds the Euler-Maclaurin runs, for every
    # series of a _lattice_series call at once: its one for statement is
    # the loop over the blocks of points, none over the series
    tree = ast.parse((SRC / "kernels.py").read_text())
    node_sum = _function("_node_sum", tree)
    assert [type(node) for node in ast.walk(node_sum)
            if isinstance(node, (ast.For, ast.While))] == [ast.For]
    assert _functions_reading(tree, "_CHUNK") == ["_node_sum"]
    assert sorted(fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
                  and "np.divide" in _calls(fn)) == ["_node_sum"]
    assert _functions_reading(tree, "_node_sum") == ["_lattice_series"]
    assert _functions_reading(tree, "_em_end") == ["_node_sum"]
    assert _functions_reading(tree, "_em_coeffs") == ["_node_sum"]


def test_the_series_reads_the_bernoulli_numbers_of_specfun():
    # the end terms take B_2 ... B_2p from specfun in one function, and
    # kernels writes no Bernoulli number nor a coefficient B_2j/(2j)! (such
    # as 1/12 or 1/720) of its own
    tree = ast.parse((SRC / "kernels.py").read_text())
    assert _functions_reading(tree, "_BERNOULLI") == ["_em_coeffs"]
    tables = {6, 12, 30, 42, 66, 720, 2730, 30240, 1209600, 47900160}
    assert not [node.lineno for node in ast.walk(tree)
                if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
                and isinstance(node.right, ast.Constant) and node.right.value in tables]
    assert not [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Constant)
                and node.value in {720, 30240, 1209600, 47900160, 691, 3617, 43867, 174611}]


def _imports_threading(tree):
    return any((isinstance(node, ast.Import) and any(a.name == "threading" for a in node.names))
               or (isinstance(node, ast.ImportFrom) and node.module == "threading")
               for node in ast.walk(tree))


def _sets_an_attribute_of_self(fn):
    """Whether fn assigns to ``self.name`` or calls setattr."""
    for node in ast.walk(fn):
        targets = (node.targets if isinstance(node, ast.Assign) else [node.target]
                   if isinstance(node, (ast.AugAssign, ast.AnnAssign)) else [])
        if any(isinstance(t, ast.Attribute) and ast.unparse(t.value) == "self"
               for target in targets for t in ast.walk(target)):
            return True
        if isinstance(node, ast.Call) and ast.unparse(node.func).endswith("setattr"):
            return True
    return False


def test_no_module_takes_a_lock():
    # a value of G or H is a function of (mu, delta, x) and its batch
    assert _modules_where(_imports_threading) == []


def test_no_module_defines_a_node_cache():
    assert _modules_where(lambda tree: "_CellCache" in _defined_names(tree)) == []


def test_no_module_defines_a_divergence_sentinel():
    # a divergent transform value is the float inf, in a scalar or an array
    names = {"PLUS_INF", "_PlusInfinity", "is_plus_inf", "_divergent", "_split_divergent"}
    assert _modules_where(lambda tree: names & _defined_names(tree)) == []


def test_approximants_hold_no_mutable_state():
    # no method of an approximant but __init__ sets an attribute
    tree = ast.parse((SRC / "superposed.py").read_text())
    classes = [c for c in tree.body if isinstance(c, ast.ClassDef)
               and (c.name == "_Superposed" or "_Superposed" in map(ast.unparse, c.bases))]
    assert [c.name for c in classes] == ["_Superposed", "Minorant", "Majorant"]
    assert [(c.name, fn.name) for c in classes for fn in c.body
            if isinstance(fn, ast.FunctionDef) and fn.name != "__init__"
            and _sets_an_attribute_of_self(fn)] == []


def test_one_pair_rule_for_the_near_nodes():
    # the collapse of a point's nearest node, sinc(du)^2 (f + du f'), is
    # written once, for every series
    tree = ast.parse((SRC / "kernels.py").read_text())
    assert [fn.name for fn in tree.body if isinstance(fn, ast.FunctionDef)
            and "np.sinc" in _calls(fn)] == ["_lattice_series"]


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
    assert calls == ["_finite", "_minorant", "check_rates", "float", "np.errstate",
                     "np.expm1", "np.expm1"]


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
    # periodic takes q_mu and q_mu' from the measure's _q ladder, the
    # integers included, and reads its q nowhere: no integer test (the mean
    # is test_periodic_means_are_the_sharp_constants')
    tree = ast.parse((SRC / "periodic.py").read_text())
    assert not [node.lineno for node in ast.walk(tree) if _attribute_read(node) == "q"]
    assert _functions_reading_attribute(tree, "_q") == ["_superposed_poly"]
    assert _functions_reading_attribute(tree, "floor") == []


def test_one_kernel_defect_loop():
    # KernelDefectAtPoint and verify's criteria 1-3 all take the one-sided
    # defects of L and M over a set of rates from kernels._defects, which
    # hands all its rates to one _exp_series call and takes e^{-lam|x|} in
    # one broadcast, with no loop; the one-rate entry points are not a
    # second route
    tree = ast.parse((SRC / "kernels.py").read_text())
    assert not [node.lineno for node in ast.walk(_function("_defects", tree))
                if isinstance(node, (ast.For, ast.While, ast.comprehension))]
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
    # disk_sup_bounds alone sums log+|alpha|; jensen_gaps reads its logplus_sum
    tree = ast.parse((SRC / "polybound.py").read_text())
    assert _functions_reading(tree, "_INTERIOR_GUARD") == ["disk_sup_bounds",
                                                            "reflect_roots"]


def test_one_bound_formula():
    # _bound alone writes the bound, which the batch and SupBound.at read;
    # the single calls are batches of one; criterion 10 takes every root set
    # in one disk_sup_bounds call, reads the lower degrees of every set off
    # one _bound call, and takes its Jensen gaps in one jensen_gaps call
    tree = ast.parse((SRC / "polybound.py").read_text())
    assert _functions_reading(tree, "_bound") == ["at", "disk_sup_bounds"]
    assert "disk_sup_bounds" in _calls(_function("disk_sup_bound", tree))
    assert "jensen_gaps" in _calls(_function("jensen_gap", tree))
    calls = _calls(_function("check_polybound", ast.parse((SRC / "verify.py").read_text())))
    assert calls.count("polybound.disk_sup_bounds") == 1
    assert calls.count("polybound.jensen_gaps") == 1
    assert not {"polybound.disk_sup_bound", "polybound.jensen_gap"} & set(calls)
    # and reads the degrees it checks off one _bound call, no SupBound.at
    assert calls.count("polybound._bound") == 1
    assert not [call for call in calls if call.endswith(".at")]
    # the coefficients and the one FFT only choose cells; every value comes
    # from the product form
    assert [fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
            and {"np.poly", "_poly", "np.fft.fft"} & set(_calls(fn))] == ["_grid_cells"]
    assert _calls(_function("_grid_cells", tree)).count("np.fft.fft") == 1


def test_one_rule_cuts_the_popped_panels():
    # _cut makes every child of a pass but the first; refine reads _GRADE
    # only for the cost of a graded cut
    tree = ast.parse((SRC / "quadrature.py").read_text())
    assert _functions_reading(tree, "_GRADE") == ["_cut", "refine"]
    assert [fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
            and "_cut" in _calls(fn)] == ["refine"]


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
    # the mean of g_mu is -A(N+1, mu) and that of h_mu B(N+1, mu), one read
    # of the measure's defect_moment, which takes the gate and the dilation
    tree = ast.parse((SRC / "periodic.py").read_text())
    assert _functions_reading_attribute(tree, "defect_moment") == ["_superposed_poly"]
    assert not [node.lineno for node in ast.walk(tree)
                if _attribute_read(node) in ("dilate", "require")]
    assert "forms" not in {alias.asname or alias.name for node in ast.walk(tree)
                           if isinstance(node, (ast.Import, ast.ImportFrom))
                           for alias in node.names}


# module-level functions that only passed their arguments to a method of a
# measure or an approximant, which is now the one name of each object
_FORWARDERS = {"eval_G", "eval_H", "eval_G_dilated", "eval_H_dilated", "defect",
               "dilate", "classify", "q_mu", "lower_constant_A", "upper_constant_B"}


def test_no_module_level_function_forwards_to_a_method():
    def module_level(tree):
        return {node.name for node in tree.body if isinstance(node, ast.FunctionDef)} | {
            t.id for node in tree.body if isinstance(node, ast.Assign)
            for t in node.targets if isinstance(t, ast.Name)}

    assert _modules_where(lambda tree: module_level(tree) & _FORWARDERS) == []
    assert set(extremal.__all__) & _FORWARDERS == set()


def test_the_kernel_defect_fit_has_no_instance_knob():
    # the fit's rate and node count are kernels constants: a class attribute
    # an instance could shadow after its fit was built would desync the two
    tree = ast.parse((SRC / "kernels.py").read_text())
    cls = next(c for c in tree.body if isinstance(c, ast.ClassDef)
               and c.name == "KernelDefectAtPoint")
    assert not [node.lineno for node in cls.body if isinstance(node, ast.Assign)]


def test_criterion_8_reads_the_sharpness_table():
    # the witness ratios and constants are computed once, in sharpness_table
    check = _function("check_form_bounds", ast.parse((SRC / "verify.py").read_text()))
    calls = _calls(check)
    assert "sharpness_table" in calls
    assert not [c for c in calls if c.endswith("sharpness_witness")]
    # a family's 100 trials are one evaluate_forms call, made once per family
    # after the trials are drawn, and no trial takes evaluate_form
    assert calls.count("forms.evaluate_forms") == 1
    assert "forms.evaluate_form" not in calls
    families = next(node for node in check.body if isinstance(node, ast.For))
    trials = [node for node in ast.walk(families) if isinstance(node, ast.For)
              and ast.unparse(node.iter) == "range(100)"]
    assert len(trials) == 1 and "forms.evaluate_forms" not in _calls(trials[0])
    assert "forms.evaluate_forms" in _calls(families)


def test_count_kind_and_point_messages_are_written_once():
    # errors.check_count, check_kind and check_finite hold the one text of each
    message = re.compile("must be a nonnegative integer|unknown kind "
                         "|evaluation points must be finite|dilation parameter must")

    def raises_message(tree):
        return any(isinstance(node, ast.Constant) and isinstance(node.value, str)
                   and message.search(node.value)
                   for r in ast.walk(tree) if isinstance(r, ast.Raise)
                   for node in ast.walk(r))

    assert _modules_where(raises_message) == ["errors.py"]


def _methods(tree, cls):
    """The names of the methods the class cls of tree defines."""
    node = next(c for c in tree.body if isinstance(c, ast.ClassDef) and c.name == cls)
    return sorted(fn.name for fn in node.body if isinstance(fn, ast.FunctionDef))


def test_measures_integrate_and_kernels_evaluate():
    # kernels writes every single-rate kernel; measures integrates them
    # against mu through one column integral, and verify takes them as well
    tree = ast.parse((SRC / "measures.py").read_text())
    assert "np.exp" not in _calls(tree)
    assert "_over_points" not in _defined_names(tree)
    assert _functions_reading_attribute(tree, "_integral") == ["_derivs", "_q", "r"]
    assert _modules_defining_transform_moment() == []
    assert sorted(set(_functions_reading(tree, "integrate"))) == ["_integral", "classify"]
    tree = ast.parse((SRC / "verify.py").read_text())
    assert "_exp_transform" not in _defined_names(tree)
    assert "_exp_transform" in {_attribute_read(node) for node in ast.walk(tree)}


def test_no_override_the_base_already_gives():
    # Atomic's moments and ladder are the base's atom sums, and HaarLog's
    # moments the base's closed _q behind the base's gate
    tree = ast.parse((SRC / "measures.py").read_text())
    assert _methods(tree, "Atomic") == ["__post_init__", "atoms", "classify", "dilate"]
    assert "defect_moment" not in _methods(tree, "HaarLog")
    assert _modules_defining_transform_moment() == []


def test_forms_takes_the_gate_of_the_measure():
    # defect_moment gates the kind and dilate checks delta, so A and B read
    # neither; the delta rule of the point sets is errors.check_delta
    tree = ast.parse((SRC / "forms.py").read_text())
    assert not [node.lineno for node in ast.walk(tree)
                if _attribute_read(node) in ("require", "_check_delta")
                or (isinstance(node, ast.Name) and node.id == "_check_delta")]


def test_one_body_for_the_transforms_of_l_and_m():
    tree = ast.parse((SRC / "kernels.py").read_text())
    assert _functions_reading(tree, "_hat") == ["eval_Lhat", "eval_Mhat"]
    assert _calls(_function("eval_Lhat", tree)) == ["_hat"]
    assert _calls(_function("eval_Mhat", tree)) == ["_hat"]
