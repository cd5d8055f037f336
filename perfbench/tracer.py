"""Layer tracer: spans around the library's public functions, from outside.

``Tracer.install()`` replaces every public function and public method of
the layer modules with a wrapper that records a span (name, start, end,
parent span, job id, a work count, whether it raised).  The replacement is
made at every binding site: each ``extremal`` module attribute that refers
to a wrapped function (``kernels.integrate_semiinfinite`` is imported by
name, the package re-exports most names), the methods on the classes
themselves (``KernelDefectAtPoint.__call__``, ``_Superposed.value``), and
the function table ``verify.CRITERIA``.  Wrappers re-raise every exception
unchanged, because library code branches on them (the probe in
``quadrature._as_vector_fn``, ``Weight.classify``).

Spans are kept in flat arrays in memory and written out once, at the end.
A span's self time is its duration minus the durations of its direct
children; time in unwrapped code (numpy, private helpers, integrand
lambdas) counts as self time of the nearest wrapped caller.
"""

import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("specfun", "quadrature", "kernels", "measures", "superposed",
          "periodic", "forms", "polybound", "verify", "cli")


def _arg(args, kwargs, i, name, default=None):
    if len(args) > i:
        return args[i]
    return kwargs.get(name, default)


def _evaluations(args, kwargs, result):
    return result.evaluations


def _size_of(i, name):
    return lambda args, kwargs, result: int(np.size(_arg(args, kwargs, i, name)))


def _eval_p_points(args, kwargs, result):
    return int(np.broadcast(np.asarray(_arg(args, kwargs, 0, "lam")),
                            np.asarray(_arg(args, kwargs, 1, "x"))).size)


def _trig_coeffs(args, kwargs, result):
    return result.degree + 1


def _form_pairs(args, kwargs, result):
    pts = _arg(args, kwargs, 1, "points")
    n = len(getattr(pts, "xi", pts))
    return n * (n - 1) // 2


def _oracle_samples(args, kwargs, result):
    return int(_arg(args, kwargs, 1, "samples", 65536))


# Work counts per span name; methods receive ``self`` as args[0].
COUNTERS = {
    "quadrature.integrate_finite": _evaluations,
    "quadrature.integrate_semiinfinite": _evaluations,
    "quadrature.integrate_measure": _evaluations,
    "kernels.minorant_values": _size_of(1, "x"),
    "kernels.majorant_values": _size_of(1, "x"),
    "kernels.eval_Lhat": _size_of(1, "t"),
    "kernels.eval_Mhat": _size_of(1, "t"),
    "kernels.eval_Lhat_over_lam": _size_of(0, "lam"),
    "kernels.KernelDefectAtPoint.__call__": _size_of(1, "lam"),
    "superposed._Superposed.value": _size_of(1, "x"),
    "periodic.q_mu": _size_of(1, "x"),
    "periodic.eval_p": _eval_p_points,
    "periodic.trig_minorant_l": _trig_coeffs,
    "periodic.trig_majorant_m": _trig_coeffs,
    "periodic.trig_minorant_g": _trig_coeffs,
    "periodic.trig_majorant_h": _trig_coeffs,
    "periodic.log_sin_majorant": _trig_coeffs,
    "forms.r_mu": _size_of(1, "t"),
    "forms.evaluate_form": _form_pairs,
    "polybound.sup_log_oracle": _oracle_samples,
}
COUNTERS.update({
    f"measures.{cls}.{method}": _size_of(1, arg)
    for cls in ("HaarLog", "PowerLaw", "Atomic", "Weight")
    for method, arg in (("f", "x"), ("f_prime", "x"), ("f_derivs", "u"))
})


class Tracer:
    """Span recorder; one per process, installed once before the first job."""

    def __init__(self):
        self.names = []
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job = array("i")
        self.count = array("q")
        self.raised = array("b")
        self.job_id = -1
        self.panels = 0
        self.criteria = {}          # span name -> verify criterion
        self._stack = [-1]

    # -- wrapping --------------------------------------------------------------

    def _wrap(self, fn, name):
        nid = len(self.names)
        self.names.append(name)
        counter = COUNTERS.get(name)
        clock = time.perf_counter
        stack = self._stack
        name_id, start, end, parent = self.name_id, self.start, self.end, self.parent
        job, count, raised = self.job, self.count, self.raised
        tracer = self

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            job.append(tracer.job_id)
            count.append(0)
            raised.append(0)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised[idx] = 1
                raise
            finally:
                end[idx] = clock()
                stack.pop()
            if counter is not None:
                count[idx] = counter(args, kwargs, result)
            return result

        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    def _count_panels(self, fn):
        tracer = self

        def counted(*args):
            tracer.panels += 1
            return fn(*args)

        return counted

    def install(self):
        """Wrap every layer's public functions and methods at every binding site."""
        mods = {name: sys.modules[f"extremal.{name}"] for name in LAYERS}
        replaced = {}
        for layer, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and not attr.startswith("_"):
                    replaced[obj] = self._wrap(obj, f"{layer}.{attr}")
                elif inspect.isclass(obj):
                    self._wrap_methods(layer, obj)
        quadrature = mods["quadrature"]
        quadrature._gk15 = self._count_panels(quadrature._gk15)
        for name, mod in list(sys.modules.items()):
            if name != "extremal" and not name.startswith("extremal."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    setattr(mod, attr, replaced[obj])
        verify = mods["verify"]
        for crit, fn in verify.CRITERIA:
            self.criteria[f"verify.{fn.__name__}"] = crit
        verify.CRITERIA = tuple((crit, replaced.get(fn, fn)) for crit, fn in verify.CRITERIA)

    def _wrap_methods(self, layer, cls):
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__call__":
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if inspect.isfunction(obj):
                setattr(cls, attr, self._wrap(obj, name))
            elif isinstance(obj, classmethod):
                setattr(cls, attr, classmethod(self._wrap(obj.__func__, name)))
            elif isinstance(obj, staticmethod):
                setattr(cls, attr, staticmethod(self._wrap(obj.__func__, name)))

    # -- results -----------------------------------------------------------------

    def arrays(self):
        """The spans of timed jobs (job id >= 0) as numpy arrays, with self times."""
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = end - start
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        keep = np.frombuffer(self.job, dtype=np.int32) >= 0
        return {
            "name_id": name_id[keep],
            "start": start[keep],
            "end": end[keep],
            "parent": parent[keep],
            "parent_name_id": np.where(has_parent, name_id[np.maximum(parent, 0)], -1)[keep],
            "job": np.frombuffer(self.job, dtype=np.int32)[keep],
            "count": np.frombuffer(self.count, dtype=np.int64)[keep],
            "raised": np.frombuffer(self.raised, dtype=np.int8)[keep],
            "self_s": (dur - child)[keep],
            "dur_s": dur[keep],
        }

    def write(self, path, spans):
        """Write the spans and the name table to ``path`` (numpy .npz)."""
        np.savez_compressed(path, names=np.array(self.names), **{
            k: v for k, v in spans.items() if k in
            ("name_id", "start", "end", "parent", "job", "count", "raised")})

    def layer_metrics(self, spans):
        """The per-layer counts and self times, keyed by benchmark metric name."""
        names = np.array(self.names + ["<root>"])
        nid = spans["name_id"]
        label = names[nid]
        layer = np.array([n.split(".", 1)[0] for n in names])[nid]
        parent_layer = np.array([n.split(".", 1)[0] for n in names])[spans["parent_name_id"]]
        self_s, count, dur = spans["self_s"], spans["count"], spans["dur_s"]

        def select(*wanted):
            return np.isin(label, wanted)

        def total(values, mask):
            return float(values[mask].sum())

        quad = layer == "quadrature"
        quad_top = quad & (parent_layer != "quadrature")
        series = select("kernels.minorant_values", "kernels.majorant_values")
        transform = select("kernels.eval_Lhat", "kernels.eval_Mhat",
                           "kernels.eval_Lhat_over_lam")
        dap = select("kernels.KernelDefectAtPoint.__call__")
        integ = select("measures.integrate")
        fvals = np.array([n.startswith("measures.") and n.rsplit(".", 1)[-1]
                          in ("f", "f_prime", "f_derivs") for n in names])[nid]
        value = select("superposed._Superposed.value")
        defect = select("superposed._Superposed.defect")
        q = select("periodic.q_mu")
        p = select("periodic.eval_p")
        trig = select("periodic.trig_minorant_l", "periodic.trig_majorant_m",
                      "periodic.trig_minorant_g", "periodic.trig_majorant_h",
                      "periodic.log_sin_majorant")
        rmu = select("forms.r_mu")
        form = select("forms.evaluate_form")
        oracle = select("polybound.sup_log_oracle")
        m = {
            "quadrature.calls": int(quad_top.sum()),
            "quadrature.integrand_evals": int(count[quad_top].sum()),
            "quadrature.panels": int(self.panels),
            "quadrature.raised": int(spans["raised"][quad_top].sum()),
            "quadrature.self_s": total(self_s, quad),
            "kernels.series_calls": int(series.sum()),
            "kernels.series_points": int(count[series].sum()),
            "kernels.series_self_s": total(self_s, series),
            "kernels.transform_points": int(count[transform].sum()),
            "kernels.transform_self_s": total(self_s, transform),
            "kernels.defect_at_point_lams": int(count[dap].sum()),
            "kernels.defect_at_point_self_s": total(self_s, dap),
            "measures.integrate_calls": int(integ.sum()),
            "measures.integrate_self_s": total(self_s, integ),
            "measures.f_points": int(count[fvals].sum()),
            "measures.f_self_s": total(self_s, fvals),
            "superposed.value_calls": int(value.sum()),
            "superposed.value_points": int(count[value].sum()),
            "superposed.value_self_s": total(self_s, value),
            "superposed.defect_calls": int(defect.sum()),
            "superposed.defect_self_s": total(self_s, defect),
            "periodic.q_points": int(count[q].sum()),
            "periodic.q_self_s": total(self_s, q),
            "periodic.eval_p_points": int(count[p].sum()),
            "periodic.eval_p_self_s": total(self_s, p),
            "periodic.trig_coeffs": int(count[trig].sum()),
            "periodic.trig_self_s": total(self_s, trig),
            "specfun.calls": int((layer == "specfun").sum()),
            "specfun.self_s": total(self_s, layer == "specfun"),
            "forms.r_mu_points": int(count[rmu].sum()),
            "forms.r_mu_self_s": total(self_s, rmu),
            "forms.form_pairs": int(count[form].sum()),
            "forms.form_self_s": total(self_s, form),
            "polybound.oracle_samples": int(count[oracle].sum()),
            "polybound.self_s": total(self_s, layer == "polybound"),
            "cli.self_s": total(self_s, layer == "cli"),
        }
        for span_name, crit in self.criteria.items():
            m[f"verify.{crit}_s"] = total(dur, label == span_name)
        return m
