"""Spans around the public functions of each finitegap module, installed
from outside: the program's files are not edited.

Every traced function is replaced, in every finitegap module that holds it,
by a wrapper that records a span (id, name, start, end, parent span, request
id, work count).  Replacing the module attribute is enough because each
caller looks the function up by name at call time: `cli.critical_points`,
`comb.critical_points`, `spectral_set.chebyshev_quad`, `jacobi_cf.cf_step`,
`abel.abel_map_angles` as seen from `_newton_invert`, and so on.  The lru
caches are not wrapped; their hit ratios come from `cache_info()`.

A span's self time is its duration minus the durations of its child spans.
Time spent in helpers that are not wrapped (integrands, polynomial
arithmetic) counts to the wrapped function that called them.
"""

import importlib
import itertools
import time
from collections import defaultdict

import numpy as np

MODULES = ("cli", "quad", "spectral_set", "herglotz", "jacobi_cf", "abel", "comb")
TRACED = {
    "cli": ("main",),
    "quad": ("gl_quad", "chebyshev_quad", "chebyshev_quad_fixed", "theta_partial_quad"),
    "spectral_set": ("critical_points", "green", "harmonic_measure", "frequencies",
                     "dos_cdf", "dos_density"),
    "herglotz": ("split_resolvents", "r00"),
    "jacobi_cf": ("initial_state", "cf_step", "dual_state", "coefficients",
                  "orthogonal_polys", "transfer_matrix", "cd_residual"),
    "abel": ("abel_map", "abel_map_angles", "abel_jacobian_angles", "_newton_invert",
             "invert_abel", "measure_box", "measure_mc", "kernel_at_origin"),
    "comb": ("comb_from_gaps", "gaps_from_comb", "CombData.rational_relation_report"),
}
# leaf quadrature rules: these evaluate the integrand, so they count points
QUAD_RULES = ("quad.gl_quad", "quad.chebyshev_quad", "quad.chebyshev_quad_fixed")
ROWS = ("abel.abel_map_angles", "abel.abel_jacobian_angles")
TRANSFER = ("jacobi_cf.orthogonal_polys", "jacobi_cf.transfer_matrix", "jacobi_cf.cd_residual")
NEWTON = "abel._newton_invert"
NEWTON_TOL = 1e-8  # residual below which measure_mc accepts a Newton row


def unit(metric):
    """Unit of a per-layer metric, from its name."""
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("_ratio", "_frac", "_per_step")):
        return "1"
    return "count"


def _ratio(num, den):
    return num / den if den else 0.0


class Tracer:
    """Span recorder; `install` wraps the program, `end_pass` aggregates."""

    def __init__(self, path):
        self.path = path
        self.request = -1
        self.spans = []
        self.attempts = 0
        self.passes = 0
        self._stack = []
        self._ids = itertools.count()
        path.write_text("pass\tid\tname\tstart\tend\tparent\trequest\twork\n")

    def install(self):
        mods = {m: importlib.import_module(f"finitegap.{m}") for m in MODULES}
        for mod_name, names in TRACED.items():
            mod = mods[mod_name]
            for name in names:
                if "." in name:  # a method: wrap it on its class
                    cls_name, meth = name.split(".")
                    cls = getattr(mod, cls_name)
                    setattr(cls, meth, self._wrap(f"{mod_name}.{meth}", getattr(cls, meth)))
                    continue
                orig = getattr(mod, name)
                wrapper = self._wrap(f"{mod_name}.{name}", orig)
                for m in mods.values():
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, attr, wrapper)
        jcf = mods["jacobi_cf"]
        jcf._cf_step_at_prec = self._count_attempts(jcf._cf_step_at_prec)

    def _count_attempts(self, fn):
        def counted(*args, **kwargs):
            self.attempts += 1
            return fn(*args, **kwargs)

        return counted

    def _wrap(self, name, fn):
        spans, stack, ids = self.spans, self._stack, self._ids
        counts_points = name in QUAD_RULES
        counts_rows = name in ROWS
        newton = name == NEWTON
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else -1
            work = [0]
            if counts_points:
                integrand = args[0]

                def counted(x):
                    work[0] += np.size(x)
                    return integrand(x)

                args = (counted,) + args[1:]
            elif counts_rows:
                work[0] = np.size(args[1]) // max(args[0].n_gaps, 1)
            stack.append(sid)
            start = perf()
            try:
                result = fn(*args, **kwargs)
                if newton:
                    work[0] = int(np.count_nonzero(result[1] <= NEWTON_TOL))
                return result
            finally:
                end = perf()
                stack.pop()
                spans.append((sid, name, start, end, parent, self.request, work[0]))

        wrapper.__wrapped__ = fn
        return wrapper

    def discard(self):
        """Forget the spans recorded since the last pass (warm-up, checks)."""
        self.spans.clear()
        self.attempts = 0

    def end_pass(self, cache_info):
        """Per-layer metrics of the pass just run; writes its spans out."""
        spans = self.spans
        child = defaultdict(float)
        parent_of = {}
        name_of = {}
        for sid, name, start, end, parent, _, _ in spans:
            child[parent] += end - start
            parent_of[sid] = parent
            name_of[sid] = name

        def under(sid, ancestor):
            sid = parent_of[sid]
            while sid != -1:
                if name_of[sid] == ancestor:
                    return True
                sid = parent_of[sid]
            return False

        self_s = defaultdict(float)
        calls = defaultdict(int)
        work = defaultdict(int)
        newton_rows = strays = inner = 0
        for sid, name, start, end, parent, _, w in spans:
            self_s[name] += end - start - child[sid]
            calls[name] += 1
            work[name] += w
            if name == "abel.abel_jacobian_angles" and name_of.get(parent) == NEWTON:
                newton_rows += w
            elif name == "abel.invert_abel" and under(sid, "abel.measure_mc"):
                strays += 1
            elif name == "spectral_set.critical_points" and under(sid, "comb.gaps_from_comb"):
                inner += 1

        def hit_ratio(key):
            info = cache_info[key]
            return _ratio(info.hits, info.hits + info.misses)

        m = {
            "cli.main.self_ms": 1e3 * _ratio(self_s["cli.main"], calls["cli.main"]),
            "quad.calls": sum(calls[k] for k in QUAD_RULES),
            "quad.points": sum(work[k] for k in QUAD_RULES),
            "spectral_set.critical_points.calls": calls["spectral_set.critical_points"],
            "spectral_set.critical_points.self_s": self_s["spectral_set.critical_points"],
            "spectral_set.harmonic_measure.calls": calls["spectral_set.harmonic_measure"],
            "spectral_set.harmonic_measure.self_s": self_s["spectral_set.harmonic_measure"],
            "spectral_set.green.self_s": self_s["spectral_set.green"],
            "spectral_set.harmonic_cache.hit_ratio":
                hit_ratio("spectral_set._harmonic_poly_coeffs"),
            "herglotz.split_resolvents.calls": calls["herglotz.split_resolvents"],
            "herglotz.split_resolvents.self_s": self_s["herglotz.split_resolvents"],
            "jacobi_cf.cf_step.calls": calls["jacobi_cf.cf_step"],
            "jacobi_cf.cf_step.self_s": self_s["jacobi_cf.cf_step"],
            "jacobi_cf.cf_step.attempts_per_step": _ratio(self.attempts,
                                                          calls["jacobi_cf.cf_step"]),
            "jacobi_cf.initial_state.self_s": self_s["jacobi_cf.initial_state"],
            "jacobi_cf.dual_state.self_s": self_s["jacobi_cf.dual_state"],
            "jacobi_cf.transfer.self_s": sum(self_s[k] for k in TRANSFER),
            "abel.abel_map_angles.calls": calls["abel.abel_map_angles"],
            "abel.abel_map_angles.rows": work["abel.abel_map_angles"],
            "abel.abel_jacobian_angles.calls": calls["abel.abel_jacobian_angles"],
            "abel.newton.useful_ratio": _ratio(work["abel._newton_invert"], newton_rows),
            "abel.invert_abel.calls": calls["abel.invert_abel"],
            "abel.measure_mc.strays": strays,
            "abel.series_cache.hit_ratio": hit_ratio("abel._abel_series"),
            "abel.measure_mc.self_s": self_s["abel.measure_mc"],
            "abel.abel_map.self_s": self_s["abel.abel_map"],
            "comb.gaps_from_comb.calls": calls["comb.gaps_from_comb"],
            "comb.gaps_from_comb.self_s": self_s["comb.gaps_from_comb"],
            "comb.gaps_from_comb.inner_solves": inner,
        }
        for mod in MODULES:
            m[f"{mod}.self_s"] = sum(v for k, v in self_s.items() if k.startswith(mod + "."))

        with self.path.open("a") as fh:
            for sid, name, start, end, parent, req, w in spans:
                fh.write(f"{self.passes}\t{sid}\t{name}\t{start:.9f}\t{end:.9f}\t"
                         f"{parent}\t{req}\t{w}\n")
        self.discard()
        self.passes += 1
        return m
