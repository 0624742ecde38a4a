"""The benchmark reaches into the package by name: bench/tracer.py wraps every
function in TRACED and, in Tracer.install, patches module attributes such as
jacobi_cf._cf_step_at_prec; bench/worker.py clears the caches of
_program_caches before each pass.  A rename in the package would break the
benchmark only when it runs; these tests catch it here.  The bench files are
parsed, not imported or executed.
"""

import ast
import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _module_tree(name):
    return ast.parse((BENCH / name).read_text(), filename=name)


def _traced_names():
    for node in _module_tree("tracer.py").body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            traced = ast.literal_eval(node.value)
            return [f"{mod}.{name}" for mod, names in traced.items() for name in names]
    raise AssertionError("bench/tracer.py defines no TRACED")


def _cache_names():
    for node in _module_tree("worker.py").body:
        if isinstance(node, ast.FunctionDef) and node.name == "_program_caches":
            ret = next(n for n in ast.walk(node) if isinstance(n, ast.Return))
            pairs = zip(ret.value.keys, ret.value.values)
            return [(ast.literal_eval(k), ast.unparse(v)) for k, v in pairs]
    raise AssertionError("bench/worker.py defines no _program_caches")


def _install_reads():
    """module.attribute for every attribute Tracer.install reads from a module
    it binds as mods["<module>"], such as jcf._cf_step_at_prec."""
    tracer = next(n for n in _module_tree("tracer.py").body
                  if isinstance(n, ast.ClassDef) and n.name == "Tracer")
    install = next(n for n in tracer.body if isinstance(n, ast.FunctionDef) and n.name == "install")
    bound = {}
    for node in ast.walk(install):
        if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Subscript)
                and ast.unparse(node.value.value) == "mods"
                and isinstance(node.value.slice, ast.Constant)):
            bound[node.targets[0].id] = node.value.slice.value
    reads = sorted({f"{bound[n.value.id]}.{n.attr}" for n in ast.walk(install)
                    if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
                    and isinstance(n.value, ast.Name) and n.value.id in bound})
    if not reads:
        raise AssertionError("Tracer.install reads no module attribute by name")
    return reads


def _resolve(dotted):
    mod, *attrs = dotted.split(".")
    obj = importlib.import_module(f"finitegap.{mod}")
    for attr in attrs:
        obj = getattr(obj, attr)
    return obj


@pytest.mark.parametrize("name", _traced_names())
def test_traced_name_resolves(name):
    assert callable(_resolve(name))


@pytest.mark.parametrize("name", _install_reads())
def test_install_read_resolves(name):
    assert callable(_resolve(name))


@pytest.mark.parametrize("key, expr", _cache_names())
def test_cleared_cache_resolves(key, expr):
    assert key == expr
    assert callable(_resolve(key).cache_clear)


# bench/tracer.py counts quad.calls and quad.points by replacing the rules
# that spectral_set holds as module attributes; a helper that bound a rule at
# definition time would run uncounted
_CALLERS = [
    pytest.param(lambda ss, gs: ss.critical_points(gs), "chebyshev_quad",
                 id="critical_points-moments"),
    pytest.param(lambda ss, gs: ss.critical_points(gs), "theta_partial_quad",
                 id="critical_points-heights"),
    pytest.param(lambda ss, gs: ss.green(gs, -0.6), "theta_partial_quad", id="green-gap"),
    pytest.param(lambda ss, gs: ss.green(gs, 4.0), "gl_quad", id="green-outside"),
    pytest.param(lambda ss, gs: ss.green(gs, 1.0j), "gl_quad", id="green-complex"),
    pytest.param(lambda ss, gs: ss.harmonic_measure(gs, 1, -0.6), "theta_partial_quad",
                 id="harmonic_measure-gap"),
    pytest.param(lambda ss, gs: ss.harmonic_measure(gs, 1, 4.0), "gl_quad",
                 id="harmonic_measure-outside"),
    pytest.param(lambda ss, gs: ss.dos_cdf(gs, 0.0), "theta_partial_quad", id="dos_cdf"),
    pytest.param(lambda ss, gs: ss.frequencies(gs), "chebyshev_quad", id="frequencies"),
    pytest.param(lambda ss, gs: ss.thouless_potential(gs, 4.0), "chebyshev_quad",
                 id="thouless_potential"),
    pytest.param(lambda ss, gs: importlib.import_module("finitegap.comb").comb_jacobian(gs),
                 "theta_partial_quad", id="comb_jacobian"),
]


@pytest.mark.parametrize("call, rule", _CALLERS)
def test_quadrature_rule_looked_up_at_call_time(call, rule, two_gap, monkeypatch):
    ss = importlib.import_module("finitegap.spectral_set")
    seen = []

    def spy(name, fn):
        def wrapper(*args, **kwargs):
            seen.append(name)
            return fn(*args, **kwargs)

        return wrapper

    for name in ("chebyshev_quad", "theta_partial_quad", "gl_quad"):
        monkeypatch.setattr(ss, name, spy(name, getattr(ss, name)))
    ss._harmonic_poly_coeffs.cache_clear()
    call(ss, two_gap)
    assert rule in seen
