"""The benchmark reaches into the package by name: bench/tracer.py wraps every
function in TRACED, and bench/worker.py clears the caches of
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


def _resolve(dotted):
    mod, *attrs = dotted.split(".")
    obj = importlib.import_module(f"finitegap.{mod}")
    for attr in attrs:
        obj = getattr(obj, attr)
    return obj


@pytest.mark.parametrize("name", _traced_names())
def test_traced_name_resolves(name):
    assert callable(_resolve(name))


@pytest.mark.parametrize("key, expr", _cache_names())
def test_cleared_cache_resolves(key, expr):
    assert key == expr
    assert callable(_resolve(key).cache_clear)
