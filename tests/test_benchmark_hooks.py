"""The benchmark under perfbench/ reaches into semiroll by name.

Its tracer rebinds functions by module and attribute name, and its
workloads import a few model helpers directly.  A rename in the library
would only surface in a benchmark run; these tests make it fail here.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(stem):
    spec = importlib.util.spec_from_file_location(f"perfbench_{stem}", PERFBENCH / f"{stem}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the class is built
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def _resolve(module_name, attr):
    if not module_name:
        from semiroll.homogeneous import CartanModel

        return CartanModel.__dict__.get(attr)
    return getattr(importlib.import_module(module_name), attr, None)


@pytest.mark.parametrize(
    "module_name, attr, span", _load("tracer").SPAN_TARGETS, ids=lambda v: v or "CartanModel"
)
def test_tracer_span_targets_resolve(module_name, attr, span):
    assert callable(_resolve(module_name, attr)), f"{span}: {module_name or 'CartanModel'}.{attr}"


def test_tracer_reproject_and_counter_hooks_resolve():
    integrate = importlib.import_module("semiroll.integrate")
    assert callable(integrate.reproject) and callable(integrate.reproject_info)
    assert integrate.REPROJECT_TOL > 0 and integrate.REPROJECT_MAX_ITER > 0
    assert callable(_resolve("semiroll.linalg", "j_orthogonality_residual"))


def test_workload_module_imports():
    assert callable(_load("workloads").roll_ops)
