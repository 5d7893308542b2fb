"""The benchmark under perfbench/ reaches into semiroll by name.

Its tracer rebinds functions by module and attribute name, and its
workloads import a few model helpers directly and read the rest off module
aliases at run time.  A rename in the library would only surface in a
benchmark run; these tests make it fail here.
"""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
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


def test_correction_span_times_the_live_correction():
    # the models.stiefel.correction span rebinds this name; it must be the function
    # the rolling assembly calls, or the span would time nothing
    stiefel = importlib.import_module("semiroll.models.stiefel")
    homogeneous = importlib.import_module("semiroll.homogeneous")
    assert stiefel._correction_path is homogeneous._correction_path


def test_correction_span_times_both_rolls_on_a_non_symmetric_model():
    import numpy as np
    from semiroll.homogeneous import ControlCurve, extrinsic_roll, intrinsic_roll
    from semiroll.integrate import TimeGrid
    from semiroll.models import get_model

    model = get_model("stiefel_4_2")
    grid = TimeGrid(0.0, 1.0, 20)
    ctrl = ControlCurve(grid=grid, coords=np.tile(np.linspace(0.5, -0.3, model.p_dim),
                                                  (grid.n_nodes, 1)))
    tracer = _load("tracer").Tracer()
    tracer.install()
    try:
        intrinsic_roll(model, ctrl)
        extrinsic_roll(model, ctrl)
    finally:
        tracer.uninstall()
    # one correction flow per roll, each seen by the span
    assert [name for name, *_ in tracer.spans].count("models.stiefel.correction") == 2


def test_every_flow_records_one_reproject_span_and_no_newton_step():
    # integrate.reproject.* and newton_iters read the one polish of each flow's step
    # factors through the module global; the node check adds no reproject call
    import numpy as np
    from semiroll import homogeneous
    from semiroll.homogeneous import ControlCurve
    from semiroll.integrate import TimeGrid
    from semiroll.models import get_model

    grid = TimeGrid(0.0, 1.0, 2000)
    tracer = _load("tracer").Tracer()
    tracer.install()
    try:
        for name, roll in (("sphere", homogeneous.horizontal_lift),
                           ("stiefel_4_2", homogeneous.extrinsic_roll)):
            model = get_model(name)
            roll(model, ControlCurve.from_function(
                grid, lambda t: 0.4 * np.sin(t + np.arange(model.p_dim))))
    finally:
        tracer.uninstall()
    names = [name for name, *_ in tracer.spans]
    flows = [i for i, name in enumerate(names) if name == "integrate.flow_matrix_ode"]
    # the sphere's lift, then the stiefel roll's lift and correction
    assert len(flows) == 3
    polishes = [span[3] for span in tracer.spans if span[0] == "integrate.reproject"]
    assert polishes == flows
    assert tracer.newton_iters == [0, 0, 0]


def test_report_spans_are_children_of_the_report_span():
    # the verify per-layer metrics read these spans' self times; a report
    # routed around them would move its time into the report's own
    import numpy as np
    from semiroll import homogeneous
    from semiroll.homogeneous import ControlCurve, extrinsic_roll
    from semiroll.integrate import TimeGrid
    from semiroll.models import get_model

    model = get_model("so_plus_1_2")
    grid = TimeGrid(0.0, 1.0, 40)
    path = extrinsic_roll(model, ControlCurve.from_function(
        grid, lambda t: 0.4 * np.sin(t + np.arange(model.p_dim))))
    tracer = _load("tracer").Tracer()
    tracer.install()
    try:
        # read off the module, where the tracer rebinds it
        homogeneous.model_residual_report(model, path)
    finally:
        tracer.uninstall()
    names = [name for name, *_ in tracer.spans]
    report = names.index("homogeneous.model_residual_report")
    for span in ("rolling.tangency_residual", "rolling.no_twist_residuals",
                 "rolling.no_slip_residual", "rolling.rolling_point_residual"):
        assert names.count(span) == 1, span
        assert tracer.spans[names.index(span)][3] == report, span


def test_workload_module_imports():
    assert callable(_load("workloads").roll_ops)


def test_workload_late_lookups_resolve():
    # the workloads read functions off semiroll module aliases (H.extrinsic_roll,
    # hyperbolic.roll_hyperboloid inside a lambda) only when an op runs, which
    # importing the module does not check
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound.update({a.asname or a.name: importlib.import_module(a.name) for a in node.names})
        elif isinstance(node, ast.ImportFrom) and node.module.startswith("semiroll"):
            source = importlib.import_module(node.module)
            bound.update({a.asname or a.name: getattr(source, a.name) for a in node.names})
    modules = {name: value for name, value in bound.items()
               if inspect.ismodule(value) and value.__name__.startswith("semiroll")}
    assert {"H", "R", "hyperbolic"} <= set(modules)
    reads = {(node.value.id, node.attr) for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
             and node.value.id in modules}
    assert ("hyperbolic", "roll_hyperboloid") in reads
    missing = sorted(f"{name}.{attr}" for name, attr in reads if not hasattr(modules[name], attr))
    assert not missing, missing


def test_workload_container_calls_fit_the_containers():
    # the workloads build the rolling containers themselves, by keyword and by
    # position: every keyword must be a field, and no call may pass more
    # positional arguments than the class's init takes
    from semiroll import homogeneous, rolling

    classes = {("R", "RollingMapPath"): rolling.RollingMapPath,
               ("R", "RollingTriple"): rolling.RollingTriple,
               ("H", "ControlCurve"): homogeneous.ControlCurve,
               ("H", "EmbeddedCurve"): homogeneous.EmbeddedCurve}
    seen, wrong = set(), []
    for node in ast.walk(ast.parse((PERFBENCH / "workloads.py").read_text())):
        func = getattr(node, "func", None)
        if not (isinstance(node, ast.Call) and isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name) and (func.value.id, func.attr) in classes):
            continue
        cls = classes[func.value.id, func.attr]
        fields = [f.name for f in dataclasses.fields(cls) if f.init]
        seen.add(cls)
        wrong += [f"{cls.__name__}({kw.arg}=) at line {node.lineno}"
                  for kw in node.keywords if kw.arg not in fields]
        if len(node.args) > len(fields):
            wrong.append(f"{cls.__name__} takes {len(node.args)} positional arguments "
                         f"at line {node.lineno}")
    assert seen == set(classes.values()), sorted(c.__name__ for c in seen)
    assert not wrong, wrong


EXTRINSIC_FIELDS = ("rolling_point", "tangency", "no_slip", "no_twist_tan", "no_twist_norm",
                    "isometry")


@pytest.mark.parametrize("config, suffix, labels, tampered", [
    ("sphere_quarter_equator.json", ".csv", EXTRINSIC_FIELDS, False),
    ("stiefel_4_2_intrinsic.json", ".json", ("velocity_match", "isometry_gram"), False),
    ("sphere_quarter_equator.json", ".csv", EXTRINSIC_FIELDS, True),
], ids=["extrinsic_pass", "intrinsic_pass", "tampered_fail"])
def test_parse_verify_reads_every_field_of_the_verify_output(config, suffix, labels, tampered,
                                                             tmp_path, capsys):
    # the benchmark scores verify ops through this parser; a field it cannot
    # read would make every verify op of the cli workload unparsable
    from importlib import resources

    from semiroll.cli import main

    workloads = _load("workloads")
    out = tmp_path / f"traj{suffix}"
    assert main(["roll", "--config", str(resources.files("semiroll") / "configs" / config),
                 "--out", str(out)]) == 0
    if tampered:
        workloads.tamper(out, tmp_path / "tampered.csv")
        out = tmp_path / "tampered.csv"
    capsys.readouterr()
    code = main(["verify", "--in", str(out)])
    stdout = capsys.readouterr().out
    assert code == (2 if tampered else 0)
    fields, verdict = workloads.parse_verify(stdout)
    assert fields is not None and tuple(fields) == labels
    assert verdict == ("FAIL" if tampered else "PASS")
    printed = stdout.strip().splitlines()[:-1]
    for (label, (value, tol, ok)), line in zip(fields.items(), printed):
        assert line == f"{label}: {value:.6e} (tol {tol:.6e}) {'ok' if ok else 'BREACH'}"
        assert ok == (value <= tol)
    outcome = workloads.verify_outcome(workloads.CliResult(code, stdout), expect_breach=tampered)
    assert outcome.ok, outcome.detail
