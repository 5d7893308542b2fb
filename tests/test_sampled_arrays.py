"""The sampled arrays of a rolling enter through one gate, and the frames must fit the path.

``linalg._real`` casts and shape-checks the fields of every container: a
complex array is refused by name where a float cast would drop its
imaginary part, a wrong shape is refused by name, and a float array is kept
as it is, so the broadcast flat frames keep their zero strides.  The
residual checks refuse frame paths of another node count by the frame's
name, where they would broadcast or fail inside numpy.
"""

import re
import warnings

import numpy as np
import pytest

from semiroll import rolling
from semiroll.homogeneous import (CartanModel, ControlCurve, EmbeddedCurve, GroupPath,
                                  extrinsic_roll, horizontal_lift, intrinsic_roll,
                                  model_residual_report, transport_homogeneous)
from semiroll.integrate import TimeGrid
from semiroll.linalg import RigidMotion, SignatureForm, se_act
from semiroll.models import get_model
from semiroll.rolling import (RollingMapPath, RollingTriple, TangentFramePath,
                              no_twist_residuals, parallel_transport_embedded,
                              perturb_normal_generator, rolling_condition_residuals,
                              tangency_residual)

GRID = TimeGrid(0.0, 1.0, 40)


def _sphere():
    """(model, path, triple) of the sphere rolled along a 41-node control."""
    model = get_model("sphere")
    control = ControlCurve.from_function(GRID, lambda t: np.array([0.6, 0.4 * np.cos(t)]))
    return model, extrinsic_roll(model, control), intrinsic_roll(model, control)


def _fields(name):
    """The keyword arguments that rebuild one of the containers from the sphere roll."""
    model, path, triple = _sphere()
    if name == "EmbeddedCurve":
        return {"grid": GRID, "points": path.alpha}
    if name == "TangentFramePath":
        return {"ts": GRID.ts, "frames": triple.tangent_frames}
    if name == "RollingMapPath":
        return {"grid": GRID, "R": path.R, "s": path.s, "alpha": path.alpha,
                "alpha_hat": path.alpha_hat, "form": path.form}
    return {"grid": GRID, "alpha": triple.alpha, "alpha_hat": triple.alpha_hat,
            "maps": triple.maps, "tangent_frames": triple.tangent_frames, "form": triple.form,
            "target_gram": triple.target_gram}


CONTAINERS = {"EmbeddedCurve": EmbeddedCurve, "TangentFramePath": TangentFramePath,
              "RollingMapPath": RollingMapPath, "RollingTriple": RollingTriple}
ARRAY_FIELDS = [("EmbeddedCurve", "points", "curve points"),
                ("TangentFramePath", "ts", "ts"), ("TangentFramePath", "frames", "frames")]
ARRAY_FIELDS += [("RollingMapPath", name, name) for name in ("R", "s", "alpha", "alpha_hat")]
ARRAY_FIELDS += [("RollingTriple", name, name)
                 for name in ("alpha", "alpha_hat", "maps", "tangent_frames", "target_gram")]


@pytest.mark.parametrize("container, field, label", ARRAY_FIELDS,
                         ids=[f"{c}.{f}" for c, f, _ in ARRAY_FIELDS])
def test_a_complex_field_is_refused_by_name_not_cast(container, field, label):
    # a float cast would keep the real part with only a ComplexWarning, which
    # the suite's warning filter would turn into the failure, so warnings are
    # at the runtime default here
    kwargs = _fields(container)
    kwargs[field] = kwargs[field] + 1e-3j
    with warnings.catch_warnings():
        warnings.simplefilter("default")
        with pytest.raises(ValueError, match=f"^{label} must be real, got a complex array"):
            CONTAINERS[container](**kwargs)


@pytest.mark.parametrize("container, field, label", ARRAY_FIELDS,
                         ids=[f"{c}.{f}" for c, f, _ in ARRAY_FIELDS])
def test_a_field_of_the_wrong_shape_is_refused_by_name(container, field, label):
    kwargs = _fields(container)
    bad = kwargs[field][..., None] if field in ("ts", "target_gram") else kwargs[field][1:]
    kwargs[field] = bad
    with pytest.raises(ValueError, match=rf"^{label} must have shape \(.*\) = \(.*\), "
                       rf"got \({bad.shape[0]}, .*\)$"):
        CONTAINERS[container](**kwargs)


@pytest.mark.parametrize("container", CONTAINERS)
def test_float_fields_are_kept_not_copied(container):
    kwargs = _fields(container)
    built = CONTAINERS[container](**kwargs)
    for field in [f for c, f, _ in ARRAY_FIELDS if c == container]:
        assert np.shares_memory(getattr(built, field), kwargs[field]), field


def test_the_flat_frames_keep_zero_strides_and_their_kept_factors(monkeypatch):
    model, path, _ = _sphere()
    frames = (model.flat_tangent_frames(GRID), model.flat_normal_frames(GRID))
    assert all(f.frames.strides[0] == 0 for f in frames)
    calls = []
    span_factors = rolling._span_factors

    def counted(*args):
        calls.append(args[-1])
        return span_factors(*args)

    monkeypatch.setattr(rolling, "_span_factors", counted)
    # the model factored both frames when it was built; the reports read them
    first = model_residual_report(model, path)
    second = model_residual_report(model, path)
    assert calls == []
    for name, values in first.per_node.items():
        assert np.array_equal(values, second.per_node[name]), name


@pytest.mark.parametrize("argument, label", [("frames", "transport frame"), ("v0", "v0")])
def test_the_transport_refuses_complex_frames_or_start_vector_by_name(argument, label):
    inputs = {"frames": np.broadcast_to(np.eye(3)[:, :2], (11, 3, 2)), "v0": np.eye(3)[0]}
    inputs[argument] = inputs[argument] + 1e-3j
    with warnings.catch_warnings():
        warnings.simplefilter("default")
        with pytest.raises(ValueError, match=f"^{label} must be real, got a complex array"):
            parallel_transport_embedded(inputs["frames"], inputs["v0"],
                                        SignatureForm.from_pq(3, 0))


def _complex_entry(site):
    """Call one entry point that casts a caller array, that array given an imaginary part."""
    model, path, _ = _sphere()
    if site == "RigidMotion.R":
        return RigidMotion(np.eye(3) + 1e-3j, np.zeros(3))
    if site == "RigidMotion.s":
        return RigidMotion(np.eye(3), np.zeros(3) + 1e-3j)
    if site == "se_act":
        return se_act(RigidMotion(np.eye(3), np.zeros(3)), np.ones(3) + 1e-3j)
    if site == "p_element":
        return model.p_element(np.ones(2) + 1e-3j)
    if site == "pointwise_tangent_frames":
        return model.pointwise_tangent_frames(GRID, path.alpha + 1e-3j)
    if site == "perturb_normal_generator":
        return perturb_normal_generator(path, np.zeros((3, 3)) + 1e-3j,
                                        model.flat_tangent_frames(GRID),
                                        model.flat_normal_frames(GRID))
    # the sphere's adjoint splits a complex sample into its two parts, so this
    # transport ran with no warning at all
    control = ControlCurve(GRID, np.full((GRID.n_nodes, 2), 0.5))
    samples = horizontal_lift(model, control).samples + 1e-3j
    return transport_homogeneous(model, GroupPath(GRID, samples), np.array([1.0, 0.0]))


COMPLEX_SITES = {"RigidMotion.R": "R", "RigidMotion.s": "s", "se_act": "v",
                 "p_element": "p-coefficients", "pointwise_tangent_frames": "curve points",
                 "perturb_normal_generator": "omega0", "GroupPath": "group samples"}


@pytest.mark.parametrize("site", COMPLEX_SITES)
def test_a_complex_caller_array_is_refused_by_name_not_cast(site):
    with warnings.catch_warnings():
        warnings.simplefilter("default")
        with pytest.raises(ValueError,
                           match=f"^{COMPLEX_SITES[site]} must be real, got a complex array$"):
            _complex_entry(site)


@pytest.mark.parametrize("container, field, label", [
    ("EmbeddedCurve", "points", "curve points"), ("RollingMapPath", "s", "s"),
    ("TangentFramePath", "ts", "ts")])
def test_a_complex_refusal_gives_no_group_advice(container, field, label):
    # only a basis is a group's: the real-form advice is the description loader's
    kwargs = _fields(container)
    kwargs[field] = kwargs[field] + 1e-3j
    with pytest.raises(ValueError, match=f"^{label} must be real") as refused:
        CONTAINERS[container](**kwargs)
    assert "real form" not in str(refused.value)


# -- frame paths of another grid ----------------------------------------------


def _frame_paths():
    """The 41-node sphere path and its frames: F_M, the flat tangent and normal frames."""
    model, path, _ = _sphere()
    return (model, path, model.pointwise_tangent_frames(GRID, path.alpha),
            model.flat_tangent_frames(GRID), model.flat_normal_frames(GRID))


def _other_grid(frames, how):
    """``frames`` on another node count: one node, the flat frames of a 21-node grid, or a
    moving stack one node short."""
    if how == "one_node":
        return TangentFramePath(frames.ts[:1], np.array(frames.frames[:1]))
    if how == "coarse_flat":
        ts = TimeGrid(0.0, 1.0, 20).ts
        return TangentFramePath(ts, np.broadcast_to(frames.frames[0], (ts.size,) +
                                                    frames.frames.shape[1:]))
    return TangentFramePath(frames.ts[1:], np.array(frames.frames[1:]))


def _perturb(path, tangent_mhat, normal_mhat):
    return perturb_normal_generator(path, np.zeros((3, 3)), tangent_mhat, normal_mhat)


ENTRY_POINTS = {
    "tangency.F_M": (lambda p, fm, ft, fn: tangency_residual(p, fm, fn), 0, "tangency: F_M(t)"),
    "tangency.normal": (lambda p, fm, ft, fn: tangency_residual(p, fm, fn), 2,
                        "tangency: normal development frame"),
    "no_twist.tangent": (lambda p, fm, ft, fn: no_twist_residuals(p, ft, fn), 1,
                         "no twist: tangent development frame"),
    "no_twist.normal": (lambda p, fm, ft, fn: no_twist_residuals(p, ft, fn), 2,
                        "no twist: normal development frame"),
    "perturb.tangent": (lambda p, fm, ft, fn: _perturb(p, ft, fn), 1,
                        "normal generator: tangent frame"),
    "perturb.normal": (lambda p, fm, ft, fn: _perturb(p, ft, fn), 2,
                       "normal generator: normal frame"),
    "report.F_M": (rolling_condition_residuals, 0, "tangency: F_M(t)"),
    "report.tangent": (rolling_condition_residuals, 1, "no twist: tangent development frame"),
    "report.normal": (rolling_condition_residuals, 2, "tangency: normal development frame"),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("how", ["one_node", "coarse_flat", "one_short"])
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_a_frame_path_of_another_grid_is_refused_by_its_name(entry, how):
    _, path, *frames = _frame_paths()
    run, index, label = ENTRY_POINTS[entry]
    frames[index] = bad = _other_grid(frames[index], how)
    message = f"{label} has {bad.frames.shape[0]} nodes, the path has {path.n_nodes}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run(path, *frames)


@pytest.mark.parametrize("builder", ["flat_tangent_frames", "flat_normal_frames"])
def test_the_model_report_refuses_frames_of_another_grid(builder, monkeypatch):
    model, path, *_ = _frame_paths()
    coarse = getattr(model, builder)(TimeGrid(0.0, 1.0, 20))
    # the class is patched, not the cached model (conftest)
    monkeypatch.setattr(CartanModel, builder, lambda self, grid: coarse)
    with pytest.raises(ValueError, match="development frame has 21 nodes, the path has 41$"):
        model_residual_report(model, path)
