"""Lifting, developing, transporting, and rolling through the group machinery.

The sphere and hyperboloid models double as fixtures here; anything
model-specific beyond construction lives in the per-model test files.
"""

import json
import re
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from semiroll.homogeneous import (
    CartanModel,
    ControlCurve,
    EmbeddedCurve,
    TimeGrid,
    extrinsic_roll,
    horizontal_lift,
    intrinsic_roll,
    model_residual_report,
    transport_homogeneous,
)
from semiroll.models import (
    EMBEDDING_BUNDLES,
    available_models,
    build_model,
    get_model,
    pseudo_orthogonal,
    stiefel,
)
from semiroll import homogeneous, models, rolling
from semiroll.linalg import (
    ORTHOGONALITY_TOL,
    SignatureForm,
    expm,
    is_oriented_isometry,
    j_orthogonality_residual,
    j_transpose_inverse,
    random_oriented_isometry,
)
from semiroll.models.hyperbolic import embed_hyperbolic, kinematic_roll
from semiroll.models.sphere import description as sphere_description
from semiroll.rolling import (
    RollingMapPath,
    TangentFramePath,
    no_slip_residual,
    no_twist_residuals,
    parallel_transport_embedded,
    perturb_normal_generator,
    rolling_condition_residuals,
    rolling_point_residual,
    triple_gram_residual,
    triple_velocity_residual,
)

from boosted import boost, boosted_start, boosted_start_roll
from horizontality import horizontality_residual


def _wobble(t):
    return np.array([np.sin(t), 0.4 * np.cos(2 * t)])


def _phased(p_dim):
    return lambda t: 0.5 * np.sin(t + np.arange(p_dim))


# one model of each bundle, with a control of its p-dimension
BUNDLE_CONTROLS = {"sphere": _wobble, "hyperboloid": _wobble, "so_plus_1_2": _phased(3),
                   "stiefel_4_2": _phased(5)}


def _embedded(model, lift):
    return model.rho_path(lift.samples) @ model.obar


@pytest.fixture(scope="module", params=["sphere", "hyperboloid"])
def surface(request):
    return get_model(request.param)


def test_control_lift_is_horizontal(surface):
    grid = TimeGrid(0.0, 1.5, 300)
    lift = horizontal_lift(surface, ControlCurve.from_function(grid, _wobble))
    assert np.max(horizontality_residual(surface, lift)) <= 1e-8
    assert lift.control is not None


def _passes(model, data, q0=None):
    """Both rolls of ``data`` pass their checks at 50 h^2: the extrinsic residual report,
    and the intrinsic no-slip and isometry residuals ``semiroll verify`` reads."""
    path = extrinsic_roll(model, data, q0=q0)
    triple = intrinsic_roll(model, data, q0=q0)
    tol = 50 * path.grid.h ** 2
    return model_residual_report(model, path).passed(tol) and \
        max(np.max(triple_velocity_residual(triple)), np.max(triple_gram_residual(triple))) <= tol


ROLLS = {"extrinsic": extrinsic_roll, "intrinsic": intrinsic_roll}


@pytest.mark.parametrize("roll", ROLLS)
@pytest.mark.parametrize("name", BUNDLE_CONTROLS)
def test_a_sampled_roll_refuses_a_smooth_normal_drift(name, roll):
    # the drift is 5e-4 at the first step, far above the relative bound
    model = get_model(name)
    grid = TimeGrid(0.0, 1.0, 100)
    lift = horizontal_lift(model, ControlCurve.from_function(grid, BUNDLE_CONTROLS[name]))
    points = _embedded(model, lift) * (1.0 + 0.05 * grid.ts)[:, None]
    with pytest.raises(ValueError, match=r"^curve leaves the model manifold at t=0\.01 "):
        ROLLS[roll](model, EmbeddedCurve(grid, points))


def _turned(model, points):
    """points[30:] carried by rho(exp(0.05 p_0)): on the manifold, with a jump at t=0.3."""
    g = expm(0.05 * model.basis[model.p_indices[0]])
    points[30:] = points[30:] @ np.asarray(model.rho(g), dtype=float).T


# each jump edits the points from t=0.3 on.  Every constraint here is quadratic, so
# negated points stay on its zero set: the antipode, the hyperboloid's other sheet,
# another component of SO(p,q); only the chords tell that jump, and a turn, apart
JUMPS = {
    "off": (lambda model, points: points[30:].__imul__(1.02),
            r"^curve leaves the model manifold at t=0\.3 \(defect "),
    "turned": (_turned, r"^curve jumps between t=0\.29 and t=0\.3 \(chord "),
    "negated": (lambda model, points: points[30:].__imul__(-1.0),
                r"^curve jumps between t=0\.29 and t=0\.3 \(chord "),
}


@pytest.mark.parametrize("roll", ROLLS)
@pytest.mark.parametrize("jump", JUMPS)
@pytest.mark.parametrize("name", BUNDLE_CONTROLS)
def test_a_sampled_roll_refuses_a_jump(name, jump, roll):
    model = get_model(name)
    grid = TimeGrid(0.0, 1.0, 100)
    lift = horizontal_lift(model, ControlCurve.from_function(grid, BUNDLE_CONTROLS[name]))
    points = _embedded(model, lift)
    edit, message = JUMPS[jump]
    edit(model, points)
    with pytest.raises(ValueError, match=message):
        ROLLS[roll](model, EmbeddedCurve(grid, points))


def _oracle_case(model, grid):
    """Item 13's exact rolling of u(t) = Ad_exp(tZ) U from default_rng(3): its control,
    the curve alpha = rho(exp(t(Z + U))) obar and the rotation, the J-inverse of
    rho(exp(t(Z + U))) expm(t B), B = Omega(U) - d_e_rho(Z); expm only."""
    rng = np.random.default_rng(3)
    h, p = list(model.h_indices), list(model.p_indices)
    Z = np.tensordot(0.8 * rng.standard_normal(len(h)), model.basis[h], axes=(0, 0))
    c0 = 0.8 * rng.standard_normal(len(p))
    U = model.p_element(c0)
    B = np.tensordot(c0, model.omega_basis, axes=(0, 0)) - np.asarray(model.d_e_rho(Z), float)
    ctrl = ControlCurve.from_function(
        grid, lambda t: np.real(model.algebra_coords(expm(t * Z) @ U @ expm(-t * Z))[0][p]))
    rhos = np.array([np.asarray(model.rho(expm(t * (Z + U))), dtype=float) for t in grid.ts])
    rots = j_transpose_inverse(rhos @ np.array([expm(t * B) for t in grid.ts]), model.form)
    return ctrl, rhos @ model.obar, rots


@pytest.mark.parametrize("n_steps", [1000, 2000])
def test_the_boosted_so_plus_2_2_oracle_rolls_on_fine_grids(n_steps):
    # max|R| 793: the flows' nodes round to |X^T J X - J| near 1e-10, which the
    # node check meets relative to max(1, max|X_ij|^2)
    model = get_model("so_plus_2_2")
    grid = TimeGrid(0.0, 1.0, n_steps)
    ctrl, alpha, rots = _oracle_case(model, grid)
    assert 780 <= np.max(np.abs(rots)) <= 800
    assert np.max(np.abs(extrinsic_roll(model, ctrl).R - rots)) <= 1e-8
    # the transport's projectors reach 2e4 here, and their difference quotient
    # rounds the sampled roll to about 4e-7 of max|R|
    sampled = extrinsic_roll(model, EmbeddedCurve(grid, alpha))
    assert np.max(np.abs(sampled.R - rots)) <= 2e-6 * np.max(np.abs(rots))


@pytest.mark.parametrize("n_steps", [100, 200])
def test_an_exact_so_plus_2_2_curve_rolls_and_verifies_on_coarse_grids(n_steps):
    # the sample lift refused this curve at 200 steps: its one-sided end
    # velocities failed an absolute tangency fit of 1e-8
    model = get_model("so_plus_2_2")
    i = np.arange(1, model.p_dim + 1)
    grid = TimeGrid(0.0, 1.0, n_steps)
    ctrl = ControlCurve.from_function(grid, lambda t: 0.4 * np.sin(i * t + 0.3))
    assert _passes(model, EmbeddedCurve(grid, _embedded(model, horizontal_lift(model, ctrl))))


def test_horizontal_lift_takes_controls_only(surface):
    grid = TimeGrid(0.0, 1.0, 20)
    points = _embedded(surface, horizontal_lift(surface, ControlCurve.from_function(grid, _wobble)))
    with pytest.raises(TypeError, match="^data must be a ControlCurve, got EmbeddedCurve$"):
        horizontal_lift(surface, EmbeddedCurve(grid, points))


def _basis_edit(edit):
    """A corruption of the description's basis: ``edit(basis, h, p)`` edits it in place."""
    def corrupt(desc):
        basis = np.array(desc["basis"])
        edit(basis, desc["h_indices"], desc["p_indices"])
        desc["basis"] = basis.tolist()
    return corrupt


def _swap_only(desc):
    # the Stiefel d_e_rho without the parts that keep the tangent and the normal
    # space: omega_basis vanishes, while the basis still brackets [p, p] into p
    honest = get_model("stiefel_4_2")
    P = honest.frame0 @ honest.cf0
    Q = np.eye(P.shape[0]) - P
    return {"d_e_rho": lambda X: P @ honest.d_e_rho(X) @ Q + Q @ honest.d_e_rho(X) @ P}


def _bundle_edit(field, wrap):
    """A corruption of one bundle callable: ``wrap(honest)`` replaces it."""
    def corrupt(desc):
        key = desc["embedding"].split(":", 1)[1]
        return {field: wrap(EMBEDDING_BUNDLES[key](desc)[field])}
    return corrupt


def _conjugated_group(desc):
    # rho reads Q as K Q K^T: still a form-preserving representation, but no
    # longer the one d_e_rho integrates
    honest = EMBEDDING_BUNDLES["stiefel"](desc)
    A = np.random.default_rng(1).standard_normal((4, 4))
    K = expm(0.4 * (A - A.T))
    return {"rho": lambda q: honest["rho"](K @ q @ K.T)}


def _tilted(frame_at):
    # column 0 tilted towards column 1 and then rolled off the tangent space:
    # rolls of a model with these frames FAIL their residual checks
    def tangent_frame_at(xs):
        F = frame_at(xs)
        F[:, :, 0] += 0.3 * F[:, :, 1]
        F[:, :, 0] += 0.05 * np.roll(F[:, :, 0], 1, axis=1)
        return F
    return tangent_frame_at


def _conjugated_d_e_rho(name):
    """d_e_rho conjugated by a T with T obar = obar: brackets and isotropy still hold,
    but the tangent frame T d_e_rho(p_i) obar carries a p-metric that Ad_H moves."""
    obar = get_model(name).obar
    u, w = np.random.default_rng(5).standard_normal((2, obar.size))
    T = np.eye(obar.size) + 0.5 * np.outer(u, w - (w @ obar) / (obar @ obar) * obar)
    T_inv = np.linalg.inv(T)
    return _bundle_edit("d_e_rho", lambda f: lambda X: T @ f(X) @ T_inv)


# each case corrupts one field of a registered model's description or bundle;
# a corruption returns the bundle callables it replaces
VALIDATE_REFUSALS = {
    "hh": ("so_plus_1_2", _basis_edit(lambda b, h, p: b.__setitem__(h[0], b[h[0]] + b[p[0]])),
           "[h,h] is not contained in h"),
    "hp": ("sphere", _basis_edit(lambda b, h, p: b.__setitem__(p[0], b[p[0]] + b[h[0]])),
           "[h,p] is not contained in p"),
    "pp": ("stiefel_4_2", _swap_only, "[p,p] is not contained in h but omega_basis vanishes"),
    "orth": ("so_plus_1_2", _basis_edit(lambda b, h, p: b.__setitem__(p, 0.5 * (b[h] + b[p]))),
             "h and p are not orthogonal under -tr(XY)"),
    "isotropy": ("hyperboloid",
                 lambda desc: desc.update(obar=embed_hyperbolic(0.3 + 0.1j).tolist()),
                 "isotropy algebra does not fix the base point"),
    "homomorphism": ("sphere", _bundle_edit("d_e_rho", lambda f: lambda X: 2.0 * f(X)),
                     "d_e_rho is not a Lie algebra homomorphism"),
    "constraint": ("so_plus_1_2",
                   _bundle_edit("constraint", lambda f: lambda xs: f(2.0 * np.asarray(xs))),
                   "constraint does not vanish on the orbit of the base point"),
    "vacuous constraint": ("stiefel_4_2",
                           _bundle_edit("constraint", lambda f: lambda xs: 0.0 * f(xs)),
                           "constraint vanishes at 2 obar, off the manifold"),
    **{f"ad_h:{name}": (name, _conjugated_d_e_rho(name), "p-metric is not Ad_H-invariant")
       for name in ("sphere", "so_plus_1_2", "stiefel_4_2")},
    "rho integrates d_e_rho": ("stiefel_4_2", _conjugated_group,
                               "rho is not the representation d_e_rho integrates"),
    "tangent frame": ("stiefel_4_2", _bundle_edit("tangent_frame_at", _tilted),
                      "tangent_frame_at does not span the tangent space rho(q) frame0"),
}


@pytest.mark.parametrize("case", VALIDATE_REFUSALS)
def test_validate_refuses_each_broken_invariant(case, monkeypatch):
    name, corrupt, message = VALIDATE_REFUSALS[case]
    desc = models._description_for(name)
    key = desc["embedding"].split(":", 1)[1]
    honest = EMBEDDING_BUNDLES[key]
    replaced = corrupt(desc) or {}
    monkeypatch.setitem(EMBEDDING_BUNDLES, key, lambda d: {**honest(d), **replaced})
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        build_model(desc).validate()


def test_validate_refuses_a_p_metric_that_ad_h_moves():
    # the derived metric corrupted directly; VALIDATE_REFUSALS reaches the
    # same refusal through a conjugated d_e_rho
    model = build_model(sphere_description())
    model.validate()
    model.ip_p = np.diag([2.0, 1.0]) @ model.ip_p @ np.diag([2.0, 1.0])
    with pytest.raises(ValueError, match="^p-metric is not Ad_H-invariant$"):
        model.validate()


@pytest.mark.parametrize("edit, message", [
    (lambda desc: desc.update(format_version=1), "unsupported model format_version: 1"),
    (lambda desc: desc.pop("format_version"), "unsupported model format_version: None"),
    (lambda desc: desc.update(embedding="module:riemann_sphere"),
     "unknown embedding scheme: 'module:riemann_sphere'"),
    (lambda desc: desc.update(embedding="builtin:torus"), "unknown embedding bundle: 'torus'"),
    (lambda desc: desc.update(dtype="complex"),
     "unsupported basis dtype 'complex': a basis is real; store a complex matrix X as its "
     "real form r(X) = [[Re X, -Im X], [Im X, Re X]]"),
    (lambda desc: desc.update(embedding=5), "unknown embedding scheme: 5"),
    (lambda desc: desc.pop("basis"), "model description is missing 'basis'"),
    (lambda desc: desc.pop("group_signs"), "model description is missing 'group_signs'"),
    (lambda desc: desc.pop("name"), "model description is missing 'name'"),
    (lambda desc: desc.update(h_indices=5),
     "model description field 'h_indices' must be a list of integers, got int"),
    (lambda desc: desc.update(basis={"a": 1}),
     "model description field 'basis' must be a list of lists of lists of numbers, got dict"),
    (lambda desc: desc.update(basis=[[["x"]]]), "model description field 'basis' must be a "
                                                "list of lists of lists of numbers, got a list "
                                                "holding str"),
    (lambda desc: desc.update(p_indices=[1, 2.5]),
     "model description field 'p_indices' must be a list of integers, got a list holding float"),
    (lambda desc: desc.update(p_indices=[1, 2.0]),
     "model description field 'p_indices' must be a list of integers, got a list holding float"),
    (lambda desc: desc.update(h_indices=[False]),
     "model description field 'h_indices' must be a list of integers, got a list holding bool"),
    (lambda desc: desc.update(J_signs="abc"),
     "model description field 'J_signs' must be a list of numbers, got str"),
    (lambda desc: desc.update(group_signs=[1, 1, True, 1]), "model description field "
                                                            "'group_signs' must be a list of "
                                                            "numbers, got a list holding bool"),
    (lambda desc: desc.update(obar="x"),
     "model description field 'obar' must be a list of numbers, got str"),
    (lambda desc: desc.update(d_e_pi=[[0.5, 0.0], [0.5]]),
     "model description field 'd_e_pi' must be a list of lists of numbers, got a ragged list"),
    (lambda desc: desc.update(name=5), "model description field 'name' must be a string, got int"),
], ids=["format_version", "no_format_version", "scheme", "bundle", "complex_basis",
        "int_embedding", "no_basis", "no_group_signs", "no_name", "int_h_indices", "dict_basis",
        "str_basis_entry", "float_index", "integral_float_index", "bool_index", "str_J_signs",
        "bool_group_sign", "str_obar", "ragged_d_e_pi", "int_name"])
def test_a_description_file_with_a_bad_header_is_refused_by_name(edit, message, tmp_path):
    desc = sphere_description()
    edit(desc)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(desc))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        get_model(path)


@pytest.mark.parametrize("text, message", [
    (json.dumps([sphere_description()]), "model description must be a JSON object, got list"),
    ("not json", "{path}: model description is not valid JSON: Expecting value: line 1 "
                 "column 1 (char 0)"),
], ids=["list", "not_json"])
def test_a_description_file_that_is_no_json_object_is_refused_by_name(text, message, tmp_path):
    path = tmp_path / "model.json"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"^{re.escape(message.format(path=path))}$"):
        get_model(path)


@pytest.mark.parametrize("obar, message", [
    ([0.0, -1.0], "obar must be a finite (3,) vector, got an array of shape (2,)"),
    ([0.0, np.nan, 0.0], "obar must be a finite (3,) vector, got nan at entry 1"),
], ids=["shape", "nan"])
def test_an_obar_that_is_no_finite_ambient_vector_is_refused_by_name(obar, message):
    desc = sphere_description()
    desc["obar"] = obar
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build_model(desc)


def test_a_description_file_with_an_obar_off_the_quadric_is_refused(tmp_path):
    # the description's obar is checked against the quadric's fixed level, not trusted
    desc = sphere_description()
    desc["obar"] = [0.0, -2.0, 0.0]
    path = tmp_path / "model.json"
    path.write_text(json.dumps(desc))
    with pytest.raises(ValueError, match="^constraint does not vanish on the orbit"):
        get_model(path)


@pytest.mark.parametrize("roll", ROLLS)
def test_a_sampled_roll_refuses_a_mismatched_start(surface, roll):
    grid = TimeGrid(0.0, 1.0, 100)
    lift = horizontal_lift(surface, ControlCurve.from_function(grid, _wobble))
    points = _embedded(surface, lift)
    q_far = surface.random_group_element(np.random.default_rng(3))
    with pytest.raises(ValueError, match="^curve does not start at the projection of q0$"):
        ROLLS[roll](surface, EmbeddedCurve(grid, points), q0=q_far)


def test_transport_agrees_with_projection_scheme(surface):
    grid = TimeGrid(0.0, 1.5, 300)
    lift = horizontal_lift(surface, ControlCurve.from_function(grid, _wobble))
    points = _embedded(surface, lift)
    field = transport_homogeneous(surface, lift, np.array([0.3, -0.7]))
    frames = surface.pointwise_tangent_frames(grid, points)
    reference = parallel_transport_embedded(frames.frames, field[0], surface.form)
    assert np.max(np.linalg.norm(field - reference, axis=1)) <= 1e-6


def test_transport_preserves_ambient_ip(surface):
    grid = TimeGrid(0.0, 2.0, 400)
    lift = horizontal_lift(surface, ControlCurve.from_function(grid, _wobble))
    u = transport_homogeneous(surface, lift, np.array([1.0, 0.0]))
    v = transport_homogeneous(surface, lift, np.array([0.2, 0.9]))
    ips = np.einsum("ki,i,ki->k", u, surface.form.signs, v)
    assert np.max(np.abs(ips - ips[0])) <= 1e-10


def test_intrinsic_triple_satisfies_both_laws(surface):
    grid = TimeGrid(0.0, 1.0, 200)
    triple = intrinsic_roll(surface, ControlCurve.from_function(grid, _wobble))
    bound = 50 * grid.h**2
    assert np.max(triple_velocity_residual(triple)) <= bound
    assert np.max(triple_gram_residual(triple)) <= 1e-10


def test_development_is_an_arc_length_shadow(surface):
    # the development must traverse the same p-metric length as the control
    grid = TimeGrid(0.0, 1.0, 400)
    ctrl = ControlCurve.from_function(grid, _wobble)
    dev = intrinsic_roll(surface, ctrl).alpha_hat
    assert dev.shape == (grid.n_nodes, surface.p_dim)
    from semiroll.integrate import fd_derivative

    dev_dot = fd_derivative(dev, grid.h)
    back = dev_dot @ np.linalg.inv(surface.d_e_pi).T
    speed_dev = np.einsum("ka,ab,kb->k", back, surface.ip_p, back)
    speed_ctrl = np.einsum("ka,ab,kb->k", ctrl.coords, surface.ip_p, ctrl.coords)
    assert np.max(np.abs(speed_dev - speed_ctrl)) <= 1e-7


@pytest.mark.parametrize("n_steps", [1, 2, 3])
@pytest.mark.parametrize("name", ["sphere", "hyperboloid", "so_plus_1_2", "so_plus_2_2"])
def test_constant_control_develops_to_a_straight_line_on_short_grids(name, n_steps):
    # a constant control on a symmetric space rolls along a geodesic, whose
    # development is the straight line t d_e_pi c (the arc, not its chord)
    model = get_model(name)
    grid = TimeGrid(0.0, np.pi / 2, n_steps)
    coeffs = np.linspace(0.6, 1.0, model.p_dim)
    ctrl = ControlCurve(grid=grid, coords=np.tile(coeffs, (grid.n_nodes, 1)))
    triple = intrinsic_roll(model, ctrl)
    # exact up to the rounding of R rho, which grows like |R|^2
    tol = 1e-13 * np.max(np.abs(triple.maps)) ** 2
    line = np.outer(grid.ts, model.d_e_pi @ coeffs)
    assert np.max(np.abs(triple.alpha_hat - line)) <= tol


def test_extrinsic_report_scales_with_grid(surface):
    for n in (100, 200):
        grid = TimeGrid(0.0, 1.0, n)
        path = extrinsic_roll(surface, ControlCurve.from_function(grid, _wobble))
        report = model_residual_report(surface, path)
        assert report.passed(50 * grid.h**2)


def test_normal_strategies_agree(surface):
    grid = TimeGrid(0.0, 1.0, 100)
    ctrl = ControlCurve.from_function(grid, _wobble)
    closed = extrinsic_roll(surface, ctrl, normal_strategy="closed_form")
    matched = extrinsic_roll(surface, ctrl, normal_strategy="frame_matching")
    assert np.max(np.abs(closed.R - matched.R)) <= 1e-6
    assert np.max(np.abs(closed.s - matched.s)) <= 1e-6


def test_intrinsic_maps_ride_on_the_extrinsic_rotation(surface):
    grid = TimeGrid(0.0, 1.0, 150)
    ctrl = ControlCurve.from_function(grid, _wobble)
    lift = horizontal_lift(surface, ctrl)
    path = extrinsic_roll(surface, ctrl)
    head = surface.d_e_pi @ surface.cf0
    chained = head @ j_transpose_inverse(surface.rho_path(lift.samples), surface.form)
    extracted = np.einsum("ab,kbj->kaj", head, path.R)
    assert np.max(np.abs(extracted - chained)) <= 1e-7


def test_flat_frames_anchor_the_projection(surface):
    head = surface.d_e_pi @ surface.cf0
    assert np.max(np.abs(head @ surface.frame0 - surface.d_e_pi)) <= 1e-14


def test_validate_catches_tampered_subalgebra_split():
    desc = sphere_description()
    desc["h_indices"] = [1]
    desc["p_indices"] = [0, 2]
    with pytest.raises(ValueError):
        build_model(desc).validate()


def test_model_file_with_corrupted_basis_is_rejected(tmp_path):
    desc = sphere_description()
    desc["basis"][1][0][1] += 0.25  # one of the two copies of Re A2[0, 1] in r(A2)
    path = tmp_path / "sphere_bad.json"
    path.write_text(json.dumps(desc))
    with pytest.raises(ValueError, match="brackets leave the algebra span"):
        get_model(str(path))


def test_validate_passes_for_shipped_models(surface):
    surface.validate()


def _rotated_stiefel_4_2():
    c, s = np.cos(0.7), np.sin(0.7)
    desc = stiefel.description(4, 2)
    desc["obar"] = (np.eye(4, 2) @ np.array([[c, -s], [s, c]])).T.ravel().tolist()
    return build_model(desc)


def _moved_so_plus_2_2():
    form = SignatureForm([1, 1, -1, -1])
    base = random_oriented_isometry(form, np.random.default_rng(11), scale=0.5)
    return build_model(pseudo_orthogonal.description(2, 2, base))


def _boosted_so_plus_2_2(a, b):
    """so_plus_2_2 at the base point ``boost(a, b)``."""
    return build_model(pseudo_orthogonal.description(2, 2, boost(a, b)))


def test_validate_passes_at_a_boosted_base_point():
    # the random group elements are exact exponentials, not reprojected
    defects = _boosted_so_plus_2_2(3.0, 2.1).validate()
    assert defects["rho_orthogonality"] <= 1e-9
    assert defects["constraint"] <= homogeneous.CURVE_TOL


def test_validate_still_refuses_a_stronger_boost_on_its_absolute_bound():
    # an open refusal: rho(q) is large at this base point, and the rounding
    # of rho(q)^T J rho(q) alone exceeds the absolute 1e-9 bound
    model = _boosted_so_plus_2_2(4.0, 2.8)
    with pytest.raises(ValueError, match="ambient representation does not preserve the form"):
        model.validate()


def _scaled_stiefel_5_2(factor):
    desc = stiefel.description(5, 2)
    desc["basis"] = (factor * np.array(desc["basis"])).tolist()
    return build_model(desc)


def _smallest_j_eigenvalue(frame, form):
    """min |eigenvalue| of the J-Gram of an orthonormal basis of the frame's span."""
    q = np.linalg.qr(frame)[0]
    return float(np.min(np.abs(np.linalg.eigvalsh(q.T @ (form.signs[:, None] * q)))))


@pytest.mark.parametrize("build", [
    lambda: _scaled_stiefel_5_2(0.1),
    lambda: _boosted_so_plus_2_2(4.0, 2.8),
    lambda: _boosted_so_plus_2_2(4.5, 3.15),
    lambda: _boosted_so_plus_2_2(5.0, 3.5),
    lambda: _boosted_so_plus_2_2(6.0, 4.2),
    lambda: _boosted_so_plus_2_2(7.1, 4.97),
    lambda: _boosted_so_plus_2_2(7.2, 5.04),
], ids=["stiefel_5_2x0.1", "boost4.0", "boost4.5", "boost5.0", "boost6.0", "boost7.1", "boost7.2"])
def test_well_conditioned_grams_build_at_any_scale(build):
    # the tangent span is judged by the J-Gram of its orthonormal basis, so a
    # rescaled basis builds alike; the J-complement shares its smallest
    # |eigenvalue| and needs no test of its own
    model = build()
    assert _smallest_j_eigenvalue(model.frame0, model.form) >= 1.0 / rolling.FRAME_COND_MAX
    assert _smallest_j_eigenvalue(model.normal0, model.form) >= 1.0 / rolling.FRAME_COND_MAX


@pytest.mark.parametrize("a, condition", [(7.4, "1.3"), (7.5, "1.6"), (7.6, "2.0"), (7.8, "3.0"),
                                          (8.0, "4.4")])
def test_a_boosted_base_point_past_the_bound_is_refused_by_its_tangent_frame(a, condition):
    # P0 has entries near cosh(a), so |P0^T J P0 - J| rounds to 1e-10 and more: the
    # base point is judged within ORTHOGONALITY_TOL max(1, max|P0_ij|^2), as a start value is
    with pytest.raises(ValueError, match=r"^embedded tangent frame Gram matrix is singular under "
                       rf"the ambient form at node 0 \(condition number {condition}e\+06\)$"):
        _boosted_so_plus_2_2(a, 0.7 * a)


@pytest.mark.parametrize("alter", [lambda B: B @ np.diag([-1.0, 1.0, 1.0, 1.0]),
                                   lambda B: B + np.diag([1e-6, 0.0, 0.0, 0.0])],
                         ids=["reflected", "perturbed"])
def test_a_boosted_base_point_off_the_group_is_still_refused(alter):
    # the scaled bound is 4.5e-5 at boost 7.2; 1e-6 on an entry near 670 moves the
    # residual by about 1.3e-3, and a reflection keeps it but flips a sign block
    with pytest.raises(ValueError, match=r"^base point must lie in SO\+\(2,2\) \(residual "):
        pseudo_orthogonal.description(2, 2, alter(boost(7.2, 5.04)))


SEVEN_MODELS = ["sphere", "hyperboloid", "so_plus_1_2", "so_plus_2_2",
                "stiefel_3_1", "stiefel_4_2", "stiefel_5_3"]


def _bad_start_values(d):
    """(q0, refusal) of start values that no model of group dimension d rolls from."""
    def refusal(q0):
        return (q0, rf"^q0 must be a finite real \({d}, {d}\) matrix of the model's group, "
                    rf"got a {q0.dtype} array of shape {re.escape(str(q0.shape))}$")
    section = np.array([[0.8, 0.36 + 0.48j], [-0.36 + 0.48j, 0.8]])  # the old complex h(z)
    nan = np.eye(d)
    nan[0, -1] = np.nan
    stretched, reflected = np.eye(d), np.eye(d)
    stretched[-1, -1], reflected[-1, -1] = 2.0, -1.0
    off = (r"^q0 must be an oriented isometry of the model's group form \(\|q0\^T J q0 - J\| "
           r"<= \S+, det > 0 on each sign block\), residual ")
    return [refusal(q0) for q0 in (np.eye(d - 1), np.eye(d + 1), np.eye(d)[None],
                                   np.eye(d, dtype=complex), section, nan, np.eye(d).astype(str))] + \
        [(q0, off + r"[1-9]\S+e\+00$") for q0 in (2.0 * np.eye(d), 3.0 * np.eye(d), stretched)] + \
        [(reflected, off + r"0\.000e\+00$")]


@pytest.mark.parametrize("path", ["control", "curve"])
@pytest.mark.parametrize("name", SEVEN_MODELS)
def test_a_start_value_is_checked_alike_on_every_path(name, path):
    # the quadrics' real forms are 4 x 4: the old complex 2 x 2 section, or the
    # sphere's 3 x 3 identity that a sampled roll used to read the corner of,
    # is refused by name, on a control's lift and on a sampled curve alike; so is
    # a matrix off the group (2 I rolled the sphere, rho ignoring its scale) or a
    # reflection (diag(1, 1, 1, -1) rolled stiefel_4_2 from outside SO(4))
    model = get_model(name)
    grid = TimeGrid(0.0, 1.0, 40)
    data = ControlCurve.from_function(grid, _phased(model.p_dim))
    if path == "curve":
        data = EmbeddedCurve(grid, extrinsic_roll(model, data).alpha)
    for q0, refusal in _bad_start_values(model.group_dim):
        for roll in (extrinsic_roll, intrinsic_roll):
            with pytest.raises(ValueError, match=refusal):
                roll(model, data, q0=q0)


@pytest.mark.parametrize("roll", [extrinsic_roll, intrinsic_roll])
def test_a_boosted_start_value_rolls(roll):
    # q0 = diag(B, B) has entries near 670, so |q0^T J q0 - J| rounds to 2.0e-10, above
    # ORTHOGONALITY_TOL itself: a start value is judged relative to max(1, max|q0_ij|^2)
    model = get_model("so_plus_2_2")
    q0 = boosted_start(7.2, 5.04)
    assert j_orthogonality_residual(q0, model.group_form) > ORTHOGONALITY_TOL
    grid = TimeGrid(0.0, 1.0, 40)
    out = roll(model, ControlCurve.from_function(grid, _phased(model.p_dim)), q0=q0)
    start = np.asarray(model.rho(q0)) @ model.obar
    assert np.max(np.abs(out.alpha[0] - start)) <= 1e-13 * np.max(np.abs(start))


@pytest.mark.parametrize("a, b, tangency", [(3.0, 2.1, 1e-11), (4.0, 2.8, 1e-9)])
def test_a_boosted_start_value_reports_and_passes(a, b, tangency):
    # R F_M has a condition number near |R|^2 (1e6 at node 5 for (4.0, 2.8),
    # max|R| 777); tangency rank-tests no product with R, so the path is
    # measured, to the rounding of R Q_M (2.7e-12 and 4.6e-10)
    model, path = boosted_start_roll(a, b)
    report = model_residual_report(model, path)
    assert report.passed(50 * path.grid.h ** 2)
    assert report.tangency <= tangency
    assert report.isometry <= 1e-14


def _with_rotations(path, R):
    """``path`` with the rotations ``R`` and the translations that keep the contact."""
    return RollingMapPath(grid=path.grid, R=R, alpha=path.alpha, alpha_hat=path.alpha_hat,
                          s=path.alpha_hat - np.einsum("kij,kj->ki", R, path.alpha),
                          form=path.form)


def _clean_roll(name, n_steps):
    model = get_model(name)
    grid = TimeGrid(0.0, 1.0, n_steps)
    return model, extrinsic_roll(model, ControlCurve.from_function(grid, _phased(model.p_dim)))


@pytest.mark.parametrize("eps", [1e-6, 1e-4, 1e-2])
@pytest.mark.parametrize("name", SEVEN_MODELS)
def test_a_tilt_of_the_rotations_breaches_tangency(name, eps):
    # K = u (J v)^T - v (J u)^T pairs the unit tangent u = frame0[:, 0] with the
    # normal v = normal0[:, 0]; it is J-skew, so expm(eps K) R(t) is still a
    # rigid motion, which turns T_alpha M out of the flat tangent plane by eps.
    # On so_plus_1_2 and so_plus_2_2 the pairing is no angle: it reads 0.71 and
    # 0.75 eps there, and eps on the definite models
    model, path = _clean_roll(name, 250)
    assert model_residual_report(model, path).passed(0.5 * eps)
    signs = model.form.signs
    u = model.frame0[:, 0] / np.linalg.norm(model.frame0[:, 0])
    v = model.normal0[:, 0]
    K = np.outer(u, signs * v) - np.outer(v, signs * u)
    report = model_residual_report(model, _with_rotations(path, expm(eps * K) @ path.R))
    assert 0.7 * eps <= report.tangency <= 1.001 * eps
    assert report.isometry <= 1e-14


@pytest.mark.parametrize("eps", [1e-6, 1e-4, 1e-2])
@pytest.mark.parametrize("a, b", [(3.0, 2.1), (4.0, 2.8)])
def test_a_tilt_of_boosted_rotations_breaches_tangency(a, b, eps):
    # tangency is read on the flat side: a tilt of R(t) from a boosted start
    # value (max|R| 106 and 777) reads 0.36 to 1 eps for every pair of a unit
    # tangent u and a normal v, far above the clean reading; the same pairing
    # pulled back by R(t)^-1 read down to 4.5e-4 eps
    model, path = boosted_start_roll(a, b)
    assert model_residual_report(model, path).tangency <= 1e-9
    signs = model.form.signs
    readings = []
    for u in (model.frame0 / np.linalg.norm(model.frame0, axis=0)).T:
        for v in model.normal0.T:
            K = np.outer(u, signs * v) - np.outer(v, signs * u)
            report = model_residual_report(model, _with_rotations(path, expm(eps * K) @ path.R))
            readings.append(report.tangency)
            assert report.isometry <= 1e-14
    assert 0.35 * eps <= min(readings) and max(readings) <= 1.001 * eps


@pytest.mark.parametrize("frame, factor", [("frame0", 0.5), ("normal0", 1.01)],
                         ids=["tangent_squash", "normal_stretch"])
@pytest.mark.parametrize("name", SEVEN_MODELS)
def test_a_rotation_off_the_group_breaches_the_group_residual(name, frame, factor):
    # R(t) scaled along a flat tangent or normal direction still maps T_alpha M
    # into the flat tangent plane: tangency reads clean, and only the group
    # residual tells that R(t) is no rigid motion
    model, path = _clean_roll(name, 400)
    w = getattr(model, frame)[:, 0]
    scale = np.eye(model.ambient_dim) + (factor - 1.0) * np.outer(w, w) / np.dot(w, w)
    report = model_residual_report(model, _with_rotations(path, scale @ path.R))
    assert report.tangency <= 1e-14
    assert report.isometry >= max(0.1 * abs(factor ** 2 - 1.0), 50 * path.grid.h ** 2)


@pytest.mark.parametrize("build", [
    *[lambda name=name: get_model(name) for name in SEVEN_MODELS],
    lambda: _boosted_so_plus_2_2(3.0, 2.1),
    lambda: _boosted_so_plus_2_2(5.0, 3.5),
    lambda: _boosted_so_plus_2_2(7.0, 4.9),
], ids=SEVEN_MODELS + ["boost3.0", "boost5.0", "boost7.0"])
def test_tangent_and_normal_spans_share_their_smallest_j_eigenvalue(build):
    # with orthonormal bases Q of a span and C of its complement, the blocks
    # of the involution [Q C]^T J [Q C] give A^2 + B B^T = I = D^2 + B^T B,
    # so one test of the tangent span covers the normal one
    model = build()
    tangent = _smallest_j_eigenvalue(model.frame0, model.form)
    normal = _smallest_j_eigenvalue(model.normal0, model.form)
    assert abs(tangent - normal) <= 1e-9 * tangent


@pytest.mark.parametrize("name", SEVEN_MODELS)
def test_omega_basis_is_unchanged_by_the_shared_projector(name):
    model = get_model(name)
    P = model.frame0 @ model.cf0
    Q = np.eye(P.shape[0]) - P
    assert np.array_equal(model.omega_basis, -(P @ model.d_rho_p @ P + Q @ model.d_rho_p @ Q))


def _lorentz_line(obar):
    """A CartanModel on R^{1,1}: the boost generator moving obar, identity maps."""
    form = SignatureForm([-1, 1])
    same = lambda x: x  # noqa: E731
    return homogeneous.CartanModel(
        "lorentz_line", np.array([[[0.0, 1.0], [1.0, 0.0]]]), (), (0,), form, form,
        np.asarray(obar, dtype=float), [[1.0]], same, same, lambda g, x: g @ x, same)


@pytest.mark.parametrize("obar", [(1.0, 1.0 + 2.0 ** -52), (1.0, 1.0 + 1e-9)],
                         ids=["eps", "1e-9"])
def test_a_nearly_null_one_dimensional_tangent_frame_is_refused(obar):
    # a 1 x 1 J-Gram of -4.4e-16 or -2.0e-9 has condition number 1.0 as a
    # matrix; the J-Gram of the unit tangent is what shows it null
    with pytest.raises(ValueError, match="^embedded tangent frame Gram matrix is singular under "
                       "the ambient form at node 0"):
        _lorentz_line(obar)


def test_a_spacelike_one_dimensional_tangent_frame_builds():
    model = _lorentz_line((1.0, 2.0))
    assert np.array_equal(model.ip_p, [[-3.0]])


def test_a_tangent_frame_with_a_zero_column_is_refused():
    desc = stiefel.description(4, 2)
    desc["basis"][1] = np.zeros((4, 4)).tolist()
    with pytest.raises(ValueError, match=re.escape(
            "p element 1 fixes the base point (d_e_rho(p_1) obar = 0): it belongs to h")):
        build_model(desc)


def test_a_rank_deficient_tangent_frame_is_refused():
    desc = stiefel.description(4, 2)
    p = desc["p_indices"]
    desc["basis"][p[1]] = (2.0 * np.array(desc["basis"][p[0]])).tolist()
    with pytest.raises(ValueError, match="^embedded tangent frame is rank deficient at node 0"):
        build_model(desc)


def _sphere_model_with_p_indices(p_indices):
    """The sphere built directly as a CartanModel, its p part listed as ``p_indices``."""
    desc = sphere_description()
    return CartanModel(
        name="sphere", basis=np.array(desc["basis"]), h_indices=desc["h_indices"],
        p_indices=p_indices, form=SignatureForm(desc["J_signs"]),
        group_form=SignatureForm(desc["group_signs"]), obar=desc["obar"], d_e_pi=desc["d_e_pi"],
        **EMBEDDING_BUNDLES["riemann_sphere"](desc))


@pytest.mark.parametrize("index", [1.5, 1.0, np.float64(1.0), True],
                         ids=["float", "integral_float", "numpy_float", "bool"])
def test_a_cartan_model_refuses_an_index_it_would_truncate(index):
    with pytest.raises(TypeError, match=f"^p_indices entry must be an integer, got "
                                        f"{re.escape(repr(index))}$"):
        _sphere_model_with_p_indices([index, 2])


def test_a_cartan_model_takes_numpy_integer_indices_as_ints():
    model = _sphere_model_with_p_indices(np.arange(1, 3))
    assert model.p_indices == (1, 2) and all(type(i) is int for i in model.p_indices)


@pytest.mark.parametrize("i", range(3))
@pytest.mark.parametrize("j", range(3))
def test_a_wrong_h_p_split_is_refused_by_the_moved_element(i, j):
    # an h element moved into p fixes obar, so its tangent column is exactly zero
    desc = pseudo_orthogonal.description(1, 2)
    h, p = list(desc["h_indices"]), list(desc["p_indices"])
    h[i], p[j] = p[j], h[i]
    desc.update(h_indices=h, p_indices=p)
    moved = p[j]
    with pytest.raises(ValueError, match=re.escape(
            f"p element {moved} fixes the base point (d_e_rho(p_{moved}) obar = 0): "
            "it belongs to h")):
        build_model(desc)


RANDOM_POINT_MODELS = {
    **{name: lambda name=name: get_model(name) for name in available_models()},
    "so_plus_2_2@base": _moved_so_plus_2_2,
    "stiefel_4_2@rotated": _rotated_stiefel_4_2,
}


def _defining_equation_defect(model, x):
    """Distance of an embedded point x from the model's defining equations."""
    if model.name in ("sphere", "hyperboloid"):
        radius2 = 1.0 if model.name == "sphere" else -1.0
        return abs(np.sum(model.form.signs * x * x) - radius2)
    if model.name.startswith("so_plus_"):
        p, q = (int(size) for size in model.name.split("_")[-2:])
        X = x.reshape(p + q, p + q, order="F")
        ok, residual = is_oriented_isometry(X, SignatureForm([1] * p + [-1] * q), tol=1e-12)
        return residual if ok else np.inf
    n, k = (int(size) for size in model.name.split("_")[-2:])
    A = x.reshape(n, k, order="F")
    return np.max(np.abs(A.T @ A - np.eye(k)))


@pytest.mark.parametrize("name", sorted(RANDOM_POINT_MODELS))
def test_random_points_lie_on_the_manifold(name):
    # random points are the base point moved by random group elements
    model = RANDOM_POINT_MODELS[name]()
    rng = np.random.default_rng(5)
    points = np.array([model.random_point(rng) for _ in range(20)])
    assert max(_defining_equation_defect(model, x) for x in points) <= 1e-12
    assert np.max(np.abs(points - model.obar)) > 0.1
    model.validate()


@pytest.mark.parametrize("name", ["sphere", "hyperboloid", "so_plus_1_2", "so_plus_2_2",
                                  "stiefel_3_1", "stiefel_4_2"])
def test_intrinsic_maps_ride_on_the_extrinsic_rotation_beyond_surfaces(name, monkeypatch):
    model = get_model(name)
    grid = TimeGrid(0.0, 1.0, 120)
    amp = np.linspace(0.5, -0.3, model.p_dim)
    ctrl = ControlCurve.from_function(grid, lambda t: amp * np.sin(t + np.arange(model.p_dim)))
    path = extrinsic_roll(model, ctrl)
    calls = []
    correction = homogeneous._correction_path
    monkeypatch.setattr(homogeneous, "_correction_path",
                        lambda *args: calls.append(args) or correction(*args))
    triple = intrinsic_roll(model, ctrl)
    # one roll, two views: the maps are head applied to the very rotations, in one product
    head = model.d_e_pi @ model.cf0
    assert np.array_equal(triple.maps, head @ path.R)
    assert triple.maps.shape == (grid.n_nodes, model.p_dim, model.ambient_dim)
    assert triple.maps.flags.c_contiguous
    assert np.array_equal(triple.alpha, path.alpha)
    rhos = model.rho_path(horizontal_lift(model, ctrl).samples)
    assert np.array_equal(triple.tangent_frames, model.frames_along(rhos))
    # the correction flow is integrated once per roll on a non-symmetric space
    assert len(calls) == (0 if model.symmetric_space else 1)


DEVELOPMENT_CASES = [("stiefel_4_2", "control"), ("stiefel_5_3", "control"),
                     ("so_plus_2_2", "curve"), ("stiefel_4_2", "curve")]


@pytest.mark.parametrize("name, data", DEVELOPMENT_CASES)
def test_the_intrinsic_development_is_head_of_the_extrinsic_one(name, data, monkeypatch):
    # one development per roll: the intrinsic alpha_hat integrates nothing of its own.
    # A symmetric control is left out: its extrinsic roll develops the differenced alpha'
    model = get_model(name)
    ctrl = ControlCurve.from_function(TimeGrid(0.0, 1.0, 200), _phased(model.p_dim))
    if data == "curve":
        ctrl = EmbeddedCurve(ctrl.grid, extrinsic_roll(model, ctrl).alpha)
    splines, dense = [], homogeneous.dense_from_samples
    monkeypatch.setattr(homogeneous, "dense_from_samples",
                        lambda *args: splines.append(1) or dense(*args))
    path, triple = extrinsic_roll(model, ctrl), intrinsic_roll(model, ctrl)
    assert len(splines) == 2
    head = model.d_e_pi @ model.cf0
    expected = (path.alpha_hat - model.obar) @ head.T
    scale = max(1.0, float(np.max(np.abs(expected))))
    assert np.max(np.abs(triple.alpha_hat - expected)) <= 1e-15 * scale


def test_symmetric_extrinsic_roll_maps_rho_once(monkeypatch):
    model = get_model("sphere")
    grid = TimeGrid(0.0, 1.0, 100)
    ctrl = ControlCurve.from_function(grid, lambda t: np.array([1.0, 0.5 * t]))
    calls = []
    rho_path = CartanModel.rho_path
    monkeypatch.setattr(CartanModel, "rho_path",
                        lambda self, qs: (self is model and calls.append(qs)) or rho_path(self, qs))
    for strategy in ("closed_form", "frame_matching"):
        calls.clear()
        extrinsic_roll(model, ctrl, normal_strategy=strategy)
        assert len(calls) == 1


@pytest.mark.parametrize("name", ["sphere", "so_plus_2_2", "stiefel_4_2"])
def test_residual_report_differentiates_the_rotations_once(name, monkeypatch):
    model = get_model(name)
    path = _sinusoid_roll(model, "closed_form")
    calls = []
    fd = rolling.fd_derivative
    monkeypatch.setattr(rolling, "fd_derivative",
                        lambda samples, h: calls.append(samples is path.R) or fd(samples, h))
    model_residual_report(model, path)
    # one W = Rdot R^-1 serves the slip and both twist residuals
    assert sum(calls) == 1


def test_out_of_range_family_sizes_reach_the_generators_checks():
    with pytest.raises(ValueError, match="signature"):
        get_model("so_plus_-1_3")
    with pytest.raises(ValueError, match="1 <= k < n"):
        get_model("stiefel_-1_2")


@pytest.mark.parametrize("alias, name", [("so_plus_01_2", "so_plus_1_2"),
                                         ("stiefel_04_002", "stiefel_4_2"),
                                         ("so_plus_002_0002", "so_plus_2_2")])
def test_a_family_name_with_leading_zeros_is_the_one_cached_model(alias, name):
    # either name first: the model is built once, under its canonical name
    assert get_model(alias) is get_model(name) is get_model(alias)
    assert get_model(alias).name == name
    assert alias not in models._CACHE


SIZED_GENERATORS = {"stiefel": (stiefel.description, "n", "k"),
                    "so_plus": (pseudo_orthogonal.description, "p", "q")}


@pytest.mark.parametrize("bad", [4.7, 1.9, 3.0, np.float64(4.0), True, "3"],
                         ids=["4.7", "1.9", "3.0", "float64", "bool", "string"])
@pytest.mark.parametrize("family", SIZED_GENERATORS)
def test_generators_refuse_a_size_that_is_not_an_integer(family, bad):
    # int() truncated 4.7 to 4 and 1.9 to 1, and so built stiefel_4_2 and so_plus_1_2
    generator, first, second = SIZED_GENERATORS[family]
    for sizes, name in (((bad, 2), first), ((4, bad), second)):
        message = re.escape(f"{name} must be an integer, got {bad!r}")
        with pytest.raises(TypeError, match=f"^{message}$"):
            generator(*sizes)


def test_generators_take_numpy_integers_and_build_every_registered_name():
    numpy_sized = [stiefel.description(np.int64(4), np.int32(2)),
                   pseudo_orthogonal.description(np.int64(1), np.uint8(2))]
    assert numpy_sized == [stiefel.description(4, 2), pseudo_orthogonal.description(1, 2)]
    json.dumps(numpy_sized)
    for name in {*available_models(), "so_plus_2_2", "so_plus_3_0", "stiefel_5_3"}:
        assert get_model(name).name == name


@pytest.mark.parametrize("roll", [horizontal_lift, extrinsic_roll, intrinsic_roll, kinematic_roll])
def test_every_roll_refuses_a_control_of_another_model_by_one_check(roll):
    model = get_model("so_plus_1_2")
    short = ControlCurve(TimeGrid(0.0, 1.0, 50), np.zeros((51, 2)))
    with pytest.raises(ValueError, match="^control has 2 components, model p-dimension is 3$"):
        roll(model, short)
    with pytest.raises(TypeError, match="^data must be a ControlCurve.*, got ndarray$"):
        roll(model, short.coords)


@pytest.mark.parametrize("name", ["sphere", "hyperboloid", "so_plus_1_2", "stiefel_4_2"])
def test_zero_rotation_fails_closed(name):
    # R = 0 with s = alpha_hat = obar satisfies contact, no-slip and both
    # no-twist conditions; the group residual exposes it at every node, and
    # tangency, whose image columns R(t) q_a vanish, reads NaN
    model = get_model(name)
    grid = TimeGrid(0.0, 1.0, 40)
    ctrl = ControlCurve.from_function(grid, lambda t: 0.4 * np.cos(t + np.arange(model.p_dim)))
    alpha = extrinsic_roll(model, ctrl).alpha
    obar = np.broadcast_to(model.obar, alpha.shape)
    n = model.ambient_dim
    path = RollingMapPath(grid=grid, R=np.zeros((grid.n_nodes, n, n)), s=obar,
                          alpha=alpha, alpha_hat=obar, form=model.form)
    twist = no_twist_residuals(path, model.flat_tangent_frames(grid),
                               model.flat_normal_frames(grid))
    for residual in (rolling_point_residual(path), no_slip_residual(path)) + twist:
        assert np.max(residual) <= 1e-12
    report = model_residual_report(model, path)
    assert np.array_equal(report.per_node["isometry"], np.ones(grid.n_nodes))
    assert np.all(np.isnan(report.per_node["tangency"]))
    assert not report.passed(np.inf)


def _sinusoid_roll(model, normal_strategy):
    grid = TimeGrid(0.0, 1.0, 80)
    ctrl = ControlCurve.from_function(grid, lambda t: 0.5 * np.sin(t + np.arange(model.p_dim)))
    return extrinsic_roll(model, ctrl, normal_strategy=normal_strategy)


@pytest.mark.parametrize("name", ["sphere", "hyperboloid", "so_plus_1_2", "stiefel_4_2"])
def test_closed_form_is_the_default_and_auto_is_refused(name):
    model = get_model(name)
    grid = TimeGrid(0.0, 1.0, 80)
    ctrl = ControlCurve.from_function(grid, lambda t: 0.5 * np.sin(t + np.arange(model.p_dim)))
    default = extrinsic_roll(model, ctrl)
    closed = _sinusoid_roll(model, "closed_form")
    for field in ("R", "s", "alpha", "alpha_hat"):
        assert np.array_equal(getattr(default, field), getattr(closed, field))
    with pytest.raises(ValueError, match="unknown normal strategy 'auto'; use 'closed_form' or "
                                         "'frame_matching'"):
        _sinusoid_roll(model, "auto")


def _phased_rng5_control(model, n_steps):
    amp = 0.4 * np.random.default_rng(5).standard_normal(model.p_dim)
    return ControlCurve.from_function(TimeGrid(0.0, 1.0, n_steps),
                                      lambda t: amp * np.sin(t + np.arange(model.p_dim)))


@pytest.mark.parametrize("name", ["stiefel_4_2", "stiefel_5_2", "stiefel_5_3"])
def test_frame_matching_rolls_non_symmetric_stiefel_manifolds(name):
    # the two routes are independent: the closed form integrates the derived
    # omega_basis flow, frame matching transports the normal frame; their
    # gap is the transport's truncation error (7e-10 on V_2(R^4), 2e-9 on
    # V_3(R^5) at 250 steps) and falls at about 8x per halving
    model = get_model(name)
    assert not model.symmetric_space
    gaps = []
    for n_steps in (250, 500):
        ctrl = _phased_rng5_control(model, n_steps)
        path = extrinsic_roll(model, ctrl, normal_strategy="frame_matching")
        assert model_residual_report(model, path).passed(50 * path.grid.h ** 2)
        gaps.append(np.max(np.abs(path.R - extrinsic_roll(model, ctrl).R)))
    assert gaps[0] <= 3e-9
    assert gaps[1] <= gaps[0] / 6


@pytest.mark.parametrize("name", ["sphere", "hyperboloid", "so_plus_1_2", "so_plus_2_2",
                                  "stiefel_3_1"])
def test_kinematic_equations_match_the_lift_based_engine(name):
    # qbar' = qbar Ubar with the default Ubar = sum_i c_i d_e_rho(p_i) against
    # the lift q' = q U: 7e-11 at most at 250 steps, fourth order in R and
    # alpha; s and alpha_hat differ by the engine's differenced velocity
    model = get_model(name)
    gaps = {}
    for n_steps in (250, 500):
        ctrl = _phased_rng5_control(model, n_steps)
        direct, engine = kinematic_roll(model, ctrl), extrinsic_roll(model, ctrl)
        gaps[n_steps] = [np.max(np.abs(getattr(direct, field) - getattr(engine, field)))
                         for field in ("R", "alpha", "s", "alpha_hat")]
    for coarse, fine in zip(gaps[250], gaps[500]):
        assert coarse <= 1e-10
        assert coarse <= 1e-13 or fine <= coarse / 10


def test_kinematic_equations_refuse_what_they_cannot_roll():
    model = get_model("stiefel_4_2")
    with pytest.raises(ValueError, match="model stiefel_4_2 is not one"):
        kinematic_roll(model, _phased_rng5_control(model, 50))
    with pytest.raises(ValueError, match="control has 5 components, model p-dimension is 3"):
        kinematic_roll(get_model("so_plus_1_2"), _phased_rng5_control(model, 50))


def test_frame_matching_rolls_the_sphere_as_v_1_r3():
    # V_1(R^3) = S^2 is symmetric, so the normal frame can be transported and matched
    model = get_model("stiefel_3_1")
    grid = TimeGrid(0.0, 1.0, 250)
    ctrl = ControlCurve.from_function(grid, lambda t: 0.5 * np.sin(t + np.arange(model.p_dim)))
    path = extrinsic_roll(model, ctrl, normal_strategy="frame_matching")
    assert model_residual_report(model, path).passed(50 * grid.h**2)


# symmetric_space by model: every name of available_models() and its data/ fixture;
# V_1(R^3) = S^2 is symmetric, V_2(R^4) is not
SYMMETRIC_SPACE = {"hyperboloid": True, "so_plus_1_2": True, "sphere": True,
                   "stiefel_3_1": True, "stiefel_4_2": False}


def test_symmetric_space_is_where_the_derived_correction_vanishes():
    assert {name: get_model(name).symmetric_space
            for name in available_models()} == SYMMETRIC_SPACE
    data_dir = Path(stiefel.__file__).parent / "data"
    fixtures = sorted(data_dir.glob("*.json"))
    assert fixtures
    for path in fixtures:
        assert get_model(path).symmetric_space == SYMMETRIC_SPACE[path.stem], path.stem
    # a strong boost makes the tangent projector's entries large (~370) but
    # leaves so(2,2) symmetric
    from scipy.linalg import expm

    X = np.zeros((4, 4))
    X[0, 2] = X[2, 0] = 4.0
    X[1, 3] = X[3, 1] = 2.8
    boosted = build_model(pseudo_orthogonal.description(2, 2, expm(X)))
    assert np.max(np.abs(boosted.frame0 @ boosted.cf0)) > 300.0
    assert boosted.symmetric_space


def test_get_model_accepts_path_objects(tmp_path):
    shipped = Path(stiefel.__file__).parent / "data" / "sphere.json"
    model = get_model(shipped)
    assert model.name == "sphere" and model is not get_model("sphere")
    assert np.array_equal(model.frame0, get_model("sphere").frame0)
    # the Path route validates as the string route does
    desc = sphere_description()
    desc["basis"][1][0][1] += 0.25
    bad = tmp_path / "sphere_bad.json"
    bad.write_text(json.dumps(desc))
    with pytest.raises(ValueError, match="brackets leave the algebra span"):
        get_model(bad)


@pytest.mark.parametrize("name", [5, True, None, ["sphere"]],
                         ids=["int", "bool", "none", "list"])
def test_a_name_neither_string_nor_path_is_an_unknown_model(name):
    with pytest.raises(KeyError, match="unknown model"):
        get_model(name)


@pytest.mark.parametrize("name", sorted({*available_models(), "so_plus_2_2"}))
def test_normal0_is_scipys_null_space(name):
    from scipy.linalg import null_space

    model = get_model(name)
    reference = null_space(model.frame0.T * model.form.signs[None, :])
    assert model.normal0.shape == reference.shape
    assert np.max(np.abs(model.normal0 - reference), initial=0.0) <= 1e-14


@pytest.mark.parametrize("n_steps", [1, 2, 3, 40, 2000])
def test_interpolated_control_is_evaluated_in_one_call(n_steps):
    grid = TimeGrid(0.0, 1.3, n_steps)
    control = ControlCurve(grid=grid, coords=np.stack([np.sin(3 * grid.ts), grid.ts ** 2], axis=1))
    one_call = control.at(grid.stage_ts)
    per_t = np.array([control.func(t) for t in grid.stage_ts])
    assert one_call.shape == (2 * n_steps + 1, 2)
    assert np.max(np.abs(one_call - per_t)) <= 1e-15


@pytest.mark.parametrize("name", sorted({*available_models(), "so_plus_2_2"}))
def test_residual_report_factors_no_development_frame(name, monkeypatch):
    model = get_model(name)
    path = _sinusoid_roll(model, "closed_form")
    span_factors, check_rank, development = rolling._span_factors, rolling._check_rank, []

    def recording(label, call):
        def recorded(a, *args):
            if any(a.shape[1:] == frame.shape and np.array_equal(a, np.broadcast_to(frame, a.shape))
                   for frame in (model.frame0, model.normal0)):
                development.append((label, a.shape[0]))
            return call(a, *args)
        return recorded

    monkeypatch.setattr(rolling, "_span_factors", recording("span", span_factors))
    monkeypatch.setattr(rolling, "_check_rank", recording("rank", check_rank))
    # the model factored its flat frames when it was built: a report and a twist
    # injection on them factor neither
    report = model_residual_report(model, path)
    again = model_residual_report(model, path)
    perturb_normal_generator(path, np.zeros((model.ambient_dim,) * 2),
                             model.flat_tangent_frames(path.grid),
                             model.flat_normal_frames(path.grid))
    assert development == []
    assert report.max_residual() <= 50 * path.grid.h ** 2
    for field, values in report.per_node.items():
        assert np.array_equal(again.per_node[field], values), field
    # the count sees a copy of the flat frames, which carries no factors: the
    # report factors its normal frame once, for tangency and the normal no-twist check
    grid = path.grid
    copies = [TangentFramePath(grid.ts, flat.frames)
              for flat in (model.flat_tangent_frames(grid), model.flat_normal_frames(grid))]
    copied = rolling_condition_residuals(path, model.pointwise_tangent_frames(grid, path.alpha),
                                         *copies)
    assert development == [("span", 1), ("rank", 1)] * 2
    for field, values in report.per_node.items():
        assert np.array_equal(copied.per_node[field], values), field


@pytest.mark.parametrize("name", ["sphere", "hyperboloid", "so_plus_1_2", "so_plus_2_2",
                                  "stiefel_3_1", "stiefel_4_2"])
def test_residual_report_takes_no_lu_inverse_and_no_frame_copies(name, monkeypatch):
    model = get_model(name)
    path = _sinusoid_roll(model, "closed_form")
    inv, calls = np.linalg.inv, []

    def counted(a):
        calls.append(sys._getframe(1).f_globals["__name__"])
        return inv(a)

    monkeypatch.setattr(np.linalg, "inv", counted)
    report = model_residual_report(model, path)
    # the triangular factors are inverted by substitution
    assert "semiroll.rolling" not in calls
    assert report.max_residual() <= 50 * path.grid.h ** 2
    # the development frames are read-only broadcasts of the base-point frames
    for stack in (model.flat_tangent_frames(path.grid), model.flat_normal_frames(path.grid)):
        assert stack.frames.strides[0] == 0
        assert not stack.frames.flags.writeable


@pytest.mark.parametrize("func, message", [
    (lambda t: np.array([np.sin(t), t, 1.0]), r"shape \(3,\), expected \(2,\)"),
    (lambda t: np.sin(t), r"shape \(\), expected \(2,\)"),
    (lambda t: np.ones((2, 1)), r"shape \(2, 1\), expected \(2,\)"),
    (lambda t: np.ones(2 if t < 0.5 else 3), "unequal shape"),
], ids=["long", "scalar", "matrix", "ragged"])
def test_control_rows_of_the_wrong_length_are_refused(func, message):
    grid = TimeGrid(0.0, 1.0, 10)
    control = ControlCurve(grid=grid, coords=np.zeros((grid.n_nodes, 2)), func=func)
    with pytest.raises(ValueError, match=f"^control func returned rows of {message}"):
        control.stage_coords()


def test_a_refused_control_func_is_refused_again():
    grid = TimeGrid(0.0, 1.0, 10)
    control = ControlCurve(grid=grid, coords=np.zeros((grid.n_nodes, 2)),
                           func=lambda t: np.ones(2 if t < 0.5 else 3))
    for _ in range(2):
        with pytest.raises(ValueError, match="^control func returned rows of unequal shape"):
            control.stage_coords()


@pytest.mark.parametrize("make, message", [
    (lambda grid: ControlCurve(grid=grid, coords=np.zeros((grid.n_nodes, 2)) + 0.5j),
     "control coords"),
    (lambda grid: ControlCurve(grid=grid, coords=np.zeros((grid.n_nodes, 2)),
                               func=lambda t: np.array([1.0 + 0.5j, 0.2])).stage_coords(),
     "control func rows"),
    (lambda grid: ControlCurve.from_function(grid, lambda t: np.array([1.0 + 0.5j, 0.2])),
     "control func rows"),
], ids=["coords", "func", "from_function"])
def test_a_complex_control_is_refused_not_cast(make, message):
    # a float cast would roll the real part with only a ComplexWarning, which
    # the test suite's warning filter would turn into the failure, so warnings
    # are at the runtime default here
    with warnings.catch_warnings():
        warnings.simplefilter("default")
        with pytest.raises(ValueError, match=f"^{message} must be real, got a complex array"):
            make(TimeGrid(0.0, 1.0, 10))


def test_a_complex_basis_is_refused_not_cast():
    # the sphere on its basis cast to complex built with only a ComplexWarning, its
    # d_e_rho dropping the imaginary part; warnings are at the runtime default here
    model = get_model("sphere")
    parts = dict(name="sphere", h_indices=model.h_indices, p_indices=model.p_indices,
                 form=model.form, group_form=model.group_form, obar=model.obar,
                 d_e_pi=model.d_e_pi, rho=model.rho, d_e_rho=model.d_e_rho,
                 constraint=model.constraint, tangent_frame_at=model.tangent_frame_at)
    assert CartanModel(basis=model.basis.tolist(), **parts).basis.dtype == float
    with warnings.catch_warnings():
        warnings.simplefilter("default")
        with pytest.raises(ValueError, match="^basis must be real, got a complex array$"):
            CartanModel(basis=model.basis.astype(complex), **parts)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_a_non_finite_midpoint_reading_is_refused_by_its_t(bad):
    grid = TimeGrid(0.0, 1.0, 10)
    control = ControlCurve(grid=grid, coords=np.zeros((grid.n_nodes, 2)),
                           func=lambda t: np.array([0.1, bad if t > 0.6 else 0.2]))
    # the first midpoint past 0.6 is 0.65; nothing is kept, so the second call reads again
    for _ in range(2):
        with pytest.raises(ValueError, match=r"^control func is NaN or inf at t=0\.65$"):
            control.stage_coords()
    # a node value is refused where the control is built, before the default
    # spline or a flow reads it, by its t: the first bad node is 0.7
    coords = np.full((grid.n_nodes, 2), 0.2)
    coords[7, 1] = coords[9, 0] = -bad
    for make in (lambda: ControlCurve(grid=grid, coords=coords),
                 lambda: ControlCurve(grid=grid, coords=coords, func=lambda t: np.ones(2)),
                 lambda: ControlCurve.from_function(grid, lambda t: coords[round(10 * t)])):
        with pytest.raises(ValueError, match=r"^control coords are NaN or inf at t=0\.7$"):
            make()


def test_a_ragged_control_func_is_named_by_from_function():
    # ``at`` reads a func through the same reader: the "ragged" case above
    with pytest.raises(ValueError, match="^control func returned rows of unequal shape"):
        ControlCurve.from_function(TimeGrid(0.0, 1.0, 10), lambda t: np.ones(2 if t < 0.5 else 3))


@pytest.mark.parametrize("n_steps", [125, 250])
def test_the_latitude_rolls_and_verifies_on_coarse_grids(n_steps):
    # criterion 11's latitude lies exactly on the sphere; the sample lift
    # refused 250 steps on [0, 2 pi] for drifting 1e-8 from it
    from semiroll.models.sphere import chart_lift_matrix, embed_sphere
    grid = TimeGrid(0.0, 2 * np.pi, n_steps)
    z = np.tan(0.5) * np.exp(1j * grid.ts)
    assert _passes(get_model("sphere"), EmbeddedCurve(grid, embed_sphere(z)),
                   q0=chart_lift_matrix(z[0]))


def _rng5_control(model, n_steps, amplitude=0.4):
    rng = np.random.default_rng(5)
    freq = rng.uniform(0.5, 2.0, model.p_dim)
    phase = rng.uniform(0.0, 2 * np.pi, model.p_dim)
    return ControlCurve.from_function(TimeGrid(0.0, 1.0, n_steps),
                                      lambda t: amplitude * np.sin(freq * t + phase))


@pytest.mark.parametrize("n_steps", [250, 251, 253, 254, 1001])
@pytest.mark.parametrize("name", ["so_plus_1_2", "so_plus_2_2"])
def test_frame_matching_rolls_at_step_counts_off_the_multiples_of_4(name, n_steps):
    # the transport flow takes every step count alike
    model = get_model(name)
    path = extrinsic_roll(model, _rng5_control(model, n_steps), normal_strategy="frame_matching")
    assert model_residual_report(model, path).max_residual() <= 50 * path.grid.h ** 2


@pytest.mark.parametrize("name", ["sphere", "hyperboloid", "so_plus_1_2", "so_plus_2_2",
                                  "stiefel_3_1", "stiefel_4_2", "stiefel_5_3"])
def test_frame_matching_agrees_with_the_closed_form_at_fourth_order(name):
    model = get_model(name)
    errors = []
    for n_steps in (250, 500):
        ctrl = _rng5_control(model, n_steps)
        closed = extrinsic_roll(model, ctrl)
        matched = extrinsic_roll(model, ctrl, normal_strategy="frame_matching")
        errors.append(float(np.max(np.abs(matched.R - closed.R))))
    assert errors[1] <= 1e-13 or errors[0] >= 12.0 * errors[1], errors


def _rng5_control_from_q0(name):
    model = get_model(name)
    q0 = model.random_group_element(np.random.default_rng(3))
    return lambda n_steps: (_rng5_control(model, n_steps), q0)


# so_plus_2_2's seed-3 q0 is boosted, max |rho(q0)| = 13, and the sphere's is the real
# form of an SU(2) matrix
@pytest.mark.parametrize("name, inputs, steps", [
    (name, _rng5_control_from_q0(name), (250, 500))
    for name in ("sphere", "so_plus_1_2", "so_plus_2_2", "stiefel_4_2")
], ids=["sphere", "so_plus_1_2", "so_plus_2_2", "stiefel_4_2"])
def test_frame_matching_starts_at_the_lift_start(name, inputs, steps):
    # R(0) = rho(q0)^-1 as for the closed form, so tangency holds at node 0
    # and the two rotations agree at fourth order from any q0
    model = get_model(name)
    errors = []
    for n_steps in steps:
        data, q0 = inputs(n_steps)
        closed = extrinsic_roll(model, data, q0=q0)
        matched = extrinsic_roll(model, data, q0=q0, normal_strategy="frame_matching")
        assert np.allclose(matched.R[0], closed.R[0], rtol=0.0, atol=1e-12)
        assert model_residual_report(model, matched).passed(50 * matched.grid.h ** 2)
        errors.append(float(np.max(np.abs(matched.R - closed.R))))
    assert errors[1] <= 1e-13 or errors[0] >= 12.0 * errors[1], errors


@pytest.mark.parametrize("name", ["sphere", "hyperboloid", "so_plus_1_2", "so_plus_2_2",
                                  "stiefel_3_1", "stiefel_4_2", "stiefel_5_3"])
def test_sampled_rolls_agree_with_the_control_roll_at_fourth_order(name):
    # the alpha of a control roll, rolled as a sampled curve by transport, in
    # both modes, from the identity and from a seed-3 q0: rotations, maps and
    # developments converge to the control's closed-form roll
    model = get_model(name)
    for q0 in (None, model.random_group_element(np.random.default_rng(3))):
        errors = []
        for n_steps in (250, 500):
            ctrl = _rng5_control(model, n_steps)
            closed, triple = extrinsic_roll(model, ctrl, q0=q0), intrinsic_roll(model, ctrl, q0=q0)
            curve = EmbeddedCurve(ctrl.grid, closed.alpha)
            path, sampled = extrinsic_roll(model, curve, q0=q0), intrinsic_roll(model, curve, q0=q0)
            assert np.array_equal(path.alpha, closed.alpha)
            errors.append([float(np.max(np.abs(new - old))) for new, old in (
                (path.R, closed.R), (path.alpha_hat, closed.alpha_hat),
                (sampled.maps, triple.maps), (sampled.alpha_hat, triple.alpha_hat))])
        for coarse, fine in zip(*errors):
            assert fine <= 1e-13 or coarse >= 12.0 * fine, (q0 is None, errors)


# inputs whose normal frames the earlier step-and-project transport left
# non-isometric to the development's (a refusal at every step count shown,
# and a residual of 1.08 tol at so_plus_1_2's 2000 steps)
@pytest.mark.parametrize("name, amplitude, n_steps", [
    *(("so_plus_1_2", 2.0, n) for n in (125, 250, 500, 1000, 2000)),
    *(("so_plus_2_2", 1.2, n) for n in (125, 250, 500)),
    ("so_plus_2_2", 0.4, 40), ("so_plus_2_2", 0.4, 60),
    ("stiefel_5_3", 2.0, 125), ("stiefel_5_3", 2.0, 250), ("stiefel_4_2", 2.0, 125),
])
def test_frame_matching_rolls_where_the_normal_gram_check_refused(name, amplitude, n_steps):
    model = get_model(name)
    path = extrinsic_roll(model, _rng5_control(model, n_steps, amplitude),
                          normal_strategy="frame_matching")
    assert model_residual_report(model, path).passed(50 * path.grid.h ** 2)


@pytest.mark.parametrize("name", ["sphere", "hyperboloid", "so_plus_1_2", "so_plus_2_2",
                                  "stiefel_3_1", "stiefel_4_2"])
def test_a_sampled_curve_rolls_by_the_frame_matching_rule(name):
    # one transport rule: along the alpha of a frame-matching roll, the sampled
    # roll's pointwise frames span the lift's, so the rotations agree to
    # rounding, amplified by the pull-back through rho(q0) (so_plus_2_2's
    # boosted q0 has |R| = 17 and condition number |R|^2)
    model = get_model(name)
    ctrl = _rng5_control(model, 250)
    q0 = model.random_group_element(np.random.default_rng(3))
    matched = extrinsic_roll(model, ctrl, q0=q0, normal_strategy="frame_matching")
    sampled = extrinsic_roll(model, EmbeddedCurve(ctrl.grid, matched.alpha), q0=q0)
    assert np.max(np.abs(sampled.R - matched.R)) <= 1e-13 * np.max(np.abs(matched.R)) ** 2


@pytest.mark.parametrize("name", ["sphere", "hyperboloid", "so_plus_1_2", "so_plus_2_2"])
def test_frame_matching_transports_the_normal_frame_in_one_call(name, monkeypatch):
    model = get_model(name)
    flow, span_factors, calls = homogeneous._transport_flow, rolling._span_factors, []
    monkeypatch.setattr(homogeneous, "_transport_flow",
                        lambda *args, **kw: calls.append("transport") or flow(*args, **kw))
    monkeypatch.setattr(rolling, "_span_factors",
                        lambda *args: calls.append("projectors") or span_factors(*args))
    extrinsic_roll(model, _rng5_control(model, 250), normal_strategy="frame_matching")
    # one flow carries the whole ambient frame, tangent and normal, from one projector stack
    assert calls == ["transport", "projectors"]


@pytest.mark.parametrize("name", ["sphere", "so_plus_2_2", "stiefel_4_2"])
def test_intrinsic_roll_forms_the_moving_frames_once(name, monkeypatch):
    model = get_model(name)
    ctrl = ControlCurve.from_function(TimeGrid(0.0, 1.0, 40), _phased(model.p_dim))
    frames_along, calls = CartanModel.frames_along, []
    monkeypatch.setattr(CartanModel, "frames_along",
                        lambda self, rhos: (self is model and calls.append(1)) or
                        frames_along(self, rhos))
    triple = intrinsic_roll(model, ctrl)
    assert len(calls) == 1
    lift = horizontal_lift(model, ctrl)
    assert np.array_equal(triple.tangent_frames, frames_along(model, model.rho_path(lift.samples)))


# Intrinsic rolls of a_j sin(t + j), a ~ N(0, 1) from rng seeds 0-4, 400 steps on
# [0, 3].  so_plus_1_2 seed 3 and so_plus_2_2 seeds 2-4 are boosts of norm
# 100-600, whose lift nodes round above an absolute 1e-12.
ORIENTATION_CASES = [(name, seed)
                     for name in ("sphere", "hyperboloid", "so_plus_1_2", "so_plus_2_2",
                                  "stiefel_3_1", "stiefel_4_2")
                     for seed in range(5)]


@pytest.mark.parametrize("name, seed", ORIENTATION_CASES)
def test_orientation_flips_on_pointwise_frames(name, seed):
    # null-space frames carry node-to-node signs of their own: with the sphere's,
    # four of these seeds read one flip before the frame orientation was propagated
    model = get_model(name)
    grid = TimeGrid(0.0, 3.0, 400)
    a = np.random.default_rng(seed).standard_normal(model.p_dim)
    j = np.arange(model.p_dim)
    triple = intrinsic_roll(model, ControlCurve.from_function(grid, lambda t: a * np.sin(t + j)))
    frames = model.pointwise_tangent_frames(grid, triple.alpha).frames

    def flips(maps):
        return rolling.triple_orientation_flips(rolling.RollingTriple(
            grid=grid, alpha=triple.alpha, alpha_hat=triple.alpha_hat, maps=maps,
            tangent_frames=frames, form=triple.form, target_gram=triple.target_gram))

    assert rolling.triple_orientation_flips(triple) == 0
    assert flips(triple.maps) == 0
    reflected = triple.maps.copy()
    reflected[grid.n_nodes // 2:, 0, :] *= -1.0
    assert flips(reflected) == 1
