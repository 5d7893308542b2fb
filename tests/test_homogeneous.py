"""Lifting, developing, transporting, and rolling through the group machinery.

The sphere and hyperboloid models double as fixtures here; anything
model-specific beyond construction lives in the per-model test files.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from semiroll.homogeneous import (
    ControlCurve,
    EmbeddedCurve,
    TimeGrid,
    extrinsic_roll,
    horizontal_lift,
    horizontality_residual,
    intrinsic_roll,
    model_residual_report,
    normal_extension_by_frames,
    transport_homogeneous,
)
from semiroll.models import (
    available_models,
    build_model,
    get_model,
    pseudo_orthogonal,
    stiefel,
)
from semiroll import homogeneous, rolling
from semiroll.linalg import (
    SignatureForm,
    is_oriented_isometry,
    j_transpose_inverse,
    random_oriented_isometry,
)
from semiroll.models.sphere import description as sphere_description
from semiroll.rolling import (
    RollingMapPath,
    no_slip_residual,
    no_twist_residuals,
    parallel_transport_embedded,
    rolling_point_residual,
    triple_gram_residual,
    triple_velocity_residual,
)


def _wobble(t):
    return np.array([np.sin(t), 0.4 * np.cos(2 * t)])


def _phased(p_dim):
    return lambda t: 0.5 * np.sin(t + np.arange(p_dim))


# one model of each bundle, with a control of its p-dimension
BUNDLE_CONTROLS = {"sphere": _wobble, "hyperboloid": _wobble, "so_plus_1_2": _phased(3),
                   "stiefel_4_2": _phased(5)}


def _embedded(model, lift):
    return np.array([model.embed(model.action(g, model.base_point)) for g in lift.samples])


@pytest.fixture(scope="module", params=["sphere", "hyperboloid"])
def surface(request):
    return get_model(request.param)


def test_control_lift_is_horizontal(surface):
    grid = TimeGrid(0.0, 1.5, 300)
    lift = horizontal_lift(surface, ControlCurve.from_function(grid, _wobble))
    assert np.max(horizontality_residual(surface, lift)) <= 1e-8
    assert lift.control is not None


@pytest.mark.parametrize("name, grid, control", [
    ("sphere", TimeGrid(0.0, 1.5, 300), _wobble),
    ("hyperboloid", TimeGrid(0.0, 1.5, 300), _wobble),
    ("so_plus_1_2", TimeGrid(0.0, 1.0, 200), _phased(3)),
    ("stiefel_3_1", TimeGrid(0.0, 1.0, 200), _phased(2)),
], ids=["sphere", "hyperboloid", "so_plus_1_2", "stiefel_3_1"])
def test_sample_lift_recovers_control(name, grid, control):
    model = get_model(name)
    ctrl = ControlCurve.from_function(grid, control)
    lift = horizontal_lift(model, ctrl)
    relift = horizontal_lift(model, EmbeddedCurve(grid, _embedded(model, lift)))
    assert np.max(np.abs(relift.samples - lift.samples)) <= 1e-7
    assert np.max(np.abs(relift.control.coords - ctrl.coords)) <= 1e-7


def test_lift_rejects_curve_leaving_the_manifold(surface):
    grid = TimeGrid(0.0, 1.0, 100)
    lift = horizontal_lift(surface, ControlCurve.from_function(grid, _wobble))
    points = _embedded(surface, lift)
    points[30:] *= 1.02
    with pytest.raises(ValueError, match="not tangent|drifted from the curve"):
        horizontal_lift(surface, EmbeddedCurve(grid, points))


@pytest.mark.parametrize("name", BUNDLE_CONTROLS)
def test_transvection_lift_rejects_a_smooth_normal_drift(name):
    # the transvections carry only the tangential part of the velocity, so
    # the lift of a curve drifting off the manifold is caught by the fit
    model = get_model(name)
    grid = TimeGrid(0.0, 1.0, 100)
    lift = horizontal_lift(model, ControlCurve.from_function(grid, BUNDLE_CONTROLS[name]))
    points = _embedded(model, lift) * (1.0 + 0.05 * grid.ts)[:, None]
    with pytest.raises(ValueError, match="not tangent"):
        horizontal_lift(model, EmbeddedCurve(grid, points))


def test_coarse_grid_refusal_names_the_step_count():
    # a curve exactly on the manifold, on a grid too coarse for the
    # finite-difference velocity: the fit defect falls 16x per halving of h
    model = get_model("so_plus_2_2")
    i = np.arange(1, model.p_dim + 1)

    def points(n_steps):
        grid = TimeGrid(0.0, 1.0, n_steps)
        ctrl = ControlCurve.from_function(grid, lambda t: 0.4 * np.sin(i * t + 0.3))
        return EmbeddedCurve(grid, _embedded(model, horizontal_lift(model, ctrl)))

    with pytest.raises(ValueError, match="not tangent.*refine n_steps"):
        horizontal_lift(model, points(200))
    horizontal_lift(model, points(400))


@pytest.mark.parametrize("name", BUNDLE_CONTROLS)
def test_validate_refuses_a_transvection_off_the_horizontal_generator(name):
    model = build_model(get_model(name).description)
    honest = model.transvection
    model.validate()
    model.transvection = lambda alpha, v: -honest(alpha, v)
    with pytest.raises(ValueError, match="transvection is not the horizontal generator"):
        model.validate()


def test_lift_rejects_mismatched_start(surface):
    grid = TimeGrid(0.0, 1.0, 100)
    lift = horizontal_lift(surface, ControlCurve.from_function(grid, _wobble))
    points = _embedded(surface, lift)
    q_far = surface.random_group_element(np.random.default_rng(3))
    with pytest.raises(ValueError, match="does not start at the projection"):
        horizontal_lift(surface, EmbeddedCurve(grid, points), q0=q_far)


def test_transport_agrees_with_projection_scheme(surface):
    grid = TimeGrid(0.0, 1.5, 300)
    lift = horizontal_lift(surface, ControlCurve.from_function(grid, _wobble))
    points = _embedded(surface, lift)
    field = transport_homogeneous(surface, lift, np.array([0.3, -0.7]))
    frames = surface.pointwise_tangent_frames(grid, points)
    reference = parallel_transport_embedded(points, frames.frames, field[0], surface.form)
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


def test_normal_extension_requires_isometric_frames():
    m = get_model("sphere")
    nodes = 11
    ops = np.broadcast_to(np.eye(2, 3), (nodes, 2, 3)).copy()
    tangent = np.broadcast_to(np.eye(3)[:, :2], (nodes, 3, 2)).copy()
    normal = np.broadcast_to(np.eye(3)[:, 2:], (nodes, 3, 1)).copy()
    with pytest.raises(ValueError, match="Gram mismatch"):
        normal_extension_by_frames(ops, tangent, normal, 2.0 * normal, m.form)


def test_validate_catches_tampered_subalgebra_split():
    desc = sphere_description()
    desc["h_indices"] = [1]
    desc["p_indices"] = [0, 2]
    with pytest.raises(ValueError):
        build_model(desc, validate=True)


def test_model_file_with_corrupted_basis_is_rejected(tmp_path):
    desc = sphere_description()
    desc["basis"][1][0][1][0] += 0.25  # real part of A2[0, 1]
    path = tmp_path / "sphere_bad.json"
    path.write_text(json.dumps(desc))
    with pytest.raises(ValueError, match="brackets leave the algebra span"):
        get_model(str(path))


def test_validate_passes_for_shipped_models(surface):
    surface.validate(rng=np.random.default_rng(0))


def _rotated_stiefel_4_2():
    c, s = np.cos(0.7), np.sin(0.7)
    desc = stiefel.description(4, 2)
    desc["base_point"] = (np.eye(4, 2) @ np.array([[c, -s], [s, c]])).tolist()
    return build_model(desc)


def _moved_so_plus_2_2():
    form = SignatureForm([1, 1, -1, -1])
    base = random_oriented_isometry(form, np.random.default_rng(11), scale=0.5)
    return build_model(pseudo_orthogonal.description(2, 2, base))


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
        p, q = model.params["p"], model.params["q"]
        X = x.reshape(p + q, p + q, order="F")
        ok, residual = is_oriented_isometry(X, SignatureForm([1] * p + [-1] * q), tol=1e-12)
        return residual if ok else np.inf
    n, k = model.params["n"], model.params["k"]
    A = x.reshape(n, k, order="F")
    return np.max(np.abs(A.T @ A - np.eye(k)))


@pytest.mark.parametrize("name", sorted(RANDOM_POINT_MODELS))
def test_random_points_lie_on_the_manifold(name):
    # random points are the base point moved by random group elements
    model = RANDOM_POINT_MODELS[name]()
    rng = np.random.default_rng(5)
    points = np.array([np.asarray(model.embed(model.random_point(rng)), dtype=float).ravel()
                       for _ in range(20)])
    assert max(_defining_equation_defect(model, x) for x in points) <= 1e-12
    assert np.max(np.abs(points - model.obar)) > 0.1
    model.validate()


@pytest.mark.parametrize("name", ["so_plus_1_2", "stiefel_3_1", "stiefel_4_2"])
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
    head = model.d_e_pi @ model.cf0
    assert np.max(np.abs(triple.maps - np.einsum("ai,kij->kaj", head, path.R))) <= 1e-12
    # the correction flow is integrated once per roll on a non-symmetric space
    assert len(calls) == (0 if model.symmetric_space else 1)


def test_symmetric_extrinsic_roll_maps_rho_once(monkeypatch):
    model = get_model("sphere")
    grid = TimeGrid(0.0, 1.0, 100)
    ctrl = ControlCurve.from_function(grid, lambda t: np.array([1.0, 0.5 * t]))
    calls = []
    rho_path = model.rho_path
    monkeypatch.setattr(model, "rho_path", lambda qs: calls.append(qs) or rho_path(qs))
    for strategy in ("closed_form", "frame_matching"):
        calls.clear()
        extrinsic_roll(model, ctrl, normal_strategy=strategy)
        assert len(calls) == 1


@pytest.mark.parametrize("name", ["sphere", "so_plus_2_2", "stiefel_4_2"])
def test_residual_report_differentiates_the_rotations_once(name, monkeypatch):
    model = get_model(name)
    path = _sinusoid_roll(model, "auto")
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


@pytest.mark.parametrize("name", ["sphere", "hyperboloid", "so_plus_1_2", "stiefel_4_2"])
def test_zero_rotation_fails_closed(name):
    # R = 0 with s = alpha_hat = obar satisfies contact, no-slip and both
    # no-twist conditions; only the rank of R(t) F_M(t) exposes it
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
    with pytest.raises(ValueError, match="rank deficient at node 0"):
        model_residual_report(model, path)


def _sinusoid_roll(model, normal_strategy):
    grid = TimeGrid(0.0, 1.0, 80)
    ctrl = ControlCurve.from_function(grid, lambda t: 0.5 * np.sin(t + np.arange(model.p_dim)))
    return extrinsic_roll(model, ctrl, normal_strategy=normal_strategy)


@pytest.mark.parametrize("name", ["sphere", "hyperboloid", "so_plus_1_2"])
def test_closed_form_strategy_is_the_auto_choice(name):
    model = get_model(name)
    assert model.symmetric_space
    auto = _sinusoid_roll(model, "auto")
    closed = _sinusoid_roll(model, "closed_form")
    for field in ("R", "s", "alpha", "alpha_hat"):
        assert np.array_equal(getattr(auto, field), getattr(closed, field))


def test_stiefel_refuses_frame_matching():
    model = get_model("stiefel_4_2")
    assert not model.symmetric_space
    with pytest.raises(ValueError, match="'frame_matching' is unavailable for model stiefel_4_2"):
        _sinusoid_roll(model, "frame_matching")


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
    desc["basis"][1][0][1][0] += 0.25
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
def test_residual_report_factors_the_development_frames_once(name, monkeypatch):
    model = get_model(name)
    path = _sinusoid_roll(model, "auto")
    check_rank, development = rolling._check_rank, []

    def recording_check(a, what):
        for frame in (model.frame0, model.normal0):
            if a.shape[1:] == frame.shape and np.array_equal(a, np.broadcast_to(frame, a.shape)):
                development.append(a.shape[0])
        return check_rank(a, what)

    monkeypatch.setattr(rolling, "_check_rank", recording_check)
    report = model_residual_report(model, path)
    # the tangency target and both no-twist projectors, one node each
    assert development == [1, 1, 1]
    assert report.max_residual() <= 50 * path.grid.h ** 2


@pytest.mark.parametrize("name", ["sphere", "hyperboloid", "so_plus_1_2", "so_plus_2_2",
                                  "stiefel_3_1", "stiefel_4_2"])
def test_residual_report_takes_no_lu_inverse_and_no_frame_copies(name, monkeypatch):
    model = get_model(name)
    path = _sinusoid_roll(model, "auto")
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


def test_lift_drift_refusal_names_the_tolerance_and_the_remedy():
    # criterion 11's latitude lies exactly on the sphere; 250 steps on [0, 2 pi] are too coarse
    sphere_model = get_model("sphere")
    from semiroll.models.sphere import chart_lift_matrix, embed_sphere
    for n_steps, refused in ((250, True), (400, False)):
        grid = TimeGrid(0.0, 2 * np.pi, n_steps)
        z = np.tan(0.5) * np.exp(1j * grid.ts)
        curve = EmbeddedCurve(grid, embed_sphere(z))
        if not refused:
            horizontal_lift(sphere_model, curve, q0=chart_lift_matrix(z[0]))
            continue
        with pytest.raises(ValueError, match=r"lift drifted from the curve \(defect .*\); the "
                           r"lift's truncation error exceeds LIFT_TRACK_TOL = 1e-08 .*"
                           "refine n_steps$"):
            horizontal_lift(sphere_model, curve, q0=chart_lift_matrix(z[0]))


def _rng5_control(model, n_steps):
    rng = np.random.default_rng(5)
    freq = rng.uniform(0.5, 2.0, model.p_dim)
    phase = rng.uniform(0.0, 2 * np.pi, model.p_dim)
    return ControlCurve.from_function(TimeGrid(0.0, 1.0, n_steps),
                                      lambda t: 0.4 * np.sin(freq * t + phase))


@pytest.mark.parametrize("n_steps", [250, 251, 253, 254, 1001])
@pytest.mark.parametrize("name", ["so_plus_1_2", "so_plus_2_2"])
def test_frame_matching_rolls_at_step_counts_off_the_multiples_of_4(name, n_steps):
    # each Richardson level of the normal transport runs over the longest
    # prefix its stride divides, so no step count loses a level
    model = get_model(name)
    path = extrinsic_roll(model, _rng5_control(model, n_steps), normal_strategy="frame_matching")
    assert model_residual_report(model, path).max_residual() <= 50 * path.grid.h ** 2


@pytest.mark.parametrize("n_steps", [40, 60])
def test_frame_matching_refusal_on_a_coarse_grid_names_the_remedy(n_steps):
    model = get_model("so_plus_2_2")
    with pytest.raises(ValueError, match=r"^normal frames are not isometric \(Gram mismatch "
                       r".* > NORMAL_GRAM_TOL = 1e-06\); cannot extend the tangential action; "
                       "refine n_steps$"):
        extrinsic_roll(model, _rng5_control(model, n_steps), normal_strategy="frame_matching")


@pytest.mark.parametrize("name", ["sphere", "hyperboloid", "so_plus_1_2", "so_plus_2_2"])
def test_frame_matching_transports_the_normal_frame_in_one_call(name, monkeypatch):
    model = get_model(name)
    transport, projectors, calls = homogeneous.parallel_transport_embedded, rolling._projectors, []
    monkeypatch.setattr(homogeneous, "parallel_transport_embedded",
                        lambda *args, **kw: calls.append("transport") or transport(*args, **kw))
    monkeypatch.setattr(rolling, "_projectors",
                        lambda *args: calls.append("projectors") or projectors(*args))
    extrinsic_roll(model, _rng5_control(model, 250), normal_strategy="frame_matching")
    # the one projector stack is built inside the one transport
    assert calls == ["transport", "projectors"]


@pytest.mark.parametrize("name", ["sphere", "so_plus_2_2", "stiefel_4_2"])
def test_intrinsic_roll_forms_the_moving_frames_once(name, monkeypatch):
    model = get_model(name)
    ctrl = ControlCurve.from_function(TimeGrid(0.0, 1.0, 40), _phased(model.p_dim))
    frames_along, calls = model.frames_along, []
    monkeypatch.setattr(model, "frames_along", lambda rhos: calls.append(1) or frames_along(rhos))
    triple = intrinsic_roll(model, ctrl)
    assert len(calls) == 1
    lift = horizontal_lift(model, ctrl)
    assert np.array_equal(triple.tangent_frames, frames_along(model.rho_path(lift.samples)))
