"""Acceptance suite: one test per shipped guarantee, at its stated tolerance.

Each test prints a single PASS/FAIL line with the measured worst value so
the suite reads as a checklist under ``pytest -v -s``; assertions carry the
same numbers.
"""

import numpy as np
import pytest

from semiroll.homogeneous import (
    ControlCurve,
    EmbeddedCurve,
    extrinsic_roll,
    horizontal_lift,
    intrinsic_roll,
    model_residual_report,
    transport_homogeneous,
)
from semiroll.integrate import TimeGrid
from semiroll.linalg import SignatureForm, random_motion, se_act, se_compose, se_inverse
from semiroll.models import get_model
from semiroll.models.hyperbolic import kinematic_roll, roll_hyperboloid
from semiroll.models.sphere import chart_lift_matrix, embed_sphere
from semiroll.rolling import (
    no_slip_residual,
    no_twist_residuals,
    parallel_transport_embedded,
    perturb_normal_generator,
)

SUITE_MODELS = ("hyperboloid", "sphere", "so_plus_1_2", "so_plus_3_0", "stiefel_3_1", "stiefel_4_2")


def _report(label, worst, tol):
    ok = worst <= tol
    print(f"[{label}] {'PASS' if ok else 'FAIL'} (worst {worst:.3e}, tol {tol:.1e})")
    return ok


def _smooth_control(model, grid, seed):
    rng = np.random.default_rng(seed)
    amp = rng.standard_normal(model.p_dim) * 0.4
    phases = np.arange(model.p_dim)
    return ControlCurve.from_function(grid, lambda t: amp * np.sin(t + phases))


def test_criterion_01_rigid_motion_algebra():
    rng = np.random.default_rng(2024)
    worst = 0.0
    count = 0
    signatures = set()
    while count < 1000:
        dim = int(rng.integers(3, 9))
        p = int(rng.integers(0, dim + 1))
        form = SignatureForm.from_pq(p, dim - p)
        signatures.add((p, dim - p))
        g1, g2, g3 = (random_motion(form, rng) for _ in range(3))
        count += 3
        left = se_compose(se_compose(g3, g2), g1)
        right = se_compose(g3, se_compose(g2, g1))
        worst = max(
            worst,
            np.max(np.abs(left.R - right.R)) / max(1.0, np.max(np.abs(left.R))),
            np.max(np.abs(left.s - right.s)) / max(1.0, np.max(np.abs(left.s))),
        )
        e = se_compose(g1, se_inverse(g1))
        worst = max(worst, np.max(np.abs(e.R - np.eye(dim))), np.max(np.abs(e.s)))
        x, y = rng.standard_normal(dim), rng.standard_normal(dim)
        before = form.ip(x - y, x - y)
        after = form.ip(se_act(g1, x) - se_act(g1, y), se_act(g1, x) - se_act(g1, y))
        worst = max(worst, abs(after - before) / max(1.0, abs(before)))
    assert count >= 1000
    assert len({p + q for p, q in signatures}) == 6  # dims 3 through 8
    assert any(q > 0 for _, q in signatures) and any(q == 0 for _, q in signatures)
    ok = _report("criterion 01: motion group algebra, 1000 draws", worst, 1e-12)
    assert ok


def test_criterion_02_no_slip_converges_at_fourth_order():
    model = get_model("sphere")
    residuals = []
    for n in (250, 500, 1000):
        grid = TimeGrid(0.0, 2 * np.pi, n)
        ctrl = ControlCurve.from_function(grid, lambda t: np.array([1.0, 0.0]))
        residuals.append(float(np.max(no_slip_residual(extrinsic_roll(model, ctrl)))))
    r1 = residuals[0] / residuals[1]
    r2 = residuals[1] / residuals[2]
    ok = r1 >= 8.0 and r2 >= 8.0
    print(f"[criterion 02: equator no-slip halving ratios] {'PASS' if ok else 'FAIL'} "
          f"(ratios {r1:.2f}, {r2:.2f}, need >= 8)")
    assert ok


def test_criterion_03_quarter_equator_closed_form():
    model = get_model("sphere")
    grid = TimeGrid(0.0, np.pi / 2, 2000)
    ctrl = ControlCurve.from_function(grid, lambda t: np.array([1.0, 0.0]))
    path = extrinsic_roll(model, ctrl)
    dev_len = abs(np.linalg.norm(path.s[-1]) - np.pi / 2)
    quarter_turn = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    rot_err = np.linalg.norm(path.R[-1] - quarter_turn)
    worst = max(dev_len, rot_err)
    ok = _report("criterion 03: quarter equator endpoint", worst, 1e-6)
    assert ok


def test_criterion_04_hyperboloid_geodesic_closed_form():
    grid = TimeGrid(0.0, 2.0, 500)
    ctrl = ControlCurve.from_function(grid, lambda t: np.array([1.0, 0.0]))
    path = roll_hyperboloid(ctrl, grid)
    ts = grid.ts
    alpha = np.stack([np.cosh(ts), np.sinh(ts), np.zeros_like(ts)], axis=1)
    s_bar = np.stack([np.zeros_like(ts), ts, np.zeros_like(ts)], axis=1)
    track = max(np.max(np.abs(path.alpha - alpha)), np.max(np.abs(path.s - s_bar)))
    ok = _report("criterion 04: hyperboloid geodesic track", track, 1e-7)
    J = np.diag([-1.0, 1.0, 1.0])
    constraint = np.max(np.abs(np.einsum("ki,ij,kj->k", path.alpha, J, path.alpha) + 1.0))
    ok &= _report("criterion 04: hyperboloid constraint", constraint, 1e-10)
    assert ok


@pytest.mark.parametrize("name", SUITE_MODELS)
def test_criterion_05_condition_suite_scales_with_h(name):
    model = get_model(name)
    grid = TimeGrid(0.0, 1.0, 200)
    ctrl = _smooth_control(model, grid, seed=sum(map(ord, name)))
    report = model_residual_report(model, extrinsic_roll(model, ctrl))
    tol = 50 * grid.h**2
    ok = _report(f"criterion 05: residual suite {name}", report.max_residual(), tol)
    assert ok


@pytest.mark.parametrize("name,geodesic", [
    ("sphere", True), ("sphere", False),
    ("hyperboloid", True), ("hyperboloid", False),
])
def test_criterion_06_transport_cross_check(name, geodesic):
    model = get_model(name)
    grid = TimeGrid(0.0, 1.5, 4096)
    if geodesic:
        ctrl = ControlCurve.from_function(grid, lambda t: np.array([1.0, 0.0]))
    else:
        ctrl = ControlCurve.from_function(grid, lambda t: np.array([np.sin(t), 0.4 * np.cos(2 * t)]))
    lift = horizontal_lift(model, ctrl)
    points = np.array([model.embed(model.action(q, model.base_point)) for q in lift.samples])
    field = transport_homogeneous(model, lift, np.array([0.3, -0.7]))
    frames = model.pointwise_tangent_frames(grid, points).frames
    reference = parallel_transport_embedded(frames, field[0], model.form)
    worst = float(np.max(np.linalg.norm(field - reference, axis=1)))
    kind = "geodesic" if geodesic else "generic"
    ok = _report(f"criterion 06: transport cross-check {name} {kind}", worst, 1e-6)
    assert ok


def test_criterion_07_stiefel_column_matches_sphere():
    grid = TimeGrid(0.0, 1.3, 300)
    sphere_path = kinematic_roll(get_model("sphere"),
                                 ControlCurve.from_function(grid, lambda t: np.array([0.0, -1.0])))
    stiefel_path = extrinsic_roll(get_model("stiefel_3_1"),
                                  ControlCurve.from_function(grid, lambda t: np.array([1.0, 0.0])))
    O = np.array([[0.0, -1.0, 0.0], [0.0, 0.0, 1.0], [-1.0, 0.0, 0.0]])
    worst = max(
        np.max(np.abs(stiefel_path.alpha - sphere_path.alpha @ O.T)),
        np.max(np.abs(stiefel_path.R - np.einsum("ij,kjl,ml->kim", O, sphere_path.R, O))),
        np.max(np.abs(stiefel_path.s - sphere_path.s @ O.T)),
        np.max(np.abs(stiefel_path.alpha_hat - sphere_path.alpha_hat @ O.T)),
    )
    ok = _report("criterion 07: St(3,1) vs sphere after frame alignment", worst, 1e-6)
    assert ok


def test_criterion_08_intrinsic_extrinsic_bridge():
    worst = 0.0
    for name in SUITE_MODELS:
        model = get_model(name)
        grid = TimeGrid(0.0, 1.0, 150)
        ctrl = _smooth_control(model, grid, seed=5)
        path = extrinsic_roll(model, ctrl)
        triple = intrinsic_roll(model, ctrl)
        head = model.d_e_pi @ model.cf0
        extracted = np.einsum("ab,kbj->kaj", head, path.R)
        worst = max(worst, float(np.max(np.abs(extracted - triple.maps))))
    # the bridge must not depend on how the normal bundle was completed
    for name in ("sphere", "hyperboloid"):
        model = get_model(name)
        grid = TimeGrid(0.0, 1.0, 150)
        ctrl = _smooth_control(model, grid, seed=5)
        path = extrinsic_roll(model, ctrl, normal_strategy="frame_matching")
        triple = intrinsic_roll(model, ctrl)
        head = model.d_e_pi @ model.cf0
        extracted = np.einsum("ab,kbj->kaj", head, path.R)
        worst = max(worst, float(np.max(np.abs(extracted - triple.maps))))
    ok = _report("criterion 08: tangential map bridge, all models", worst, 1e-7)
    assert ok


def test_criterion_09_normal_fault_injection_on_stiefel():
    model = get_model("stiefel_4_2")
    grid = TimeGrid(0.0, 1.0, 200)
    rng = np.random.default_rng(42)
    amp = rng.standard_normal(model.p_dim) * 0.4
    ctrl = ControlCurve.from_function(grid, lambda t: amp * np.sin(t + np.arange(model.p_dim)))
    path = extrinsic_roll(model, ctrl)
    flat_tan = model.flat_tangent_frames(grid)
    flat_nor = model.flat_normal_frames(grid)
    raw = rng.standard_normal((3, 3))
    omega0 = flat_nor.frames[0] @ (0.7 * (raw - raw.T)) @ flat_nor.frames[0].T
    bent = perturb_normal_generator(path, omega0, flat_tan, flat_nor)

    tangent_m = model.pointwise_tangent_frames(grid, path.alpha).frames
    delta = np.einsum("kij,kja->kia", bent.R - path.R, tangent_m)
    tangential = float(np.max(np.abs(delta)))
    ok = _report("criterion 09: tangential part untouched", tangential, 1e-6)
    _, twist_norm = no_twist_residuals(bent, flat_tan, flat_nor)
    breach = float(np.max(twist_norm))
    detected = breach > 1e-3
    print(f"[criterion 09: normal twist detected] {'PASS' if detected else 'FAIL'} "
          f"(breach {breach:.3e}, need > 1e-03)")
    assert ok and detected


@pytest.mark.parametrize("p,q", [(2, 1), (3, 0), (2, 2)])
def test_criterion_10_group_rolling_closed_form_no_twist(p, q):
    model = get_model(f"so_plus_{p}_{q}")
    grid = TimeGrid(0.0, 1.0, 200)
    ctrl = _smooth_control(model, grid, seed=10 * p + q)
    path = extrinsic_roll(model, ctrl, normal_strategy="closed_form")
    report = model_residual_report(model, path)
    tol = 50 * grid.h**2
    ok = _report(f"criterion 10: SO+({p},{q}) closed-form normal twist", report.no_twist_norm, tol)
    assert ok and report.passed(tol)


def test_criterion_11_latitude_holonomy():
    theta = 1.0
    model = get_model("sphere")
    grid = TimeGrid(0.0, 2 * np.pi, 2000)
    z = np.tan(theta / 2) * np.exp(1j * grid.ts)
    points = np.array([embed_sphere(w) for w in z])
    triple = intrinsic_roll(model, EmbeddedCurve(grid, points), q0=chart_lift_matrix(z[0]))
    frames = model.pointwise_tangent_frames(grid, points).frames
    hol = (triple.maps[0] @ frames[-1]) @ np.linalg.inv(triple.maps[-1] @ frames[-1])
    angle = np.arctan2(hol[1, 0], hol[0, 0])
    expected = 2 * np.pi * (1 - np.cos(theta))
    expected = (expected + np.pi) % (2 * np.pi) - np.pi
    err = abs(angle - expected)
    ok = _report("criterion 11: latitude holonomy angle", err, 1e-5)
    assert ok
