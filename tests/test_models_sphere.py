"""Sphere model: chart, conjugator, chart section, and the direct kinematic roll."""

import numpy as np
import pytest

from semiroll.homogeneous import ControlCurve, TimeGrid, model_residual_report
from semiroll.models import get_model
from semiroll.models.hyperbolic import kinematic_roll
from semiroll.models.sphere import (
    CHART_CONJUGATOR,
    SU2_BASIS,
    chart_lift_matrix,
    embed_sphere,
    hat,
    su2_coords,
)


def test_su2_coordinates_invert_the_basis():
    coords = np.array([0.7, -0.3, 0.2])
    X = sum(c * A for c, A in zip(coords, SU2_BASIS))
    assert np.max(np.abs(su2_coords(X) - coords)) <= 1e-14


def test_hat_matches_cross_product():
    rng = np.random.default_rng(4)
    for _ in range(10):
        u, v = rng.standard_normal(3), rng.standard_normal(3)
        assert np.allclose(hat(u) @ v, np.cross(u, v))


def test_conjugator_intertwines_hat():
    P = CHART_CONJUGATOR
    assert np.allclose(P @ P.T, np.eye(3))
    assert np.linalg.det(P) == pytest.approx(1.0)
    u = np.array([0.3, -0.7, 0.2])
    assert np.max(np.abs(P @ hat(u) @ P.T - hat(P @ u))) <= 1e-15


def test_embedding_hits_the_unit_sphere():
    assert np.allclose(embed_sphere(0.0), [0.0, -1.0, 0.0])
    rng = np.random.default_rng(1)
    for _ in range(25):
        z = rng.standard_normal() + 1j * rng.standard_normal()
        x = embed_sphere(z)
        assert abs(x @ x - 1.0) <= 1e-12


def test_chart_lift_matrix_is_special_unitary():
    z = 0.3 - 0.8j
    h = chart_lift_matrix(z)
    assert np.max(np.abs(h @ h.conj().T - np.eye(2))) <= 1e-12
    assert abs(np.linalg.det(h) - 1.0) <= 1e-12


def test_unit_control_rolls_along_a_great_circle():
    grid = TimeGrid(0.0, 2.0, 400)
    ctrl = ControlCurve.from_function(grid, lambda t: np.array([1.0, 0.0]))
    path = kinematic_roll(get_model("sphere"), ctrl)
    ts = grid.ts
    c, s = np.cos(ts), np.sin(ts)
    alpha = np.stack([-s, -c, np.zeros_like(ts)], axis=1)
    assert np.max(np.abs(path.alpha - alpha)) <= 1e-9
    s_bar = np.stack([-ts, np.zeros_like(ts), np.zeros_like(ts)], axis=1)
    assert np.max(np.abs(path.s - s_bar)) <= 1e-12
    R = np.zeros((ts.size, 3, 3))
    R[:, 0, 0] = c
    R[:, 0, 1] = -s
    R[:, 1, 0] = s
    R[:, 1, 1] = c
    R[:, 2, 2] = 1.0
    assert np.max(np.abs(path.R - R)) <= 1e-9


def test_direct_roll_passes_the_condition_suite():
    model = get_model("sphere")
    grid = TimeGrid(0.0, 1.5, 300)
    ctrl = ControlCurve.from_function(grid, lambda t: np.array([np.sin(t), 0.5 * np.cos(3 * t)]))
    report = model_residual_report(model, kinematic_roll(model, ctrl))
    assert report.passed(50 * grid.h**2)


def test_direct_and_engine_rolls_coincide():
    from semiroll.homogeneous import extrinsic_roll

    model = get_model("sphere")
    grid = TimeGrid(0.0, 1.0, 200)
    ctrl = ControlCurve.from_function(grid, lambda t: np.array([0.8, -0.4 * np.sin(t)]))
    direct = kinematic_roll(model, ctrl)
    engine = extrinsic_roll(model, ctrl)
    assert np.max(np.abs(direct.alpha - engine.alpha)) <= 1e-7
    assert np.max(np.abs(direct.R - engine.R)) <= 1e-7
    assert np.max(np.abs(direct.s - engine.s)) <= 1e-7


@pytest.mark.parametrize("n_steps", [1, 2, 3, 4])
def test_quarter_equator_on_a_short_grid_is_refused_not_rolled(n_steps):
    # criterion 03's control: the development's length is pi/2.  Below five
    # nodes a lower-order difference rolled 1.000, 1.552 and 1.550 at 1, 2
    # and 3 steps, and the condition suite passed them
    from semiroll.homogeneous import extrinsic_roll, intrinsic_roll

    model = get_model("sphere")
    grid = TimeGrid(0.0, np.pi / 2, n_steps)
    ctrl = ControlCurve.from_function(grid, lambda t: np.array([1.0, 0.0]))
    if n_steps < 4:
        with pytest.raises(ValueError, match=f"got {n_steps + 1}; refine n_steps"):
            extrinsic_roll(model, ctrl)
    else:
        assert abs(np.linalg.norm(extrinsic_roll(model, ctrl).s[-1]) - np.pi / 2) <= 1e-4
    # the intrinsic roll takes no derivative along a control: its development
    # is d_e_pi (1/2) times the arc length, exact on every grid
    triple = intrinsic_roll(model, ctrl)
    assert abs(np.linalg.norm(triple.alpha_hat[-1]) - np.pi / 4) <= 1e-14
