"""Hyperboloid model: algebra, embedding, and the direct roll."""

import numpy as np
import pytest

from semiroll.homogeneous import ControlCurve, EmbeddedCurve, TimeGrid
from semiroll.integrate import flow_matrix_ode, integrate_vector
from semiroll.linalg import j_transpose_inverse
from semiroll.models import get_model
from semiroll.models.hyperbolic import (
    SU11_BASIS,
    embed_hyperbolic,
    kinematic_roll,
    real_form,
    roll_hyperboloid,
    su11_coords,
)


def test_algebra_coordinates_invert_the_basis():
    coords = np.array([0.7, -0.3, 0.2])
    X = sum(c * A for c, A in zip(coords, SU11_BASIS))
    assert np.max(np.abs(su11_coords(real_form(X)) - coords)) <= 1e-14
    # the model's basis is the real form of SU11_BASIS, its group signs tiled twice
    model = get_model("hyperboloid")
    assert np.array_equal(model.basis, real_form(SU11_BASIS))
    assert np.array_equal(model.group_form.signs, [1.0, -1.0, 1.0, -1.0])


def test_embedding_hits_the_hyperboloid():
    assert np.allclose(embed_hyperbolic(0.0), [1.0, 0.0, 0.0])
    assert np.allclose(embed_hyperbolic(0.5), [5.0 / 3.0, 0.0, -4.0 / 3.0])
    rng = np.random.default_rng(0)
    J = np.diag([-1.0, 1.0, 1.0])
    for _ in range(25):
        z = (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)) * 0.7
        x = embed_hyperbolic(z)
        assert abs(x @ J @ x + 1.0) <= 1e-12  # -x0^2 + x1^2 + x2^2 = -1
        assert x[0] >= 1.0  # upper sheet
    with pytest.raises(ValueError, match="disc"):
        embed_hyperbolic(np.linspace(0.0, 1.2, 11))


def test_unit_control_rolls_along_the_main_geodesic():
    grid = TimeGrid(0.0, 2.0, 400)
    ctrl = ControlCurve.from_function(grid, lambda t: np.array([1.0, 0.0]))
    path = roll_hyperboloid(ctrl, grid)
    ts = grid.ts
    alpha = np.stack([np.cosh(ts), np.sinh(ts), np.zeros_like(ts)], axis=1)
    assert np.max(np.abs(path.alpha - alpha)) <= 1e-9
    s_bar = np.stack([np.zeros_like(ts), ts, np.zeros_like(ts)], axis=1)
    assert np.max(np.abs(path.s - s_bar)) <= 1e-12
    # development stays in the affine tangent plane x0 = 1
    assert np.max(np.abs(path.alpha_hat[:, 0] - 1.0)) <= 1e-12


def test_quadric_rolls_keep_their_values_under_the_default_ubar():
    # the input of acceptance criterion 04: the hyperboloid's (u1, u2) are
    # the model coordinates (-u2, u1)
    g04 = TimeGrid(0.0, 2.0, 500)
    u = ControlCurve.from_function(g04, lambda t: np.array([1.0, 0.0]))
    c = ControlCurve.from_function(g04, lambda t: np.array([-0.0, 1.0]))
    new, old = roll_hyperboloid(u, g04), kinematic_roll(get_model("hyperboloid"), c)
    for field in ("R", "s", "alpha", "alpha_hat"):
        assert np.array_equal(getattr(new, field), getattr(old, field)), field


def _explicit_ubar_roll(control):
    """The hyperboloid roll from the explicit Ubar [[0, u1, u2], [u1, 0, 0], [u2, 0, 0]]
    of the control (u1, u2), in the arithmetic of the kinematic equations."""
    model, grid = get_model("hyperboloid"), control.grid
    u = control.stage_coords()
    ubars = np.zeros((u.shape[0], 3, 3))
    ubars[:, 0, 1:] = ubars[:, 1:, 0] = u
    qbar = flow_matrix_ode(ubars, np.eye(3), grid, side="right", reproject_form=model.form)
    s = integrate_vector(ubars @ model.obar, grid)
    return (j_transpose_inverse(qbar, model.form), s, qbar @ model.obar, model.obar + s)


def test_hyperboloid_roll_is_bit_for_bit_the_explicit_ubar_roll():
    # criterion 04's control, and a control known only by its samples
    g04, grid = TimeGrid(0.0, 2.0, 500), TimeGrid(0.0, 1.5, 300)
    ts = grid.ts
    controls = [ControlCurve.from_function(g04, lambda t: np.array([1.0, 0.0])),
                ControlCurve(grid=grid, coords=np.stack([np.sin(ts), 0.5 * np.cos(3 * ts)], 1))]
    for control in controls:
        path = roll_hyperboloid(control, control.grid)
        for field, value in zip(("R", "s", "alpha", "alpha_hat"), _explicit_ubar_roll(control)):
            assert np.array_equal(getattr(path, field), value), field


def test_a_grid_that_contradicts_the_data_is_refused():
    # roll_hyperboloid is the one roll entry point that takes a grid
    grid = TimeGrid(0.0, 1.0, 100)
    control = ControlCurve.from_function(grid, lambda t: np.array([1.0, 0.5 * t]))
    for same in (None, grid, TimeGrid(0.0, 1.0, 100)):
        assert roll_hyperboloid(control, same).n_nodes == 101
    with pytest.raises(ValueError, match="contradicts"):
        roll_hyperboloid(control, TimeGrid(0.0, 1.0, 50))


@pytest.mark.parametrize("roll", ["kinematic", "hyperboloid"])
def test_raw_arrays_are_refused_by_the_accepted_types(roll):
    grid = TimeGrid(0.0, 1.0, 100)
    control = ControlCurve(grid, np.stack([np.ones(grid.n_nodes), 0.5 * grid.ts], 1))
    points = kinematic_roll(get_model("sphere"), control).alpha
    calls = {
        "kinematic": lambda data: kinematic_roll(get_model("sphere"), data),
        "hyperboloid": lambda data: roll_hyperboloid(data, grid),
    }
    # raw control coordinates, (m, 3) and (m, 3, 1) points; a curve is not a control
    for data in [control.coords, points, points[:, :, None], EmbeddedCurve(grid, points)]:
        message = f"data must be a ControlCurve, got {type(data).__name__}"
        with pytest.raises(TypeError, match=message):
            calls[roll](data)


def test_direct_roll_passes_the_condition_suite():
    from semiroll.homogeneous import model_residual_report

    model = get_model("hyperboloid")
    grid = TimeGrid(0.0, 1.5, 300)
    ctrl = ControlCurve.from_function(grid, lambda t: np.array([np.sin(t), 0.5 * np.cos(3 * t)]))
    report = model_residual_report(model, roll_hyperboloid(ctrl, grid))
    assert report.passed(50 * grid.h**2)
