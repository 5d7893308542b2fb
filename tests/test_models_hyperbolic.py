"""Hyperboloid model: chart algebra, embedding, and the direct roll."""

import numpy as np
import pytest

from semiroll.homogeneous import ControlCurve, TimeGrid
from semiroll.models import get_model
from semiroll.models.hyperbolic import (
    SU11_BASIS,
    embed_hyperbolic,
    hat,
    kinematic_roll,
    roll_hyperboloid,
    su11_coords,
    ubar_matrix,
)
from semiroll.models.sphere import CHART_CONJUGATOR, roll_sphere


def test_moebius_action_stays_in_disc():
    a, b = np.cosh(1.1), np.sinh(1.1) * 1j
    g = np.array([[a, b], [np.conj(b), np.conj(a)]])
    for z in (0.0, 0.3 + 0.4j, -0.85j):
        assert abs(get_model("hyperboloid").action(g, z)) < 1.0


def test_algebra_coordinates_invert_the_basis():
    coords = np.array([0.7, -0.3, 0.2])
    X = sum(c * A for c, A in zip(coords, SU11_BASIS))
    assert np.max(np.abs(su11_coords(X) - coords)) <= 1e-14


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


def test_ubar_matrix_is_form_skew():
    J = np.diag([-1.0, 1.0, 1.0])
    U = ubar_matrix(np.array([0.4, -0.9]))
    assert np.max(np.abs(J @ U + U.T @ J)) <= 1e-15


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
    # the inputs of acceptance criteria 04 and 07; the sphere's explicit
    # hat(P (0, c2, c3)) is the Ubar roll_sphere passed before the default,
    # and the hyperboloid's (u1, u2) are the model coordinates (-u2, u1)
    g04 = TimeGrid(0.0, 2.0, 500)
    u = ControlCurve.from_function(g04, lambda t: np.array([1.0, 0.0]))
    c = ControlCurve.from_function(g04, lambda t: np.array([-0.0, 1.0]))
    g07 = TimeGrid(0.0, 1.3, 300)
    c07 = ControlCurve.from_function(g07, lambda t: np.array([0.0, -1.0]))
    pairs = [
        (roll_hyperboloid(u, g04), kinematic_roll(get_model("hyperboloid"), c)),
        (roll_sphere(c07, g07),
         kinematic_roll(get_model("sphere"), c07,
                        ubar_of=lambda c: hat(np.pad(c, ((0, 0), (1, 0))) @ CHART_CONJUGATOR.T))),
    ]
    for new, old in pairs:
        for field in ("R", "s", "alpha", "alpha_hat"):
            assert np.array_equal(getattr(new, field), getattr(old, field)), field


def test_direct_roll_passes_the_condition_suite():
    from semiroll.homogeneous import model_residual_report

    model = get_model("hyperboloid")
    grid = TimeGrid(0.0, 1.5, 300)
    ctrl = ControlCurve.from_function(grid, lambda t: np.array([np.sin(t), 0.5 * np.cos(3 * t)]))
    report = model_residual_report(model, roll_hyperboloid(ctrl, grid))
    assert report.passed(50 * grid.h**2)
