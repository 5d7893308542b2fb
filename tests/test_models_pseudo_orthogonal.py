"""Group manifolds SO+(p, q) rolled inside the full matrix space."""

import numpy as np
import pytest
from scipy.linalg import expm

from semiroll.homogeneous import ControlCurve, TimeGrid, model_residual_report
from semiroll.models import build_model, get_model
from semiroll.models.hyperbolic import kinematic_roll
from semiroll.models.pseudo_orthogonal import description, so_pq_basis


@pytest.mark.parametrize("p,q", [(2, 1), (3, 0), (2, 2)])
def test_algebra_bases_split_the_form(p, q):
    n = p + q
    J = np.diag([1.0] * p + [-1.0] * q)
    skew = so_pq_basis(p, q)
    assert len(skew) == n * (n - 1) // 2
    for M in skew:
        assert np.max(np.abs(J @ M + M.T @ J)) <= 1e-14
    # the elements are linearly independent, so they span so(p, q)
    assert np.linalg.matrix_rank(skew.reshape(len(skew), -1)) == n * (n - 1) // 2


def test_description_rejects_tiny_or_negative_signatures():
    with pytest.raises(ValueError):
        description(1, 0)
    with pytest.raises(ValueError):
        description(-1, 3)


def test_description_rejects_off_group_base_point():
    with pytest.raises(ValueError):
        description(2, 1, base_point=np.diag([2.0, 1.0, 1.0]))


def test_model_dimensions():
    model = get_model("so_plus_2_1")
    assert model.p_dim == 3
    assert model.ambient_dim == 9
    assert model.symmetric_space


def test_constant_control_rolls_along_a_one_parameter_subgroup():
    grid = TimeGrid(0.0, 1.0, 250)
    coef = np.array([0.3, -0.2, 0.4])
    ctrl = ControlCurve.from_function(grid, lambda t: coef)
    path = kinematic_roll(get_model("so_plus_2_1"), ctrl)
    U = sum(c * B for c, B in zip(coef, so_pq_basis(2, 1)))
    expected = np.array([expm(2 * t * U).reshape(-1, order="F") for t in grid.ts])
    assert np.max(np.abs(path.alpha - expected)) <= 1e-10
    assert np.max(np.abs(path.s[-1] - (2.0 * U).reshape(-1, order="F"))) <= 1e-12


@pytest.mark.parametrize("p,q", [(2, 1), (3, 0), (2, 2)])
def test_random_control_passes_the_condition_suite(p, q):
    model = get_model(f"so_plus_{p}_{q}")
    grid = TimeGrid(0.0, 1.0, 200)
    rng = np.random.default_rng(10 * p + q)
    amp = rng.standard_normal(model.p_dim) * 0.4
    frq = rng.uniform(0.5, 2.0, model.p_dim)
    ctrl = ControlCurve.from_function(grid, lambda t: amp * np.sin(frq * t))
    path = kinematic_roll(model, ctrl)
    report = model_residual_report(model, path)
    assert report.passed(50 * grid.h**2)


def test_roll_from_nonidentity_base_point():
    model = get_model("so_plus_2_1")
    rng = np.random.default_rng(7)
    base = model.random_point(rng).reshape(3, 3, order="F")
    grid = TimeGrid(0.0, 1.0, 200)
    ctrl = ControlCurve.from_function(grid, lambda t: np.array([0.2, 0.5 * np.sin(t), -0.3]))
    moved = build_model(description(2, 1, base))
    path = kinematic_roll(moved, ctrl)
    report = model_residual_report(moved, path)
    assert report.passed(50 * grid.h**2)
    assert np.max(np.abs(path.alpha[0] - base.reshape(-1, order="F"))) <= 1e-12
