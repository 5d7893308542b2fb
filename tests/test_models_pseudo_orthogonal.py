"""Group manifolds SO+(p, q) rolled inside the full matrix space."""

import re

import numpy as np
import pytest
from scipy.linalg import expm

from semiroll.homogeneous import ControlCurve, TimeGrid, model_residual_report
from semiroll.models import build_model, get_model
from semiroll.models.hyperbolic import kinematic_roll
from semiroll.models.pseudo_orthogonal import _level_set, description, so_pq_basis

from boosted import boosted_start_roll


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


@pytest.mark.parametrize("shape", [(2, 2), (3, 4), (9,), (3, 3, 1)])
def test_description_names_a_base_point_of_the_wrong_shape(shape):
    base_point = np.eye(*shape[:2]) if len(shape) == 2 else np.zeros(shape)
    message = rf"^base point must be a \(3, 3\) matrix, got shape {re.escape(str(shape))}$"
    with pytest.raises(ValueError, match=message):
        description(1, 2, base_point)


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


# -- the level-set frames X K_a against the left-translated frames vec(B_a X) --


def _left_frame(x, p, q):
    """The frame vec(B_a X) over the so(p, q) basis B_a, which the level-set rule replaced."""
    X = x.reshape((p + q, p + q), order="F")
    return np.column_stack([(B @ X).flatten(order="F") for B in so_pq_basis(p, q)])


def _largest_angle_sine(A, B):
    """The largest principal-angle sine between the column spans of A and B."""
    qa, qb = np.linalg.qr(A)[0], np.linalg.qr(B)[0]
    return float(np.linalg.norm(qb - qa @ (qa.T @ qb), 2))


@pytest.mark.parametrize("p,q", [(1, 2), (2, 1), (2, 2), (3, 1)])
def test_level_set_frames_equal_the_left_frames_at_the_base_point(p, q):
    model = get_model(f"so_plus_{p}_{q}")
    frames = model.tangent_frame_at(model.obar[None, :])[0]
    assert np.array_equal(frames, _left_frame(model.obar, p, q))


@pytest.mark.parametrize("p,q", [(1, 2), (2, 1), (2, 2), (3, 1)])
def test_level_set_frames_span_the_left_frames_at_random_points(p, q):
    model = get_model(f"so_plus_{p}_{q}")
    rng = np.random.default_rng(11)
    points = np.array([model.random_point(rng) for _ in range(40)])
    frames = model.tangent_frame_at(points)
    assert frames.shape == (40, model.ambient_dim, model.p_dim)
    worst = max(_largest_angle_sine(F, _left_frame(x, p, q)) for F, x in zip(frames, points))
    assert worst <= 1e-12


def test_level_set_frames_span_the_left_frames_along_a_boosted_roll():
    # the two spans agree exactly only on the group: B_a X and X K_a are exact products,
    # so each node's sine follows its point's own defect |X^T J X - J| (up to 1.6e-10 here)
    model, path = boosted_start_roll(4.0, 2.8)
    frames = model.tangent_frame_at(path.alpha)
    J = np.diag([1.0, 1.0, -1.0, -1.0])
    for F, x in zip(frames, path.alpha):
        X = x.reshape((4, 4), order="F")
        defect = np.max(np.abs(X.T @ J @ X - J))
        assert _largest_angle_sine(F, _left_frame(x, 2, 2)) <= 1e-12 + 2.0 * defect


@pytest.mark.parametrize("signs, columns", [
    ([1, 1, -1, -1], [0, 2]),
    ([1, -1, -1, 1, -1], [1, 2, 3]),
    ([1, 1, 1, -1], [0, 1, 3]),
], ids=["2_2-mixed", "2_3-mixed", "3_1-mixed"])
def test_level_set_frames_are_tangent_for_a_mixed_sign_gram(signs, columns):
    # a pseudo-Stiefel level set X^T J X = G: X is k columns of an element of SO+(J)
    signs = np.array(signs, dtype=float)
    n, k, J = signs.size, len(columns), np.diag(signs)
    K = np.random.default_rng(n + k).standard_normal((n, n))
    X = expm(0.3 * J @ (K - K.T))[:, columns]
    level = _level_set(signs, k, np.diag(signs[columns]))
    x = X.reshape(-1, order="F")[None, :]
    assert np.max(np.abs(level["constraint"](x))) <= 1e-13
    F = level["tangent_frame_at"](x)[0]
    assert F.shape == (n * k, k * (k - 1) // 2 + (n - k) * k)
    assert np.linalg.matrix_rank(F) == F.shape[1]
    for V in F.T:
        V = V.reshape((n, k), order="F")
        assert np.max(np.abs(X.T @ J @ V + V.T @ J @ X)) <= 1e-13
