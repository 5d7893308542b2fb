"""Tolerance checks fail closed on NaN and inf.

A check written ``value > bound`` passes a NaN, since every comparison with NaN
is False.  Each site here once let a non-finite input through: the oriented-
isometry test and the J-orthogonality residual, the base point of SO+(p, q),
the model's ``obar``, the composition's intermediate curve, the transport's
start vector and the normal generator.  Each now refuses it by name or judges it outside the
group, and raises no RuntimeWarning, which the suite turns into an error.
"""

import re

import numpy as np
import pytest

from semiroll.homogeneous import ControlCurve, extrinsic_roll
from semiroll.integrate import TimeGrid
from semiroll.linalg import SignatureForm, is_oriented_isometry, j_orthogonality_residual
from semiroll.models import build_model, get_model, pseudo_orthogonal
from semiroll.rolling import (RollingMapPath, compose_rolling, invert_rolling,
                              parallel_transport_embedded, perturb_normal_generator)

NON_FINITE = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf}


def _raises(message):
    return pytest.raises(ValueError, match=f"^{re.escape(message)}$")


def _sphere_roll(n_steps=20):
    model = get_model("sphere")
    grid = TimeGrid(0.0, 1.0, n_steps)
    control = ControlCurve.from_function(grid, lambda t: np.array([0.3, 0.2 * np.sin(t)]))
    return model, grid, extrinsic_roll(model, control)


@pytest.mark.parametrize("value", NON_FINITE.values(), ids=NON_FINITE)
@pytest.mark.parametrize("signs", [[1, 1, 1], [1, -1, -1]], ids=["definite", "indefinite"])
@pytest.mark.parametrize("where", ["everywhere", "one_entry"])
def test_is_oriented_isometry_judges_a_non_finite_matrix_outside_the_group(value, signs, where):
    R = np.full((3, 3), value) if where == "everywhere" else np.diag([value, 1.0, 1.0])
    ok, residual = is_oriented_isometry(R, SignatureForm(signs))
    assert ok is False and np.isnan(residual)


@pytest.mark.parametrize("value", NON_FINITE.values(), ids=NON_FINITE)
@pytest.mark.parametrize("stacked", [False, True], ids=["matrix", "stack"])
def test_j_orthogonality_residual_refuses_a_non_finite_matrix_by_name(value, stacked):
    R = np.stack([np.eye(3)] * 4) if stacked else np.eye(3)
    R[(2, 0, 1) if stacked else (0, 1)] = value
    with _raises("j_orthogonality_residual input contains NaN or inf"):
        j_orthogonality_residual(R, SignatureForm([1, -1, -1]))


@pytest.mark.parametrize("value", NON_FINITE.values(), ids=NON_FINITE)
def test_a_non_finite_so_pq_base_point_is_refused_by_name(value):
    base_point = np.eye(3)
    base_point[1, 2] = value
    with _raises("base point contains NaN or inf"):
        pseudo_orthogonal.description(1, 2, base_point)


@pytest.mark.parametrize("value", NON_FINITE.values(), ids=NON_FINITE)
def test_a_non_finite_obar_is_refused_by_its_entry(value):
    desc = pseudo_orthogonal.description(1, 2)
    desc["obar"][4] = value
    with _raises(f"obar must be a finite (9,) vector, got {value} at entry 4"):
        build_model(desc)


@pytest.mark.parametrize("value", NON_FINITE.values(), ids=NON_FINITE)
@pytest.mark.parametrize("which", ["path01's alpha_hat", "path12's alpha"])
def test_compose_rolling_refuses_a_non_finite_intermediate_curve(value, which):
    _, grid, path = _sphere_roll()
    inverse = invert_rolling(path)
    inverse = RollingMapPath(grid=grid, R=inverse.R, s=inverse.s, form=inverse.form,
                             alpha=np.full_like(inverse.alpha, value), alpha_hat=inverse.alpha_hat)
    if which == "path01's alpha_hat":
        # both curves non-finite: their difference would read inf - inf
        path = RollingMapPath(grid=grid, R=path.R, s=path.s, form=path.form, alpha=path.alpha,
                              alpha_hat=np.full_like(path.alpha_hat, value))
    with _raises(f"intermediate contact curve {which} contains NaN or inf"):
        compose_rolling(path, inverse)


@pytest.mark.parametrize("value", NON_FINITE.values(), ids=NON_FINITE)
@pytest.mark.parametrize("shape", [(3,), (3, 2)], ids=["vector", "block"])
def test_parallel_transport_refuses_a_non_finite_start_vector(value, shape):
    frames = np.broadcast_to(np.eye(3)[:, :2], (11, 3, 2)).copy()
    v0 = np.zeros(shape)
    v0[0] = value
    with _raises("v0 contains NaN or inf"):
        parallel_transport_embedded(frames, v0, SignatureForm.from_pq(3, 0))


@pytest.mark.parametrize("value", NON_FINITE.values(), ids=NON_FINITE)
def test_perturb_normal_generator_refuses_a_non_finite_omega0(value):
    model, grid, path = _sphere_roll()
    omega0 = np.zeros((3, 3))
    omega0[0, 0] = value
    with _raises("omega0 contains NaN or inf"):
        perturb_normal_generator(path, omega0, model.flat_tangent_frames(grid),
                                 model.flat_normal_frames(grid))
