"""The two-sided scoreboard: wrong rollings that verify accepts, valid ones it refuses.

Each open case is a strict xfail, numbered as in the roadmap's list: a
false PASS asserts that the report fails, a false refusal that it reports
and passes.  A fix flips the case to XPASS, which strict mode turns into a
failure until its marker goes, so the scoreboard is the xfail count.

The false PASS cases fault the exact rolling of ``exact_rolling`` (the oracle
case, 400 steps on [0, 1], tolerance 50 h^2 = 3.1e-4), so the clean path is
exact and only the injected fault departs from it.  Each fault but the broken
contact (6) keeps the contact R alpha + s = alpha_hat at every node.
"""

import numpy as np
import pytest

from semiroll.homogeneous import model_residual_report
from semiroll.integrate import TimeGrid
from semiroll.linalg import expm
from semiroll.models import get_model
from semiroll.rolling import RollingMapPath

from boosted import boosted_start_roll
from exact_rolling import exact_rolling, oracle_case

PROBE_MODELS = ["sphere", "stiefel_4_2"]
STEPS = 400


def _exact_path(model):
    grid = TimeGrid(0.0, 1.0, STEPS)
    _, R, s, alpha, alpha_hat = exact_rolling(model, *oracle_case(model), grid.ts)
    return RollingMapPath(grid=grid, R=R, s=s, alpha=alpha, alpha_hat=alpha_hat, form=model.form)


def _moved(path, R=None, shift=None):
    """``path`` with rotations ``R`` or the development shifted by ``shift``, contact kept."""
    R = path.R if R is None else R
    alpha_hat = path.alpha_hat if shift is None else path.alpha_hat + shift
    return RollingMapPath(grid=path.grid, R=R, alpha=path.alpha, alpha_hat=alpha_hat,
                          s=alpha_hat - np.einsum("kij,kj->ki", R, path.alpha), form=path.form)


def _normal_offset(model, path):
    # the development leaves the flat tangent plane by 0.01 along a unit normal
    return _moved(path, shift=0.01 * model.normal0[:, 0])


def _normal_reflection(model, path):
    # D = I - 2 v (J v)^T / <v, v>_J is a J-isometry of det -1 that fixes T_hat
    v = model.normal0[:, 0]
    jv = model.form.signs * v
    return _moved(path, R=(np.eye(model.ambient_dim) - 2.0 * np.outer(v, jv) / (v @ jv)) @ path.R)


def _normal_stretch(model, path):
    # I + 1e-5 v v^T is no isometry, and reads about 2e-5 in ``isometry``
    v = model.normal0[:, 0]
    return _moved(path, R=(np.eye(model.ambient_dim) + 1e-5 * np.outer(v, v)) @ path.R)


def _unit_first_column(frame):
    return frame[:, 0] / np.linalg.norm(frame[:, 0])


def _contact_break(model, path):
    # alpha_hat moves by 1e-5 along a unit flat tangent, s kept: R alpha + s misses it by 1e-5
    shifted = path.alpha_hat + 1e-5 * _unit_first_column(model.frame0)
    return RollingMapPath(grid=path.grid, R=path.R, s=path.s, alpha=path.alpha,
                          alpha_hat=shifted, form=path.form)


def _flat_tilt(model, path):
    # K = u (J v)^T - v (J u)^T is J-skew in the plane of a unit tangent u and a unit
    # normal v, so expm(1e-6 K) tilts R(t) T_alpha M off the flat tangent plane by 1e-6
    u, v = _unit_first_column(model.frame0), _unit_first_column(model.normal0)
    signs = model.form.signs
    K = np.outer(u, signs * v) - np.outer(v, signs * u)
    return _moved(path, R=expm(1e-6 * K) @ path.R)


def _open(fault, reason):
    return pytest.param(fault, id=fault.__name__.lstrip("_"), marks=pytest.mark.xfail(
        strict=True, raises=AssertionError, reason=reason))


FALSE_PASSES = [
    _open(_normal_offset, "3: no check of the development against the flat tangent plane"),
    _open(_normal_reflection, "4: no identity-component test of R(t)"),
    _open(_normal_stretch, "5: the group residual is judged against 50 h^2 alone"),
    _open(_contact_break, "6: the contact residual is judged against 50 h^2 alone"),
    _open(_flat_tilt, "7: the tangency residual is judged against 50 h^2 alone"),
]


@pytest.mark.parametrize("name", PROBE_MODELS)
def test_the_exact_paths_pass(name):
    model = get_model(name)
    path = _exact_path(model)
    assert model_residual_report(model, path).passed(50.0 * path.grid.h ** 2)


@pytest.mark.parametrize("name", PROBE_MODELS)
@pytest.mark.parametrize("fault", FALSE_PASSES)
def test_false_pass(fault, name):
    model = get_model(name)
    path = fault(model, _exact_path(model))
    assert not model_residual_report(model, path).passed(50.0 * path.grid.h ** 2)


@pytest.mark.xfail(strict=True, raises=ValueError,
                   reason="8: the model's own tangent frame at alpha exceeds FRAME_COND_MAX")
def test_false_refusal_8_a_strongly_boosted_start_value():
    # refused as "tangency: F_M(t) is rank deficient at node 22 (condition number 1.0e+06)"
    model, path = boosted_start_roll(5.0, 3.5)
    assert model_residual_report(model, path).passed(50.0 * path.grid.h ** 2)
