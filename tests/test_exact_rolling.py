"""The rolls against the exact rolling of ``exact_rolling``, which shares no
integrator, interpolant or derivative with the library.

Each field converges at fourth order, at least 12x per halving of the step,
wherever its error is at least 100x the oracle's own floor: the gap between
two routes to the same exponentials, ``linalg.expm`` and ``scipy.linalg.expm``.
Below that the error is the oracle's rounding as much as the library's.
"""

import functools

import numpy as np
import pytest
from scipy.linalg import expm as scipy_expm

from semiroll.homogeneous import ControlCurve, extrinsic_roll, intrinsic_roll
from semiroll.integrate import TimeGrid
from semiroll.models import get_model

from exact_rolling import exact_rolling, oracle_case

SEVEN_MODELS = ["sphere", "hyperboloid", "so_plus_1_2", "so_plus_2_2",
                "stiefel_3_1", "stiefel_4_2", "stiefel_5_3"]
ORACLE_STEPS = (250, 500, 1000)


def _relative(new, exact):
    return float(np.max(np.abs(new - exact))) / max(1.0, float(np.max(np.abs(exact))))


@pytest.mark.parametrize("name", SEVEN_MODELS)
def test_the_oracle_starts_at_the_identity_and_the_base_point(name):
    model = get_model(name)
    _, R, s, alpha, alpha_hat = exact_rolling(model, *oracle_case(model), [0.0])
    assert np.array_equal(R[0], np.eye(model.ambient_dim))
    assert np.array_equal(alpha_hat[0], model.obar)
    assert np.array_equal(alpha[0], model.obar)
    assert np.array_equal(s[0], np.zeros(model.ambient_dim))


# eighth-order central differences: truncation (step^8) far below rounding
STENCIL = np.array([1 / 280, -4 / 105, 1 / 5, -4 / 5, 0.0, 4 / 5, -1 / 5, 4 / 105, -1 / 280])


@pytest.mark.parametrize("name", SEVEN_MODELS)
def test_the_oracle_curve_moves_with_its_control_along_its_lift(name):
    # alpha(t) = rho(exp(t(Z+U))) obar is differenced; rho(q) F0 c(t) takes the
    # lift q = exp(t(Z+U)) exp(-tZ) and the control c(t) = expm(t ad_Z) c0
    model = get_model(name)
    Z, c0 = oracle_case(model)
    U = model.p_element(c0)
    step = 1e-2
    for t in (0.3, 0.7, 1.0):
        control, _, _, alpha, _ = exact_rolling(model, Z, c0, t + step * np.arange(-4, 5))
        velocity = STENCIL @ alpha / step
        q = scipy_expm(t * (Z + U)) @ scipy_expm(-t * Z)
        expected = np.asarray(model.rho(q)) @ model.frame0 @ control(t)
        assert _relative(velocity, expected) <= 1e-10


@functools.lru_cache(maxsize=None)
def _oracle(name, n_steps):
    """The control function and the exact (R, s, alpha, alpha_hat) at the grid's nodes,
    by ``linalg.expm`` and by ``scipy.linalg.expm``: their gap is each field's floor."""
    model = get_model(name)
    Z, c0 = oracle_case(model)
    ts = TimeGrid(0.0, 1.0, n_steps).ts
    control, *exact = exact_rolling(model, Z, c0, ts)
    _, *other = exact_rolling(model, Z, c0, ts, exp=scipy_expm)
    return control, exact, other


def _errors(name, roll, n_steps):
    """{field: (error, floor)} of one roll of the oracle control."""
    model = get_model(name)
    control, (R, s, alpha, alpha_hat), (R2, s2, alpha2, alpha_hat2) = _oracle(name, n_steps)
    out = roll(model, ControlCurve.from_function(TimeGrid(0.0, 1.0, n_steps), control))
    if roll is extrinsic_roll:
        fields = {"R": (out.R, R, R2), "s": (out.s, s, s2), "alpha": (out.alpha, alpha, alpha2),
                  "alpha_hat": (out.alpha_hat, alpha_hat, alpha_hat2)}
    else:
        head = model.d_e_pi @ model.cf0
        fields = {"maps": (out.maps, head @ R, head @ R2), "alpha": (out.alpha, alpha, alpha2),
                  "alpha_hat": (out.alpha_hat, (alpha_hat - model.obar) @ head.T,
                                (alpha_hat2 - model.obar) @ head.T)}
    return {field: (_relative(new, exact), _relative(other, exact))
            for field, (new, exact, other) in fields.items()}


ROLLS = {"extrinsic": extrinsic_roll, "intrinsic": intrinsic_roll}


@pytest.mark.parametrize("name, kind", [(name, kind) for name in SEVEN_MODELS for kind in ROLLS])
def test_rolls_converge_to_the_exact_rolling(name, kind):
    errors = [_errors(name, ROLLS[kind], n) for n in ORACLE_STEPS]
    checked = 0
    for coarse, fine in zip(errors, errors[1:]):
        for field, (error, floor) in fine.items():
            if error >= 100.0 * floor:
                checked += 1
                assert coarse[field][0] >= 12.0 * error, (field, coarse[field][0], error, floor)
    assert checked
