"""so_plus_2_2 from strongly boosted group elements: the base point, a start value, a roll.

A boost of parameters (a, b) has entries near cosh(a), so its rotations R(t)
are large J-isometries whose Euclidean condition number grows like |R|^2.
"""

import numpy as np

from semiroll.homogeneous import ControlCurve, extrinsic_roll
from semiroll.integrate import TimeGrid
from semiroll.linalg import expm
from semiroll.models import get_model


def boost(a, b):
    """exp of the so(2,2) boost with entries a (0, 2) and b (1, 3)."""
    X = np.zeros((4, 4))
    X[0, 2] = X[2, 0] = a
    X[1, 3] = X[3, 1] = b
    return expm(X)


def boosted_start(a, b):
    """The so_plus_2_2 start value q0 = diag(B, B), B = ``boost(a, b)``."""
    B = boost(a, b)
    return np.block([[B, np.zeros((4, 4))], [np.zeros((4, 4)), B]])


def boosted_start_roll(a, b, n_steps=40):
    """(model, path): so_plus_2_2 rolled from ``boosted_start(a, b)`` under 0.5 cos((1 + i) t)."""
    model = get_model("so_plus_2_2")
    grid = TimeGrid(0.0, 1.0, n_steps)
    rates = 1.0 + np.arange(model.p_dim)
    ctrl = ControlCurve.from_function(grid, lambda t: 0.5 * np.cos(rates * t))
    return model, extrinsic_roll(model, ctrl, q0=boosted_start(a, b))
