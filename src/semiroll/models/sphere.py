"""Round sphere: Riemann sphere chart acted on by SU(2), unit-sphere embedding.

su(2) basis:

    A1 = 1/2 [[i, 0], [0, -i]],  A2 = 1/2 [[0, 1], [-1, 0]],  A3 = 1/2 [[0, i], [i, 0]],

with a general element ``1/2 [[i u1, u2 + i u3], [-u2 + i u3, -i u1]]``
carrying coordinates (u1, u2, u3).  The adjoint action in these coordinates
is rotation by hat(u); the embedded picture conjugates it by the permutation

    P = [[0, 0, 1], [-1, 0, 0], [0, -1, 0]]

so that the chart embedding

    iota(z) = ( -2 Re z, (|z|^2 - 1), -2 Im z ) / (1 + |z|^2)

satisfies iota(g.z) = P Ad(g) P^T iota(z) for every g in SU(2).  The chart
origin lands on (0, -1, 0).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..homogeneous import GroupPath
from ..integrate import (
    dense_from_samples,
    fd_derivative,
    flow_matrix_ode,
    integrate_vector,
)
from ..linalg import stacked_null_spaces
from ..rolling import RollingMapPath
from .hyperbolic import MoebiusElement

__all__ = [
    "SU2_BASIS",
    "su2_coords",
    "hat",
    "CHART_CONJUGATOR",
    "embed_sphere",
    "description",
    "bundle",
    "make_sphere_model",
    "sphere_lift",
    "roll_sphere",
]

SU2_BASIS = 0.5 * np.array(
    [
        [[1j, 0.0], [0.0, -1j]],
        [[0.0, 1.0], [-1.0, 0.0]],
        [[0.0, 1j], [1j, 0.0]],
    ]
)

CHART_CONJUGATOR = np.array(
    [
        [0.0, 0.0, 1.0],
        [-1.0, 0.0, 0.0],
        [0.0, -1.0, 0.0],
    ]
)

HORIZONTALITY_TOL = 1e-5


def su2_coords(X):
    """Coordinates (u1, u2, u3) of an su(2) matrix."""
    X = np.asarray(X)
    return np.array([2.0 * X[0, 0].imag, 2.0 * X[0, 1].real, 2.0 * X[0, 1].imag])


def hat(u):
    """Cross-product matrix: hat(u) w = u x w."""
    u1, u2, u3 = u
    return np.array(
        [
            [0.0, -u3, u2],
            [u3, 0.0, -u1],
            [-u2, u1, 0.0],
        ]
    )


def embed_sphere(z):
    """Map chart points onto the unit sphere; accepts scalars or arrays."""
    z = np.asarray(z, dtype=complex)
    r2 = np.abs(z) ** 2
    den = 1.0 + r2
    return np.stack(
        [-2.0 * z.real / den, (r2 - 1.0) / den, -2.0 * z.imag / den], axis=-1
    )


def description():
    """Declarative model data (JSON-serializable)."""
    basis = [
        [[[x.real, x.imag] for x in row] for row in mat] for mat in SU2_BASIS
    ]
    return {
        "format_version": 1,
        "name": "sphere",
        "dtype": "complex",
        "J_signs": [1, 1, 1],
        "group_signs": [1, 1],
        "basis": basis,
        "h_indices": [0],
        "p_indices": [1, 2],
        "d_e_pi": [[0.5, 0.0], [0.0, 0.5]],
        "base_point": [0.0, 0.0],
        "embedding": "builtin:riemann_sphere",
        "params": {},
    }


def _adjoint(g):
    g = np.asarray(g)
    ginv = np.linalg.inv(g)
    return np.column_stack([su2_coords(g @ A @ ginv) for A in SU2_BASIS])


def _rho(g):
    P = CHART_CONJUGATOR
    return P @ _adjoint(g) @ P.T


def _d_e_rho(X):
    return hat(CHART_CONJUGATOR @ su2_coords(X))


def _action(g, z):
    g = np.asarray(g)
    num = g[0, 0] * z + g[0, 1]
    den = g[1, 0] * z + g[1, 1]
    return num / den


def _tangent_frame_at(xs):
    return stacked_null_spaces(np.asarray(xs, dtype=float)[:, None, :])


def _random_point(rng):
    r = 2.0 * np.sqrt(rng.uniform())
    phi = rng.uniform(0.0, 2.0 * np.pi)
    return r * np.exp(1j * phi)


def bundle(desc):
    z0 = complex(desc["base_point"][0], desc["base_point"][1])
    return {
        "rho": _rho,
        "d_e_rho": _d_e_rho,
        "action": _action,
        "embed": lambda z: embed_sphere(z),
        "base_point": z0,
        "obar": embed_sphere(z0),
        "tangent_frame_at": _tangent_frame_at,
        "random_point": _random_point,
        "closed_form_normal": True,
        "symmetric_space": True,
    }


@lru_cache(maxsize=1)
def make_sphere_model():
    from . import build_model

    return build_model(description())


def chart_lift_matrix(z):
    """The standard section h(z) of SU(2) over the chart, h(z).0 = z."""
    f = 1.0 / np.sqrt(1.0 + abs(z) ** 2)
    return MoebiusElement(a=f, b=f * z, branch="su2").matrix


def sphere_lift(z_samples, grid, theta0=0.0):
    """Horizontal lift g(t) = h(z(t)) exp(theta(t) A1), sign chosen at runtime.

    Same contract as hyperbolic_lift: both signs of the theta quadrature are
    tried and the one with uniformly smaller horizontality residual wins.
    """
    z = np.asarray(z_samples, dtype=complex)
    if z.shape != (grid.n_nodes,):
        raise ValueError("z samples must match the grid nodes")
    model = make_sphere_model()

    x = z.real
    y = z.imag
    xdot = fd_derivative(x, grid.h)
    ydot = fd_derivative(y, grid.h)
    rate = 2.0 * (x * ydot - xdot * y) / (1.0 + np.abs(z) ** 2)
    dense_rate = dense_from_samples(grid.ts, rate)
    theta_int = integrate_vector(lambda t: np.atleast_1d(dense_rate(t)), np.zeros(1), grid)[:, 0]

    factor = 1.0 / np.sqrt(1.0 + np.abs(z) ** 2)

    def assemble(theta):
        a = factor * np.exp(0.5j * theta)
        b = factor * z * np.exp(-0.5j * theta)
        g = np.empty((grid.n_nodes, 2, 2), dtype=complex)
        g[:, 0, 0] = a
        g[:, 0, 1] = b
        g[:, 1, 0] = -np.conj(b)
        g[:, 1, 1] = np.conj(a)
        return g

    from .hyperbolic import _node_horizontality

    candidates = {}
    residuals = {}
    for sign in (+1.0, -1.0):
        samples = assemble(theta0 + sign * theta_int)
        candidates[sign] = samples
        residuals[sign] = _node_horizontality(model, grid, samples)
    totals = {sign: float(np.max(res)) for sign, res in residuals.items()}
    winner = min(totals, key=totals.get)
    loser = -winner
    if not np.all(residuals[winner] <= residuals[loser] + 1e-9):
        raise ValueError("theta sign is ambiguous along the curve")
    speed = float(np.max(np.abs(rate))) + float(np.max(np.abs(xdot))) + float(np.max(np.abs(ydot)))
    if totals[winner] > HORIZONTALITY_TOL * max(1.0, speed):
        raise ValueError(
            f"no horizontal lift found (best residual {totals[winner]:.3e})"
        )
    return GroupPath(grid=grid, samples=candidates[winner], control=None)


def roll_sphere(control, grid=None):
    """Extrinsic rolling of the unit sphere on its affine tangent plane.

    ``control`` holds the coefficients (c2, c3) of the horizontal generator
    c2 A2 + c3 A3; the ambient angular velocity is then

        Ubar(t) = hat(P (0, c2, c3))

    and alphabar, Rbar, sbar integrate the same kinematic system as
    roll_hyperboloid (with the Euclidean form).
    """
    from ..homogeneous import ControlCurve

    if not isinstance(control, ControlCurve):
        if grid is None:
            raise ValueError("need a grid when control is a raw array")
        control = ControlCurve(grid=grid, coords=control)
    grid = control.grid
    model = make_sphere_model()
    form = model.form
    P = CHART_CONJUGATOR

    def ubar(t):
        c2, c3 = control.func(t)
        return hat(P @ np.array([0.0, c2, c3]))

    qbar = flow_matrix_ode(ubar, np.eye(3), grid, side="right", reproject_form=form)
    rots = flow_matrix_ode(lambda t: -ubar(t), np.eye(3), grid, side="left",
                           reproject_form=form)
    obar = model.obar
    s = integrate_vector(lambda t: ubar(t) @ obar, np.zeros(3), grid)
    alpha = np.einsum("kij,j->ki", qbar, obar)
    alpha_hat = obar[None, :] + s
    return RollingMapPath(grid=grid, R=rots, s=s, alpha=alpha, alpha_hat=alpha_hat,
                          form=form)
