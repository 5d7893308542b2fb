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

import numpy as np

from ..linalg import stacked_null_spaces
from .hyperbolic import MoebiusElement, _action, _adjoint, kinematic_roll, moebius_lift
from .hyperbolic import su11_coords as su2_coords

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


def _rho(g):
    P = CHART_CONJUGATOR
    return P @ _adjoint(g, SU2_BASIS) @ P.T


def _d_e_rho(X):
    return hat(CHART_CONJUGATOR @ su2_coords(X))


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
    }


def make_sphere_model():
    from . import get_model

    return get_model("sphere")


def chart_lift_matrix(z):
    """The standard section h(z) of SU(2) over the chart, h(z).0 = z."""
    f = 1.0 / np.sqrt(1.0 + abs(z) ** 2)
    return MoebiusElement(a=f, b=f * z, branch="su2").matrix


def sphere_lift(z_samples, grid, theta0=0.0):
    """Explicit horizontal lift of a chart curve into SU(2); see moebius_lift."""
    return moebius_lift(z_samples, grid, "su2", theta0)


def roll_sphere(control, grid=None):
    """Extrinsic rolling of the unit sphere on its affine tangent plane.

    ``control`` holds the coefficients (c2, c3) of the horizontal generator
    c2 A2 + c3 A3; the ambient angular velocity is hat(P (0, c2, c3)) (see
    kinematic_roll, here with the Euclidean form).
    """
    def ubar_of(c):
        return hat(CHART_CONJUGATOR @ np.array([0.0, c[0], c[1]]))

    return kinematic_roll(make_sphere_model(), control, grid, ubar_of)
