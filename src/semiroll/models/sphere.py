"""Round sphere: the unit sphere, an orbit of SU(2) acting through SO(3).

su(2) basis:

    A1 = 1/2 [[i, 0], [0, -i]],  A2 = 1/2 [[0, 1], [-1, 0]],  A3 = 1/2 [[0, i], [i, 0]],

with a general element ``1/2 [[i u1, u2 + i u3], [-u2 + i u3, -i u1]]``
carrying coordinates (u1, u2, u3), held as its real 4 x 4 form r(X), so SU(2)
sits in SO(4).  The adjoint action in these coordinates is rotation by
hat(u); rho(g) = P Ad(g) P^T conjugates it by the permutation

    P = [[0, 0, 1], [-1, 0, 0], [0, -1, 0]],

and obar = (0, -1, 0) lies on the quadric <x, x> = 1.  The curve helpers
read the Riemann sphere: ``embed_sphere`` is

    iota(z) = ( -2 Re z, (|z|^2 - 1), -2 Im z ) / (1 + |z|^2),

iota(0) = obar, and ``chart_lift_matrix`` a section: rho(h(z)) obar = iota(z).

The sphere shares ``quadric_description``, ``real_form``, ``hat`` and
``su2_coords`` (there ``su11_coords``) with ``hyperbolic.py``; this module keeps
the SU(2) basis, P, rho, d_e_rho and the two curve helpers, and its bundle adds
the level set <x, x> = 1 of ``pseudo_orthogonal._level_set``.
"""

from __future__ import annotations

import numpy as np

from .hyperbolic import adjoint_matrix, hat, quadric_description, real_form
from .hyperbolic import su11_coords as su2_coords
from .pseudo_orthogonal import _level_set

__all__ = [
    "SU2_BASIS",
    "su2_coords",
    "hat",
    "CHART_CONJUGATOR",
    "embed_sphere",
    "description",
    "bundle",
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


def embed_sphere(z):
    """Map chart points onto the unit sphere; accepts scalars or arrays."""
    z = np.asarray(z, dtype=complex)
    r2 = np.abs(z) ** 2
    den = 1.0 + r2
    return np.stack([-2.0 * z.real / den, (r2 - 1.0) / den, -2.0 * z.imag / den], axis=-1)


def description():
    """Declarative model data (JSON-serializable)."""
    return quadric_description("sphere", SU2_BASIS, [1, 1, 1], [1, 1],
                               embed_sphere(0.0).tolist(), "builtin:riemann_sphere")


def bundle(desc):
    P = CHART_CONJUGATOR
    return {"rho": lambda g: P @ adjoint_matrix(g, SU2_BASIS) @ P.T,
            "d_e_rho": lambda X: hat(P @ su2_coords(X)),
            **_level_set(desc["J_signs"], 1, [[1.0]])}


def chart_lift_matrix(z):
    """The real form of the standard section h(z) of SU(2): rho(h(z)) obar = embed_sphere(z)."""
    f = 1.0 / np.sqrt(1.0 + abs(z) ** 2)
    return real_form(np.array([[f, f * z], [-np.conj(f * z), np.conj(f)]]))
