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

The sphere and the hyperboloid share one quadric construction in
``hyperbolic.py``, which also holds ``hat`` and ``su2_coords`` (there
``su11_coords``); this module keeps the SU(2) basis, P, the embedding, rho
and d_e_rho.
"""

from __future__ import annotations

import numpy as np

from .hyperbolic import adjoint_matrix, hat, quadric_bundle, quadric_description
from .hyperbolic import su11_coords as su2_coords

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
    return quadric_description("sphere", SU2_BASIS, [1, 1, 1], [1, 1], "builtin:riemann_sphere")


def bundle(desc):
    P = CHART_CONJUGATOR
    return quadric_bundle(desc, lambda g: P @ adjoint_matrix(g, SU2_BASIS) @ P.T,
                          lambda X: hat(P @ su2_coords(X)), embed_sphere)


def chart_lift_matrix(z):
    """The standard section h(z) of SU(2) over the chart, h(z).0 = z."""
    f = 1.0 / np.sqrt(1.0 + abs(z) ** 2)
    return np.array([[f, f * z], [-np.conj(f * z), np.conj(f)]])
