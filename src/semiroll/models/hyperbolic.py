"""Hyperbolic plane: Poincare disc acted on by SU(1,1), hyperboloid embedding.

The algebra su(1,1) is realized by

    A1 = 1/2 [[i, 0], [0, -i]],  A2 = 1/2 [[0, 1], [1, 0]],  A3 = 1/2 [[0, i], [-i, 0]],

a general element ``X = 1/2 [[i v, u], [conj(u), -i v]]`` carrying coordinates
(v, u1, u2) with u = u1 + i u2.  In these coordinates the adjoint action on
the algebra preserves ``-v^2 + u1^2 + u2^2``; the orbit of (1, 0, 0) is the
upper sheet (v > 0) of the two-sheeted hyperboloid -v^2 + u1^2 + u2^2 = -1,
and the ambient form is diag(-1, 1, 1).  The disc coordinate z maps onto the
hyperboloid by

    iota(z) = ( (1+|z|^2)/(1-|z|^2), 2 Im z/(1-|z|^2), -2 Re z/(1-|z|^2) ).

Moebius transformations z -> (a z + b)/(conj(b) z + conj(a)) with
|a|^2 - |b|^2 = 1 act transitively; iota intertwines them with the adjoint
action.

The sphere (``sphere.py``), the other rank-one quadric, shares the quadric
construction held here: ``quadric_description``, ``quadric_bundle`` (Moebius
action, null-space tangent frames, ``quadric_transvection``) and
``kinematic_roll``; each model passes its basis, embedding, rho, d_e_rho.
"""

from __future__ import annotations

import numpy as np

from ..homogeneous import ControlCurve
from ..integrate import flow_matrix_ode, integrate_vector
from ..linalg import j_transpose_inverse, stacked_null_spaces
from ..rolling import RollingMapPath

__all__ = [
    "SU11_BASIS",
    "su11_coords",
    "hat",
    "adjoint_matrix",
    "embed_hyperbolic",
    "ubar_matrix",
    "quadric_transvection",
    "quadric_description",
    "quadric_bundle",
    "description",
    "bundle",
    "kinematic_roll",
    "roll_hyperboloid",
]

SU11_BASIS = 0.5 * np.array(
    [
        [[1j, 0.0], [0.0, -1j]],
        [[0.0, 1.0], [1.0, 0.0]],
        [[0.0, 1j], [-1j, 0.0]],
    ]
)


def su11_coords(X):
    """Coordinates (v, u1, u2) of su(1,1) matrices (..., 2, 2), as (..., 3).

    su(2) matrices keep their coordinates (u1, u2, u3) in the same entries,
    so the sphere model reads them with this function too.
    """
    X = np.asarray(X)
    return np.stack([2.0 * X[..., 0, 0].imag, 2.0 * X[..., 0, 1].real, 2.0 * X[..., 0, 1].imag],
                    axis=-1)


def hat(u):
    """Cross-product matrices (..., 3, 3) of vectors u (..., 3): hat(u) w = u x w."""
    u1, u2, u3 = np.moveaxis(np.asarray(u), -1, 0)
    z = np.zeros_like(u1)
    rows = [[z, -u3, u2], [u3, z, -u1], [-u2, u1, z]]
    return np.stack([np.stack(row, axis=-1) for row in rows], axis=-2)


def adjoint_matrix(g, basis):
    """Matrices (..., 3, 3) of X -> g X g^{-1} in ``basis`` coordinates, g (..., 2, 2)."""
    g = np.asarray(g)[..., None, :, :]
    return np.swapaxes(su11_coords(g @ basis @ np.linalg.inv(g)), -1, -2)


def embed_hyperbolic(z):
    """Map disc points onto the hyperboloid; accepts scalars or arrays."""
    z = np.asarray(z, dtype=complex)
    r2 = np.abs(z) ** 2
    if np.any(r2 >= 1.0):
        raise ValueError("disc points must satisfy |z| < 1")
    den = 1.0 - r2
    return np.stack([(1.0 + r2) / den, 2.0 * z.imag / den, -2.0 * z.real / den], axis=-1)


def ubar_matrix(u):
    """Ambient control matrices [[0,u1,u2],[u1,0,0],[u2,0,0]] of the rolling kinematics.

    ``u`` is (..., 2); the result is (..., 3, 3).
    """
    u = np.asarray(u, dtype=float)
    out = np.zeros(u.shape[:-1] + (3, 3))
    out[..., 0, 1:] = out[..., 1:, 0] = u[..., :2]
    return out


def quadric_transvection(alpha, v, signs, axes):
    """Transvections |<alpha, alpha>| sum_i (alpha x v)_i axes_i, stacked.

    For points alpha (..., 3) of a quadric <x, x> = +-1 under the sign
    vector ``signs`` (J = diag(signs)) and tangent vectors v (..., 3)
    there, this is the algebra element (..., d, d) that generates the
    infinitesimal isometry translating along the geodesic through alpha
    with velocity v: its linearized action eps (v alpha^T J - alpha v^T J),
    eps = <alpha, alpha>, maps alpha to v and the normal line at alpha into
    the tangent space.  ``axes`` (3, d, d) are the algebra elements with
    d_e_rho(axes[i]) = J_ii J hat(e_i), hat the cross-product matrix; the
    sphere and the hyperboloid share the formula.
    """
    alpha = np.asarray(alpha, dtype=float)
    eps = np.abs(np.sum(alpha * alpha * signs, axis=-1))[..., None]
    return np.tensordot(eps * np.cross(alpha, v), axes, axes=(-1, 0))


def quadric_description(name, basis, signs, group_signs, embedding):
    """Declarative data (JSON-serializable) of a quadric model with 2 x 2 ``basis``."""
    return {
        "format_version": 1,
        "name": name,
        "dtype": "complex",
        "J_signs": signs,
        "group_signs": group_signs,
        "basis": [[[[x.real, x.imag] for x in row] for row in mat] for mat in basis],
        "h_indices": [0],
        "p_indices": [1, 2],
        "d_e_pi": [[0.5, 0.0], [0.0, 0.5]],
        "base_point": [0.0, 0.0],
        "embedding": embedding,
        "params": {},
    }


def _action(g, z):
    """Moebius action of a 2 x 2 group matrix of either branch on a chart point."""
    g = np.asarray(g)
    return (g[0, 0] * z + g[0, 1]) / (g[1, 0] * z + g[1, 1])


def quadric_bundle(desc, rho, d_e_rho, embed, axes):
    """Callables of a quadric model: the sphere or the hyperboloid.

    The model supplies its own ``rho`` and ``d_e_rho``, its chart
    embedding and the ``axes`` of ``quadric_transvection``.  Both models
    share the Moebius action and the tangent frame at x, the null space of
    J x.
    """
    signs = np.asarray(desc["J_signs"], dtype=float)
    return {
        "rho": rho,
        "d_e_rho": d_e_rho,
        "action": _action,
        "embed": embed,
        "base_point": complex(desc["base_point"][0], desc["base_point"][1]),
        "tangent_frame_at": lambda x: stacked_null_spaces((signs * np.asarray(x, float))[:, None]),
        "transvection": lambda alpha, v: quadric_transvection(alpha, v, signs, axes),
    }


def description():
    """Declarative model data (JSON-serializable)."""
    return quadric_description("hyperboloid", SU11_BASIS, [-1, 1, 1], [1, -1],
                               "builtin:hyperboloid12")


def bundle(desc):
    signs = np.asarray(desc["J_signs"], dtype=float)
    return quadric_bundle(desc, lambda g: adjoint_matrix(g, SU11_BASIS),
                          lambda X: signs[:, None] * hat(su11_coords(X)),
                          embed_hyperbolic, signs[:, None, None] * SU11_BASIS)


def kinematic_roll(model, control, grid, ubar_of):
    """Extrinsic rolling of the sphere or the hyperboloid on its affine tangent plane.

    ``ubar_of`` maps control coordinates (..., k) to ambient angular
    velocities Ubar (..., N, N), and the kinematic equations

        qbar' = qbar Ubar,   sbar' = Ubar obar

    are integrated directly (independently of the lift-based assembly in the
    engine) under the model's ambient form.  The curve is alphabar = qbar obar
    and the rotation is Rbar = J qbar^T J, the J-inverse of qbar, which solves
    Rbar' = -Ubar Rbar.  ``control`` is a ControlCurve, or raw samples with a
    ``grid``.  Returns a RollingMapPath.
    """
    if not isinstance(control, ControlCurve):
        if grid is None:
            raise ValueError("need a grid when control is a raw array")
        control = ControlCurve(grid=grid, coords=control)
    grid = control.grid
    form = model.form

    ubars = ubar_of(control.stage_coords())
    qbar = flow_matrix_ode(ubars, np.eye(form.dim), grid, side="right", reproject_form=form)
    rots = j_transpose_inverse(qbar, form)
    obar = model.obar
    s = integrate_vector(ubars @ obar, grid)
    alpha = np.einsum("kij,j->ki", qbar, obar)
    alpha_hat = obar[None, :] + s
    return RollingMapPath(grid=grid, R=rots, s=s, alpha=alpha, alpha_hat=alpha_hat,
                          form=form)


def roll_hyperboloid(control, grid=None):
    """Extrinsic rolling of the hyperboloid on its affine tangent plane.

    ``control`` holds the components (u1, u2); the ambient angular velocity
    is ubar_matrix(u(t)) (see kinematic_roll).
    """
    from . import get_model

    return kinematic_roll(get_model("hyperboloid"), control, grid, ubar_matrix)
