"""Hyperbolic plane: the hyperboloid, an orbit of the adjoint action of SU(1,1).

The algebra su(1,1) is spanned by

    A1 = 1/2 [[i, 0], [0, -i]],  A2 = 1/2 [[0, 1], [1, 0]],  A3 = 1/2 [[0, i], [-i, 0]],

a general element ``X = 1/2 [[i v, u], [conj(u), -i v]]`` carrying coordinates
(v, u1, u2) with u = u1 + i u2, held as its real 4 x 4 form (``real_form``).
In these coordinates the adjoint action on the algebra preserves
``-v^2 + u1^2 + u2^2``; the orbit of (1, 0, 0), the base point obar, is the
upper sheet (v > 0) of the two-sheeted hyperboloid -v^2 + u1^2 + u2^2 = -1,
and the ambient form is diag(-1, 1, 1).  The curve helper
``embed_hyperbolic`` maps the Poincare disc onto it, with iota(0) = obar:

    iota(z) = ( (1+|z|^2)/(1-|z|^2), 2 Im z/(1-|z|^2), -2 Re z/(1-|z|^2) ).

The sphere (``sphere.py``), the other rank-one quadric, shares
``quadric_description`` (real forms and obar).  Each bundle is the model's
rho and d_e_rho plus the one-column level set <x, x>_J = +-1 (the fixed
level, so a description's obar is checked, not trusted) of
``pseudo_orthogonal._level_set``: null-space frames and <x, x>_J -+ 1.
``kinematic_roll``, also held here, integrates the paper's kinematic
equations on every symmetric model (the two quadrics, SO+(p, q), V_1(R^n))
with the one ambient angular velocity Ubar = d_e_rho(U), on the control's
own grid, and refuses the others.  ``roll_hyperboloid`` takes its control as
(u1, u2), which are the model coordinates (-u2, u1), and is the one roll
entry point with a ``grid``.
"""

from __future__ import annotations

import numpy as np

from ..homogeneous import _control_curve
from ..integrate import flow_matrix_ode, integrate_vector
from ..linalg import j_transpose_inverse
from ..rolling import RollingMapPath
from .pseudo_orthogonal import _level_set

__all__ = [
    "SU11_BASIS",
    "real_form",
    "su11_coords",
    "hat",
    "adjoint_matrix",
    "embed_hyperbolic",
    "quadric_description",
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


def real_form(X):
    """r(X) = [[Re X, -Im X], [Im X, Re X]] of matrices (..., d, d), as (..., 2d, 2d).

    r is multiplicative and r(X*) = r(X)^T, so r(X)^T (J + J) r(X) = r(X* J X):
    r(X) preserves J tiled twice exactly when X preserves J.
    """
    X = np.asarray(X)
    return np.block([[X.real, -X.imag], [X.imag, X.real]])


def su11_coords(X):
    """Coordinates (v, u1, u2) of su(1,1) matrices in real form (..., 4, 4), as (..., 3):
    2 Im X_00, 2 Re X_01 and 2 Im X_01, the entries (2, 0), (0, 1) and (2, 1) of r(X).

    su(2) matrices keep their coordinates (u1, u2, u3) in the same entries,
    so the sphere model reads them with this function too.
    """
    X = np.asarray(X)
    return np.stack([2.0 * X[..., 2, 0], 2.0 * X[..., 0, 1], 2.0 * X[..., 2, 1]], axis=-1)


def hat(u):
    """Cross-product matrices (..., 3, 3) of vectors u (..., 3): hat(u) w = u x w."""
    u1, u2, u3 = np.moveaxis(np.asarray(u), -1, 0)
    z = np.zeros_like(u1)
    rows = [[z, -u3, u2], [u3, z, -u1], [-u2, u1, z]]
    return np.stack([np.stack(row, axis=-1) for row in rows], axis=-2)


def adjoint_matrix(g, basis):
    """Matrices (..., 3, 3) of X -> g X g^{-1} in ``basis`` coordinates.

    g (..., 4, 4) holds real forms, ``basis`` the complex 2 x 2 matrices B_j.
    Column j holds the coordinates of M = g B_j g^{-1}, which ``su11_coords``
    reads from the entries (0, 0) and (0, 1) of M alone.  Those two are formed
    elementwise from the complex entries a, b, c, d of g with the adjugate
    formula g^{-1} = [[d, -b], [-c, a]] / (a d - b c): with (x, y) the top row
    of g B_j, M_00 = (x d - y c) / det g and M_01 = (y a - x b) / det g.
    """
    g = np.asarray(g)[..., None, :, :]
    g = g[..., :2, :2] + 1j * g[..., 2:, :2]
    a, b, c, d = g[..., 0, 0], g[..., 0, 1], g[..., 1, 0], g[..., 1, 1]
    x = a * basis[:, 0, 0] + b * basis[:, 1, 0]
    y = a * basis[:, 0, 1] + b * basis[:, 1, 1]
    det = a * d - b * c
    m00, m01 = (x * d - y * c) / det, (y * a - x * b) / det
    return np.stack([2.0 * m00.imag, 2.0 * m01.real, 2.0 * m01.imag], axis=-2)


def embed_hyperbolic(z):
    """Map disc points onto the hyperboloid; accepts scalars or arrays."""
    z = np.asarray(z, dtype=complex)
    r2 = np.abs(z) ** 2
    if np.any(r2 >= 1.0):
        raise ValueError("disc points must satisfy |z| < 1")
    den = 1.0 - r2
    return np.stack([(1.0 + r2) / den, 2.0 * z.imag / den, -2.0 * z.real / den], axis=-1)


def quadric_description(name, basis, signs, group_signs, obar, embedding):
    """Declarative data (JSON-serializable) of a quadric model with complex 2 x 2 ``basis``
    preserving ``group_signs``, stored as its real forms under those signs tiled twice."""
    return {
        "format_version": 2,
        "name": name,
        "J_signs": signs,
        "group_signs": group_signs * 2,
        "basis": real_form(basis).tolist(),
        "h_indices": [0],
        "p_indices": [1, 2],
        "d_e_pi": [[0.5, 0.0], [0.0, 0.5]],
        "obar": obar,
        "embedding": embedding,
    }


def description():
    """Declarative model data (JSON-serializable)."""
    return quadric_description("hyperboloid", SU11_BASIS, [-1, 1, 1], [1, -1],
                               embed_hyperbolic(0.0).tolist(), "builtin:hyperboloid12")


def bundle(desc):
    signs = np.asarray(desc["J_signs"], dtype=float)
    return {"rho": lambda g: adjoint_matrix(g, SU11_BASIS),
            "d_e_rho": lambda X: signs[:, None] * hat(su11_coords(X)),
            **_level_set(signs, 1, [[-1.0]])}


def _kinematic_path(model, grid, coords):
    """The kinematic roll of ``model`` for p-coordinates ``coords`` at ``grid.stage_ts``."""
    form = model.form
    ubars = np.tensordot(coords, model.d_rho_p, axes=(-1, 0))
    qbar = flow_matrix_ode(ubars, np.eye(form.dim), grid, "right", form)
    rots = j_transpose_inverse(qbar, form)
    obar = model.obar
    s = integrate_vector(ubars @ obar, grid)
    alpha = np.einsum("kij,j->ki", qbar, obar)
    alpha_hat = obar[None, :] + s
    return RollingMapPath(grid=grid, R=rots, s=s, alpha=alpha, alpha_hat=alpha_hat,
                          form=form)


def kinematic_roll(model, control):
    """Extrinsic rolling of a symmetric model on its affine tangent space.

    The kinematic equations of the rolling (Hüper & Silva Leite, 2007)

        qbar' = qbar Ubar,   sbar' = Ubar obar

    are integrated directly (independently of the lift-based assembly in the
    engine) under the model's ambient form, with Ubar = d_e_rho(U) =
    sum_i c_i d_e_rho(p_i) (the model's ``d_rho_p``) the ambient angular
    velocity of the control U(t) in p.  The curve is alphabar = qbar obar and
    the rotation is Rbar = J qbar^T J, the J-inverse of qbar, which solves
    Rbar' = -Ubar Rbar.  Only on a symmetric space does this rotation roll
    without twist, so any other model is refused.  ``control`` is a
    ControlCurve, rolled on its own grid.  Returns a RollingMapPath.
    """
    if not model.symmetric_space:
        raise ValueError(f"kinematic_roll needs a symmetric space; model {model.name} is not "
                         "one, roll it with extrinsic_roll")
    control = _control_curve(control, model.p_dim)
    return _kinematic_path(model, control.grid, control.stage_coords())


def roll_hyperboloid(control, grid=None):
    """Extrinsic rolling of the hyperboloid on its affine tangent plane.

    ``control`` holds the components (u1, u2), the model coordinates
    (-u2, u1); the ambient angular velocity [[0, u1, u2], [u1, 0, 0],
    [u2, 0, 0]] is the Ubar of kinematic_roll for those coordinates.  A
    given ``grid`` must be the control's own.
    """
    from . import get_model

    control = _control_curve(control, 2, grid)
    u = control.stage_coords()
    return _kinematic_path(get_model("hyperboloid"), control.grid, np.stack([-u[:, 1], u[:, 0]], 1))
