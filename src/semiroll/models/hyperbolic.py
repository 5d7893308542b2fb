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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..homogeneous import ControlCurve, GroupPath, horizontality_residual
from ..integrate import (
    dense_from_samples,
    fd_derivative,
    flow_matrix_ode,
    integrate_vector,
)
from ..linalg import j_transpose_inverse, stacked_null_spaces
from ..rolling import RollingMapPath

__all__ = [
    "MoebiusElement",
    "SU11_BASIS",
    "su11_coords",
    "moebius_adjoint",
    "embed_hyperbolic",
    "ubar_matrix",
    "quadric_transvection",
    "description",
    "bundle",
    "make_hyperbolic_model",
    "moebius_lift",
    "hyperbolic_lift",
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

HORIZONTALITY_TOL = 1e-5


@dataclass
class MoebiusElement:
    """Group element of SU(1,1) (branch "su11") or SU(2) (branch "su2")."""

    a: complex
    b: complex
    branch: str = "su11"

    def __post_init__(self):
        if self.branch not in ("su11", "su2"):
            raise ValueError("branch must be 'su11' or 'su2'")
        det = abs(self.a) ** 2 - abs(self.b) ** 2 if self.branch == "su11" \
            else abs(self.a) ** 2 + abs(self.b) ** 2
        if abs(det - 1.0) > 1e-10:
            raise ValueError(f"(a, b) does not satisfy the {self.branch} determinant condition")

    @property
    def matrix(self):
        if self.branch == "su11":
            return np.array([[self.a, self.b], [np.conj(self.b), np.conj(self.a)]])
        return np.array([[self.a, self.b], [-np.conj(self.b), np.conj(self.a)]])

    @classmethod
    def from_matrix(cls, M, branch="su11", tol=1e-10):
        M = np.asarray(M)
        a, b = complex(M[0, 0]), complex(M[0, 1])
        expect = cls(a, b, branch).matrix
        if np.max(np.abs(expect - M)) > tol:
            raise ValueError(f"matrix does not have the {branch} structure")
        return cls(a, b, branch)

    def act(self, z):
        M = self.matrix
        return (M[0, 0] * z + M[0, 1]) / (M[1, 0] * z + M[1, 1])


def su11_coords(X):
    """Coordinates (v, u1, u2) of su(1,1) matrices (..., 2, 2), as (..., 3).

    su(2) matrices keep their coordinates (u1, u2, u3) in the same entries,
    so the sphere model reads them with this function too.
    """
    X = np.asarray(X)
    return np.stack([2.0 * X[..., 0, 0].imag, 2.0 * X[..., 0, 1].real, 2.0 * X[..., 0, 1].imag],
                    axis=-1)


def moebius_adjoint(a, b):
    """Adjoint matrix of [[a, b], [conj b, conj a]] in (v, u1, u2) coordinates."""
    a = complex(a)
    b = complex(b)
    aa, bb = abs(a) ** 2, abs(b) ** 2
    ab = a * b
    abc = a * np.conj(b)
    a2 = a * a
    b2 = b * b
    return np.array(
        [
            [aa + bb, 2.0 * np.imag(np.conj(a) * b), -2.0 * np.real(abc)],
            [2.0 * np.imag(ab), np.real(a2 - b2), -np.imag(a2 + b2)],
            [-2.0 * np.real(ab), np.imag(a2 - b2), np.real(a2 + b2)],
        ]
    )


def embed_hyperbolic(z):
    """Map disc points onto the hyperboloid; accepts scalars or arrays."""
    z = np.asarray(z, dtype=complex)
    r2 = np.abs(z) ** 2
    if np.any(r2 >= 1.0):
        raise ValueError("disc points must satisfy |z| < 1")
    den = 1.0 - r2
    out = np.stack(
        [(1.0 + r2) / den, 2.0 * z.imag / den, -2.0 * z.real / den], axis=-1
    )
    return out


def ubar_matrix(u):
    """Ambient control matrices [[0,u1,u2],[u1,0,0],[u2,0,0]] of the rolling kinematics.

    ``u`` is (..., 2); the result is (..., 3, 3).
    """
    u = np.asarray(u, dtype=float)
    out = np.zeros(u.shape[:-1] + (3, 3))
    out[..., 0, 1:] = out[..., 1:, 0] = u[..., :2]
    return out


def quadric_transvection(alpha, v, signs):
    """Transvections eps (v alpha^T J - alpha v^T J), eps = <alpha, alpha>, stacked.

    For points alpha (..., N) of a quadric <x, x> = +-1 under the sign
    vector ``signs`` and tangent vectors v (..., N) there, this is the
    J-skew generator (..., N, N) that maps alpha to v and the normal line
    of the quadric at alpha into its tangent space: the infinitesimal
    isometry translating along the geodesic through alpha with velocity v.
    The sphere and the hyperboloid share it.
    """
    alpha = np.asarray(alpha, dtype=float)
    v = np.asarray(v, dtype=float)
    j_alpha = alpha * signs
    eps = np.sum(alpha * j_alpha, axis=-1)[..., None, None]
    return eps * (v[..., :, None] * j_alpha[..., None, :]
                  - alpha[..., :, None] * (v * signs)[..., None, :])


def description():
    """Declarative model data (JSON-serializable)."""
    basis = [
        [[[x.real, x.imag] for x in row] for row in mat] for mat in SU11_BASIS
    ]
    return {
        "format_version": 1,
        "name": "hyperboloid",
        "dtype": "complex",
        "J_signs": [-1, 1, 1],
        "group_signs": [1, -1],
        "basis": basis,
        "h_indices": [0],
        "p_indices": [1, 2],
        "d_e_pi": [[0.5, 0.0], [0.0, 0.5]],
        "base_point": [0.0, 0.0],
        "embedding": "builtin:hyperboloid12",
        "params": {},
    }


def _adjoint(g, basis):
    """Matrices (..., 3, 3) of X -> g X g^{-1} in ``basis`` coordinates, g (..., 2, 2)."""
    g = np.asarray(g)[..., None, :, :]
    return np.swapaxes(su11_coords(g @ basis @ np.linalg.inv(g)), -1, -2)


def _rho(g):
    return _adjoint(g, SU11_BASIS)


def _d_e_rho(X):
    v, u1, u2 = su11_coords(X)
    return np.array(
        [
            [0.0, u2, -u1],
            [u2, 0.0, -v],
            [-u1, v, 0.0],
        ]
    )


def _action(g, z):
    """Moebius action of a 2 x 2 group matrix of either branch on a chart point."""
    g = np.asarray(g)
    return (g[0, 0] * z + g[0, 1]) / (g[1, 0] * z + g[1, 1])


def _tangent_frame_at(xs):
    signs = np.array([-1.0, 1.0, 1.0])
    return stacked_null_spaces((signs * np.asarray(xs, dtype=float))[:, None, :])


def _random_point(rng):
    r = 0.85 * np.sqrt(rng.uniform())
    phi = rng.uniform(0.0, 2.0 * np.pi)
    return r * np.exp(1j * phi)


def bundle(desc):
    z0 = complex(desc["base_point"][0], desc["base_point"][1])
    signs = np.asarray(desc["J_signs"], dtype=float)
    return {
        "rho": _rho,
        "d_e_rho": _d_e_rho,
        "action": _action,
        "embed": lambda z: embed_hyperbolic(z),
        "base_point": z0,
        "obar": embed_hyperbolic(z0),
        "tangent_frame_at": _tangent_frame_at,
        "random_point": _random_point,
        "transvection": lambda alpha, v: quadric_transvection(alpha, v, signs),
    }


def make_hyperbolic_model():
    from . import get_model

    return get_model("hyperboloid")


# model whose horizontality the explicit lift of each branch is checked against
_BRANCH_MODELS = {"su11": "hyperboloid", "su2": "sphere"}


def moebius_lift(z_samples, grid, branch, theta0=0.0):
    """Horizontal lift g(t) = h(z(t)) exp(theta(t) A1) through explicit formulas.

    ``branch`` is a MoebiusElement branch: "su11" lifts a curve in the
    Poincare disc into SU(1,1), "su2" a curve in the Riemann sphere chart
    into SU(2).  The two differ only in the sign sigma of |z|^2 in
    1 + sigma |z|^2 (sigma = -1 on the disc), in the sign of g[1, 0] and
    in the disc check.  theta solves a scalar quadrature whose sign depends
    on orientation conventions, so both signs are integrated and the one
    with the smaller horizontality residual wins; the loser must be worse
    at every node or the input is rejected as ambiguous.  Serves as an
    independent cross-check of the generic frame-based lift.
    """
    if branch not in _BRANCH_MODELS:
        raise ValueError("branch must be 'su11' or 'su2'")
    z = np.asarray(z_samples, dtype=complex)
    if z.shape != (grid.n_nodes,):
        raise ValueError("z samples must match the grid nodes")
    disc = branch == "su11"
    if disc and np.any(np.abs(z) >= 1.0):
        raise ValueError("disc points must satisfy |z| < 1")
    from . import get_model

    model = get_model(_BRANCH_MODELS[branch])
    sigma = -1.0 if disc else 1.0

    x = z.real
    y = z.imag
    xdot = fd_derivative(x, grid.h)
    ydot = fd_derivative(y, grid.h)
    den = 1.0 + sigma * np.abs(z) ** 2
    rate = 2.0 * (x * ydot - xdot * y) / den
    theta_int = integrate_vector(dense_from_samples(grid.ts, rate)(grid.stage_ts), grid)

    factor = 1.0 / np.sqrt(den)

    def assemble(theta):
        a = factor * np.exp(0.5j * theta)
        b = factor * z * np.exp(-0.5j * theta)
        g = np.empty((grid.n_nodes, 2, 2), dtype=complex)
        g[:, 0, 0] = a
        g[:, 0, 1] = b
        g[:, 1, 0] = np.conj(b) if disc else -np.conj(b)
        g[:, 1, 1] = np.conj(a)
        return GroupPath(grid=grid, samples=g)

    candidates = {}
    residuals = {}
    for sign in (+1.0, -1.0):
        candidates[sign] = assemble(theta0 + sign * theta_int)
        residuals[sign] = horizontality_residual(model, candidates[sign])
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
    return candidates[winner]


def hyperbolic_lift(z_samples, grid, theta0=0.0):
    """Explicit horizontal lift of a disc curve into SU(1,1); see moebius_lift."""
    return moebius_lift(z_samples, grid, "su11", theta0)


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

    ubars = ubar_of(control.at(grid.stage_ts))
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
    return kinematic_roll(make_hyperbolic_model(), control, grid, ubar_matrix)
