"""Stiefel manifolds V_k(R^n) = SO(n)/SO(n-k) rolling inside R^{n x k}.

Points are n x k orthonormal frames, flattened column-major; SO(n) acts by
left multiplication, rho(Q) = kron(I_k, Q).  At the base frame E (first k
columns of the identity) the tangent space holds matrices (A; B) with A
skew and the normal space (S; 0) with S symmetric.  This is a reductive
but NOT symmetric splitting: [p, p] leaks into p, so the rolling rotation
is the transpose of rho(q) S(t), the lift composed with an
interpolating-frame correction S(t) solving

    S' = Omega(t) S,   Omega = -(Pi M_U Pi + Pi_perp M_U Pi_perp),

with M_U = kron(I_k, U(t)) for the horizontal control U and Pi the
orthogonal projector onto the base tangent space.  For k = 1 (the sphere)
Omega vanishes identically and the correction is the identity.  The bundle
supplies S(t) as the model's ``rotation_correction``; the rolling map itself
is assembled by ``homogeneous.extrinsic_roll`` as for every other model.
Although the space is not symmetric, Ad_H p = p, so the horizontal generator
through a frame A with velocity V depends on (A, V) alone: the bundle's
``transvection`` is X with W = A^T V and

    X = V A^T - A V^T - 1/2 A (W - W^T) A^T.
"""

from __future__ import annotations

import weakref

import numpy as np

from ..homogeneous import EmbeddedCurve, extrinsic_roll
from ..integrate import flow_matrix_ode
from ..linalg import stacked_kron, stacked_null_spaces, stacked_vec

__all__ = [
    "stiefel_omega",
    "description",
    "bundle",
    "roll_stiefel",
]

PBLOCK_TOL = 1e-10

# the (n^2, N^2) map of stiefel_omega, per model object
_OMEGA_MAPS = weakref.WeakKeyDictionary()


def _omega_map(model):
    """The (n^2, N^2) matrix of the linear map U -> Omega(U), built once per model.

    Row a is Omega(E_a) of the a-th unit matrix, with Pi the model's
    orthogonal projector ``frame0 cf0`` onto the base tangent space.
    """
    omap = _OMEGA_MAPS.get(model)
    if omap is None:
        n = int(model.params["n"])
        k = int(model.params["k"])
        M = stacked_kron(np.eye(k), np.eye(n * n).reshape(n * n, n, n))
        Pt = model.frame0 @ model.cf0
        Pn = np.eye(Pt.shape[0]) - Pt
        omap = _OMEGA_MAPS[model] = (-(Pt @ M @ Pt + Pn @ M @ Pn)).reshape(n * n, -1)
    return omap


def stiefel_omega(model, qdot):
    """Correction generators for horizontal group velocities qdot in p.

    ``qdot`` is (..., n, n) and the result (..., n k, n k); each velocity is
    checked against its own scale.  Omega(U) = -(Pi M_U Pi + Pi_perp M_U Pi_perp)
    is linear in U, so every generator of the stack is one row of a single
    product with the model's (n^2, N^2) map (``_omega_map``).
    """
    k = int(model.params["k"])
    U = np.asarray(qdot, dtype=float)
    tol = PBLOCK_TOL * np.maximum(1.0, np.max(np.abs(U), axis=(-2, -1)))
    if np.any(np.max(np.abs(U + np.swapaxes(U, -1, -2)), axis=(-2, -1)) > tol):
        raise ValueError("group velocity must be skew-symmetric")
    if np.any(np.max(np.abs(U[..., k:, k:]), axis=(-2, -1)) > tol):
        raise ValueError("group velocity must lie in the horizontal subalgebra")
    N = model.ambient_dim
    lead = U.shape[:-2]
    flat = U.reshape((-1, U.shape[-2] * U.shape[-1]))
    return (flat @ _omega_map(model)).reshape(lead + (N, N))


def description(n, k):
    """Declarative model data (JSON-serializable)."""
    n = int(n)
    k = int(k)
    if not 1 <= k < n:
        raise ValueError("need 1 <= k < n")
    basis = []
    for i in range(k):
        for j in range(i + 1, k):
            M = np.zeros((n, n))
            M[i, j] = 1.0
            M[j, i] = -1.0
            basis.append(M.tolist())
    for r in range(n - k):
        for c in range(k):
            M = np.zeros((n, n))
            M[k + r, c] = 1.0
            M[c, k + r] = -1.0
            basis.append(M.tolist())
    dp = len(basis)
    for i in range(k, n):
        for j in range(i + 1, n):
            M = np.zeros((n, n))
            M[i, j] = 1.0
            M[j, i] = -1.0
            basis.append(M.tolist())
    dh = len(basis) - dp
    return {
        "format_version": 1,
        "name": f"stiefel_{n}_{k}",
        "dtype": "real",
        "J_signs": [1] * (n * k),
        "group_signs": [1] * n,
        "basis": basis,
        "h_indices": list(range(dp, dp + dh)),
        "p_indices": list(range(dp)),
        "d_e_pi": np.eye(dp).tolist(),
        "base_point": np.eye(n, k).tolist(),
        "embedding": "builtin:stiefel",
        "params": {"n": n, "k": k},
    }


def _correction_path(model, lift):
    """Interpolating-frame correction S(t) along a horizontal lift.

    Takes the lift's own stage generators where it has them (a control-driven
    lift), so the control is read once per roll.  When every Omega is exactly
    zero (always for k = 1), S is the identity stack and no flow is run: the
    RK4 flow of zero generators is the identity to the bit.
    """
    generators = lift.stage_generators
    if generators is None:
        if lift.control is None:
            raise ValueError("lift carries no control curve")
        generators = model.p_element(lift.control.stage_coords())
    omegas = stiefel_omega(model, generators)
    eye = np.eye(model.ambient_dim)
    if not np.any(omegas):
        return np.broadcast_to(eye, (lift.grid.n_nodes,) + eye.shape).copy()
    return flow_matrix_ode(omegas, eye, lift.grid, side="left", reproject_form=model.form)


def bundle(desc):
    n = int(desc["params"]["n"])
    k = int(desc["params"]["k"])

    def rho(Q):
        return stacked_kron(np.eye(k), Q)

    def d_e_rho(X):
        return np.kron(np.eye(k), np.asarray(X))

    def action(Q, X):
        return np.asarray(Q) @ np.asarray(X)

    def embed(X):
        return stacked_vec(np.asarray(X, dtype=float))

    def transvection(alpha, v):
        # the generator X of the module docstring at frames A, velocities V
        A = np.swapaxes(np.asarray(alpha, dtype=float).reshape(-1, k, n), 1, 2)
        V = np.swapaxes(np.asarray(v, dtype=float).reshape(-1, k, n), 1, 2)
        At = np.swapaxes(A, 1, 2)
        W = At @ V
        return V @ At - A @ np.swapaxes(V, 1, 2) - 0.5 * A @ (W - np.swapaxes(W, 1, 2)) @ At

    def tangent_frame_at(xs):
        # each row of xs is vec(P) column-major, so a C-order reshape gives P^T;
        # frames are built as (m, column c, row i, a) and flattened to vec order
        Pt = np.asarray(xs, dtype=float).reshape(-1, k, n)
        m = Pt.shape[0]
        Pperp = stacked_null_spaces(Pt)
        skew_pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
        out = np.zeros((m, k, n, len(skew_pairs) + (n - k) * k))
        for a, (i, j) in enumerate(skew_pairs):
            out[:, j, :, a] = Pt[:, i, :]
            out[:, i, :, a] = -Pt[:, j, :]
        a0 = len(skew_pairs)
        for r in range(n - k):
            for c in range(k):
                out[:, c, :, a0 + r * k + c] = Pperp[:, :, r]
        return out.reshape(m, k * n, -1)

    return {
        "rho": rho,
        "d_e_rho": d_e_rho,
        "action": action,
        "embed": embed,
        "base_point": np.asarray(desc["base_point"], dtype=float),
        "tangent_frame_at": tangent_frame_at,
        "transvection": transvection,
        # looked up at call time, so a rebinding of _correction_path is seen
        "rotation_correction": lambda model, lift: _correction_path(model, lift),
    }


def roll_stiefel(n, k, data, grid=None, q0=None):
    """Extrinsic rolling of V_k(R^n) on its affine tangent space at the base.

    ``data`` is a ControlCurve (p-coordinates: skew pairs of the top block
    first, then the lower block row-major), an EmbeddedCurve of flattened
    frames, or an (m, n, k) array of frames with an explicit grid.
    """
    from . import get_model

    model = get_model(f"stiefel_{int(n)}_{int(k)}")
    if isinstance(data, np.ndarray):
        if grid is None:
            raise ValueError("need a grid when data is a raw array")
        arr = np.asarray(data, dtype=float)
        pts = stacked_vec(arr) if arr.ndim == 3 else arr
        data = EmbeddedCurve(grid=grid, points=pts)
    return extrinsic_roll(model, data, q0=q0)
