"""Stiefel manifolds V_k(R^n) = SO(n)/SO(n-k) rolling inside R^{n x k}.

Points are n x k orthonormal frames, flattened column-major; SO(n) acts by
left multiplication, rho(Q) = kron(I_k, Q).  At the base frame E (first k
columns of the identity) the tangent space holds matrices (A; B) with A
skew and the normal space (S; 0) with S symmetric.  For k >= 2 this is a
reductive but NOT symmetric splitting: [p, p] leaks into p, so the rolling
rotation is the transpose of rho(q) S(t), the lift composed with an
interpolating-frame correction S(t) solving

    S' = Omega(t) S,   Omega = -(Pi M_U Pi + Pi_perp M_U Pi_perp),

with M_U = kron(I_k, U(t)) = d_e_rho(U) for the horizontal control U and Pi
the orthogonal projector onto the base tangent space.  The bundle supplies
nothing for it: ``CartanModel`` derives Omega from ``d_e_rho`` on every
model (``omega_basis``).  For k = 1, V_1(R^n) = S^{n-1} is a symmetric
space: Omega vanishes identically and the model is classified symmetric.
The rolling map itself is assembled by ``homogeneous.extrinsic_roll`` as
for every other model.  For every k, Ad_H p = p, so the horizontal
generator through a frame A with velocity V depends on (A, V) alone: the
bundle's ``transvection`` is X with W = A^T V and

    X = V A^T - A V^T - 1/2 A (W - W^T) A^T.
"""

from __future__ import annotations

import numpy as np

# the benchmark tracer (perfbench/tracer.py) times the correction under this module's name
from ..homogeneous import _correction_path, _on_grid, extrinsic_roll  # noqa: F401
from ..linalg import stacked_kron, stacked_null_spaces, stacked_vec

__all__ = [
    "description",
    "bundle",
    "roll_stiefel",
]


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
    }


def roll_stiefel(n, k, data, grid=None):
    """Extrinsic rolling of V_k(R^n) on its affine tangent space at the base.

    ``data`` is a ControlCurve (p-coordinates: skew pairs of the top block
    first, then the lower block row-major) or an EmbeddedCurve of frames
    flattened by ``linalg.stacked_vec``.  It carries its own grid, and a
    given ``grid`` that differs from it is refused.
    """
    from . import get_model

    return extrinsic_roll(get_model(f"stiefel_{int(n)}_{int(k)}"), _on_grid(data, grid))
