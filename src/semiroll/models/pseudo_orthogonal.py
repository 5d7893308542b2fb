"""Pseudo-orthogonal groups SO+(p, q) as symmetric spaces of G = SO+ x SO+.

A point is an n x n matrix X in the identity component of the J-orthogonal
group (J = diag(I_p, -I_q)); the symmetry group acts by (Q1, Q2).X =
Q1 X Q2^{-1} and is realized as 2n x 2n block-diagonal matrices diag(Q1, Q2).
The embedding flattens X column-major into R^{n^2}, where the invariant form

    <A, B> = tr(J A^T J B)

has sign pattern kron(j, j) for j the diagonal of J.  The description
stores the base point P0 as obar = vec(P0); the isotropy algebra is
{diag(B, P0^{-1} B P0)} and its complement {diag(B, -P0^{-1} B P0)} maps
onto tangent vectors 2 B P0.  The bundle's
``constraint`` is X^T J X - J, the group's defining equations.
"""

from __future__ import annotations

import numpy as np

from ..integrate import _integer
from ..linalg import ORTHOGONALITY_TOL, SignatureForm, is_oriented_isometry, stacked_kron

__all__ = [
    "so_pq_basis",
    "description",
    "bundle",
]


def so_pq_basis(p, q):
    """Basis of so(p, q): pairs (i, j), i < j, lexicographic.

    Same-block pairs give E_ij - E_ji, cross-block pairs E_ij + E_ji.
    """
    n = p + q
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            B = np.zeros((n, n))
            B[i, j] = 1.0
            B[j, i] = 1.0 if (i < p) != (j < p) else -1.0
            out.append(B)
    return np.array(out)


def _block_diag(A, B):
    """Block-diagonal matrices diag(A, B) of two equal-size stacks."""
    n = A.shape[-1]
    out = np.zeros(A.shape[:-2] + (2 * n, 2 * n))
    out[..., :n, :n] = A
    out[..., n:, n:] = B
    return out


def description(p, q, base_point=None):
    """Declarative model data (JSON-serializable)."""
    p, q = _integer(p, "p"), _integer(q, "q")
    if p < 0 or q < 0 or p + q < 2:
        raise ValueError("signature requires p, q >= 0 with p + q >= 2")
    n = p + q
    jd = np.concatenate([np.ones(p), -np.ones(q)])
    form_n = SignatureForm(jd)
    if base_point is None:
        P0 = np.eye(n)
    else:
        P0 = np.asarray(base_point, dtype=float)
        # the residual of |P0^T J P0 - J| rounds with max|P0_ij|^2, as for a start value q0
        tol = ORTHOGONALITY_TOL * max(1.0, float(np.max(np.abs(P0)))) ** 2
        ok, res = is_oriented_isometry(P0, form_n, tol)
        if not ok:
            raise ValueError(
                f"base point must lie in SO+({p},{q}) (residual {res:.3e})"
            )
    P0inv = np.linalg.inv(P0)
    small = so_pq_basis(p, q)
    d = small.shape[0]
    basis = [
        _block_diag(B, P0inv @ B @ P0).tolist() for B in small
    ] + [
        _block_diag(B, -(P0inv @ B @ P0)).tolist() for B in small
    ]
    return {
        "format_version": 2,
        "name": f"so_plus_{p}_{q}",
        "dtype": "real",
        "J_signs": np.kron(jd, jd).astype(int).tolist(),
        "group_signs": np.concatenate([jd, jd]).astype(int).tolist(),
        "basis": basis,
        "h_indices": list(range(d)),
        "p_indices": list(range(d, 2 * d)),
        "d_e_pi": (2.0 * np.eye(d)).tolist(),
        "obar": P0.T.ravel().tolist(),
        "embedding": "builtin:pseudo_orth",
        "params": {"p": p, "q": q},
    }


def bundle(desc):
    p = int(desc["params"]["p"])
    q = int(desc["params"]["q"])
    n = p + q
    jd = np.concatenate([np.ones(p), -np.ones(q)])
    J = np.diag(jd)
    skew = so_pq_basis(p, q)

    def rho(g):
        g = np.asarray(g)
        Q1 = g[..., :n, :n]
        Q2 = g[..., n:, n:]
        return stacked_kron(J @ Q2 @ J, Q1)

    def d_e_rho(X):
        X = np.asarray(X)
        U1 = X[:n, :n]
        U2 = X[n:, n:]
        return np.kron(np.eye(n), U1) - np.kron(U2.T, np.eye(n))

    def constraint(xs):
        # a C-order reshape of vec(X) gives X^T, so X^T J X is Xt J Xt^T
        Xt = np.asarray(xs, dtype=float).reshape(-1, n, n)
        return (Xt @ (jd[:, None] * np.swapaxes(Xt, 1, 2)) - J).reshape(len(Xt), -1)

    def tangent_frame_at(xs):
        # each row of xs is vec(X) column-major, so a C-order reshape gives X^T;
        # column a of the frame is vec(B_a X)
        Xt = np.asarray(xs, dtype=float).reshape(-1, n, n)
        return np.einsum("ail,kjl->kjia", skew, Xt).reshape(-1, n * n, skew.shape[0])

    return {
        "rho": rho,
        "d_e_rho": d_e_rho,
        "tangent_frame_at": tangent_frame_at,
        "constraint": constraint,
    }
