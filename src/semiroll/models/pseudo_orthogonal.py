"""Pseudo-orthogonal groups SO+(p, q) as symmetric spaces of G = SO+ x SO+.

A point is an n x n matrix X in the identity component of the J-orthogonal
group (J = diag(I_p, -I_q)); the symmetry group acts by (Q1, Q2).X =
Q1 X Q2^{-1} and is realized as 2n x 2n block-diagonal matrices diag(Q1, Q2).
The embedding flattens X column-major into R^{n^2}, where the invariant form

    <A, B> = tr(J A^T J B)

has sign pattern kron(j, j) for j the diagonal of J.  The description
stores the base point P0 as obar = vec(P0); the isotropy algebra is
{diag(B, P0^{-1} B P0)} and its complement {diag(B, -P0^{-1} B P0)} maps
onto tangent vectors 2 B P0; the tangent frame is vec(B_a X).  Two rules serve
every model.  Each so(p, q) and Stiefel basis element is the generator of one index
pair, ``_pair_basis``.  Each model is a level set X^T J X = G of n x k matrices,
``_level_set``: the quadrics (k = 1, G = +-1), the Stiefel manifolds (J = G = I)
and SO+(p, q) (k = n, G = J), whose ``constraint`` X^T J X - J is the group's equations.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from ..integrate import _integer
from ..linalg import (ORTHOGONALITY_TOL, SignatureForm, is_oriented_isometry,
                      j_orthogonality_scale, stacked_kron, stacked_null_spaces)

__all__ = [
    "so_pq_basis",
    "description",
    "bundle",
]


def _pair_basis(n, pairs, p):
    """One n x n generator per ordered index pair (i, j): E_ij - E_ji, or E_ij + E_ji
    where the pair crosses the sign blocks of diag(I_p, -I_(n-p))."""
    out = np.zeros((len(pairs), n, n))
    for a, (i, j) in enumerate(pairs):
        out[a, i, j] = 1.0
        out[a, j, i] = 1.0 if (i < p) != (j < p) else -1.0
    return out


def _level_set(signs, k, gram):
    """``constraint`` and ``tangent_frame_at`` of the level set X^T J X = ``gram`` of n x k
    matrices X, J = diag(``signs``), for points stored as vec(X), column-major.

    The constraint X^T J X - gram applies the signs to the products X_ic X_id, as a
    quadric's x^2 @ signs.  The frame, for gram = +-I, is X (E_ij - E_ji) for each
    i < j < k, then X_perp E_rc, row-major in (r, c), X_perp the null space of (J X)^T.
    """
    signs, gram = np.asarray(signs, dtype=float), np.asarray(gram, dtype=float)
    n = signs.size
    skew = list(combinations(range(k), 2))

    def constraint(xs):
        # a C-order reshape of vec(X) gives X^T
        Xt = np.asarray(xs, dtype=float).reshape(-1, k, n)
        products = (Xt[:, :, None, :] * Xt[:, None, :, :]).reshape(-1, n)
        return (products @ signs).reshape(len(Xt), k * k) - gram.ravel()

    def tangent_frame_at(xs):
        # frames are built as (m, column c, row i, a) and flattened to vec order
        Xt = np.asarray(xs, dtype=float).reshape(-1, k, n)
        m = len(Xt)
        perp = stacked_null_spaces(Xt * signs)
        out = np.zeros((m, k, n, len(skew) + (n - k) * k))
        for a, (i, j) in enumerate(skew):
            out[:, j, :, a] = Xt[:, i, :]
            out[:, i, :, a] = -Xt[:, j, :]
        rest = out[..., len(skew):].reshape(m, k, n, n - k, k)  # a view: a splits into (r, c)
        for c in range(k):
            rest[:, c, :, :, c] = perp
        return out.reshape(m, k * n, -1)

    return {"constraint": constraint, "tangent_frame_at": tangent_frame_at}


def so_pq_basis(p, q):
    """Basis of so(p, q): the generators of the pairs (i, j), i < j, lexicographic."""
    return _pair_basis(p + q, list(combinations(range(p + q), 2)), p)


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
        if P0.shape != (n, n):
            raise ValueError(f"base point must be a ({n}, {n}) matrix, got shape {P0.shape}")
        if not np.all(np.isfinite(P0)):
            raise ValueError("base point contains NaN or inf")
        tol = ORTHOGONALITY_TOL * j_orthogonality_scale(P0)
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
        "J_signs": np.kron(jd, jd).astype(int).tolist(),
        "group_signs": np.concatenate([jd, jd]).astype(int).tolist(),
        "basis": basis,
        "h_indices": list(range(d)),
        "p_indices": list(range(d, 2 * d)),
        "d_e_pi": (2.0 * np.eye(d)).tolist(),
        "obar": P0.T.ravel().tolist(),
        "embedding": "builtin:pseudo_orth",
    }


def bundle(desc):
    # the group form is diag(J, J): its first half is J = diag(I_p, -I_q)
    n = len(desc["group_signs"]) // 2
    jd = np.asarray(desc["group_signs"][:n], dtype=float)
    J = np.diag(jd)
    skew = so_pq_basis(int(np.sum(jd > 0)), int(np.sum(jd < 0)))

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

    def tangent_frame_at(xs):
        # each row of xs is vec(X) column-major, so a C-order reshape gives X^T;
        # column a of the frame is vec(B_a X)
        Xt = np.asarray(xs, dtype=float).reshape(-1, n, n)
        return np.einsum("ail,kjl->kjia", skew, Xt).reshape(-1, n * n, skew.shape[0])

    return {
        "rho": rho,
        "d_e_rho": d_e_rho,
        "tangent_frame_at": tangent_frame_at,
        "constraint": _level_set(jd, n, J)["constraint"],
    }
