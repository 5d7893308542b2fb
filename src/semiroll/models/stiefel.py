"""Stiefel manifolds V_k(R^n) = SO(n)/SO(n-k) rolling inside R^{n x k}.

Points are n x k orthonormal frames, flattened column-major; SO(n) acts by
left multiplication, rho(Q) = kron(I_k, Q), which is linear in Q and so is
also its own differential d_e_rho.  The bundle reads n and k off the
description's forms: n = len(group_signs) and n k = len(J_signs).  The base
point is obar = vec(E), E the first k columns of the identity; at E the
tangent space holds matrices (A; B) with A skew and the normal space (S; 0)
with S symmetric.  The description lists only index pairs, whose generators
E_ij - E_ji come from ``pseudo_orthogonal._pair_basis``: p is the top block's
pairs i < j < k, then the lower block's (r, c), r >= k, row-major; h = so(n - k).
For k >= 2 this is a reductive but NOT symmetric splitting: [p, p] leaks
into p, so the rolling rotation is the transpose of rho(q) S(t), the lift
composed with an interpolating-frame correction S(t) solving

    S' = Omega(t) S,   Omega = -(Pi M_U Pi + Pi_perp M_U Pi_perp),

with M_U = kron(I_k, U(t)) = d_e_rho(U) for the horizontal control U and Pi
the orthogonal projector onto the base tangent space.  The bundle supplies
nothing for it: ``CartanModel`` derives Omega from ``d_e_rho`` on every
model (``omega_basis``).  For k = 1, V_1(R^n) = S^{n-1} is a symmetric
space: Omega vanishes identically and the model is classified symmetric.
The rolling map itself is assembled by ``homogeneous.extrinsic_roll`` as
for every other model.  The bundle is rho plus the level set A^T A = I of
``pseudo_orthogonal._level_set``: the constraint A^T A - I and the frames
A (E_ij - E_ji), i < j < k, then A_perp E_rc, A_perp the null space of A^T.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

# the benchmark tracer (perfbench/tracer.py) times the correction under this module's name
from ..homogeneous import _correction_path  # noqa: F401
from ..integrate import _integer
from ..linalg import stacked_kron
from .pseudo_orthogonal import _level_set, _pair_basis

__all__ = [
    "description",
    "bundle",
]


def description(n, k):
    """Declarative model data (JSON-serializable); a control's coordinates follow p's pairs."""
    n, k = _integer(n, "n"), _integer(k, "k")
    if not 1 <= k < n:
        raise ValueError("need 1 <= k < n")
    p_pairs = [*combinations(range(k), 2), *((r, c) for r in range(k, n) for c in range(k))]
    basis = _pair_basis(n, p_pairs + list(combinations(range(k, n), 2)), n)
    d = len(p_pairs)
    return {
        "format_version": 2,
        "name": f"stiefel_{n}_{k}",
        "J_signs": [1] * (n * k),
        "group_signs": [1] * n,
        "basis": basis.tolist(),
        "h_indices": list(range(d, len(basis))),
        "p_indices": list(range(d)),
        "d_e_pi": np.eye(d).tolist(),
        "obar": np.eye(n, k).T.ravel().tolist(),
        "embedding": "builtin:stiefel",
    }


def bundle(desc):
    n = len(desc["group_signs"])
    k = len(desc["J_signs"]) // n

    def rho(Q):
        return stacked_kron(np.eye(k), Q)

    return {"rho": rho, "d_e_rho": rho, **_level_set(desc["group_signs"], k, np.eye(k))}
