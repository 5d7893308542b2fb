"""Sign-diagonal scalar products and semi-Euclidean motions.

The ambient space everywhere is R^n equipped with a scalar product
``<x, y> = sum_i eps_i x_i y_i`` whose signs ``eps_i = +-1`` are stored
explicitly, so a model can put its timelike directions wherever its
embedding formulas need them.  A motion is a pair ``g = (R, s)`` acting as
``g.v = R v + s``; the linear part is expected to lie in the identity
component of the group preserving the form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SignatureForm",
    "RigidMotion",
    "se_act",
    "se_compose",
    "se_inverse",
    "j_orthogonality_residual",
    "j_transpose_inverse",
    "is_oriented_isometry",
    "random_oriented_isometry",
    "random_motion",
    "stacked_null_spaces",
    "stacked_kron",
    "stacked_vec",
]

ORTHOGONALITY_TOL = 1e-10


class SignatureForm:
    """A nondegenerate diagonal bilinear form given by its sign vector."""

    __slots__ = ("signs",)

    def __init__(self, signs):
        signs = np.asarray(signs, dtype=float)
        if signs.ndim != 1 or signs.size == 0:
            raise ValueError("signature must be a nonempty 1-d sign vector")
        if not np.all(np.abs(signs) == 1.0):
            raise ValueError("signature entries must be +1 or -1")
        self.signs = signs

    @classmethod
    def from_pq(cls, p, q):
        """Form with ``p`` plus signs followed by ``q`` minus signs."""
        if p < 0 or q < 0 or p + q == 0:
            raise ValueError("need p, q >= 0 with p + q >= 1")
        return cls(np.concatenate([np.ones(p), -np.ones(q)]))

    @property
    def dim(self):
        return self.signs.size

    @property
    def p(self):
        return int(np.sum(self.signs > 0))

    @property
    def q(self):
        return int(np.sum(self.signs < 0))

    @property
    def matrix(self):
        return np.diag(self.signs)

    @property
    def pos_indices(self):
        return np.flatnonzero(self.signs > 0)

    @property
    def neg_indices(self):
        return np.flatnonzero(self.signs < 0)

    def ip(self, x, y):
        """Scalar product, broadcasting over leading axes."""
        x = np.asarray(x)
        y = np.asarray(y)
        if x.shape[-1] != self.dim or y.shape[-1] != self.dim:
            raise ValueError(
                f"vectors have trailing dimension {x.shape[-1]}/{y.shape[-1]}, "
                f"form has dimension {self.dim}"
            )
        return np.sum(x * self.signs * y, axis=-1)

    def __eq__(self, other):
        if not isinstance(other, SignatureForm):
            return NotImplemented
        return self.signs.size == other.signs.size and bool(
            np.all(self.signs == other.signs)
        )

    def __hash__(self):
        return hash(tuple(self.signs))

    def __repr__(self):
        return f"SignatureForm(p={self.p}, q={self.q})"


@dataclass
class RigidMotion:
    """Affine motion v -> R v + s of the flat ambient space."""

    R: np.ndarray
    s: np.ndarray

    def __post_init__(self):
        self.R = np.asarray(self.R, dtype=float)
        self.s = np.asarray(self.s, dtype=float)
        if self.R.ndim != 2 or self.R.shape[0] != self.R.shape[1]:
            raise ValueError("R must be a square matrix")
        if self.s.shape != (self.R.shape[0],):
            raise ValueError("translation length does not match R")

    @property
    def dim(self):
        return self.R.shape[0]


def se_act(g, v):
    """Apply a motion to a vector, or to a stack of vectors along the last axis."""
    v = np.asarray(v, dtype=float)
    if v.shape[-1] != g.dim:
        raise ValueError(f"vector dimension {v.shape[-1]} != motion dimension {g.dim}")
    return v @ g.R.T + g.s


def se_compose(g2, g1):
    """Composite motion: apply g1 first, then g2."""
    if g2.dim != g1.dim:
        raise ValueError("cannot compose motions of different dimensions")
    return RigidMotion(g2.R @ g1.R, g2.s + g2.R @ g1.s)


def se_inverse(g):
    Rinv = np.linalg.inv(g.R)
    return RigidMotion(Rinv, -Rinv @ g.s)


def j_orthogonality_residual(R, form):
    """max |R^* J R - J| of a matrix, or per matrix of a stack (..., N, N).

    Conjugate-transposes when R is complex.  A single matrix gives a float,
    a stack an array of its leading shape.
    """
    R = np.asarray(R)
    if R.shape[-2:] != (form.dim, form.dim):
        raise ValueError("matrix shape does not match the form")
    G = np.swapaxes(R.conj(), -1, -2) @ (form.signs[:, None] * R)
    G[..., np.arange(form.dim), np.arange(form.dim)] -= form.signs
    worst = np.max(np.abs(G), axis=(-2, -1))
    return float(worst) if R.ndim == 2 else worst


def j_transpose_inverse(mats, form):
    """Inverse J R^T J of J-orthogonal matrices, stacked over leading axes.

    R^T times the sign matrix s_i s_j in one exact product, as a C-ordered
    stack.
    """
    signs = form.signs
    return np.multiply(np.swapaxes(mats, -1, -2), signs[:, None] * signs, order="C")


def is_oriented_isometry(R, form, tol=ORTHOGONALITY_TOL):
    """Test membership in the identity component of the form's isometry group.

    Returns ``(ok, residual)`` where ``residual`` is the J-orthogonality
    defect.  Orientation is checked blockwise: the sub-determinants on the
    plus-sign and minus-sign index blocks must both be positive, which
    reduces to ``det R > 0`` in the definite case.
    """
    R = np.asarray(R)
    if np.iscomplexobj(R):
        raise ValueError("orientation is only defined for real matrices here")
    residual = j_orthogonality_residual(R, form)
    if residual > tol:
        return False, residual
    for idx in (form.pos_indices, form.neg_indices):
        block = R[np.ix_(idx, idx)]
        if np.linalg.det(block) <= 0:
            return False, residual
    return True, residual


def random_oriented_isometry(form, rng, scale=1.0):
    """exp of a random J-skew matrix; lands in the identity component."""
    from scipy.linalg import expm

    n = form.dim
    K = rng.standard_normal((n, n))
    K = 0.5 * (K - K.T)
    return expm(scale * (form.signs[:, None] * K))


def random_motion(form, rng, rotation_scale=1.0, translation_scale=1.0):
    R = random_oriented_isometry(form, rng, scale=rotation_scale)
    s = translation_scale * rng.standard_normal(form.dim)
    return RigidMotion(R, s)


def stacked_null_spaces(rows):
    """Null spaces of a stack of full-row-rank (m, k, N) matrices, as (m, N, N - k).

    Each slice gets the basis scipy's ``null_space`` returns for it: the
    trailing right singular vectors of its SVD, with LAPACK's signs.
    """
    rows = np.asarray(rows, dtype=float)
    vh = np.linalg.svd(rows)[2]
    return np.swapaxes(vh[:, rows.shape[1]:, :], 1, 2)


def stacked_kron(A, B):
    """Kronecker products of two stacks of matrices, broadcast over leading axes."""
    A = np.asarray(A)
    B = np.asarray(B)
    (a, b), (c, d) = A.shape[-2:], B.shape[-2:]
    outer = A[..., :, None, :, None] * B[..., None, :, None, :]
    return outer.reshape(outer.shape[:-4] + (a * c, b * d))


def stacked_vec(M):
    """Column-major flattening of matrices (..., n, k) into new (..., n k) arrays."""
    M = np.asarray(M)
    return np.swapaxes(M, -1, -2).copy().reshape(M.shape[:-2] + (-1,))
