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
    "j_orthogonality_scale",
    "j_transpose_inverse",
    "is_oriented_isometry",
    "expm",
    "random_oriented_isometry",
    "random_motion",
    "stacked_null_spaces",
    "stacked_kron",
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
    """Affine motion v -> R v + s of the flat ambient space; a complex R or s is refused."""

    R: np.ndarray
    s: np.ndarray

    def __post_init__(self):
        self.R, self.s = _real(self.R, "R"), _real(self.s, "s")
        if self.R.ndim != 2 or self.R.shape[0] != self.R.shape[1]:
            raise ValueError("R must be a square matrix")
        if self.s.shape != (self.R.shape[0],):
            raise ValueError("translation length does not match R")

    @property
    def dim(self):
        return self.R.shape[0]


def se_act(g, v):
    """Apply a motion to a real vector, or to a stack of them along the last axis."""
    v = _real(v, "v")
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


def _real(X, name, shape=None, axes=None):
    """X as a float array, the one gate of the sampled arrays; a float X is returned itself.

    A complex X, which a cast would truncate, is refused by name, and so is one whose shape
    is not ``shape`` (a ``None`` entry matches any size), its axes named by ``axes``."""
    if np.iscomplexobj(X):
        raise ValueError(f"{name} must be real, got a complex array")
    X = np.asarray(X, dtype=float)
    if shape is not None and (X.ndim != len(shape) or any(
            want not in (None, size) for want, size in zip(shape, X.shape))):
        sizes = ", ".join(str(a if w is None else w) for w, a in zip(shape, axes.split(", ")))
        raise ValueError(f"{name} must have shape ({axes}) = ({sizes}), got {X.shape}")
    return X


def _j_gram_defect(R, signs):
    """|R^T J R - J| entrywise, J = diag(``signs``), of a real matrix or a stack (..., N, N).

    One new Gram stack, which takes the diagonal subtract and the absolute
    value in place.  A check that decides on the worst node reads its
    whole-stack max; per-node maxima are built only to name a failing node.
    """
    G = np.swapaxes(R, -1, -2) @ (signs[:, None] * R)
    d = signs.size
    G[..., np.arange(d), np.arange(d)] -= signs
    return np.abs(G, out=G)


def j_orthogonality_residual(R, form):
    """max |R^T J R - J| of a real matrix, or per matrix of a stack (..., N, N).

    A complex array is refused by name (``_real``), and so is a NaN or inf entry,
    which would give a NaN residual.  A single matrix gives a float, a stack an
    array of its leading shape.
    """
    R = _real(R, "j_orthogonality_residual input")
    if R.shape[-2:] != (form.dim, form.dim):
        raise ValueError("matrix shape does not match the form")
    if not np.all(np.isfinite(R)):
        raise ValueError("j_orthogonality_residual input contains NaN or inf")
    worst = np.max(_j_gram_defect(R, form.signs), axis=(-2, -1))
    return float(worst) if R.ndim == 2 else worst


def j_orthogonality_scale(R):
    """max(1, max|R_ij|)^2 of a matrix, or per matrix of a stack (..., N, N).

    Rounding grows R^T J R - J with |R|^2 (Higham, "J-orthogonal matrices",
    2003), so a group residual is judged relative to this scale.
    """
    return np.maximum(1.0, np.max(np.abs(R), axis=(-2, -1))) ** 2


def j_transpose_inverse(mats, form):
    """Inverse J R^T J of J-orthogonal matrices, stacked over leading axes.

    One C-ordered product of R^T with the sign matrix s_i s_j: the signs are
    +-1, so that one factor carries the bits of the two scalings J (.) J, and
    every input gives the same layout.
    """
    signs = form.signs
    return np.multiply(np.swapaxes(mats, -1, -2), signs[:, None] * signs, order="C")


def is_oriented_isometry(R, form, tol=ORTHOGONALITY_TOL):
    """Test membership in the identity component of the form's isometry group.

    Returns ``(ok, residual)`` where ``residual`` is the J-orthogonality
    defect.  Orientation is checked blockwise: the sub-determinants on the
    plus-sign and minus-sign index blocks must both be positive, which
    reduces to ``det R > 0`` in the definite case.  A matrix with a NaN or inf
    entry is no isometry: ``(False, nan)``, before any product could warn.
    """
    R = _real(R, "is_oriented_isometry input")
    if not np.all(np.isfinite(R)):
        return False, float("nan")
    residual = j_orthogonality_residual(R, form)
    if residual > tol:
        return False, residual
    for idx in (form.pos_indices, form.neg_indices):
        block = R[np.ix_(idx, idx)]
        if np.linalg.det(block) <= 0:
            return False, residual
    return True, residual


def expm(X):
    """exp of one real or complex square matrix, by scaling and squaring.

    The degree-25 Taylor sum of X / 2^s, whose 1-norm is at most 2 (remainder
    below 2e-19), squared s times (Moler & Van Loan, SIAM Rev. 45, 2003).
    """
    X = np.asarray(X)
    if X.ndim != 2 or X.shape[0] != X.shape[1]:
        raise ValueError(f"expm needs one square matrix, got shape {X.shape}")
    if not np.all(np.isfinite(X)):
        raise ValueError("expm input contains NaN or inf")
    norm = np.linalg.norm(X, 1)
    s = int(np.ceil(np.log2(norm / 2.0))) if norm > 2.0 else 0
    E = term = np.eye(len(X), dtype=np.result_type(X, float))
    for k in range(1, 26):
        term = term @ X / (k * 2.0 ** s)
        E = E + term
    for _ in range(s):
        E = E @ E
    return E


def random_oriented_isometry(form, rng, scale=1.0):
    """exp of a random J-skew matrix; lands in the identity component."""
    n = form.dim
    K = rng.standard_normal((n, n))
    K = 0.5 * (K - K.T)
    return expm(scale * (form.signs[:, None] * K))


def random_motion(form, rng):
    return RigidMotion(random_oriented_isometry(form, rng), rng.standard_normal(form.dim))


def _householder(x):
    """LAPACK ``dlarfg`` reflectors of a stack of columns x (m, n): v (m, n), tau (m,).

    ``I - tau v vᵀ``, with v[:, 0] = 1, maps each column to a multiple of e_0.
    The pivot sign is taken by ``copysign`` (-0.0 counts as negative), and a
    column that is exactly zero below its pivot gets tau = 0 and no division.
    """
    alpha, below = x[:, 0], x[:, 1:]
    xnorm = np.sqrt(np.einsum("mi,mi->m", below, below))
    reflect = xnorm != 0.0
    beta = -np.copysign(np.hypot(alpha, xnorm), alpha)
    tau = np.where(reflect, (beta - alpha) / np.where(reflect, beta, 1.0), 0.0)
    scale = 1.0 / np.where(reflect, alpha - beta, 1.0)
    return np.concatenate([np.ones_like(alpha)[:, None], below * scale[:, None]], axis=1), tau


def _reflect(C, v, tau):
    """Apply the reflectors of ``_householder`` to a stack of blocks C (m, n, c) in place."""
    C -= (tau[:, None] * v)[:, :, None] * np.einsum("mi,mic->mc", v, C)[:, None, :]


def stacked_null_spaces(rows):
    """Null spaces of a stack of full-row-rank (m, k, N) matrices, as (m, N, N - k).

    The trailing N - k columns of the Householder QR of each ``rowsᵀ``: k
    reflections under LAPACK's reflector convention (``dlarfg``), vectorised
    over the stack and applied in reverse to ``[0; I_{N-k}]``.  LAPACK's SVD
    (``dgesdd``) takes this same LQ step first where N >= int(11 k / 6), so there,
    as on every model's frames and ``normal0``, the basis equals scipy's
    ``null_space``, signs included; elsewhere it spans the same space.  The
    result is a new C-ordered array; NaN or inf rows are refused.
    """
    rows = np.asarray(rows, dtype=float)
    if not np.all(np.isfinite(rows)):
        raise ValueError("null-space rows contain NaN or inf")
    m, k, N = rows.shape
    A = np.swapaxes(rows, 1, 2).copy()
    reflectors = []
    for j in range(k):
        v, tau = _householder(A[:, j:, j])
        _reflect(A[:, j:, j + 1:], v, tau)
        reflectors.append((v, tau))
    basis = np.zeros((m, N, N - k))
    basis[:, k:, :] = np.eye(N - k)
    for j in reversed(range(k)):
        _reflect(basis[:, j:, :], *reflectors[j])
    return basis


def stacked_kron(A, B):
    """Kronecker products of two stacks of matrices, broadcast over leading axes."""
    A = np.asarray(A)
    B = np.asarray(B)
    (a, b), (c, d) = A.shape[-2:], B.shape[-2:]
    outer = A[..., :, None, :, None] * B[..., None, :, None, :]
    return outer.reshape(outer.shape[:-4] + (a * c, b * d))
