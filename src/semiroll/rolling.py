"""Rolling maps and their defining kinematic conditions.

A rolling of M on M_hat (both sitting in the same flat ambient space V) is a
path of motions g(t) = (R(t), s(t)) together with the contact curves alpha on
M and alpha_hat on M_hat.  This module stores such paths, each array through
one gate (``linalg._real``) that refuses by name a complex array or one that
does not fit the grid and the form.  It measures the defining conditions as
per-node residuals (R(t) a rigid motion of the form, contact, tangency by the
flat normals, no-slip and the two no-twist conditions) against frame paths of
the path's own node count, and provides the algebraic operations on rolling
maps: inversion, composition, and a controlled fault injection that perturbs
the normal part of the rotation generator.  Parallel transport along sampled
frame paths is one group flow of the whole ambient frame: it cross-checks the
homogeneous-space transport, and it builds frame matching and the roll of a
sampled curve.  The flat development's constant frames carry the projectors and
unit columns their model factored once; every other frame path is factored where
it is read, a constant one on its first node, and a report factors its normal
frame once for the two checks that read it.  The products with R(t) and
W(t) = Rdot R^{-1}, and R(t)'s group residual, are taken in blocks of nodes
(``integrate._node_blocks``, ``_BLOCK_ENTRIES`` rotation entries each); every
per-node value keeps the bits of the whole-stack products.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .integrate import (TimeGrid, _node_blocks, dense_from_samples, fd_derivative,
                        flow_matrix_ode)
from .linalg import (SignatureForm, _j_gram_defect, _real, j_orthogonality_scale,
                     j_transpose_inverse)

__all__ = [
    "FRAME_COND_MAX",
    "TangentFramePath",
    "RollingMapPath",
    "RollingTriple",
    "ResidualReport",
    "rolling_point_residual",
    "tangency_residual",
    "no_slip_residual",
    "no_twist_residuals",
    "rolling_condition_residuals",
    "invert_rolling",
    "compose_rolling",
    "perturb_normal_generator",
    "parallel_transport_embedded",
    "triple_velocity_residual",
    "triple_gram_residual",
    "triple_orientation_flips",
]

# ``_check_rank`` certifies a frame by a Cholesky factor of its Gram matrix, which
# resolves condition numbers only far below eps^-1/2 (about 7e7): keep this there.
# It judges the models' and the development's own frames, never a product with
# R(t), whose condition number grows like |R|^2 on an indefinite form
FRAME_COND_MAX = 1e6
COMPOSE_CURVE_TOL = 1e-8
NORMAL_GENERATOR_TOL = 1e-8
# ``_node_max`` takes a node of at most this many entries, and at most one per 20 nodes,
# column by column.  Against numpy's reduce (2-core x86, numpy 2.4.6) the columns took
# 0.04-0.75 of its time up to 32 entries a node at 1000-4000 nodes and 0.2-0.9 up to
# 12 entries at 128-512 nodes (a report block at N = 16 to 8), but 0.6-2.0 at 16-32
# entries there and 1.4 or more past 48 entries anywhere
_COLUMNWISE_MAX = 32


@dataclass
class TangentFramePath:
    """Per-node bases of a distribution along a curve: frames[k] is N x r."""

    ts: np.ndarray
    frames: np.ndarray
    # (frames, form, projector, unit columns) of a model's flat frames (``CartanModel``)
    _factors: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.ts = _real(self.ts, "ts", (None,), "n_nodes")
        self.frames = _real(self.frames, "frames", (self.ts.size, None, None), "n_nodes, N, r")


@dataclass
class RollingMapPath:
    """Sampled extrinsic rolling: motions (R, s) plus both contact curves."""

    grid: TimeGrid
    R: np.ndarray
    s: np.ndarray
    alpha: np.ndarray
    alpha_hat: np.ndarray
    form: SignatureForm

    def __post_init__(self):
        m, n = self.grid.n_nodes, self.form.dim
        self.R = _real(self.R, "R", (m, n, n), "n_nodes, N, N")
        for name in ("s", "alpha", "alpha_hat"):
            setattr(self, name, _real(getattr(self, name), name, (m, n), "n_nodes, N"))

    @property
    def n_nodes(self):
        return self.grid.n_nodes


@dataclass
class RollingTriple:
    """Sampled intrinsic rolling: contact curve, development, tangential maps.

    ``maps[k]`` is the k_dim x N matrix of A(t_k) acting on ambient tangent
    vectors at alpha(t_k) and returning coordinates of the model tangent
    space at the base point; ``tangent_frames[k]`` spans that domain.
    ``target_gram`` is the scalar product on the coordinate codomain.
    """

    grid: TimeGrid
    alpha: np.ndarray
    alpha_hat: np.ndarray
    maps: np.ndarray
    tangent_frames: np.ndarray
    form: SignatureForm
    target_gram: np.ndarray

    def __post_init__(self):
        m, n = self.grid.n_nodes, self.form.dim
        self.maps = _real(self.maps, "maps", (m, None, n), "n_nodes, k, N")
        k = self.maps.shape[1]
        expected = {"alpha": ((m, n), "n_nodes, N"), "alpha_hat": ((m, k), "n_nodes, k"),
                    "tangent_frames": ((m, n, None), "n_nodes, N, r"),
                    "target_gram": ((k, k), "k, k")}
        for name, (shape, axes) in expected.items():
            setattr(self, name, _real(getattr(self, name), name, shape, axes))


@dataclass
class ResidualReport:
    """Per-condition residual maxima with the underlying per-node arrays."""

    grid: TimeGrid
    rolling_point: float
    tangency: float
    no_slip: float
    no_twist_tan: float
    no_twist_norm: float
    isometry: float
    per_node: dict = field(default_factory=dict)

    _FIELDS = ("rolling_point", "tangency", "no_slip", "no_twist_tan", "no_twist_norm", "isometry")

    def max_residual(self):
        """Largest field; NaN when any field is NaN or infinite."""
        values = np.array([getattr(self, name) for name in self._FIELDS], dtype=float)
        if not np.all(np.isfinite(values)):
            return float("nan")
        return float(np.max(values))

    def passed(self, tol):
        """True only when every field is finite and at most ``tol``."""
        return bool(self.max_residual() <= tol)


def _lower_inverse(lower):
    """Inverses of a stack of lower triangular matrices (n, r, r), by forward substitution.

    Row i of X = L^-1 is (e_i - L[i, :i] X[:i]) / L[i, i]: one loop over the
    r rows, each step vectorised over the stack.  A zero or non-finite
    diagonal gives inf or NaN rows at that node instead of an exception.
    """
    r = lower.shape[-1]
    inverse = np.zeros(lower.shape)
    diag = np.diagonal(lower, axis1=1, axis2=2)
    for i in range(r):
        row = -np.einsum("kj,kjc->kc", lower[:, i, :i], inverse[:, :i, :i + 1])
        row[:, i] += 1.0
        inverse[:, i, :i + 1] = row / diag[:, i, None]
    return inverse


def _refuse_non_finite(stack, what):
    """Refuse a stack (n_nodes, a, b) with a NaN or inf entry, naming its first such node.

    The whole stack is tested at once; the per-node test runs only to name the node.
    """
    if not np.isfinite(stack).all():
        finite = np.all(np.isfinite(stack), axis=(1, 2))
        raise ValueError(f"{what} contains NaN or inf at node {int(np.argmin(finite))}")


def _check_rank(frames, what):
    """Refuse the first node whose frame is NaN, inf or numerically rank deficient.

    Returns ``U^-1`` per node, with ``frames = Q U`` and Q of orthonormal
    columns, so ``frames @ U^-1`` is Q up to rounding.  U is first the
    transposed Cholesky factor of the Gram matrix, ``F^T F = L L^T``.
    cond(F) = cond(L) <= ||L||_F ||L^-1||_F, and the computed Gram is exact to
    about N r eps ||F||^2 while FRAME_COND_MAX is far below eps^-1/2, so a node
    whose bound is at most FRAME_COND_MAX / 2 (and whose Gram does not
    underflow) is certified.  Every other node, and every node of a stack
    whose Cholesky fails, takes the exact test, and its U is its triangular
    QR factor: the ratio of that factor's extreme singular values is the
    frame's own condition number.  A node over FRAME_COND_MAX has an
    arbitrary basis, pairing or projector, so nothing is measured on it.  Both
    triangular factors are inverted by substitution (``_lower_inverse``, the
    QR factor through its transpose), not by a general LU.
    """
    _refuse_non_finite(frames, what)
    n, r = frames.shape[0], frames.shape[2]
    if r == 0:  # no columns: the normals of a full-dimensional frame
        return np.zeros((n, 0, 0))
    try:
        with np.errstate(all="ignore"):
            chol = np.linalg.cholesky(np.swapaxes(frames, 1, 2) @ frames)
            inverse = np.swapaxes(_lower_inverse(chol), 1, 2)
            size = np.linalg.norm(chol, axis=(1, 2))
            bound = size * np.linalg.norm(inverse, axis=(1, 2))
        exact = np.flatnonzero(~((bound <= 0.5 * FRAME_COND_MAX) & (size >= 1e-140)))
    except np.linalg.LinAlgError:
        inverse, exact = np.empty((n, r, r)), np.arange(n)
    if exact.size:
        factor = np.linalg.qr(frames[exact], mode="r")
        sv = np.linalg.svd(factor, compute_uv=False)
        with np.errstate(divide="ignore", invalid="ignore"):
            # more columns than rows leave the factor short of r singular values
            conds = sv[:, 0] / sv[:, -1] if factor.shape[1] == r else np.full(exact.size, np.inf)
        bad = np.flatnonzero(~(conds <= FRAME_COND_MAX))
        if bad.size:
            k = int(bad[0])
            raise ValueError(f"{what} is rank deficient at node {int(exact[k])} "
                             f"(condition number {conds[k]:.1e})")
        inverse[exact] = np.swapaxes(_lower_inverse(np.swapaxes(factor, 1, 2)), 1, 2)
    return inverse


def _unit_columns(frames):
    """The frames' Euclidean-normalized columns, by ``_column_norms``: the norm's bits."""
    return frames / _column_norms(frames)[:, None]


def _span_factors(frames, form, what):
    """Per-node J-orthogonal projectors F (F^T J F)^{-1} F^T J onto the spans of ``what``.

    A node whose span is numerically null under J is refused: with Q the
    orthonormal basis ``_check_rank`` gives, Q^T J Q has eigenvalues in
    [-1, 1], and 1 / min |eigenvalue|, a bound on the projector's norm, may
    be at most FRAME_COND_MAX.  The smallest |eigenvalue| of the whole stack
    decides; per-node values are built only to name the first failing node.
    Frames not of shape (n_nodes, form.dim, r) are refused.
    """
    if frames.ndim != 3 or frames.shape[1] != form.dim:
        raise ValueError(f"{what} has shape {frames.shape}, expected (n_nodes, {form.dim}, r)")
    q = frames @ _check_rank(frames, what)
    gram_q = np.swapaxes(q, 1, 2) @ (form.signs[:, None] * q)
    eigs = np.abs(np.linalg.eigvalsh(gram_q))
    with np.errstate(divide="ignore"):
        if not 1.0 / np.min(eigs, initial=np.inf) <= FRAME_COND_MAX:
            conds = 1.0 / np.min(eigs, axis=-1, initial=np.inf)
            k = int(np.flatnonzero(~(conds <= FRAME_COND_MAX))[0])
            raise ValueError(f"{what} Gram matrix is singular under the ambient form at node "
                             f"{k} (condition number {conds[k]:.1e})")
    ft_j = np.swapaxes(frames, 1, 2) * form.signs
    return frames @ np.linalg.solve(ft_j @ frames, ft_j)


def _frame_factors(path, frame_path, what, columns=True):
    """The ``_span_factors`` projectors of ``frame_path`` and, with ``columns``, its
    ``_unit_columns``; a frame path of another node count than ``path`` is refused by ``what``.

    A model's flat frame path carries the pair its model built (``CartanModel``), read
    while its ``frames`` are the very array the pair was built from and ``path.form``
    is the form it was built under.  Any other zero-stride stack is factored on its
    first node, which broadcasts, and a moving one at every node.  Nothing is kept, so a
    refused frame is refused on every call, a constant one at node 0.
    """
    frames = _frames_on(path, frame_path, what)
    kept = frame_path._factors
    if kept is not None and kept[0] is frames and kept[1] == path.form:
        return kept[2:]
    if frames.strides[0] == 0:
        frames = frames[:1]
    return _span_factors(frames, path.form, what), _unit_columns(frames) if columns else None


def _factored(path, frame_path, what):
    """A shallow copy of ``frame_path`` carrying its ``_frame_factors`` under ``path.form``;
    the caller drops it, so a refused frame is refused on every call."""
    factored = copy.copy(frame_path)
    factored._factors = (frame_path.frames, path.form) + _frame_factors(path, frame_path, what)
    return factored


def _frames_on(path, frame_path, what):
    """The frames of ``frame_path``; refused by ``what`` unless they have the path's node count."""
    frames = frame_path.frames
    if frames.shape[0] != path.n_nodes:
        raise ValueError(f"{what} has {frames.shape[0]} nodes, the path has {path.n_nodes}")
    return frames


def _node_norms(vectors):
    return np.linalg.norm(vectors, axis=-1)


def _velocity_defect(maps, alpha, alpha_hat, h):
    """Per-node ||d/dt alpha_hat - A(t) d/dt alpha|| of linear maps A(t) (n, M, N): the
    velocity matching of ``no_slip_residual`` (A = R) and ``triple_velocity_residual``."""
    mapped = np.einsum("kij,kj->ki", maps, fd_derivative(alpha, h))
    return _node_norms(fd_derivative(alpha_hat, h) - mapped)


def _column_norms(stack):
    """Euclidean norms (n, r) of the columns of a stack (n, N, r), bit for bit those of
    ``np.linalg.norm(stack, axis=1)``, which is sqrt(add.reduce(x x, axis=1)) of a real x.

    When r > 1 that reduce adds each column's squares row by row, and so does the
    loop here, the same operations in the same order in N passes of about 1 us; from
    8 N nodes it takes 0.35-0.75 of the reduce's time (2-core x86, numpy 2.4.6).  A
    single column is one contiguous run, which the reduce sums pairwise, and a short
    stack is cheaper in one reduce: both take the reduce itself.
    """
    squares = stack * stack
    if stack.shape[2] == 1 or stack.shape[0] < 8 * stack.shape[1]:
        total = np.add.reduce(squares, axis=1)
    else:
        total = squares[:, 0].copy()
        for i in range(1, stack.shape[1]):
            total += squares[:, i]
    return np.sqrt(total, out=total)


def _node_max(stack):
    """Per-node max of a stack (n_nodes, ...) of values >= 0 or NaN; 0.0 for a node of no entries.

    Max is exact and ``np.maximum`` keeps a NaN, so any order gives the bits of
    ``np.max``.  Its reduce costs about 55 ns a node over a few trailing entries and a
    pass over one column about 1 us, so a node of at most ``_COLUMNWISE_MAX`` entries
    and at most one per 20 nodes is taken column by column instead.
    """
    flat = stack.reshape(stack.shape[0], -1)
    if flat.shape[1] > min(_COLUMNWISE_MAX, flat.shape[0] // 20):
        return np.max(flat, axis=1, initial=0.0)
    out = np.zeros(flat.shape[0])
    for column in flat.T:
        np.maximum(out, column, out=out)
    return out


def _at(stack, block):
    """The nodes ``block`` of a factor stack; a constant frame's one-node factors broadcast."""
    return stack if stack.shape[0] == 1 else stack[block]


def rolling_point_residual(path):
    """Per-node ||g(t).alpha(t) - alpha_hat(t)||."""
    moved = np.einsum("kij,kj->ki", path.R, path.alpha) + path.s
    return _node_norms(moved - path.alpha_hat)


def tangency_residual(path, tangent_m, normal_mhat):
    """Per-node largest pairing of R(t) T_alpha M with the flat unit normals.

    R(t) maps T_alpha M into the development's tangent space exactly when
    N_hat^T J R F_M = 0.  The residual is max |w_a^T J n_b|: w_a the columns
    of R Q_M, each normalised, Q_M = F_M U^-1 the basis of ``_check_rank``'s
    factor, and n_b the unit normal columns of the normal no-twist check
    (``_frame_factors``: the model's own on its flat frames).  It is read on
    the flat side, as the other residuals are, so a flat tilt of a boosted
    R(t) is not shrunk by R^-1.
    On a Euclidean form with orthogonal R and orthonormal N_hat it brackets
    the largest principal angle: v <= sin(theta) <= sqrt(r c) v.  No product
    with R is rank-tested: a boosted R is measured, and one that maps
    T_alpha M into the tangent space without being an isometry reads 0 and
    breaches the report's ``isometry``.  A non-finite R(t), and a frame that
    ``_check_rank`` refuses, raise ValueError at their node, and a frame
    path of another node count by its name; a full-dimensional F_M has no
    normals and reads 0.
    The products with R(t) are taken in ``_node_blocks``, each block's columns
    normalised by ``_column_norms`` and its pairings reduced by ``_node_max``.
    """
    _refuse_non_finite(path.R, "tangency: R(t)")
    frames_m = _frames_on(path, tangent_m, "tangency: F_M(t)")
    inverse = _check_rank(frames_m, "tangency: F_M(t)")
    _, normals = _frame_factors(path, normal_mhat, "tangency: normal development frame")
    signed = path.form.signs[:, None] * normals
    residual = np.empty(path.n_nodes)
    # a column that R(t) annihilates reads NaN: that node fails closed
    with np.errstate(invalid="ignore", divide="ignore"):
        for block in _node_blocks(path.n_nodes, path.form.dim ** 2):
            image = path.R[block] @ (frames_m[block] @ inverse[block])
            image /= _column_norms(image)[:, None]
            pairing = np.swapaxes(image, 1, 2) @ _at(signed, block)
            residual[block] = _node_max(np.abs(pairing, out=pairing))
    return residual


def _rotation_generator(path):
    """Per-node generator W = Rdot R^{-1} of the rotation path, R^{-1} = J R^T J.

    W takes the place of Rdot, one ``_node_blocks`` block of R(t) at a time.
    """
    W = fd_derivative(path.R, path.grid.h)
    for block in _node_blocks(path.n_nodes, path.form.dim ** 2):
        np.matmul(W[block], j_transpose_inverse(path.R[block], path.form), out=W[block])
    return W


def no_slip_residual(path, W=None):
    """Per-node slip defect.

    Two formulations of the same condition are evaluated and the larger one
    is kept: the velocity of the affine motion field at the development
    point, ``Rdot R^{-1} (alpha_hat - s) + sdot``, and the velocity-matching
    form ``alpha_hat' - R alpha'``.  They coincide on genuine rolling maps;
    taking the max keeps faults visible that park one of the two quantities.
    ``W`` is the path's ``_rotation_generator`` when the caller has it.
    """
    h = path.grid.h
    if W is None:
        W = _rotation_generator(path)
    w1 = np.einsum("kij,kj->ki", W, path.alpha_hat - path.s) + fd_derivative(path.s, h)
    return np.maximum(_node_norms(w1), _velocity_defect(path.R, path.alpha, path.alpha_hat, h))


def no_twist_residuals(path, tangent_mhat, normal_mhat, W=None):
    """Per-node tangential and normal twist defects.

    The generator W = Rdot R^{-1} of a twist-free rolling exchanges the
    tangent and normal spaces of the development: W T_hat must have no
    tangential component and W N_hat no normal component.  Residuals are
    measured on Euclidean-normalized frame columns through the J-orthogonal
    projectors of the respective subspaces (``_frame_factors``): a model's
    flat frames carry the ones their model built, any other constant frame is
    factored on its first node.  A frame path of another node count is
    refused by name.  ``W`` is the path's ``_rotation_generator`` when the
    caller has it.  The products are taken in ``_node_blocks``, a moving
    frame's factors sliced to each block, a constant one's broadcast; the
    columns' norms are ``_column_norms`` and their maxima ``_node_max``.
    """
    if W is None:
        W = _rotation_generator(path)
    blocks = _node_blocks(path.n_nodes, path.form.dim ** 2)

    def _defect(frame_path, what):
        projector, cols = _frame_factors(path, frame_path, f"no twist: {what} frame")
        defect = np.empty(path.n_nodes)
        for block in blocks:
            comp = _at(projector, block) @ (W[block] @ _at(cols, block))
            defect[block] = _node_max(_column_norms(comp))
        return defect

    return _defect(tangent_mhat, "tangent development"), _defect(normal_mhat, "normal development")


def rolling_condition_residuals(path, tangent_m, tangent_mhat, normal_mhat):
    """Bundle all defining-condition residuals into a ResidualReport.

    The rotation generator W = Rdot R^{-1} is taken once, for the slip and
    both twist residuals.  ``isometry`` is the per-node group residual
    |R^T J R - J| / max(1, max|R_ij|)^2, the relative rule of the flows'
    node check: R(t) must be a rigid motion of the form.  It is taken in the
    ``_node_blocks`` of R(t), so no Gram stack of the whole path is built.
    The normal frame is factored once for tangency and the normal no-twist
    check (``_factored``) unless its model keeps its factors.
    """
    point = rolling_point_residual(path)
    normal_mhat = _factored(path, normal_mhat, "tangency: normal development frame")
    tang = tangency_residual(path, tangent_m, normal_mhat)
    isometry = np.empty(path.n_nodes)
    for block in _node_blocks(path.n_nodes, path.form.dim ** 2):
        R = path.R[block]
        isometry[block] = _node_max(_j_gram_defect(R, path.form.signs)) / j_orthogonality_scale(R)
    W = _rotation_generator(path)
    slip = no_slip_residual(path, W)
    twist_t, twist_n = no_twist_residuals(path, tangent_mhat, normal_mhat, W)
    per_node = {
        "rolling_point": point,
        "tangency": tang,
        "no_slip": slip,
        "no_twist_tan": twist_t,
        "no_twist_norm": twist_n,
        "isometry": isometry,
    }
    return ResidualReport(grid=path.grid, per_node=per_node,
                          **{name: float(np.max(values)) for name, values in per_node.items()})


def invert_rolling(path):
    """Roll M_hat on M: motions g^{-1}, contact curves swapped.

    Inverts the rotations through the J-transpose, so inverting twice
    reproduces the input path exactly.
    """
    Rinv = j_transpose_inverse(path.R, path.form)
    s_inv = -np.einsum("kij,kj->ki", Rinv, path.s)
    return RollingMapPath(
        grid=path.grid,
        R=Rinv,
        s=s_inv,
        alpha=path.alpha_hat.copy(),
        alpha_hat=path.alpha.copy(),
        form=path.form,
    )


def compose_rolling(path01, path12):
    """Chain a rolling of M0 on M1 with a rolling of M1 on M2.

    The intermediate curves must be finite and agree: path01 develops onto the
    same curve path12 rolls along.  The composite motion applies path01 first,
    so the rotations multiply as R12 R01.
    """
    if path01.grid != path12.grid:
        raise ValueError("rolling paths live on different grids")
    if path01.form != path12.form:
        raise ValueError("rolling paths use different ambient forms")
    for what, curve in (("path01's alpha_hat", path01.alpha_hat),
                        ("path12's alpha", path12.alpha)):
        if not np.all(np.isfinite(curve)):
            raise ValueError(f"intermediate contact curve {what} contains NaN or inf")
    mismatch = float(np.max(_node_norms(path01.alpha_hat - path12.alpha)))
    if mismatch > COMPOSE_CURVE_TOL:
        raise ValueError(
            f"intermediate contact curves disagree by {mismatch:.3e} "
            f"(tolerance {COMPOSE_CURVE_TOL:.1e})"
        )
    R = path12.R @ path01.R
    s = path12.s + np.einsum("kij,kj->ki", path12.R, path01.s)
    return RollingMapPath(
        grid=path01.grid,
        R=R,
        s=s,
        alpha=path01.alpha.copy(),
        alpha_hat=path12.alpha_hat.copy(),
        form=path01.form,
    )


def perturb_normal_generator(path, omega0, tangent_mhat, normal_mhat):
    """Left-multiply the rotation path by a normal-bundle twist factor.

    ``omega0`` is one constant (N, N) matrix.  It must be J-skew, annihilate
    the development tangent frames and preserve the normal space; the
    perturbed rotations are Lambda(t) R(t) where Lambda solves
    Lambda' = omega0 Lambda from the identity, and the translations are
    recomputed so the contact condition is preserved.  Because Lambda
    fixes the development tangent space pointwise, contact, tangency,
    no-slip and tangential no-twist are untouched and only the normal
    no-twist condition breaks.  A complex or non-finite ``omega0`` and frame
    paths of another node count are refused by name.
    """
    grid = path.grid
    n = path.form.dim
    if np.shape(omega0) != (n, n):
        raise ValueError(f"omega0 must be one constant ({n}, {n}) matrix")
    omega = _real(omega0, "omega0")
    if not np.all(np.isfinite(omega)):
        raise ValueError("omega0 contains NaN or inf")

    signs = path.form.signs
    p_tan, _ = _frame_factors(path, tangent_mhat, "normal generator: tangent frame", False)
    tangent = tangent_mhat.frames
    normal = _frames_on(path, normal_mhat, "normal generator: normal frame")
    scale = max(1.0, float(np.max(np.abs(omega))))
    for label, value in (
        ("not J-skew", np.abs(omega.T * signs + signs[:, None] * omega)),
        ("does not annihilate the development tangent space", np.abs(omega @ tangent)),
        ("does not preserve the development normal space", np.abs(p_tan @ (omega @ normal))),
    ):
        value = float(np.max(value))
        if value > NORMAL_GENERATOR_TOL * scale:
            raise ValueError(f"inadmissible normal generator: {label} (defect {value:.3e})")

    omegas = np.broadcast_to(omega, (grid.stage_ts.size, n, n))
    lam = flow_matrix_ode(omegas, np.eye(n), grid, side="left", reproject_form=path.form)
    R_new = lam @ path.R
    s_new = path.alpha_hat - np.einsum("kij,kj->ki", R_new, path.alpha)
    return RollingMapPath(grid=grid, R=R_new, s=s_new, alpha=path.alpha.copy(),
                          alpha_hat=path.alpha_hat.copy(), form=path.form)


def _transport_flow(frames, form, what):
    """Parallel transport X (n_nodes, N, N) of the ambient frame along the spans of ``frames``.

    X' = [P', P] X from X(0) = I, P the J-orthogonal projector onto the span,
    is the ambient form of the span's and its J-complement's connections
    (Hüper & Silva Leite 2007), and J-skew: a checked group flow.  P is the
    cubic through the node ``_span_factors``, P' its fourth-order difference at
    the stage times; transport does not depend on the parametrisation.
    """
    m = frames.shape[0]
    if m < 3:
        raise ValueError(f"{what} needs at least 3 nodes for a fourth-order transport, got {m}")
    grid = TimeGrid(0.0, 1.0, m - 1)
    P = dense_from_samples(grid.ts, _span_factors(frames, form, what))(grid.stage_ts)
    dP = fd_derivative(P, 0.5 * grid.h)
    return flow_matrix_ode(dP @ P - P @ dP, np.eye(form.dim), grid, "left", form)


def parallel_transport_embedded(frames, v0, form):
    """Transport v0 within the subspaces spanned by ``frames`` along a sampled curve.

    Parameters
    ----------
    frames : (n_nodes, N, r) array
        Per-node bases of the subspace the transported vector lives in, the
        tangent or the normal bundle; at least 3 nodes.
    v0 : (N,) or (N, c) array
        Start vector, or c start vectors as columns; each must lie in the
        span of ``frames[0]``: |v0 - P0 v0| <= 1e-8 max(1, |v0|), P0 the
        node-0 projector.
    form : SignatureForm
        Ambient scalar product; the projectors are J-orthogonal, and the
        transport preserves it, null vectors included.

    Returns ``X @ v0``, X the ``_transport_flow`` of the frames: the
    transported vectors at every node, (n_nodes, N) or (n_nodes, N, c).
    Complex frames or v0 are refused by name (``linalg._real``), and so is a
    NaN or inf v0.
    """
    frames, v0 = _real(frames, "transport frame"), _real(v0, "v0")
    dim = form.dim
    if v0.ndim not in (1, 2) or v0.shape[0] != dim or v0.size == 0:
        raise ValueError(f"v0 has shape {v0.shape}, expected ({dim},) or ({dim}, c)")
    if not np.all(np.isfinite(v0)):
        raise ValueError("v0 contains NaN or inf")
    flow = _transport_flow(frames, form, "transport frame")

    block = v0 if v0.ndim == 2 else v0[:, None]
    p0 = _span_factors(frames[:1], form, "transport frame")[0]
    off = np.linalg.norm(block - p0 @ block, axis=0) \
        > 1e-8 * np.maximum(1.0, np.linalg.norm(block, axis=0))
    if np.any(off):
        column = f" column {int(np.argmax(off))}" if v0.ndim == 2 else ""
        raise ValueError(f"v0{column} does not lie in the initial transport space")
    return flow @ v0


def triple_velocity_residual(triple):
    """Per-node ||d/dt alpha_hat - A(t) d/dt alpha||: the intrinsic no-slip law."""
    return _velocity_defect(triple.maps, triple.alpha, triple.alpha_hat, triple.grid.h)


def triple_gram_residual(triple):
    """Per-node isometry defect of A(t) on the moving tangent frame."""
    frames = triple.tangent_frames
    mapped = triple.maps @ frames
    target = np.swapaxes(mapped, 1, 2) @ (triple.target_gram @ mapped)
    source = np.swapaxes(frames, 1, 2) @ (triple.form.signs[:, None] * frames)
    return _node_max(np.abs(target - source))


def triple_orientation_flips(triple):
    """Number of sign changes of the orientation of A(t) along the path (0 = oriented).

    det(A(t_k) F_k) gives the orientation of A against the frame F_k, and the
    frames' own orientations may change from node to node (a null-space
    basis carries arbitrary signs).  Each determinant is therefore taken
    relative to the first frame: times the running product of
    sign det(F_k^T F_{k-1}).  The overlap is Euclidean, since the J-Gram
    of a constant indefinite frame has a negative determinant.
    """
    frames = triple.tangent_frames
    dets = np.linalg.det(triple.maps @ frames)
    if np.any(dets == 0.0):
        raise ValueError("tangential map is singular at some node")
    overlaps = np.linalg.det(np.swapaxes(frames[1:], 1, 2) @ frames[:-1])
    if np.any(overlaps == 0.0):
        k = int(np.flatnonzero(overlaps == 0.0)[0]) + 1
        raise ValueError(f"tangent frames at nodes {k - 1} and {k} do not overlap; "
                         "refine n_steps")
    signs = np.sign(dets) * np.cumprod(np.concatenate([[1.0], np.sign(overlaps)]))
    return int(np.sum(signs[1:] != signs[:-1]))
