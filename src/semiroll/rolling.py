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
sampled curve.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .integrate import TimeGrid, dense_from_samples, fd_derivative, flow_matrix_ode
from .linalg import (SignatureForm, _real, j_orthogonality_residual, j_orthogonality_scale,
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
# ``_once`` keeps the factors of this many constant frames: a process rolls a few models
_FACTORED_MAX = 64
_FACTORED = {}


@dataclass
class TangentFramePath:
    """Per-node bases of a distribution along a curve: frames[k] is N x r."""

    ts: np.ndarray
    frames: np.ndarray

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
    """The frames' Euclidean-normalized columns."""
    return frames / np.linalg.norm(frames, axis=1, keepdims=True)


def _once(frames, form, what):
    """The ``_span_factors`` projectors and the ``_unit_columns`` of ``frames``,
    built once per distinct constant frame.

    A zero-stride stack (a broadcast of one frame, as the flat development's
    frames are) is built as ``frames[:1]``.  The result is kept read-only
    under the frame's shape and bytes and the form's signs, and every later
    call with the same frame reuses it; reading the strides costs nothing
    per node.  A moving stack is built on every call.  A refusal keeps
    nothing, so a refused frame is refused on every call, a broadcast one at
    node 0.  The oldest of ``_FACTORED_MAX`` kept frames makes room for a
    new one.
    """
    if frames.strides[0] != 0:
        return _span_factors(frames, form, what), _unit_columns(frames)
    one = frames[:1]
    key = (one.shape, one.tobytes(), form.signs.tobytes())
    value = _FACTORED.get(key)
    if value is None:
        value = _span_factors(one, form, what), _unit_columns(one)
        for array in value:
            array.flags.writeable = False
        if len(_FACTORED) >= _FACTORED_MAX:
            _FACTORED.pop(next(iter(_FACTORED), None), None)
        _FACTORED[key] = value
    return value


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


def _projectors(frames, form, what="frame"):
    """The (n_nodes, N, N) projectors of ``_span_factors``.

    A moving stack builds them and no unit columns; a constant one is a
    read-only broadcast of the one projector ``_once`` keeps.
    """
    if frames.strides[0] != 0:
        return _span_factors(frames, form, what)
    proj = _once(frames, form, what)[0]
    return np.broadcast_to(proj, frames.shape[:1] + proj.shape[1:])


def _frames_on(path, frame_path, what):
    """The frames of ``frame_path``; refused by ``what`` unless they have the path's node count."""
    frames = frame_path.frames
    if frames.shape[0] != path.n_nodes:
        raise ValueError(f"{what} has {frames.shape[0]} nodes, the path has {path.n_nodes}")
    return frames


def _node_norms(vectors):
    return np.linalg.norm(vectors, axis=-1)


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
    (kept by ``_once``).  It is read on the flat side, as the other
    residuals are, so a flat tilt of a boosted R(t) is not shrunk by R^-1.
    On a Euclidean form with orthogonal R and orthonormal N_hat it brackets
    the largest principal angle: v <= sin(theta) <= sqrt(r c) v.  No product
    with R is rank-tested: a boosted R is measured, and one that maps
    T_alpha M into the tangent space without being an isometry reads 0 and
    breaches the report's ``isometry``.  A non-finite R(t), and a frame that
    ``_check_rank`` refuses, raise ValueError at their node, and a frame
    path of another node count by its name; a full-dimensional F_M has no
    normals and reads 0.
    """
    _refuse_non_finite(path.R, "tangency: R(t)")
    frames_m = _frames_on(path, tangent_m, "tangency: F_M(t)")
    q = frames_m @ _check_rank(frames_m, "tangency: F_M(t)")
    what = "tangency: normal development frame"
    _, normals = _once(_frames_on(path, normal_mhat, what), path.form, what)
    image = path.R @ q
    # a column that R(t) annihilates reads NaN: that node fails closed
    with np.errstate(invalid="ignore", divide="ignore"):
        image /= np.linalg.norm(image, axis=1, keepdims=True)
    pairing = np.swapaxes(image, 1, 2) @ (path.form.signs[:, None] * normals)
    return np.max(np.abs(pairing), axis=(1, 2), initial=0.0)


def _rotation_generator(path):
    """Per-node generator W = Rdot R^{-1} of the rotation path."""
    Rdot = fd_derivative(path.R, path.grid.h)
    return Rdot @ j_transpose_inverse(path.R, path.form)


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
    sdot = fd_derivative(path.s, h)
    adot = fd_derivative(path.alpha, h)
    ahatdot = fd_derivative(path.alpha_hat, h)
    w1 = np.einsum("kij,kj->ki", W, path.alpha_hat - path.s) + sdot
    w2 = ahatdot - np.einsum("kij,kj->ki", path.R, adot)
    return np.maximum(_node_norms(w1), _node_norms(w2))


def no_twist_residuals(path, tangent_mhat, normal_mhat, W=None):
    """Per-node tangential and normal twist defects.

    The generator W = Rdot R^{-1} of a twist-free rolling exchanges the
    tangent and normal spaces of the development: W T_hat must have no
    tangential component and W N_hat no normal component.  Residuals are
    measured on Euclidean-normalized frame columns through the J-orthogonal
    projectors of the respective subspaces; a constant frame's are built
    once per distinct frame (``_once``).  A frame path of another node count
    is refused by name.  ``W`` is the path's ``_rotation_generator`` when the
    caller has it.
    """
    if W is None:
        W = _rotation_generator(path)

    def _defect(frame_path, what):
        what = f"no twist: {what} frame"
        projector, cols = _once(_frames_on(path, frame_path, what), path.form, what)
        comp = projector @ (W @ cols)
        return np.max(np.linalg.norm(comp, axis=1), axis=-1, initial=0.0)

    return _defect(tangent_mhat, "tangent development"), _defect(normal_mhat, "normal development")


def rolling_condition_residuals(path, tangent_m, tangent_mhat, normal_mhat):
    """Bundle all defining-condition residuals into a ResidualReport.

    The rotation generator W = Rdot R^{-1} is taken once, for the slip and
    both twist residuals.  ``isometry`` is the per-node group residual
    |R^T J R - J| / max(1, max|R_ij|)^2, the relative rule of the flows'
    node check: R(t) must be a rigid motion of the form.
    """
    point = rolling_point_residual(path)
    tang = tangency_residual(path, tangent_m, normal_mhat)
    W = _rotation_generator(path)
    slip = no_slip_residual(path, W)
    twist_t, twist_n = no_twist_residuals(path, tangent_mhat, normal_mhat, W)
    per_node = {
        "rolling_point": point,
        "tangency": tang,
        "no_slip": slip,
        "no_twist_tan": twist_t,
        "no_twist_norm": twist_n,
        "isometry": j_orthogonality_residual(path.R, path.form) / j_orthogonality_scale(path.R),
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

    The intermediate curves must agree: path01 develops onto the same curve
    path12 rolls along.  The composite motion applies path01 first, so the
    rotations multiply as R12 R01.
    """
    if path01.grid != path12.grid:
        raise ValueError("rolling paths live on different grids")
    if path01.form != path12.form:
        raise ValueError("rolling paths use different ambient forms")
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
    no-twist condition breaks.  Frame paths of another node count are
    refused by name.
    """
    grid = path.grid
    n = path.form.dim
    if np.shape(omega0) != (n, n):
        raise ValueError(f"omega0 must be one constant ({n}, {n}) matrix")
    omega = np.asarray(omega0, dtype=float)

    signs = path.form.signs
    what = "normal generator: tangent frame"
    tangent = _frames_on(path, tangent_mhat, what)
    normal = _frames_on(path, normal_mhat, "normal generator: normal frame")
    p_tan = _projectors(tangent, path.form, what)
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
    cubic through the node ``_projectors``, P' its fourth-order difference at
    the stage times; transport does not depend on the parametrisation.
    """
    m = frames.shape[0]
    if m < 3:
        raise ValueError(f"{what} needs at least 3 nodes for a fourth-order transport, got {m}")
    grid = TimeGrid(0.0, 1.0, m - 1)
    P = dense_from_samples(grid.ts, _projectors(frames, form, what))(grid.stage_ts)
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
    Complex frames or v0 are refused by name (``linalg._real``).
    """
    frames, v0 = _real(frames, "transport frame"), _real(v0, "v0")
    dim = form.dim
    if v0.ndim not in (1, 2) or v0.shape[0] != dim or v0.size == 0:
        raise ValueError(f"v0 has shape {v0.shape}, expected ({dim},) or ({dim}, c)")
    flow = _transport_flow(frames, form, "transport frame")

    block = v0 if v0.ndim == 2 else v0[:, None]
    off = np.linalg.norm(block - _projectors(frames[:1], form)[0] @ block, axis=0) \
        > 1e-8 * np.maximum(1.0, np.linalg.norm(block, axis=0))
    if np.any(off):
        column = f" column {int(np.argmax(off))}" if v0.ndim == 2 else ""
        raise ValueError(f"v0{column} does not lie in the initial transport space")
    return flow @ v0


def triple_velocity_residual(triple):
    """Per-node ||d/dt alpha_hat - A(t) d/dt alpha||: the intrinsic no-slip law."""
    h = triple.grid.h
    adot = fd_derivative(triple.alpha, h)
    ahatdot = fd_derivative(triple.alpha_hat, h)
    mapped = np.einsum("kai,ki->ka", triple.maps, adot)
    return _node_norms(ahatdot - mapped)


def triple_gram_residual(triple):
    """Per-node isometry defect of A(t) on the moving tangent frame."""
    frames = triple.tangent_frames
    mapped = triple.maps @ frames
    target = np.swapaxes(mapped, 1, 2) @ (triple.target_gram @ mapped)
    source = np.swapaxes(frames, 1, 2) @ (triple.form.signs[:, None] * frames)
    return np.max(np.abs(target - source), axis=(1, 2))


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
