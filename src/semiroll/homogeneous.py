"""Homogeneous-space engine: models, horizontal lifts, developments, rolling.

A curved space enters as a ``CartanModel``: a matrix realization of a Lie
algebra with a declared h/p splitting, an equivariant isometric embedding of
M = G/H into a flat ambient space V, and the linearization of the G-action
on V.  Everything downstream is sampled on uniform grids: horizontal lifts
integrate ``qdot = q U(t)`` with U(t) in p (a sampled curve integrates the
equivalent linear flow ``qdot = X(t) q``, X the transvection along the
curve, on every model), and one assembly builds the extrinsic rolling
map along the lift, its rotation the J-inverse of the ambient representation
(times the correction S(t) that a non-symmetric space derives from its own
``d_e_rho``) and its development the quadrature of R(t) alpha'(t).  The
intrinsic rolling is the tangential part of that map.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .integrate import (
    NotAKnotCubic,
    TimeGrid,
    dense_from_samples,
    derivative_interpolant,
    fd_derivative,
    flow_matrix_ode,
    integrate_vector,
    reproject,
)
from .linalg import j_orthogonality_residual, j_transpose_inverse, stacked_null_spaces
from .rolling import (
    RollingMapPath,
    RollingTriple,
    TangentFramePath,
    parallel_transport_embedded,
    rolling_condition_residuals,
)

__all__ = [
    "ControlCurve",
    "EmbeddedCurve",
    "GroupPath",
    "CartanModel",
    "horizontal_lift",
    "horizontality_residual",
    "transport_homogeneous",
    "intrinsic_roll",
    "extrinsic_develop",
    "extrinsic_roll",
    "normal_extension_by_frames",
    "model_residual_report",
]

LIFT_TRACK_TOL = 1e-8
TANGENT_FIT_TOL = 1e-8
MODEL_CHECK_TOL = 1e-10
NORMAL_GRAM_TOL = 1e-6


@dataclass
class ControlCurve:
    """Sampled control coordinates in the p-part of the algebra.

    ``coords[k]`` are the coefficients at node k; ``func`` (optional at
    construction) maps a scalar t to the coefficients at t and defaults to a
    cubic interpolant through the samples.  The integrators take the node
    values from ``coords`` and read ``func`` only at the step midpoints,
    through ``stage_coords``.
    """

    grid: TimeGrid
    coords: np.ndarray
    func: Optional[Callable] = None

    def __post_init__(self):
        self.coords = np.atleast_2d(np.asarray(self.coords, dtype=float))
        if self.coords.shape[0] != self.grid.n_nodes:
            raise ValueError("control sample count does not match the grid")
        if self.func is None:
            self.func = dense_from_samples(self.grid.ts, self.coords)

    @classmethod
    def from_function(cls, grid, func):
        coords = np.array([np.atleast_1d(func(t)) for t in grid.ts], dtype=float)
        return cls(grid=grid, coords=coords, func=func)

    @property
    def dim(self):
        return self.coords.shape[1]

    def at(self, ts):
        """Coefficients at ``ts``, (len(ts), dim): one interpolant call, else one call per t.

        A user ``func`` is read once per t and its results are stacked by one
        ``np.array``; the table's shape is checked once.  A func returning
        scalars is accepted for a 1-dim control; rows of any other length
        than ``dim`` are refused.
        """
        if isinstance(self.func, NotAKnotCubic):
            return self.func(ts)
        try:
            table = np.array([self.func(t) for t in ts], dtype=float)
        except ValueError as exc:
            raise ValueError(f"control func returned rows of unequal shape: {exc}") from None
        if table.ndim == 1 and self.dim == 1:
            table = table[:, None]
        if table.shape[1:] != (self.dim,):
            raise ValueError(f"control func returned rows of shape {table.shape[1:]}, "
                             f"expected ({self.dim},)")
        return table

    def stage_coords(self):
        """Coefficients at ``grid.stage_ts``, (2 n_steps + 1, dim): the node samples
        ``coords`` in the even rows, ``at`` the step midpoints in the odd rows."""
        grid = self.grid
        out = np.empty((2 * grid.n_steps + 1, self.dim))
        out[::2] = self.coords
        out[1::2] = self.at(grid.stage_ts[1::2])
        return out


@dataclass
class EmbeddedCurve:
    """Curve on the embedded model manifold, sampled in ambient coordinates."""

    grid: TimeGrid
    points: np.ndarray

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        if self.points.ndim != 2 or self.points.shape[0] != self.grid.n_nodes:
            raise ValueError("curve samples must be (n_nodes, N) matching the grid")


@dataclass
class GroupPath:
    """Sampled path in the structure group, optionally with its control.

    A control-driven lift also carries ``stage_coords``, the control's
    ``stage_coords()`` it integrated, so a later flow along the same control
    need not read it again.
    """

    grid: TimeGrid
    samples: np.ndarray
    control: Optional[ControlCurve] = None
    stage_coords: Optional[np.ndarray] = None

    def __post_init__(self):
        self.samples = np.asarray(self.samples)
        if self.samples.ndim != 3 or self.samples.shape[0] != self.grid.n_nodes:
            raise ValueError("group samples must be (n_nodes, d, d) matching the grid")


class CartanModel:
    """Matrix realization of a reductive homogeneous space with an embedding.

    Parameters
    ----------
    name : str
    basis : (m, d, d) array
        Lie algebra basis in the matrix realization (possibly complex).
    h_indices, p_indices : sequences of int
        Index split of the basis into isotropy part and its reductive
        complement.
    form : SignatureForm
        Scalar product of the flat ambient space V.
    group_form : SignatureForm
        Form preserved by the group matrices themselves (used to reproject
        integrated group paths).
    base_point : object
        Chart representation of the base point o (model specific); the
        embedded base point ``obar`` is ``embed(base_point)``.
    d_e_pi : (k, k) array
        Matrix of the submersion differential from p-coefficients to the
        model's tangent coordinates at o.
    rho : callable
        Group matrices (..., d, d) -> ambient representation matrices
        (..., N, N), broadcast over leading axes, so one call maps a single
        matrix or a whole sampled path.
    d_e_rho : callable
        Algebra matrix -> (N, N) linearized representation.
    action : callable
        (group matrix, chart point) -> chart point.
    embed : callable
        chart point -> (N,) ambient vector.
    tangent_frame_at : callable
        Stacked pointwise tangent frames: an (m, N) array of embedded
        points -> an (m, N, r) array whose k-th slice spans the tangent
        space at the k-th point, r = len(p_indices).  Where a frame is a
        null space (sphere, hyperboloid, the Stiefel complement P_perp), its
        basis is the one scipy's ``null_space`` returns for that node: the
        trailing right singular vectors of the SVD, with LAPACK's signs.
    transvection : callable
        Stacked transvections: points alpha (m, N) of the embedded manifold
        and tangent vectors v (m, N) there -> the (m, d, d) algebra elements
        X = q U q^{-1}, U in p, in the matrix realization of the group, that
        generate the horizontal motion through alpha = rho(q) obar with
        velocity v = rho(q) d_e_rho(U) obar; a horizontal lift of the curve
        solves q' = X q.  On every reductive model Ad_H p = p, so X depends
        only on alpha and v, not on the lift q.  The sphere and the
        hyperboloid are built by one quadric construction
        (``hyperbolic.quadric_bundle``) and share ``quadric_transvection``,
        a formula in the cross product alpha x v; SO+(p,q) and the Stiefel
        manifolds have closed forms of their own.

    Everything else is *derived*, not declared: the embedded base point
    ``obar = embed(base_point)``, the random points of ``random_point`` (the
    base point moved by a random group element, since the action is
    transitive), the scalar product on p, ``ip_p = F0^T J F0`` with
    ``F0[:, i] = d_e_rho(p_i) obar``, which is exactly the choice that makes
    d_e_pi an isometry onto the embedded tangent space, and the rolling
    correction generators ``omega_basis[i] = -(P A_i P + (I - P) A_i (I - P))``
    with ``A_i = d_e_rho(p_i)`` and P = ``frame0 cf0`` the J-orthogonal
    tangent projector at the base point.  Omega = sum_i U_i omega_basis[i]
    cancels the part of d_e_rho(U) that keeps the tangent and the normal
    space; along a lift the rotation is the J-inverse of rho(q) S with
    S' = Omega S (Hüper, Kleinsteuber & Silva Leite, "Rolling Stiefel
    manifolds", 2008).  ``symmetric_space`` is true where ``omega_basis``
    vanishes (within ``MODEL_CHECK_TOL`` scaled by the sizes of P and the
    A_i): there d_e_rho(p) swaps the two spaces, S is the identity and the
    normal completion has that closed form.

    Like ``rho``, the methods ``p_element`` and ``algebra_coords`` broadcast
    over leading axes; ``d_e_rho`` takes one matrix.
    """

    def __init__(self, name, basis, h_indices, p_indices, form, group_form,
                 base_point, d_e_pi, rho, d_e_rho, action, embed, transvection,
                 tangent_frame_at, params=None, description=None):
        self.name = name
        self.basis = np.asarray(basis)
        if self.basis.ndim != 3 or self.basis.shape[1] != self.basis.shape[2]:
            raise ValueError("basis must be a stack of square matrices")
        self.h_indices = tuple(int(i) for i in h_indices)
        self.p_indices = tuple(int(i) for i in p_indices)
        if sorted(self.h_indices + self.p_indices) != list(range(self.basis.shape[0])):
            raise ValueError("h_indices and p_indices must partition the basis")
        self.form = form
        self.group_form = group_form
        self.base_point = base_point
        self.obar = np.asarray(embed(base_point), dtype=float)
        self.d_e_pi = np.asarray(d_e_pi, dtype=float)
        self.rho = rho
        self.d_e_rho = d_e_rho
        self.action = action
        self.embed = embed
        self.tangent_frame_at = tangent_frame_at
        self.transvection = transvection
        self.params = dict(params or {})
        self.description = description

        k = len(self.p_indices)
        if self.d_e_pi.shape != (k, k):
            raise ValueError("d_e_pi must be square of size len(p_indices)")
        d_rho_p = np.array([np.asarray(self.d_e_rho(self.basis[i]), dtype=float)
                            for i in self.p_indices])
        self.frame0 = np.column_stack([A @ self.obar for A in d_rho_p])
        self.ip_p = self.frame0.T @ (self.form.signs[:, None] * self.frame0)
        if abs(np.linalg.det(self.ip_p)) < 1e-12:
            raise ValueError("embedded tangent frame is degenerate under the ambient form")
        d_inv = np.linalg.inv(self.d_e_pi)
        self.target_gram = d_inv.T @ self.ip_p @ d_inv
        # coefficient extractor at the base point: cf0 @ v = p-coefficients of v
        self.cf0 = np.linalg.solve(self.ip_p, self.frame0.T * self.form.signs[None, :])
        # C-ordered like frame0, so products with the flat frames do not depend on the SVD layout
        self.normal0 = np.ascontiguousarray(
            stacked_null_spaces((self.frame0.T * self.form.signs[None, :])[None])[0])
        if self.normal0.size:
            gram_n = self.normal0.T @ (self.form.signs[:, None] * self.normal0)
            if abs(np.linalg.det(gram_n)) < 1e-12:
                raise ValueError("normal complement is degenerate under the ambient form")
        P = self.frame0 @ self.cf0
        Q = np.eye(P.shape[0]) - P
        self.omega_basis = -(P @ d_rho_p @ P + Q @ d_rho_p @ Q)
        size = max(1.0, float(np.max(np.abs(P)))) ** 2 * max(1.0, float(np.max(np.abs(d_rho_p))))
        self.symmetric_space = bool(np.max(np.abs(self.omega_basis)) <= MODEL_CHECK_TOL * size)

        self._p_basis = self.basis[list(self.p_indices)]
        flat = self.basis.reshape(self.basis.shape[0], -1).T
        self._basis_flat = np.vstack([flat.real, flat.imag])

    # -- algebra helpers -------------------------------------------------

    @property
    def p_dim(self):
        return len(self.p_indices)

    @property
    def group_dim(self):
        return self.basis.shape[1]

    @property
    def ambient_dim(self):
        return self.form.dim

    def p_element(self, coeffs):
        """p-coefficients (..., k) -> algebra matrices (..., d, d)."""
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape[-1:] != (self.p_dim,):
            raise ValueError(f"expected {self.p_dim} p-coefficients, got {coeffs.shape}")
        return np.tensordot(coeffs, self._p_basis, axes=(-1, 0))

    def algebra_coords(self, X):
        """Basis coefficients (..., m) and off-span residual norms (...) of X (..., d, d)."""
        X = np.asarray(X)
        lead = X.shape[:-2]
        flat = X.reshape((-1, X.shape[-2] * X.shape[-1]))
        target = np.concatenate([flat.real, flat.imag], axis=1).T
        coeffs, _, _, _ = np.linalg.lstsq(self._basis_flat, target, rcond=None)
        resid = np.linalg.norm(self._basis_flat @ coeffs - target, axis=0)
        return coeffs.T.reshape(lead + (-1,)), resid.reshape(lead)[()]

    def random_group_element(self, rng):
        from scipy.linalg import expm
        coeffs = 0.5 * rng.standard_normal(self.basis.shape[0])
        X = np.tensordot(coeffs, self.basis, axes=(0, 0))
        return reproject(expm(X), self.group_form)

    def random_point(self, rng):
        """A random chart point: the base point moved by a random group element."""
        return self.action(self.random_group_element(rng), self.base_point)

    # -- paths along group samples ---------------------------------------

    def rho_path(self, qs):
        """Group samples (n, d, d) -> C-ordered rho matrices (n, N, N), one rho call."""
        return np.ascontiguousarray(self.rho(qs), dtype=float)

    def frames_along(self, rhos):
        return rhos @ self.frame0

    def normals_along(self, rhos):
        return rhos @ self.normal0

    def flat_tangent_frames(self, grid):
        """The base-point tangent frame at every node: a read-only zero-stride broadcast."""
        frames = np.broadcast_to(self.frame0, (grid.n_nodes,) + self.frame0.shape)
        return TangentFramePath(grid.ts, frames)

    def flat_normal_frames(self, grid):
        """The base-point normal frame at every node: a read-only zero-stride broadcast."""
        frames = np.broadcast_to(self.normal0, (grid.n_nodes,) + self.normal0.shape)
        return TangentFramePath(grid.ts, frames)

    def pointwise_tangent_frames(self, grid, points):
        points = np.asarray(points, dtype=float)
        if not np.all(np.isfinite(points)):
            raise ValueError("curve points contain NaN or inf")
        return TangentFramePath(grid.ts, self.tangent_frame_at(points))

    # -- consistency checks ------------------------------------------------

    def validate(self, rng=None, n_samples=4, tol=MODEL_CHECK_TOL):
        """Check the structural invariants; raises ValueError on violation.

        Bracket closures of the h/p splitting, h perpendicular to p, isotropy
        of the base point, J-orthogonality and equivariance of the ambient
        representation (on random samples), the homomorphism property of
        d_e_rho, the transvection map against the horizontal generator, and
        Ad_H-invariance of the derived p-metric.  A broken [p,p] subset h is
        refused only where ``omega_basis`` vanishes (``symmetric_space``);
        a model with a correction of its own only reports it under ``"pp"``.
        Returns the measured defects.
        """
        from scipy.linalg import expm
        rng = rng or np.random.default_rng(2357)
        defects = {}
        scale = float(np.max(np.abs(self.basis)))

        def bracket(X, Y):
            return X @ Y - Y @ X

        def peak(values):
            return float(np.max(np.abs(values), initial=0.0))

        h = np.array(self.h_indices, dtype=int)
        p = np.array(self.p_indices, dtype=int)
        B = self.basis
        # c[i, j] holds the coordinates of [B_i, B_j]
        c, r = self.algebra_coords(bracket(B[:, None], B[None, :]))
        worst = {
            "hh": peak(c[np.ix_(h, h, p)]),
            "hp": peak(c[np.ix_(h, p, h)]),
            "pp": peak(c[np.ix_(p, p, p)]),
            "span": peak(r),
            "orth": peak(np.einsum("iab,jba->ij", B[p], B[h]).real),
        }
        defects.update(worst)
        lim = tol * max(1.0, scale) ** 2
        if worst["span"] > lim:
            raise ValueError(f"brackets leave the algebra span (defect {worst['span']:.3e})")
        if worst["hh"] > lim:
            raise ValueError("[h,h] is not contained in h")
        if worst["hp"] > lim:
            raise ValueError("[h,p] is not contained in p")
        if worst["pp"] > lim and self.symmetric_space:
            raise ValueError("[p,p] is not contained in h but omega_basis vanishes")
        if worst["orth"] > lim:
            raise ValueError("h and p are not orthogonal under -Re tr(XY)")

        iso = peak([np.asarray(self.d_e_rho(self.basis[i]), dtype=float) @ self.obar
                    for i in self.h_indices])
        defects["isotropy"] = iso
        if iso > lim:
            raise ValueError(f"isotropy algebra does not fix the base point (defect {iso:.3e})")

        equiv = 0.0
        jorth = 0.0
        hom = 0.0
        transv = 0.0
        for _ in range(n_samples):
            q = self.random_group_element(rng)
            pt = self.random_point(rng)
            rq = np.asarray(self.rho(q), dtype=float)
            lhs = np.asarray(self.embed(self.action(q, pt)), dtype=float)
            rhs = rq @ np.asarray(self.embed(pt), dtype=float)
            norm = max(1.0, float(np.linalg.norm(rhs)))
            equiv = max(equiv, float(np.linalg.norm(lhs - rhs)) / norm)
            jorth = max(jorth, j_orthogonality_residual(rq, self.form))
            # the transvection at rho(q) obar along rho(q) d_e_rho(U) obar is
            # the horizontal generator q U q^{-1}
            U = self.p_element(rng.standard_normal(self.p_dim))
            vel = rq @ np.asarray(self.d_e_rho(U), dtype=float) @ self.obar
            gen = self.transvection((rq @ self.obar)[None], vel[None])[0]
            expect = q @ U @ np.linalg.inv(q)
            transv = max(transv, peak(gen - expect) / max(1.0, peak(expect)))
            cx = rng.standard_normal(self.basis.shape[0])
            cy = rng.standard_normal(self.basis.shape[0])
            X = np.tensordot(cx, self.basis, axes=(0, 0))
            Y = np.tensordot(cy, self.basis, axes=(0, 0))
            lhs_h = np.asarray(self.d_e_rho(bracket(X, Y)), dtype=float)
            rhs_h = bracket(np.asarray(self.d_e_rho(X), dtype=float),
                            np.asarray(self.d_e_rho(Y), dtype=float))
            hom = max(hom, peak(lhs_h - rhs_h) / max(1.0, peak(rhs_h)))
        defects["equivariance"] = equiv
        defects["rho_orthogonality"] = jorth
        defects["d_e_rho_homomorphism"] = hom
        defects["transvection"] = transv
        if equiv > 1e-10:
            raise ValueError(f"embedding is not equivariant (defect {equiv:.3e})")
        if jorth > 1e-9:
            raise ValueError("ambient representation does not preserve the form")
        if hom > 1e-8:
            raise ValueError("d_e_rho is not a Lie algebra homomorphism")
        if transv > 1e-8:
            raise ValueError(f"transvection is not the horizontal generator (defect {transv:.3e})")

        adh = 0.0
        if self.h_indices:
            ch = 0.5 * rng.standard_normal(len(self.h_indices))
            hmat = expm(np.tensordot(ch, self.basis[h], axes=(0, 0)))
            hinv = np.linalg.inv(hmat)
            c, r = self.algebra_coords(hmat @ self._p_basis @ hinv)
            C = c[:, p].T
            adh = max(peak(r), peak(c[:, h]), peak(C.T @ self.ip_p @ C - self.ip_p))
        defects["ad_h_invariance"] = adh
        if adh > 1e-8:
            raise ValueError("p-metric is not Ad_H-invariant")
        return defects


# -- lifts ----------------------------------------------------------------


def _lift_from_control(model, control, q0):
    grid = control.grid
    coords = control.stage_coords()
    qs = flow_matrix_ode(model.p_element(coords), q0, grid, side="right",
                         reproject_form=model.group_form)
    return GroupPath(grid=grid, samples=qs, control=control, stage_coords=coords)


def _lift_from_samples(model, curve, q0):
    grid = curve.grid
    pts = curve.points
    scale = max(1.0, float(np.max(np.abs(pts))))
    start = np.asarray(model.rho(q0), dtype=float) @ model.obar
    if np.linalg.norm(start - pts[0]) > LIFT_TRACK_TOL * scale:
        raise ValueError("curve does not start at the projection of q0")

    # the lift solves the linear flow q' = X q of the curve's transvections
    vel = derivative_interpolant(grid, pts)(grid.stage_ts)
    alpha = dense_from_samples(grid.ts, pts)(grid.stage_ts)
    qs = flow_matrix_ode(model.transvection(alpha, vel), q0, grid, side="left",
                         reproject_form=model.group_form)

    rhos = model.rho_path(qs)
    node_vel = vel[::2]
    coords = np.einsum("ai,kij,kj->ka", model.cf0, j_transpose_inverse(rhos, model.form), node_vel)
    speed = max(1.0, float(np.max(np.linalg.norm(node_vel, axis=1))))
    fitted = np.einsum("kia,ka->ki", model.frames_along(rhos), coords)
    fit = np.linalg.norm(fitted - node_vel, axis=1)
    track = np.linalg.norm(np.einsum("kij,j->ki", rhos, model.obar) - pts, axis=1)
    bad_fit = fit > TANGENT_FIT_TOL * speed
    bad = np.flatnonzero(bad_fit | (track > LIFT_TRACK_TOL * scale))
    if bad.size:
        k = bad[0]
        t = grid.ts[k]
        if bad_fit[k]:
            raise ValueError(
                f"curve velocity at t={t:.6g} is not tangent to the model "
                f"manifold (defect {fit[k]:.3e}); input must be smooth and tangent, "
                "or the grid is too coarse for its finite-difference velocity; refine n_steps"
            )
        raise ValueError(
            f"lift drifted from the curve (defect {track[k]:.3e} at t={t:.6g}); the lift's "
            f"truncation error exceeds LIFT_TRACK_TOL = {LIFT_TRACK_TOL:.0e} when the grid "
            "is too coarse for a curve on the manifold; refine n_steps"
        )
    return GroupPath(grid=grid, samples=qs, control=ControlCurve(grid=grid, coords=coords))


def horizontal_lift(model, data, q0=None):
    """Horizontal lift of a control or of a sampled curve on the manifold.

    With a ControlCurve the lift integrates qdot = q U(t) directly.  With an
    EmbeddedCurve it integrates the linear flow qdot = X(t) q, with X the
    model's transvection at the curve point along the curve velocity.  The
    control of a sampled curve's lift is read off the curve velocity in the
    moving frame at the nodes, inputs whose velocity leaves the tangent
    space or whose lift drifts from the curve are rejected, and the control
    is attached to the returned path.  ``q0`` defaults to the
    group identity and must project onto the first curve point.
    """
    if q0 is None:
        q0 = np.eye(model.group_dim, dtype=model.basis.dtype)
    else:
        q0 = np.asarray(q0)
    if isinstance(data, ControlCurve):
        if data.dim != model.p_dim:
            raise ValueError(
                f"control has {data.dim} components, model p-dimension is {model.p_dim}"
            )
        return _lift_from_control(model, data, q0)
    if isinstance(data, EmbeddedCurve):
        if data.points.shape[1] != model.ambient_dim:
            raise ValueError("curve ambient dimension does not match the model")
        return _lift_from_samples(model, data, q0)
    raise TypeError("data must be a ControlCurve or an EmbeddedCurve")


def horizontality_residual(model, path):
    """Per-node h-component (and off-span part) of q^{-1} qdot."""
    qdot = fd_derivative(path.samples, path.grid.h)
    coeffs, resid = model.algebra_coords(np.linalg.solve(path.samples, qdot))
    h_part = np.max(np.abs(coeffs[:, list(model.h_indices)]), axis=1, initial=0.0)
    return np.maximum(h_part, resid)


# -- transport --------------------------------------------------------------


def transport_homogeneous(model, lift, y0):
    """Parallel field along the lifted curve from p-coordinates y0 at the start.

    Returns embedded ambient vectors rho(q(t)) (d_e_rho(W) obar) with
    W = sum_i y0_i p_i; along horizontal lifts this is the parallel transport
    of the corresponding tangent vector.
    """
    W = model.p_element(y0)
    v0 = np.asarray(model.d_e_rho(W), dtype=float) @ model.obar
    rhos = model.rho_path(lift.samples)
    return np.einsum("kij,j->ki", rhos, v0)


# -- rolling ----------------------------------------------------------------


def extrinsic_develop(rots, velocity, grid):
    """Flat development: quadrature from zero of R(t) alpha'(t).

    ``rots`` are the rolling rotations and ``velocity`` the curve velocity
    alpha' at the grid's nodes.
    """
    dense = dense_from_samples(grid.ts, np.einsum("kij,kj->ki", rots, velocity))
    return integrate_vector(dense(grid.stage_ts), grid)


def _correction_path(model, lift):
    """The rolling correction S(t) along a horizontal lift: S' = Omega S, S(0) = I.

    Omega = sum_i U_i ``omega_basis[i]`` is read from the stage coordinates the
    control lift integrated, else from ``lift.control.stage_coords()``.
    """
    coords = lift.stage_coords
    if coords is None:
        coords = lift.control.stage_coords()
    omegas = np.tensordot(coords, model.omega_basis, axes=(-1, 0))
    return flow_matrix_ode(omegas, np.eye(model.ambient_dim), lift.grid, side="left",
                           reproject_form=model.form)


def _rolling_path(model, lift, differenced=False):
    """The extrinsic rolling map along a horizontal lift, rho along the lift, and
    the tangent frames ``frames_along(rho)`` (None for a ``differenced`` path).

    The rotation is the J-inverse of rho(q) S, with S the ``_correction_path``
    of a non-symmetric model (the identity for a symmetric space).  The
    development is ``alpha_hat = obar + extrinsic_develop(R, alpha', grid)``
    and the translation ``s = alpha_hat - R alpha``.  The velocity alpha' is
    read exactly off the lift, ``rho(q) d_e_rho(U) obar`` with U the lift's
    control at the nodes, so on a symmetric space ``R alpha' = F0 U`` and the
    development is the quadrature of the control itself; with
    ``differenced`` it is the finite-difference derivative of the samples
    of alpha instead.  Both kinds of roll, for every model, are built here.
    """
    grid = lift.grid
    rhos = model.rho_path(lift.samples)
    rotated = rhos
    if not model.symmetric_space:
        rotated = rhos @ _correction_path(model, lift)
    rots = j_transpose_inverse(rotated, model.form)
    alpha = np.einsum("kij,j->ki", rhos, model.obar)
    frames = None
    if differenced:
        velocity = fd_derivative(alpha, grid.h)
    else:
        frames = model.frames_along(rhos)
        velocity = np.einsum("kia,ka->ki", frames, lift.control.coords)
    alpha_hat = model.obar[None, :] + extrinsic_develop(rots, velocity, grid)
    s = alpha_hat - np.einsum("kij,kj->ki", rots, alpha)
    return RollingMapPath(grid=grid, R=rots, s=s, alpha=alpha, alpha_hat=alpha_hat,
                          form=model.form), rhos, frames


def intrinsic_roll(model, data, q0=None):
    """Intrinsic rolling along a control or sampled curve: returns a RollingTriple.

    The intrinsic rolling is the tangential part of the extrinsic one: with
    ``head = d_e_pi ∘ coeffs_p`` the maps are ``A(t) = head ∘ R(t)`` and the
    development is ``head (alpha_hat(t) - obar)``, both read off the
    extrinsic rolling map along the same lift.  Its alpha' is read exactly
    off the lift, so on a symmetric space the development differs from that
    of ``extrinsic_roll`` by the latter's finite-difference truncation error.
    """
    path, _, frames = _rolling_path(model, horizontal_lift(model, data, q0=q0))
    head = model.d_e_pi @ model.cf0
    return RollingTriple(
        grid=path.grid,
        alpha=path.alpha,
        alpha_hat=np.einsum("ai,ki->ka", head, path.alpha_hat - model.obar),
        maps=head @ path.R,
        tangent_frames=frames,
        form=model.form,
        target_gram=model.target_gram,
    )


def normal_extension_by_frames(tangential_ops, tangent_frames, normal_frames,
                               normal_frames_dev, form):
    """Extend per-node tangential actions to full rotations via matched normal frames.

    The returned R(t) agrees with ``tangential_ops`` on the tangent frames and
    maps the transported normal frame onto the development-side normal frame.
    Both normal frames must have matching J-Gram matrices nodewise; otherwise
    no isometric extension exists and a ValueError names the remedy, a finer
    grid for the transport that produced ``normal_frames``.
    """
    tangent_frames = np.asarray(tangent_frames, dtype=float)
    normal_frames = np.asarray(normal_frames, dtype=float)
    normal_frames_dev = np.asarray(normal_frames_dev, dtype=float)
    signs = form.signs
    g_a = np.swapaxes(normal_frames, 1, 2) @ (signs[:, None] * normal_frames)
    g_b = np.swapaxes(normal_frames_dev, 1, 2) @ (signs[:, None] * normal_frames_dev)
    worst = float(np.max(np.abs(g_a - g_b)))
    if worst > NORMAL_GRAM_TOL:
        raise ValueError(
            f"normal frames are not isometric (Gram mismatch {worst:.3e} > NORMAL_GRAM_TOL = "
            f"{NORMAL_GRAM_TOL:g}); cannot extend the tangential action; refine n_steps"
        )
    moved_tan = np.asarray(tangential_ops, dtype=float) @ tangent_frames
    src = np.concatenate([tangent_frames, normal_frames], axis=2)
    dst = np.concatenate([moved_tan, normal_frames_dev], axis=2)
    return dst @ np.linalg.inv(src)


def extrinsic_roll(model, data, q0=None, normal_strategy="auto"):
    """Extrinsic rolling map along a control or sampled curve.

    ``normal_strategy`` selects how the rotation acts on the normal bundle:
    "closed_form" takes the rolling rotation of the lift (the J-inverse of
    rho, corrected by the flow of ``omega_basis`` where the model is not a
    symmetric space), "frame_matching" transports a normal frame along the
    curve and matches it to the constant development frame, and "auto" is
    "closed_form".  A non-symmetric model (V_k(R^n) with k >= 2) refuses
    "frame_matching".  The normal frame is transported as one (N, c) block
    along the whole path; a grid too coarse for its Richardson levels leaves
    it non-isometric to the development's, and the roll is refused with the
    remedy.  The development integrates R alpha', with alpha' read exactly
    off the lift on a non-symmetric space and differenced from the samples
    of alpha on a symmetric space.
    """
    if normal_strategy not in ("auto", "closed_form", "frame_matching"):
        raise ValueError(f"unknown normal strategy '{normal_strategy}'")
    if normal_strategy == "frame_matching" and not model.symmetric_space:
        raise ValueError(
            f"normal strategy '{normal_strategy}' is unavailable for model {model.name}"
        )
    # a symmetric space develops the differenced velocity of alpha, which the
    # residual checks difference the path with; the exact one is more accurate
    # (8e-13 against 2e-11 at 250 steps) but moves a slip measured on the
    # path by the checks' own truncation error
    path, rhos, _ = _rolling_path(model, horizontal_lift(model, data, q0=q0),
                                  differenced=model.symmetric_space)
    if normal_strategy != "frame_matching":
        return path
    alpha = path.alpha
    normals = model.normals_along(rhos)
    rots = normal_extension_by_frames(
        path.R, model.frames_along(rhos),
        parallel_transport_embedded(alpha, normals, normals[0], model.form, which="normal"),
        model.flat_normal_frames(path.grid).frames, model.form
    )
    s = path.alpha_hat - np.einsum("kij,kj->ki", rots, alpha)
    return RollingMapPath(
        grid=path.grid, R=rots, s=s, alpha=alpha, alpha_hat=path.alpha_hat, form=model.form
    )


def model_residual_report(model, path):
    """Residual suite for a model-generated extrinsic rolling path.

    Tangent frames along alpha come from the model's pointwise frame
    builders (independent of how the path was produced); the development
    side uses the constant base-point frames.
    """
    grid = path.grid
    tangent_m = model.pointwise_tangent_frames(grid, path.alpha)
    return rolling_condition_residuals(
        path,
        tangent_m,
        model.flat_tangent_frames(grid),
        model.flat_normal_frames(grid),
    )
