"""Homogeneous-space engine: models, horizontal lifts, developments, rolling.

A curved space enters as a ``CartanModel``: a real matrix realization of a
Lie algebra with a declared h/p splitting (a complex group as its real
form), an equivariant isometric embedding of M = G/H into a flat ambient
space V, and the linearization of the G-action on V.  Everything downstream
is sampled on uniform grids, and a control's coordinates and a sampled curve's
points enter through the one gate of ``linalg._real``, which refuses by name a
complex array or one of another node count.  A control rolls along its
horizontal lift, ``qdot = q U(t)`` with U(t) in p, from a start value q0 that one check
(``_start_value``) refuses unless it is a finite real group matrix: the
rotation is the J-inverse of the ambient representation (times the
correction S(t) that a non-symmetric space derives from its own
``d_e_rho``).  A sampled curve on the manifold rolls by parallel transport
alone (Hüper & Silva Leite, 2007): the rotation is the J-inverse of the group
flow that transports the whole ambient frame along the curve's tangent spaces,
and needs no lift.  Either way the development is the exact integral of the
spline through R(t) alpha'(t), taken once per roll (``_rolled``): along a control
in closed form, R alpha' is the control itself, S^-1 F0 c, since rho cancels.
That one roll gives both views: the intrinsic maps and development are head =
d_e_pi cf0 applied to the extrinsic ones.  After the lift, a closed-form roll of
a control is assembled in blocks of nodes (``_BLOCK_ENTRIES`` rotation entries
each) straight into the arrays it returns; an extrinsic one builds no frames,
and a symmetric one, which develops the differenced alpha', no development.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .integrate import (
    NotAKnotCubic,
    TimeGrid,
    dense_from_samples,
    fd_derivative,
    flow_matrix_ode,
)
from .linalg import (ORTHOGONALITY_TOL, _real, expm, is_oriented_isometry,
                     j_orthogonality_residual, j_orthogonality_scale, j_transpose_inverse,
                     stacked_null_spaces)
from .rolling import (
    RollingMapPath,
    RollingTriple,
    TangentFramePath,
    _span_factors,
    _transport_flow,
    rolling_condition_residuals,
)

__all__ = [
    "ControlCurve",
    "EmbeddedCurve",
    "GroupPath",
    "CartanModel",
    "horizontal_lift",
    "transport_homogeneous",
    "intrinsic_roll",
    "extrinsic_develop",
    "extrinsic_roll",
    "model_residual_report",
]

# a sampled point x lies on the manifold, and at the projection of q0, within
# CURVE_TOL max(1, |x|^2): the defining equations are quadratic in x
CURVE_TOL = 1e-8
# a sampled step jumps where its chord x_{k+1} - x_k and the trapezoid h/2 (x'_k +
# x'_{k+1}) of the differenced velocity differ by more than CHORD_TOL h^2 times the
# longest chord, plus CURVE_TOL max(1, |x_k|); on a smooth curve they differ by h^3 x'''/12
CHORD_TOL = 50.0
MODEL_CHECK_TOL = 1e-10
# matrix entries per block of a closed-form roll's assembly after the lift, 256 KiB
# of float64: 128 nodes of 16 x 16 rotations, and a 3 x 3 path of 3640 nodes in one
_BLOCK_ENTRIES = 32768


def _read_func(func, ts, dim=None):
    """A user control func read once per t, its rows stacked by one ``np.array``.

    Scalar results give one column where ``dim`` is 1 or not yet known; rows
    of unequal shape, of another shape than (dim,), or complex are refused by name.
    """
    try:
        # plain floats: np.float64 is a float subclass, and a user func reads them cheaper
        table = np.array([func(t) for t in ts.tolist()])
    except ValueError as exc:
        raise ValueError(f"control func returned rows of unequal shape: {exc}") from None
    table = _real(table, "control func rows")
    if table.ndim == 1 and dim in (None, 1):
        table = table[:, None]
    if dim is not None and table.shape[1:] != (dim,):
        raise ValueError(f"control func returned rows of shape {table.shape[1:]}, "
                         f"expected ({dim},)")
    return table


@dataclass
class ControlCurve:
    """Sampled control coordinates in the p-part of the algebra.

    ``coords[k]`` are the real coefficients at node k; ``func`` (optional at
    construction) is a function of t, mapping a scalar t to the coefficients
    at t, and defaults to a cubic interpolant through the samples.  The
    integrators take the node values from ``coords`` and read ``func`` only
    at the step midpoints, through ``stage_coords``: once per control and
    grid, the readings kept for every later lift, roll and correction.
    Rebinding ``func`` reads it again.
    """

    grid: TimeGrid
    coords: np.ndarray
    func: Optional[Callable] = None
    # (func, grid, read-only midpoint readings), filled by the first stage_coords
    _midpoints: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        coords = _real(self.coords, "control coords", (self.grid.n_nodes, None), "n_nodes, dim")
        bad = np.flatnonzero(~np.all(np.isfinite(coords), axis=1))
        if bad.size:
            raise ValueError(f"control coords are NaN or inf at t={self.grid.ts[bad[0]]:.6g}")
        self.coords = coords
        if self.func is None:
            self.func = dense_from_samples(self.grid.ts, self.coords)

    @classmethod
    def from_function(cls, grid, func):
        return cls(grid=grid, coords=_read_func(func, grid.ts), func=func)

    @property
    def dim(self):
        return self.coords.shape[1]

    def at(self, ts):
        """Coefficients at ``ts``, (len(ts), dim): one interpolant call, else
        a user ``func`` read by ``_read_func``, its shape checked once."""
        ts = np.asarray(ts, dtype=float)
        if isinstance(self.func, NotAKnotCubic):
            return self.func(ts)
        return _read_func(self.func, ts, self.dim)

    def stage_coords(self):
        """Coefficients at ``grid.stage_ts``, a fresh (2 n_steps + 1, dim) array: the node
        samples ``coords`` in the even rows, the kept midpoint readings in the odd rows.
        A NaN or inf reading is refused by its t, and then nothing is kept."""
        grid, kept = self.grid, self._midpoints
        if kept is None or kept[0] is not self.func or kept[1] != grid:
            ts = grid.stage_ts[1::2]
            mid = self.at(ts)
            bad = np.flatnonzero(~np.all(np.isfinite(mid), axis=1))
            if bad.size:
                raise ValueError(f"control func is NaN or inf at t={ts[bad[0]]:.6g}")
            mid.flags.writeable = False
            kept = self._midpoints = (self.func, grid, mid)
        out = np.empty((2 * grid.n_steps + 1, self.dim))
        out[::2] = self.coords
        out[1::2] = kept[2]
        return out


@dataclass
class EmbeddedCurve:
    """Curve on the embedded model manifold, sampled in ambient coordinates."""

    grid: TimeGrid
    points: np.ndarray

    def __post_init__(self):
        self.points = _real(self.points, "curve points", (self.grid.n_nodes, None), "n_nodes, N")


@dataclass
class GroupPath:
    """Sampled path in the structure group, optionally with the control it integrates."""

    grid: TimeGrid
    samples: np.ndarray
    control: Optional[ControlCurve] = None

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
        Real Lie algebra basis in the matrix realization.
    h_indices, p_indices : sequences of int
        Index split of the basis into isotropy part and its reductive
        complement.
    form : SignatureForm
        Scalar product of the flat ambient space V.
    group_form : SignatureForm
        Form preserved by the group matrices themselves (used to reproject
        integrated group paths).
    obar : (N,) array
        The embedded base point, the model's only point: a finite vector,
        refused by name otherwise.
    d_e_pi : (k, k) array
        Matrix of the submersion differential from p-coefficients to the
        model's tangent coordinates at o.
    rho : callable
        Group matrices (..., d, d) -> ambient representation matrices
        (..., N, N), broadcast over leading axes, so one call maps a single
        matrix or a whole sampled path.
    d_e_rho : callable
        Algebra matrix -> (N, N) linearized representation.
    tangent_frame_at : callable
        Stacked pointwise tangent frames: an (m, N) array of embedded
        points -> an (m, N, r) array whose k-th slice spans the tangent
        space at the k-th point, r = len(p_indices).  Where a frame is a
        null space (sphere, hyperboloid, the Stiefel complement P_perp), it
        comes from ``linalg.stacked_null_spaces``: Householder reflections
        under LAPACK's convention, vectorised over the nodes, whose basis is
        the one scipy's ``null_space`` (an SVD) returns for that node, signs
        included.  The signs may change from node to node.
    constraint : callable
        The defining equations, stacked: an (m, N) array of ambient points
        -> an (m, c) array that vanishes exactly where a point lies on the
        embedded manifold.  A sampled curve is refused at the first node
        where it does not (``CURVE_TOL``).

    Everything else is *derived*, not declared: the random points of
    ``random_point`` (``rho(q) obar`` for a random group element q, since the
    action is transitive), the scalar product on p, ``ip_p = F0^T J F0`` with
    ``F0[:, i] = d_e_rho(p_i) obar``, which is exactly the choice that makes
    d_e_pi an isometry onto the embedded tangent space, the ambient angular
    velocities ``d_rho_p[i] = A_i = d_e_rho(p_i)`` of the p basis, and the
    rolling correction generators
    ``omega_basis[i] = -(P A_i P + (I - P) A_i (I - P))`` with P = ``frame0 cf0``
    the J-orthogonal tangent projector at the base point, built and refused
    by ``rolling._span_factors``, the one rule for a span under J: F0 must
    have full rank and the J-Gram of its orthonormal basis no |eigenvalue|
    below that rule's bound.  Before it, a p element with d_e_rho(p_i) obar
    = 0 is refused by its index, as one that belongs to h.  The J-complement
    ``normal0`` shares that smallest |eigenvalue|, so it needs no test of its own.
    Omega = sum_i U_i omega_basis[i] cancels the part of d_e_rho(U) that keeps the tangent and the normal
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
                 obar, d_e_pi, rho, d_e_rho, constraint, tangent_frame_at):
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
        self.obar = np.asarray(obar, dtype=float)
        if self.obar.shape != (form.dim,) or not np.all(np.isfinite(self.obar)):
            raise ValueError(f"obar must be a finite ({form.dim},) vector, got an array of "
                             f"shape {self.obar.shape}")
        self.d_e_pi = np.asarray(d_e_pi, dtype=float)
        self.rho = rho
        self.d_e_rho = d_e_rho
        self.tangent_frame_at = tangent_frame_at
        self.constraint = constraint

        k = len(self.p_indices)
        if self.d_e_pi.shape != (k, k):
            raise ValueError("d_e_pi must be square of size len(p_indices)")
        self.d_rho_p = d_rho_p = np.array([np.asarray(self.d_e_rho(self.basis[i]), dtype=float)
                                           for i in self.p_indices])
        self.frame0 = np.column_stack([A @ self.obar for A in d_rho_p])
        fixed = np.flatnonzero(~np.any(self.frame0, axis=0))
        if fixed.size:
            i = self.p_indices[fixed[0]]
            raise ValueError(f"p element {i} fixes the base point (d_e_rho(p_{i}) obar = 0): "
                             "it belongs to h")
        P = _span_factors(self.frame0[None], self.form, "embedded tangent frame")[0]
        self.ip_p = self.frame0.T @ (self.form.signs[:, None] * self.frame0)
        d_inv = np.linalg.inv(self.d_e_pi)
        self.target_gram = d_inv.T @ self.ip_p @ d_inv
        # coefficient extractor at the base point: cf0 @ v = p-coefficients of v
        self.cf0 = np.linalg.solve(self.ip_p, self.frame0.T * self.form.signs[None, :])
        # a new C-ordered array like frame0, so products with the flat frames share one layout
        self.normal0 = stacked_null_spaces((self.frame0.T * self.form.signs[None, :])[None])[0]
        Q = np.eye(P.shape[0]) - P
        self.omega_basis = -(P @ d_rho_p @ P + Q @ d_rho_p @ Q)
        size = max(1.0, float(np.max(np.abs(P)))) ** 2 * max(1.0, float(np.max(np.abs(d_rho_p))))
        self.symmetric_space = bool(np.max(np.abs(self.omega_basis)) <= MODEL_CHECK_TOL * size)

        self._p_basis = self.basis[list(self.p_indices)]
        self._basis_flat = self.basis.reshape(self.basis.shape[0], -1).T

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
        target = X.reshape((-1, X.shape[-2] * X.shape[-1])).T
        coeffs, _, _, _ = np.linalg.lstsq(self._basis_flat, target, rcond=None)
        resid = np.linalg.norm(self._basis_flat @ coeffs - target, axis=0)
        return coeffs.T.reshape(lead + (-1,)), resid.reshape(lead)[()]

    def random_group_element(self, rng):
        """exp of a random algebra element: in the group to rounding, so not reprojected."""
        coeffs = 0.5 * rng.standard_normal(self.basis.shape[0])
        return expm(np.tensordot(coeffs, self.basis, axes=(0, 0)))

    def random_point(self, rng):
        """A random embedded point: rho(q) obar for a random group element q."""
        return np.asarray(self.rho(self.random_group_element(rng)), dtype=float) @ self.obar

    # -- paths along group samples ---------------------------------------

    def rho_path(self, qs):
        """Group samples (n, d, d) -> C-ordered rho matrices (n, N, N), one rho call."""
        return np.ascontiguousarray(self.rho(qs), dtype=float)

    def frames_along(self, rhos):
        return rhos @ self.frame0

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

    def validate(self):
        """Check the structural invariants; raises ValueError on violation.

        Bracket closures of the h/p splitting, h perpendicular to p, isotropy
        of the base point, J-orthogonality of the ambient representation (on
        four random samples), the homomorphism property of d_e_rho, the
        bundle's ``constraint`` at the base point and at its four sampled
        images rho(q) obar (and that it does not vanish at 2 obar),
        Ad_H-invariance of the derived p-metric, that rho integrates d_e_rho:
        rho(expm X) = expm(d_e_rho X) relative to max|rho| at the four algebra
        samples X, and last the bundle's ``tangent_frame_at`` at the four
        images, whose span must be that of rho(q) frame0 (largest
        principal-angle sine at most 1e-8).  A broken [p,p] subset h is
        refused only where ``omega_basis`` vanishes (``symmetric_space``); a
        model with a correction of its own only reports it under ``"pp"``.
        Returns the measured defects.
        """
        rng = np.random.default_rng(2357)
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
            "orth": peak(np.einsum("iab,jba->ij", B[p], B[h])),
        }
        defects.update(worst)
        lim = MODEL_CHECK_TOL * max(1.0, scale) ** 2
        if worst["span"] > lim:
            raise ValueError(f"brackets leave the algebra span (defect {worst['span']:.3e})")
        if worst["hh"] > lim:
            raise ValueError("[h,h] is not contained in h")
        if worst["hp"] > lim:
            raise ValueError("[h,p] is not contained in p")
        if worst["pp"] > lim and self.symmetric_space:
            raise ValueError("[p,p] is not contained in h but omega_basis vanishes")
        if worst["orth"] > lim:
            raise ValueError("h and p are not orthogonal under -tr(XY)")

        iso = peak([np.asarray(self.d_e_rho(self.basis[i]), dtype=float) @ self.obar
                    for i in self.h_indices])
        defects["isotropy"] = iso
        if iso > lim:
            raise ValueError(f"isotropy algebra does not fix the base point (defect {iso:.3e})")

        jorth = 0.0
        hom = 0.0
        tie = 0.0
        turn = 0.0
        orbit = [self.obar]
        for _ in range(4):
            rq = np.asarray(self.rho(self.random_group_element(rng)), dtype=float)
            jorth = max(jorth, j_orthogonality_residual(rq, self.form))
            orbit.append(rq @ self.obar)
            # |P_a - P_b| of the two orthogonal projectors: the largest principal-angle sine
            qa = np.linalg.qr(np.asarray(self.tangent_frame_at(orbit[-1][None, :]))[0])[0]
            qb = np.linalg.qr(rq @ self.frame0)[0]
            turn = max(turn, float(np.linalg.norm(qa @ qa.T - qb @ qb.T, 2)))
            cx = rng.standard_normal(self.basis.shape[0])
            cy = rng.standard_normal(self.basis.shape[0])
            X = np.tensordot(cx, self.basis, axes=(0, 0))
            Y = np.tensordot(cy, self.basis, axes=(0, 0))
            lhs_h = np.asarray(self.d_e_rho(bracket(X, Y)), dtype=float)
            rhs_h = bracket(np.asarray(self.d_e_rho(X), dtype=float),
                            np.asarray(self.d_e_rho(Y), dtype=float))
            hom = max(hom, peak(lhs_h - rhs_h) / max(1.0, peak(rhs_h)))
            rx = np.asarray(self.rho(expm(X)), dtype=float)
            tie = max(tie, peak(rx - expm(np.asarray(self.d_e_rho(X), dtype=float))) / peak(rx))
        defects["rho_orthogonality"] = jorth
        defects["d_e_rho_homomorphism"] = hom
        defects["rho_integrates_d_e_rho"] = tie
        defects["tangent_frame"] = turn
        defects["constraint"] = con = float(np.max(_constraint_defects(self, np.array(orbit))))
        if jorth > 1e-9:
            raise ValueError("ambient representation does not preserve the form")
        if hom > 1e-8:
            raise ValueError("d_e_rho is not a Lie algebra homomorphism")
        if not con <= CURVE_TOL:
            raise ValueError(f"constraint does not vanish on the orbit of the base point "
                             f"(defect {con:.3e})")
        off = float(_constraint_defects(self, 2.0 * self.obar[None, :])[0])
        if not off > CURVE_TOL:
            raise ValueError(f"constraint vanishes at 2 obar, off the manifold (defect {off:.3e})")

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
        # last: a d_e_rho that is not rho's differential reaches the Ad_H refusal first
        if not tie <= 1e-8:
            raise ValueError(f"rho is not the representation d_e_rho integrates: rho(expm X) "
                             f"and expm(d_e_rho X) differ by {tie:.3e} of max|rho|")
        # after it: a wrong rho or d_e_rho also turns rho(q) frame0 off the frames
        if not turn <= 1e-8:
            raise ValueError(f"tangent_frame_at does not span the tangent space rho(q) frame0 "
                             f"on the orbit (largest principal-angle sine {turn:.3e})")
        return defects


# -- lifts ----------------------------------------------------------------


def _constraint_defects(model, xs):
    """Per point of xs (m, N): the largest |``constraint``| over max(1, |x|^2)."""
    xs = np.asarray(xs, dtype=float)
    defects = np.max(np.abs(np.asarray(model.constraint(xs), dtype=float)), axis=1, initial=0.0)
    return defects / np.maximum(1.0, np.sum(xs * xs, axis=1))


def _on_grid(data, grid, kinds=(ControlCurve, EmbeddedCurve)):
    """``data`` if it is one of ``kinds``; a given ``grid`` must be the data's own."""
    if not isinstance(data, kinds):
        names = " or ".join(kind.__name__ for kind in kinds)
        raise TypeError(f"data must be a {names}, got {type(data).__name__}")
    if grid is not None and grid != data.grid:
        raise ValueError(f"grid {grid} contradicts the data's grid {data.grid}")
    return data


def _control_curve(control, dim, grid=None):
    """``control``, a ControlCurve of ``dim`` components, the model's p-dimension; a given
    ``grid`` must be the control's own.  The one check of a control against a model."""
    control = _on_grid(control, grid, (ControlCurve,))
    if control.dim != dim:
        raise ValueError(f"control has {control.dim} components, model p-dimension is {dim}")
    return control


def _start_value(model, q0):
    """``q0`` as a float (group_dim, group_dim) matrix, the identity when None; any other q0
    (complex, or off the group: no oriented isometry of ``group_form`` within ORTHOGONALITY_TOL
    max(1, max|q0_ij|^2)) is refused by name.  The one check for both roll paths."""
    d = model.group_dim
    if q0 is None:
        return np.eye(d)
    q0 = np.asarray(q0)
    if q0.dtype.kind not in "biuf" or q0.shape != (d, d) or not np.all(np.isfinite(q0)):
        raise ValueError(f"q0 must be a finite real ({d}, {d}) matrix of the model's group, "
                         f"got a {q0.dtype} array of shape {q0.shape}")
    q0 = q0.astype(float)
    tol = ORTHOGONALITY_TOL * j_orthogonality_scale(q0)
    ok, residual = is_oriented_isometry(q0, model.group_form, tol)
    if not ok:
        raise ValueError(f"q0 must be an oriented isometry of the model's group form (|q0^T J q0 "
                         f"- J| <= {tol:.3e}, det > 0 on each sign block), residual {residual:.3e}")
    return q0


def horizontal_lift(model, control, q0=None):
    """Horizontal lift of a control: qdot = q U(t) from ``q0``, the group identity by default.

    The lift carries the control, whose kept stage coordinates it integrated.
    Anything but a ControlCurve is refused with a TypeError: a sampled curve
    rolls by transport and has no lift.
    """
    control = _control_curve(control, model.p_dim)
    q0 = _start_value(model, q0)
    qs = flow_matrix_ode(model.p_element(control.stage_coords()), q0, control.grid,
                         side="right", reproject_form=model.group_form)
    return GroupPath(grid=control.grid, samples=qs, control=control)


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


def extrinsic_develop(maps, velocity, grid):
    """Flat development: the integral from zero of M(t) alpha'(t), shape (n_nodes, k).

    ``maps`` (n_nodes, k, N) act on the curve velocity alpha' (n_nodes, N) at
    the grid's nodes: rotations (k = N), as in every roll, or rectangular maps.
    The integral is the exact one of the not-a-knot cubic through M alpha'.
    """
    return dense_from_samples(grid.ts, np.einsum("kij,kj->ki", maps, velocity)).integral()


def _correction_path(model, lift):
    """The rolling correction S(t) along a horizontal lift: S' = Omega S, S(0) = I.

    Omega = sum_i U_i ``omega_basis[i]`` is read from the control's kept stage
    coordinates, which the lift integrated.
    """
    omegas = np.tensordot(lift.control.stage_coords(), model.omega_basis, axes=(-1, 0))
    return flow_matrix_ode(omegas, np.eye(model.ambient_dim), lift.grid, side="left",
                           reproject_form=model.form)


def _transported(model, r0, frames):
    """Rotations by transport along the tangent ``frames`` of a curve from r0 obar: the
    J-inverse of r0 Y, Y the ``_transport_flow`` along r0^-1 ``frames``, which start at
    the base point, clear of r0's norm; R(0) is r0^-1 as for the closed form."""
    flow = _transport_flow(j_transpose_inverse(r0, model.form) @ frames, model.form,
                           "moving tangent frame")
    return j_transpose_inverse(r0 @ flow, model.form)


def _rolled(model, data, q0, normal_strategy="closed_form", frames=True, develop=True):
    """The one roll behind both views: grid, R, alpha, the development (the integral from
    zero of R alpha', (n_nodes, N)) and the frames along alpha.  A caller that reads no
    frames passes ``frames=False``, and one that reads no development of a control
    ``develop=False``, and gets None for it.

    Along a control, R is the J-inverse of rho(q) S ("closed_form"; S = I on a symmetric
    space) or ``_transported`` along rho(q) ``frame0`` ("frame_matching").  The closed
    form develops the control itself: R alpha' = (rho S)^-1 rho F0 c = S^-1 F0 c, rho
    cancels (Hüper & Silva Leite, 2007), and S^-1 = J S^T J enters as one contraction
    over S; frame matching develops R (rho(q) F0 c).  The closed form is assembled in
    blocks of nodes that hold ``_BLOCK_ENTRIES`` rotation entries, each from its own
    rho(q) block, into the arrays it returns.  A sampled curve is ``_transported`` from
    r0 = rho(q0) along its pointwise frames and develops R x', x' differenced; a point
    whose ``constraint`` exceeds CURVE_TOL max(1, |x|^2) is refused by its time, and so
    is a first point that far from r0 obar, and the worst step that jumps (``CHORD_TOL``).
    Every development is ``extrinsic_develop``'s exact integral of the spline.
    """
    if isinstance(_on_grid(data, None), ControlCurve):
        lift = horizontal_lift(model, data, q0=q0)
        grid, qs, coords = lift.grid, lift.samples, lift.control.coords
        if normal_strategy == "frame_matching":
            rhos = model.rho_path(qs)
            tangents = model.frames_along(rhos)
            rots = _transported(model, rhos[0], tangents)
            development = extrinsic_develop(rots, np.einsum("kia,ka->ki", tangents, coords),
                                            grid) if develop else None
            return (grid, rots, np.einsum("kij,j->ki", rhos, model.obar), development,
                    tangents if frames else None)
        S = None if model.symmetric_space else _correction_path(model, lift)
        n, N = qs.shape[0], model.ambient_dim
        rots, alpha = np.empty((n, N, N)), np.empty((n, N))
        tangents = np.empty((n, N, model.p_dim)) if frames else None
        size = max(1, _BLOCK_ENTRIES // (N * N))
        for lo in range(0, n, size):
            block = slice(lo, lo + size)
            rhos = model.rho_path(qs[block])
            rots[block] = j_transpose_inverse(rhos if S is None else rhos @ S[block], model.form)
            alpha[block] = np.einsum("kij,j->ki", rhos, model.obar)
            if frames:
                tangents[block] = model.frames_along(rhos)
        development = None
        if develop:
            control, signs = coords @ model.frame0.T, model.form.signs
            if S is not None:
                control = signs * np.einsum("kji,kj->ki", S, signs * control)
            development = dense_from_samples(grid.ts, control).integral()
        return grid, rots, alpha, development, tangents
    r0 = np.eye(model.ambient_dim) if q0 is None else \
        np.asarray(model.rho(_start_value(model, q0)), dtype=float)
    points, grid = data.points, data.grid
    if points.shape[1] != model.ambient_dim:
        raise ValueError("curve ambient dimension does not match the model")
    tangents = model.pointwise_tangent_frames(grid, points).frames
    defects = _constraint_defects(model, points)
    bad = np.flatnonzero(~(defects <= CURVE_TOL))
    if bad.size:
        k = bad[0]
        raise ValueError(f"curve leaves the model manifold at t={grid.ts[k]:.6g} "
                         f"(defect {defects[k]:.3e})")
    start = points[0]
    if not np.linalg.norm(r0 @ model.obar - start) <= CURVE_TOL * max(1.0, start @ start):
        raise ValueError("curve does not start at the projection of q0")
    velocity = fd_derivative(points, grid.h)
    chords = np.diff(points, axis=0)
    gaps = np.linalg.norm(chords - 0.5 * grid.h * (velocity[:-1] + velocity[1:]), axis=1)
    bound = CHORD_TOL * grid.h ** 2 * np.max(np.linalg.norm(chords, axis=1)) + \
        CURVE_TOL * np.maximum(1.0, np.linalg.norm(points[:-1], axis=1))
    # a jump spreads over the stencil's steps and is largest at its own
    k = int(np.argmax(gaps / bound))
    if not gaps[k] <= bound[k]:
        raise ValueError(f"curve jumps between t={grid.ts[k]:.6g} and t={grid.ts[k + 1]:.6g} "
                         f"(chord defect {gaps[k]:.3e}, bound {bound[k]:.3e}); refine "
                         f"n_steps if the curve is smooth")
    rots = _transported(model, r0, tangents)
    return (grid, rots, points.copy(), extrinsic_develop(rots, velocity, grid),
            tangents if frames else None)


def intrinsic_roll(model, data, q0=None):
    """Intrinsic rolling along a control or sampled curve: returns a RollingTriple.

    The intrinsic rolling is the tangential part of the extrinsic one, head =
    d_e_pi cf0 applied to the one roll of ``extrinsic_roll``'s "closed_form": the
    maps are ``A(t) = head R(t)`` and the development is head applied to the
    N-dimensional one, which along a control integrates the control itself
    (``_rolled``), so it rolls on 1 to 3 steps too.  The frames are rho(q)
    ``frame0`` along a control and the pointwise frames along a sampled curve.
    """
    grid, rots, alpha, development, frames = _rolled(model, data, q0)
    head = model.d_e_pi @ model.cf0
    return RollingTriple(
        grid=grid,
        alpha=alpha,
        alpha_hat=development @ head.T,
        maps=head @ rots,
        tangent_frames=frames,
        form=model.form,
        target_gram=model.target_gram,
    )


def extrinsic_roll(model, data, q0=None, normal_strategy="closed_form"):
    """Extrinsic rolling map along a control or sampled curve.

    Along a control, ``normal_strategy`` selects how the rotation is built:
    "closed_form" takes the rolling rotation of the lift (the J-inverse of
    rho, corrected by the flow of ``omega_basis`` where the model is not a
    symmetric space), and "frame_matching" the J-inverse of the parallel
    transport of the whole ambient frame along the curve's tangent spaces, a
    fourth-order group flow that carries the tangent and the normal frame at
    once.  Both run on every model and agree at fourth order.  The
    development is ``_rolled``'s, except along a control on a symmetric space,
    where R alpha' is integrated with alpha' differenced from the samples of
    alpha, which needs at least 4 steps.  A sampled curve has no lift: under either
    strategy it rolls by the transport along its pointwise tangent frames.
    """
    if normal_strategy not in ("closed_form", "frame_matching"):
        raise ValueError(f"unknown normal strategy {normal_strategy!r}; "
                         "use 'closed_form' or 'frame_matching'")
    # a symmetric space develops the differenced velocity of alpha, which the
    # residual checks difference the path with; the exact one is more accurate
    # (8e-13 against 2e-11 at 250 steps) but moves a slip measured on the
    # path by the checks' own truncation error
    differenced = model.symmetric_space and isinstance(data, ControlCurve)
    grid, rots, alpha, development, _ = _rolled(model, data, q0, normal_strategy,
                                                frames=False, develop=not differenced)
    if differenced:
        development = extrinsic_develop(rots, fd_derivative(alpha, grid.h), grid)
    alpha_hat = model.obar[None, :] + development
    s = alpha_hat - np.einsum("kij,kj->ki", rots, alpha)
    return RollingMapPath(grid=grid, R=rots, s=s, alpha=alpha, alpha_hat=alpha_hat,
                          form=model.form)


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
