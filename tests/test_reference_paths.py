"""Stacked paths diffed against the per-node constructions they replaced.

The models' ``tangent_frame_at`` handle all nodes in one batched
computation.  The per-node constructions they replaced are kept here as
references: ``null_space`` (or the explicit column loop) for each bundle's
frames.
The model maps ``rho``, ``p_element`` and ``algebra_coords`` broadcast over
leading axes; a stack must give the per-matrix results, and the tests'
stacked ``horizontality_residual`` must match the per-node ``solve`` plus
``lstsq`` loop it replaced.

Time integration reads each integrand once at ``TimeGrid.stage_ts``.  The
RK4 and Simpson loops that called a Python callable at every stage are kept
here as references.  The stage times differ from ``t_k + h/2`` and
``t_k + h`` in the last bit, so control-driven paths agree to rounding
(1e-13).  A linear flow now takes all its RK4 step factors at once and
their running product, with one polishing step on every node; at 2000 steps
the per-step loop never polishes and the two agree to rounding, at 250
steps it polishes drifted states and they differ by about 4e-13.  The
running product is a blocked scan and the node step the inverse-free
Newton-Schulz step; the per-node product loop and the Newton node step
``(X + J X^{-*} J)/2`` they replaced are kept here as the reference, which
every model's lift generators match on both sides within 1e-13, with
padded and square block layouts.  A control's node stage samples are its
``coords``; for the package's interpolant they equal its readings at the
stage times bit for bit.  A
sampled curve has no lift: it rolls by the transport of the whole ambient
frame along its tangent spaces.  Its rotation is compared with exact
rollings instead: criterion 11's latitude, and the curve of a constant
control on SO+(p,q) and the Stiefel manifolds, at fourth order.

Every roll is assembled by one engine: the rotation is the J-inverse of
rho(q) S, with S the identity for a symmetric space and the Stiefel
correction otherwise, and the development is the quadrature of R alpha'.
The Stiefel path builder with its own development of ``S^T vec(U E)``, and
the symmetric intrinsic roll that integrated the control a second time, are
kept here as references.  Rotations, curves, tangential maps and frames
agree to the last bit.  The engine reads alpha' exactly off the lift's
control (a symmetric extrinsic roll differences the samples of alpha
instead, as it always has), so ``R alpha'`` is ``F0 U`` on a symmetric space and ``S^T vec(U E)``
on a Stiefel manifold: the developments are the same Simpson sums, except
that the engine takes the mid-step values of a symmetric control from the
cubic interpolant of its node values instead of a second reading of the
control.  They agree within 1e-10 at 250 steps and 1e-13 at 2000 steps.

The residual suite refuses a degenerate frame by one test and builds its
projectors by matrix products, once per frame path.  The two frame tests
this replaced (one SVD of every frame, and a lower bound from the QR
diagonal that passes a frame of condition number 1e14) and the einsum
projectors are kept here as references: the report fields and the
projectors at every transport stride agree within 1e-13, the
frame-matching rotations and transports within 1e-12.  The frame test
first certifies a node by the Cholesky factor L of its Gram matrix
(cond(F) <= ||L||_F ||L^-1||_F at most FRAME_COND_MAX / 2) and sends every
other node to the exact condition number of its triangular QR factor.  That
exact-only test is kept here as the reference: on frames of condition 1 to
9e5 both accept, on 1.1e6 to 1e14 both refuse at the same node with the
same message.

``tangency_residual`` no longer measures a principal angle.  It pairs the
columns of R(t) Q_M, each normalised, with the flat unit normals:
max |w_a^T J n_b|, Q_M = F_M U^-1 the orthonormal basis of the rank test's
factor.  The CholeskyQR2 bases, the complement of the target span and the
eigenproblem of the angle went with it, and so did their references.
scipy's ``subspace_angles`` stays as the reference on Euclidean forms with
orthogonal R, where the pairing v brackets the largest angle,
v <= sin(theta) <= sqrt(r c) v, on the sides c < r, c = r and c > r; a
full-dimensional frame (c = 0) reads 0.  A Householder basis of F_M(t) and
an einsum pairing are the reference on every model's roll (the einsum
suite, within 1e-13), and on ill-conditioned frames: a vanishing pairing
agrees within 1e-15 cond(F), and any other within a further 1e-16 cond(F)^2
of its size, the one-pass basis's loss of orthogonality.  The report's
``isometry`` field, the group residual of R(t) relative to
max(1, max|R_ij|)^2, is recomputed there by einsum.

A frame stack that is a zero-stride broadcast of one frame (the flat
development's frames) is now factored, rank-tested and solved once and
broadcast back.
The per-node unit normals of the tangency pairing, projectors and column
normalisation this replaced are kept here as references: every report
field agrees to the last bit.
The triple Gram residual takes ``@`` products; the einsum form it replaced
is kept here and agrees within 1e-14.

The command's trajectory files are laid out by one declaration, written by
``np.savetxt`` and read by ``np.loadtxt``.  The per-block writers and the
per-number CSV parser this replaced are kept here as references: every
bundled config, rolled in both modes, gives byte-identical CSV and JSON
files, and both readers return the same metadata and bit-identical arrays,
on those files and on edited ones (CRLF endings, blank lines, a comment
after the header, a single row, a nan entry, no rows at all).

The explicit SU(1,1)/SU(2) lift ``g = h(z) exp(sigma theta A1)`` of a
chart curve is kept here as the reference for the rotation of the
engine's sampled roll of the hyperboloid and the sphere.  It takes the sign
sigma of theta as fixed by the branch, the sign the package's two-sign search always chose.

The sphere and the hyperboloid share one description construction
(``hyperbolic.quadric_description``), and each bundle takes its frames and
constraint from the one-column level set ``pseudo_orthogonal._level_set``.  Each model's
own description, rho, d_e_rho and tangent frames it
replaced are kept here as references: every map agrees
to the last bit (d_e_rho by value: the hyperboloid's is now J hat(X), with
-0.0 where the hand-written matrix had 0.0; rho within 1e-15 max(1, |rho|),
as below), and the shipped JSON files still equal the descriptions.

SU(2) and SU(1,1) enter the models as their real forms
r(X) = [[Re X, -Im X], [Im X, Re X]], so every flow is real, and
``hyperbolic.adjoint_matrix`` forms rho by the adjugate formula,
elementwise.  The complex-arithmetic flow and the LU-based conjugation they
replaced are kept here as references, on the same quadrics built on their
complex bases: on control lifts of the sphere and the hyperboloid, the
lifts (read off the left column blocks of the real forms), R, alpha_hat and
intrinsic maps agree within 1e-14 of their largest entry, and within 1e-11
on a boost to |q| = 8; a start value off the group is refused at the same
node.

``j_transpose_inverse`` takes one product instead of two, into a C-ordered
stack, and ``fd_derivative`` evaluates its interior stencil in blocks of
rows, in place.  The whole-array expressions they replaced are kept here as
references; both agree to the last bit.  A control keeps its midpoint
readings, once per control and grid, and every lift, roll and correction
of it reuses them.  A fresh control for every roll, which read its func
anew as every roll once did, is kept here as the reference: the lifts and
every roll agree to the last bit.

``parallel_transport_embedded`` is X v0, X the group flow X' = [P', P] X of
the frames' J-orthogonal projectors.  A per-step RK4 loop of the same
flow, with a ``np.linalg.solve`` projector per node and no polish onto the
group, is kept here as the reference: tangent and normal transports on the
sphere, the hyperboloid, so_plus_1_2 and so_plus_2_2 agree within 1e-12 of
their largest entry at 250, 251, 253 and 2000 steps, a null vector stays
null, and a frame turning through a null direction, or one of two nodes,
is refused with the same message.  A whole (N, c) frame
transported as one block equals the stacked one-column transports to the
bit on the sphere and the hyperboloid, and within 1e-14 on SO+.  The
rolling correction is derived for every model: Omega is the product of the
stage coordinates with ``CartanModel.omega_basis``.  The Stiefel-only
Kronecker product and four stacked products it replaced are kept here and
agree within 1e-15 (to the bit on these inputs), and the Stiefel rolls with
the correction flow of that reference agree to the bit.  Where
``omega_basis`` vanishes (k = 1, V_1(R^n) a sphere) the model is symmetric
and runs no correction flow.
``ControlCurve.at`` stacks a user func's readings with one ``np.array``;
the per-call ``np.atleast_1d`` table is kept here and agrees to the bit,
for vector funcs and for a scalar func of a 1-dim control, also when
``ControlCurve.from_function`` stores the func itself.

The frame test inverts its triangular factors by forward substitution,
which matches ``np.linalg.inv`` within 1e-15 cond(L) on factors of
condition 1 to 9e5.  A JSON trajectory is one ``json.dumps``
string, byte-identical to the ``json.dump`` it replaced.

``linalg.stacked_null_spaces`` takes k Householder reflections of each
``rowsᵀ``, vectorised over the stack, instead of one SVD per node.  The SVD
construction is kept here as the reference: every model's frames and
``normal0`` agree within 1e-15, and random stacks agree with a per-node
complete QR within 1e-14.  Where LAPACK's SVD takes no LQ step first (k
rows in R^N with N < int(11 k / 6)) it picks another basis of the same
space, so there the projectors agree within 1e-14.  A clean report and the
command's intrinsic check take no SVD at all.
"""

import io
import json
from importlib import resources

import numpy as np
import pytest
from scipy.linalg import expm, null_space, subspace_angles

from semiroll.homogeneous import (
    CartanModel,
    ControlCurve,
    EmbeddedCurve,
    GroupPath,
    extrinsic_roll,
    horizontal_lift,
    intrinsic_roll,
    model_residual_report,
)
from semiroll.integrate import (
    REPROJECT_TOL,
    TimeGrid,
    _running_product,
    _step_factors,
    dense_from_samples,
    fd_derivative,
    flow_matrix_ode,
    integrate_vector,
    reproject,
)
from semiroll.linalg import (
    SignatureForm,
    _real,
    j_orthogonality_residual,
    j_orthogonality_scale,
    j_transpose_inverse,
    random_oriented_isometry,
    stacked_kron,
    stacked_null_spaces,
)
from semiroll.models import build_model, get_model, hyperbolic, pseudo_orthogonal, sphere, stiefel
from semiroll.models.pseudo_orthogonal import so_pq_basis
from semiroll import cli, homogeneous, rolling
from semiroll.rolling import (
    FRAME_COND_MAX,
    RollingMapPath,
    RollingTriple,
    TangentFramePath,
    parallel_transport_embedded,
    no_slip_residual,
    perturb_normal_generator,
    rolling_condition_residuals,
    rolling_point_residual,
    tangency_residual,
    triple_gram_residual,
)

from horizontality import horizontality_residual


def _tangency_case(signs, r, n_nodes=60, seed=0, top=np.pi / 3, target="moving"):
    """Random J-orthogonal R(t) and frames at angles 1e-12 .. 0.1, plus one node at angle ``top``.

    At the last node min(r, N - r) principal angles are ``top`` and the
    rest 0 (two r-planes in N < 2r dimensions share a direction).  A
    ``"constant"`` target is one development frame broadcast over the nodes,
    as the flat development's frames are, and R(t) F_M(t) moves around it.
    The target's normals are an orthonormal basis of its J-complement,
    broadcast alike for a constant target.
    """
    rng = np.random.default_rng(seed)
    form = SignatureForm(signs)
    N = form.dim
    grid = TimeGrid(0.0, 1.0, n_nodes - 1)
    R = np.array([random_oriented_isometry(form, rng, scale=0.4) for _ in range(n_nodes)])
    frames_m = rng.standard_normal((n_nodes, N, r))
    mapped = np.einsum("kij,kja->kia", R, frames_m)
    if target == "constant":
        mapped = np.broadcast_to(mapped[0], mapped.shape)
    sizes = np.logspace(-12, -1, n_nodes)
    moved = mapped + sizes[:, None, None] * rng.standard_normal((n_nodes, N, r))
    basis = np.linalg.qr(np.hstack([mapped[-1], rng.standard_normal((N, N - r))]))[0]
    tilted = min(r, N - r)
    moved[-1] = basis[:, :r]
    moved[-1][:, :tilted] = np.cos(top) * basis[:, :tilted] \
        + np.sin(top) * basis[:, r:r + tilted]
    if target == "constant":
        frames_m, frames_hat = j_transpose_inverse(R, form) @ moved, mapped
        normals = np.broadcast_to(null_space(mapped[0].T * signs), (n_nodes, N, N - r))
    else:
        frames_hat = moved
        normals = np.array([null_space(frame.T * signs) for frame in moved])
    zeros = np.zeros((n_nodes, N))
    path = RollingMapPath(grid=grid, R=R, s=zeros, alpha=zeros, alpha_hat=zeros, form=form)
    return (path, TangentFramePath(grid.ts, frames_m), TangentFramePath(grid.ts, frames_hat),
            TangentFramePath(grid.ts, normals))


# c = N - r normals against r tangents: c < r, c = r and c > r
TANGENCY_CASES = {
    "euclid3_r1": ([1, 1, 1], 1, np.pi / 3),
    "euclid3_r2": ([1, 1, 1], 2, np.pi / 3),
    "euclid4_r3": ([1] * 4, 3, np.pi / 3),
    "euclid4_r2": ([1] * 4, 2, np.pi / 3),
    "euclid8_r5": ([1] * 8, 5, np.pi / 3),
    "euclid9_r3": ([1] * 9, 3, np.pi / 3),
    "euclid5_r2_right_angle": ([1] * 5, 2, np.pi / 2),
}


@pytest.mark.parametrize(
    "signs, r, top, target",
    [(*case, "moving") for case in TANGENCY_CASES.values()]
    + [(*case, "constant") for case in TANGENCY_CASES.values()],
    ids=list(TANGENCY_CASES) + [f"{name}_constant" for name in TANGENCY_CASES],
)
def test_tangency_pairing_brackets_the_largest_scipy_subspace_angle(signs, r, top, target):
    # with orthogonal R and orthonormal normals the pairing is the largest
    # entry of the r x c matrix whose spectral norm is sin(theta_max)
    path, frames_m, frames_hat, normals = _tangency_case(signs, r, top=top, target=target)
    assert (normals.frames.strides[0] == 0) == (target == "constant")
    sines = np.sin([
        np.max(subspace_angles(path.R[k] @ frames_m.frames[k], frames_hat.frames[k]))
        for k in range(path.n_nodes)
    ])
    assert sines[-1] == pytest.approx(np.sin(top), abs=1e-12)
    assert np.min(sines) < 1e-10
    pairing = tangency_residual(path, frames_m, normals)
    c = path.form.dim - r
    assert np.all(pairing <= sines + 1e-15)
    assert np.all(sines <= np.sqrt(r * c) * pairing + 1e-15)


@pytest.mark.parametrize("target", ["moving", "constant"])
def test_full_dimensional_frames_read_zero_tangency(target):
    # r = N leaves no normals (c = 0): every node reads 0, nothing raises
    path, frames_m, _, normals = _tangency_case([1, -1, 1, 1], 4, n_nodes=8, target=target)
    assert normals.frames.shape[2] == 0
    assert np.array_equal(tangency_residual(path, frames_m, normals), np.zeros(8))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("where", ["R", "frames", "tangent"])
def test_batched_tangency_rejects_non_finite_input(bad, where):
    path, frames_m, _, normals = _tangency_case([1, 1, 1], 2, n_nodes=8)
    if where == "R":
        path.R[3, 0, 1] = bad
    elif where == "frames":
        normals.frames[5, 2, 0] = bad
    else:
        frames_m.frames[5, 2, 0] = bad
    with pytest.raises(ValueError, match="NaN or inf"):
        tangency_residual(path, frames_m, normals)


def _null_space_frame(row):
    return null_space(row[None, :])


def _stiefel_frame(x, n, k):
    P = x.reshape((n, k), order="F")
    Pperp = null_space(P.T)
    cols = []
    for i in range(k):
        for j in range(i + 1, k):
            A = np.zeros((k, k))
            A[i, j] = 1.0
            A[j, i] = -1.0
            cols.append((P @ A).flatten(order="F"))
    for r in range(n - k):
        for c in range(k):
            cols.append(np.outer(Pperp[:, r], np.eye(k)[c]).flatten(order="F"))
    return np.column_stack(cols)


def _so_pq_frame(x, p, q):
    n = p + q
    X = x.reshape((n, n), order="F")
    return np.column_stack([(B @ X).flatten(order="F") for B in so_pq_basis(p, q)])


REFERENCE_FRAMES = {
    "sphere": _null_space_frame,
    "hyperboloid": lambda x: _null_space_frame(np.array([-1.0, 1.0, 1.0]) * x),
    "stiefel_4_2": lambda x: _stiefel_frame(x, 4, 2),
    "stiefel_3_1": lambda x: _stiefel_frame(x, 3, 1),
    "so_plus_1_2": lambda x: _so_pq_frame(x, 1, 2),
    "so_plus_2_1": lambda x: _so_pq_frame(x, 2, 1),
}


@pytest.mark.parametrize("name", sorted(REFERENCE_FRAMES))
def test_batched_frames_match_per_node_construction(name):
    model = get_model(name)
    rng = np.random.default_rng(7)
    points = np.array([model.random_point(rng) for _ in range(40)])
    grid = TimeGrid(0.0, 1.0, points.shape[0] - 1)
    batched = model.pointwise_tangent_frames(grid, points).frames
    reference = np.array([REFERENCE_FRAMES[name](x) for x in points])
    assert batched.shape == reference.shape == (40, model.ambient_dim, model.p_dim)
    assert np.max(np.abs(batched - reference)) <= 1e-15


def test_pointwise_frames_reject_non_finite_points():
    model = get_model("sphere")
    grid = TimeGrid(0.0, 1.0, 2)
    points = np.array([[0.0, -1.0, 0.0], [np.nan, 0.0, 0.0], [1.0, 0.0, 0.0]])
    with pytest.raises(ValueError, match="NaN or inf"):
        model.pointwise_tangent_frames(grid, points)


# -- the quadric construction against the per-model bundles it replaced ----


def _complex(r):
    """The complex matrices (..., 2, 2) whose real forms are r (..., 4, 4): r's left column blocks."""
    r = np.asarray(r)
    return r[..., :2, :2] + 1j * r[..., 2:, :2]


def _su_coords_reference(X):
    """Coordinates of complex su(2) or su(1,1) matrices, read off as before their real forms."""
    X = np.asarray(X)
    return np.stack([2.0 * X[..., 0, 0].imag, 2.0 * X[..., 0, 1].real, 2.0 * X[..., 0, 1].imag],
                    axis=-1)


def _adjoint_reference(g, basis):
    """Ad(g) in ``basis`` coordinates by LU-based conjugation of complex g (..., 2, 2)."""
    g = np.asarray(g)[..., None, :, :]
    return np.swapaxes(_su_coords_reference(g @ basis @ np.linalg.inv(g)), -1, -2)


def _sphere_rho_reference(g):
    P = sphere.CHART_CONJUGATOR
    return P @ _adjoint_reference(g, sphere.SU2_BASIS) @ P.T


def _sphere_d_e_rho_reference(X):
    return sphere.hat(sphere.CHART_CONJUGATOR @ _su_coords_reference(X))


def _sphere_frame_reference(xs):
    return stacked_null_spaces(np.asarray(xs, dtype=float)[:, None, :])


def _sphere_description_reference():
    return {
        "format_version": 2,
        "name": "sphere",
        "J_signs": [1, 1, 1],
        "group_signs": [1, 1, 1, 1],
        "basis": hyperbolic.real_form(sphere.SU2_BASIS).tolist(),
        "h_indices": [0],
        "p_indices": [1, 2],
        "d_e_pi": [[0.5, 0.0], [0.0, 0.5]],
        "obar": [-0.0, -1.0, -0.0],
        "embedding": "builtin:riemann_sphere",
    }


def _hyperboloid_rho_reference(g):
    return _adjoint_reference(g, hyperbolic.SU11_BASIS)


def _hyperboloid_d_e_rho_reference(X):
    v, u1, u2 = _su_coords_reference(X)
    return np.array(
        [
            [0.0, u2, -u1],
            [u2, 0.0, -v],
            [-u1, v, 0.0],
        ]
    )


def _hyperboloid_frame_reference(xs):
    signs = np.array([-1.0, 1.0, 1.0])
    return stacked_null_spaces((signs * np.asarray(xs, dtype=float))[:, None, :])


def _hyperboloid_description_reference():
    return {
        "format_version": 2,
        "name": "hyperboloid",
        "J_signs": [-1, 1, 1],
        "group_signs": [1, -1, 1, -1],
        "basis": hyperbolic.real_form(hyperbolic.SU11_BASIS).tolist(),
        "h_indices": [0],
        "p_indices": [1, 2],
        "d_e_pi": [[0.5, 0.0], [0.0, 0.5]],
        "obar": [1.0, 0.0, -0.0],
        "embedding": "builtin:hyperboloid12",
    }


QUADRIC_REFERENCES = {
    "sphere": (sphere, sphere.embed_sphere, _sphere_rho_reference, _sphere_d_e_rho_reference,
               _sphere_frame_reference, _sphere_description_reference),
    "hyperboloid": (hyperbolic, hyperbolic.embed_hyperbolic, _hyperboloid_rho_reference,
                    _hyperboloid_d_e_rho_reference, _hyperboloid_frame_reference,
                    _hyperboloid_description_reference),
}


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _within_rounding(new, old):
    """Same dtype and shape, and every entry within 1e-15 max(1, |old|)."""
    new, old = np.asarray(new), np.asarray(old)
    return new.dtype == old.dtype and new.shape == old.shape and \
        bool(np.all(np.abs(new - old) <= 1e-15 * np.maximum(1.0, np.abs(old))))


@pytest.mark.parametrize("name", sorted(QUADRIC_REFERENCES))
def test_quadric_bundles_match_the_per_model_bundles(name):
    module, embed, rho, d_e_rho, frame, description = QUADRIC_REFERENCES[name]
    desc = description()
    assert module.description() == desc
    shipped = json.loads((resources.files("semiroll") / "models" / "data" / f"{name}.json")
                         .read_text())
    assert shipped == desc
    parts = module.bundle(desc)
    model = get_model(name)

    rng = np.random.default_rng(19)
    qs = np.array([model.random_group_element(rng) for _ in range(16)])
    # the model's group matrices are real forms, whose complex matrices the
    # references read; rho is now the adjugate closed form of
    # ``adjoint_matrix``, and the LU-based conjugation of the per-model
    # bundles agrees with it to rounding
    assert _within_rounding(parts["rho"](qs), rho(_complex(qs)))
    assert all(_within_rounding(parts["rho"](q), rho(_complex(q))) for q in qs)

    # single basis elements and random combinations; the new hyperboloid
    # d_e_rho is J hat(coords), whose (0, 0) entry is -0.0 where the
    # hand-written matrix has 0.0, so it is compared by value
    X = np.concatenate([model.basis, np.tensordot(rng.standard_normal((16, 3)), model.basis,
                                                  axes=(1, 0))])
    for x in X:
        assert np.array_equal(parts["d_e_rho"](x), d_e_rho(_complex(x)))

    points = np.array([model.random_point(np.random.default_rng(k)) for k in range(40)])
    # the signed zeros of obar are the chart origin's
    assert _same_bits(model.obar, embed(complex(0.0, 0.0)))
    assert _same_bits(parts["tangent_frame_at"](points), frame(points))
    # the constraint <x, x> - <obar, obar> vanishes on the quadric, to rounding
    signs = np.asarray(desc["J_signs"], dtype=float)
    level = {"sphere": 1.0, "hyperboloid": -1.0}[name]
    assert _same_bits(parts["constraint"](points), (points ** 2 @ signs - level)[:, None])
    assert np.max(np.abs(parts["constraint"](points))) <= 1e-14 * np.max(points ** 2)


BENCHMARK_MODELS = ("sphere", "hyperboloid", "so_plus_1_2", "so_plus_2_2", "stiefel_3_1", "stiefel_4_2")


def _group_stack(model, count=24, seed=5):
    rng = np.random.default_rng(seed)
    return np.array([model.random_group_element(rng) for _ in range(count)])


@pytest.mark.parametrize("name", BENCHMARK_MODELS)
def test_stacked_rho_matches_per_matrix_calls(name):
    model = get_model(name)
    qs = _group_stack(model)
    reference = np.array([np.asarray(model.rho(q), dtype=float) for q in qs])
    N = model.ambient_dim
    assert reference.shape == (qs.shape[0], N, N)
    assert np.max(np.abs(np.asarray(model.rho(qs)) - reference)) <= 1e-15
    assert np.max(np.abs(model.rho_path(qs) - reference)) <= 1e-15
    # any leading shape, not only a path axis
    grid_shaped = np.asarray(model.rho(qs.reshape((4, 6) + qs.shape[1:])))
    assert np.max(np.abs(grid_shaped.reshape(reference.shape) - reference)) <= 1e-15


@pytest.mark.parametrize("name", BENCHMARK_MODELS)
def test_stacked_p_element_and_algebra_coords_match_per_row_calls(name):
    model = get_model(name)
    rng = np.random.default_rng(11)
    coeffs = rng.standard_normal((24, model.p_dim))
    stacked = model.p_element(coeffs)
    assert np.max(np.abs(stacked - np.array([model.p_element(c) for c in coeffs]))) <= 1e-15

    # algebra elements plus an off-span part, so the residuals are not zero
    X = np.tensordot(rng.standard_normal((24, model.basis.shape[0])), model.basis, axes=(1, 0))
    X = X + 0.01 * rng.standard_normal(X.shape)
    coords, resid = model.algebra_coords(X)
    rows = [model.algebra_coords(x) for x in X]
    assert coords.shape == (24, model.basis.shape[0]) and resid.shape == (24,)
    assert np.max(np.abs(coords - np.array([c for c, _ in rows]))) <= 1e-15
    assert np.max(np.abs(resid - np.array([r for _, r in rows]))) <= 1e-15
    assert np.min(resid) > 1e-3
    with pytest.raises(ValueError, match="p-coefficients"):
        model.p_element(np.zeros((3, model.p_dim + 1)))


def _horizontality_per_node(model, path):
    """One ``solve`` and one ``lstsq`` per node, as before the stacked version."""
    m = model.basis.shape[0]
    flat = model.basis.reshape(m, -1).T
    basis_flat = np.vstack([flat.real, flat.imag])
    hsel = list(model.h_indices)
    qdot = fd_derivative(path.samples, path.grid.h)
    out = np.empty(path.grid.n_nodes)
    for k in range(path.grid.n_nodes):
        xi = np.linalg.solve(path.samples[k], qdot[k])
        target = np.concatenate([xi.real.ravel(), xi.imag.ravel()])
        coeffs, _, _, _ = np.linalg.lstsq(basis_flat, target, rcond=None)
        resid = float(np.linalg.norm(basis_flat @ coeffs - target))
        out[k] = max(float(np.max(np.abs(coeffs[hsel]), initial=0.0)), resid)
    return out


@pytest.mark.parametrize("name", BENCHMARK_MODELS)
def test_stacked_horizontality_matches_per_node_loop(name):
    model = get_model(name)
    grid = TimeGrid(0.0, 1.0, 23)
    ctrl = ControlCurve.from_function(grid, lambda t: 0.5 * np.sin(t + np.arange(model.p_dim)))
    lift = horizontal_lift(model, ctrl)
    # a horizontal lift (residuals at the rounding floor) and a random,
    # far from horizontal path (residuals from about 1 to 1e3)
    for path in (lift, GroupPath(grid=grid, samples=_group_stack(model))):
        reference = _horizontality_per_node(model, path)
        stacked = horizontality_residual(model, path)
        assert np.all(np.abs(stacked - reference) <= 1e-15 * np.maximum(1.0, reference))
    assert np.min(reference) > 0.5


def test_stacked_kron_matches_numpy_kron():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((5, 2, 3))
    B = rng.standard_normal((5, 4, 2))
    stacked = stacked_kron(A, B)
    assert stacked.shape == (5, 8, 6)
    assert np.array_equal(stacked, np.array([np.kron(a, b) for a, b in zip(A, B)]))
    # a single matrix broadcasts against a stack
    assert np.array_equal(stacked_kron(np.eye(2), B), np.array([np.kron(np.eye(2), b) for b in B]))


# -- time integration: one sample per stage time against per-stage callables --


def _rk4_callable(generator, X0, grid, side="left", reproject_form=None):
    """RK4 calling ``generator`` at t_k, t_k + h/2 (twice) and t_k + h in every step."""
    X = np.asarray(X0, dtype=np.result_type(np.asarray(generator(grid.t0)).dtype, float))
    h = grid.h
    out = [X]
    for t in grid.ts[:-1]:
        L1, Lm, L2 = generator(t), generator(t + 0.5 * h), generator(t + h)
        if side == "left":
            k1 = L1 @ X
            k2 = Lm @ (X + 0.5 * h * k1)
            k3 = Lm @ (X + 0.5 * h * k2)
            k4 = L2 @ (X + h * k3)
        else:
            k1 = X @ L1
            k2 = (X + 0.5 * h * k1) @ Lm
            k3 = (X + 0.5 * h * k2) @ Lm
            k4 = (X + h * k3) @ L2
        X = X + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if reproject_form is not None:
            X = reproject(X, reproject_form)
        out.append(X)
    return np.array(out)


def expm_stack(mats):
    """scipy's ``expm`` of each matrix of a stack."""
    return np.array([expm(m) for m in mats])


def _simpson_callable(rhs, grid):
    """Cumulative Simpson sum from zero calling ``rhs`` at every stage of every step."""
    h = grid.h
    x = np.zeros_like(np.asarray(rhs(grid.t0), dtype=float))
    out = [x]
    for t in grid.ts[:-1]:
        x = x + (h / 6.0) * (rhs(t) + 4.0 * rhs(t + 0.5 * h) + rhs(t + h))
        out.append(x)
    return np.array(out)


def _sinusoid(grid, p_dim, seed):
    rng = np.random.default_rng(seed)
    amp = rng.uniform(0.2, 0.6, p_dim) * rng.choice((-1.0, 1.0), p_dim)
    freq = rng.uniform(0.5, 2.0, p_dim)
    phase = rng.uniform(0.0, 2.0 * np.pi, p_dim)
    coords = amp * np.sin(np.multiply.outer(grid.ts, freq) + phase)
    return ControlCurve(grid=grid, coords=coords, func=lambda t: amp * np.sin(freq * t + phase))


def _peak(a, b):
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def _frobenius_peak(a, b):
    """Largest Frobenius distance between matching matrices of two paths."""
    return float(np.max(np.linalg.norm(np.asarray(a) - np.asarray(b), axis=(-2, -1))))


@pytest.mark.parametrize("name", BENCHMARK_MODELS)
def test_control_lift_matches_callable_rk4(name):
    model = get_model(name)
    grid = TimeGrid(0.0, 1.0, 250)
    ctrl = _sinusoid(grid, model.p_dim, 1)
    reference = _rk4_callable(lambda t: model.p_element(ctrl.func(t)), np.eye(model.group_dim),
                              grid, "right", model.group_form)
    assert _peak(horizontal_lift(model, ctrl).samples, reference) <= 1e-13


@pytest.mark.parametrize("name", ["stiefel_3_1", "stiefel_4_2"])
def test_stiefel_correction_matches_callable_rk4(name):
    model = get_model(name)
    n, k = (int(size) for size in model.name.split("_")[-2:])
    grid = TimeGrid(0.0, 1.0, 250)
    lift = horizontal_lift(model, _sinusoid(grid, model.p_dim, 2))

    def omega(t):
        return _stiefel_omega_reference(model, model.p_element(lift.control.func(t)))

    reference = _rk4_callable(omega, np.eye(n * k), grid, "left", SignatureForm(np.ones(n * k)))
    assert _peak(stiefel._correction_path(model, lift), reference) <= 1e-13


def _kinematic_case(name, grid):
    """A kinematic roll of ``name`` and its ambient angular velocity Ubar(t), a callable.

    The sphere and the hyperboloid take Ubar in their own closed forms, the
    hyperboloid's checked J-skew; the other models take d_e_rho of the
    control's p element.
    """
    model = get_model(name)
    if name == "sphere":
        ctrl = _sinusoid(grid, 2, 3)
        path = hyperbolic.kinematic_roll(model, ctrl)

        def ubar(t):
            c = ctrl.func(t)
            return sphere.hat(sphere.CHART_CONJUGATOR @ np.array([0.0, c[0], c[1]]))
    elif name == "hyperboloid":
        ctrl = _sinusoid(grid, 2, 3)
        path = hyperbolic.roll_hyperboloid(ctrl)

        def ubar(t):
            u1, u2 = ctrl.func(t)
            U = np.array([[0.0, u1, u2], [u1, 0.0, 0.0], [u2, 0.0, 0.0]])
            J = np.diag(model.form.signs)
            assert np.max(np.abs(J @ U + U.T @ J)) <= 1e-15
            return U
    else:
        ctrl = _sinusoid(grid, model.p_dim, 4)
        path = hyperbolic.kinematic_roll(model, ctrl)

        def ubar(t):
            return model.d_e_rho(model.p_element(ctrl.func(t)))
    return model, path, ubar


@pytest.mark.parametrize("which", ["sphere", "hyperboloid", "so_plus_1_2", "so_plus_2_2"])
def test_kinematic_rolls_match_callable_integrators(which):
    grid = TimeGrid(0.0, 1.0, 250)
    model, path, ubar = _kinematic_case(which, grid)
    eye = np.eye(model.ambient_dim)
    qbar = _rk4_callable(ubar, eye, grid, "right", model.form)
    assert _peak(path.alpha, qbar @ model.obar) <= 1e-13
    assert _peak(path.R, _rk4_callable(lambda t: -ubar(t), eye, grid, "left", model.form)) <= 1e-13
    assert _peak(path.s, _simpson_callable(lambda t: ubar(t) @ model.obar, grid)) <= 1e-13


def _flow_pairs(caller, grid):
    """(flow output, the same flow by ``_rk4_callable``) pairs of one flow caller."""
    if caller in BENCHMARK_MODELS:
        model = get_model(caller)
        ctrl = _sinusoid(grid, model.p_dim, 1)
        reference = _rk4_callable(lambda t: model.p_element(ctrl.func(t)),
                                  np.eye(model.group_dim), grid, "right", model.group_form)
        return [(horizontal_lift(model, ctrl).samples, reference)]
    kind, _, name = caller.partition(":")
    if kind == "correction":
        model = get_model(name)
        n, k = (int(size) for size in model.name.split("_")[-2:])
        lift = horizontal_lift(model, _sinusoid(grid, model.p_dim, 2))

        def omega(t):
            return _stiefel_omega_reference(model, model.p_element(lift.control.func(t)))

        reference = _rk4_callable(omega, np.eye(n * k), grid, "left",
                                  SignatureForm(np.ones(n * k)))
        return [(stiefel._correction_path(model, lift), reference)]
    model, path, ubar = _kinematic_case(name, grid)
    eye = np.eye(model.ambient_dim)
    qbar = _rk4_callable(ubar, eye, grid, "right", model.form)
    rots = _rk4_callable(lambda t: -ubar(t), eye, grid, "left", model.form)
    return [(path.alpha, qbar @ model.obar), (path.R, rots)]


FLOW_CALLERS = BENCHMARK_MODELS + (
    "correction:stiefel_3_1", "correction:stiefel_4_2", "kinematic:sphere",
    "kinematic:hyperboloid", "kinematic:so_plus_1_2", "kinematic:so_plus_2_2",
)


@pytest.mark.parametrize("caller", FLOW_CALLERS)
def test_flows_match_callable_rk4_at_2000_steps(caller):
    # the stacked step factors and their running product against the RK4
    # loop that calls the generator at every stage; at 2000 steps the
    # loop's per-step polish never fires, so the two agree to rounding
    for new, reference in _flow_pairs(caller, TimeGrid(0.0, 1.0, 2000)):
        assert _peak(new, reference) <= 1e-13


def _newton_step_reference(X, form):
    """The Newton step (X + J X^{-*} J)/2 the flow gave every node."""
    Y = np.linalg.inv(np.swapaxes(X.conj(), -1, -2))
    return 0.5 * (X + form.signs[:, None] * Y * form.signs)


def _flow_loop_reference(generators, X0, grid, side, form):
    """The flow with its running product as a per-node loop and the Newton node step."""
    dtype = np.result_type(generators.dtype, X0.dtype, float)
    factors = reproject(_step_factors(generators.astype(dtype), grid.h, side), form)
    out = np.empty((grid.n_nodes,) + X0.shape, dtype=dtype)
    out[0] = X0
    for k in range(grid.n_steps):
        if side == "left":
            np.matmul(factors[k], out[k], out=out[k + 1])
        else:
            np.matmul(out[k], factors[k], out=out[k + 1])
    out[1:] = _newton_step_reference(out[1:], form)
    return out


@pytest.mark.parametrize("n_steps", [1, 2, 3, 16, 17, 2000])
@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("name", BENCHMARK_MODELS)
def test_blocked_flow_matches_the_per_node_loop(name, side, n_steps):
    # 3, 17 and 2000 steps pad the last block with identities; 1, 2 and 16 fill
    # their blocks exactly, 16 as four blocks of four
    model = get_model(name)
    grid = TimeGrid(0.0, 1.0, n_steps)
    generators = model.p_element(_sinusoid(grid, model.p_dim, 1).stage_coords())
    q0 = model.random_group_element(np.random.default_rng(n_steps))
    new = flow_matrix_ode(generators, q0, grid, side, model.group_form)
    reference = _flow_loop_reference(generators, q0, grid, side, model.group_form)
    assert _peak(new, reference) <= 1e-13


def _complex_residual_reference(X, form):
    """max |X^* J X - J| per matrix of a complex stack, as ``j_orthogonality_residual``
    took it before it refused complex input."""
    G = np.swapaxes(X.conj(), -1, -2) @ (form.signs[:, None] * X)
    G[..., np.arange(form.dim), np.arange(form.dim)] -= form.signs
    return np.max(np.abs(G), axis=(-2, -1))


def _complex_reproject_reference(X, form):
    """The Newton polish (X + J X^{-*} J)/2 of a complex stack, as ``reproject`` ran it."""
    for _ in range(50):
        if np.max(_complex_residual_reference(X, form)) <= REPROJECT_TOL:
            return X
        X = _newton_step_reference(X, form)
    raise ValueError("reprojection did not converge")


def _complex_newton_schulz_reference(X, form):
    """The node step X (3I - J X^* J X)/2 of a complex stack, as the flow ran it."""
    signs = form.signs
    adjoint = np.multiply(np.swapaxes(X.conj(), -1, -2), signs[:, None] * signs, order="C")
    out = X @ (adjoint @ X)
    out *= -0.5
    out += 1.5 * X
    return out


def _complex_flow_reference(generators, X0, grid, side, reproject_form):
    """The flow in complex arithmetic, as complex flows ran before they took their real form."""
    L = np.asarray(generators)
    X0 = np.asarray(X0)
    if not (np.all(np.isfinite(L)) and np.all(np.isfinite(X0))):
        raise ValueError("flow generators or start value contain NaN or inf")
    dtype = np.result_type(L.dtype, X0.dtype, float)
    factors = _complex_reproject_reference(_step_factors(L.astype(dtype, copy=False), grid.h, side),
                                           reproject_form)
    out = np.empty((grid.n_nodes,) + X0.shape, dtype=dtype)
    out[0] = X0
    out[1:] = _running_product(factors, X0, side)
    out[1:] = _complex_newton_schulz_reference(out[1:], reproject_form)
    residual = _complex_residual_reference(out[1:], reproject_form)
    worst = int(np.argmax(residual))
    if not residual[worst] <= REPROJECT_TOL:
        raise ValueError(
            f"flow left the group at node {worst + 1} (t={grid.ts[worst + 1]:.6g}, "
            f"residual {residual[worst]:.3e})"
        )
    return out


def _complex_group_path_reference(path):
    # the complex lift's samples, kept as the group path took them before it refused complex ones
    path.samples = np.asarray(path.samples)


def _boost_control(grid):
    """A hyperboloid control whose lift reaches max |q| of about 8."""
    def func(t):
        t = np.asarray(t, dtype=float)
        return np.stack([5.2 + 0.5 * np.sin(3.0 * t), 0.8 * np.cos(2.0 * t)], axis=-1)

    return ControlCurve(grid=grid, coords=func(grid.ts), func=func)


def _quadric_case(name, case, n_steps):
    """(model, control) of one sphere or hyperboloid case."""
    model = get_model(name)
    grid = TimeGrid(0.0, 1.0, n_steps)
    return model, _boost_control(grid) if case == "boost" else _sinusoid(grid, model.p_dim, 1)


def _quadric_outputs(model, ctrl):
    path = extrinsic_roll(model, ctrl)
    return horizontal_lift(model, ctrl).samples, path.R, path.alpha_hat, \
        intrinsic_roll(model, ctrl).maps


def _complex_quadric_model(name):
    """The quadric on its complex 2 x 2 basis, as it was built before its real forms: the
    LU-based rho and the complex d_e_rho of the per-model references, the group form untiled."""
    model = get_model(name)
    _, _, rho, d_e_rho, _, _ = QUADRIC_REFERENCES[name]
    basis = sphere.SU2_BASIS if name == "sphere" else hyperbolic.SU11_BASIS
    return CartanModel(
        name=name, basis=basis, h_indices=model.h_indices, p_indices=model.p_indices,
        form=model.form, group_form=SignatureForm(model.group_form.signs[:2]),
        obar=model.obar, d_e_pi=model.d_e_pi, rho=rho, d_e_rho=d_e_rho,
        constraint=model.constraint, tangent_frame_at=model.tangent_frame_at)


def _real_but_the_complex_basis(X, name, *args):
    """``linalg._real``, which lets the complex reference basis through to ``CartanModel``."""
    return np.asarray(X) if name == "basis" else _real(X, name, *args)


def _relative_peak(new, reference):
    return _peak(new, reference) / max(1.0, float(np.max(np.abs(reference))))


# a sampled curve has no lift, so it runs no group flow in complex arithmetic
QUADRIC_FLOW_CASES = [
    (name, case, n_steps)
    for name, case in [("sphere", "control"), ("hyperboloid", "control"),
                       ("hyperboloid", "boost")]
    for n_steps in (250, 2000)
]


@pytest.mark.parametrize("name, case, n_steps", QUADRIC_FLOW_CASES)
def test_real_form_flows_match_the_complex_arithmetic(name, case, n_steps, monkeypatch):
    # the SU(2) and SU(1,1) models hold real forms, and rho is the adjugate
    # closed form; the same model on the complex basis, rolled by the
    # complex-arithmetic flow with the LU-based adjoint, agrees to rounding:
    # within 3e-15 of the largest entry at unit amplitude, the lift read off
    # the left column blocks of its real forms.  The boost's group samples
    # reach |q| = 8, its R entries |q|^2, and its development sums their
    # rounding (1.7e-12 measured)
    model, ctrl = _quadric_case(name, case, n_steps)
    new = _quadric_outputs(model, ctrl)
    with monkeypatch.context() as patch:
        patch.setattr(homogeneous, "flow_matrix_ode", _complex_flow_reference)
        patch.setattr(GroupPath, "__post_init__", _complex_group_path_reference)
        patch.setattr(homogeneous, "_real", _real_but_the_complex_basis)
        reference = _quadric_outputs(_complex_quadric_model(name), ctrl)
    assert new[0].dtype == float and new[0].shape[1:] == (4, 4)
    assert reference[0].dtype == complex
    new = (_complex(new[0]),) + new[1:]
    if case == "boost":
        assert 7.5 <= np.max(np.abs(new[0])) <= 8.5
    # lift samples, R, alpha_hat, intrinsic maps
    tols = (1e-13, 5e-13, 1e-11, 5e-13) if case == "boost" else (1e-14,) * 4
    for got, expected, tol in zip(new, reference, tols):
        assert _relative_peak(got, expected) <= tol


@pytest.mark.parametrize("case, side, node", [("constant", "left", 1), ("constant", "right", 1),
                                              ("varying", "right", 50)])
def test_complex_flow_off_the_group_is_refused_at_the_reference_node(case, side, node):
    # a start value off SU(1,1) keeps a defect that one node step cannot
    # remove.  From 1.1 I under a zero generator every node is the same, and
    # node 1 is named; diag(1.1, 1) carried on the right by an su(1,1)
    # sinusoid has a defect X_k* J X_k - J that varies, largest at the end.
    # The real form's flow names the same node; its residual is the largest
    # entry of r(X_k* J X_k - J), which reads up to sqrt(2) below the modulus
    grid = TimeGrid(0.0, 1.0, 50)
    model = get_model("hyperboloid")
    if case == "constant":
        gens, X0 = np.zeros((grid.stage_ts.size, 2, 2), dtype=complex), 1.1 * np.eye(2)
    else:
        coords = _sinusoid(grid, 2, 1).stage_coords()
        gens = np.tensordot(coords, hyperbolic.SU11_BASIS[1:], axes=(-1, 0))
        X0 = np.diag([1.1, 1.0]) * np.exp(0.3j)
    with pytest.raises(ValueError, match=f"flow left the group at node {node} "):
        _complex_flow_reference(gens, X0, grid, side, SignatureForm([1.0, -1.0]))
    with pytest.raises(ValueError, match=f"flow left the group at node {node} "):
        flow_matrix_ode(hyperbolic.real_form(gens), hyperbolic.real_form(X0), grid, side,
                        model.group_form)


@pytest.mark.parametrize("t0, t1, n_steps", [(0.0, 1.0, 1), (0.0, 1.0, 2), (-0.3, 1.7, 17),
                                             (0.0, 1.0, 250), (0.0, 2 * np.pi, 2000)])
def test_interpolant_stage_coords_equal_the_stage_samples(t0, t1, n_steps):
    grid = TimeGrid(t0, t1, n_steps)
    coords = np.random.default_rng(n_steps).standard_normal((grid.n_nodes, 3))
    ctrl = ControlCurve(grid=grid, coords=coords)
    assert np.array_equal(ctrl.stage_coords(), ctrl.at(grid.stage_ts))


def test_bundled_control_stage_coords_equal_the_stage_samples():
    for config in BUNDLED_CONFIGS:
        cfg = json.loads((CONFIG_DIR / config).read_text())
        if "control" not in cfg:
            continue
        grid = cli._build_grid(cfg)
        ctrl = cli._build_control(cfg["control"], grid, get_model(cfg["model"]).p_dim)
        assert np.array_equal(ctrl.stage_coords(), ctrl.at(grid.stage_ts)), config


def test_normal_perturbation_matches_callable_rk4():
    model = get_model("stiefel_4_2")
    raw = np.random.default_rng(6).standard_normal((3, 3))

    def setup(n_steps):
        grid = TimeGrid(0.0, 1.0, n_steps)
        path = extrinsic_roll(model, _sinusoid(grid, model.p_dim, 5))
        tan, nor = model.flat_tangent_frames(grid), model.flat_normal_frames(grid)
        N0 = nor.frames[0]
        return grid, path, tan, nor, N0 @ (0.7 * (raw - raw.T)) @ N0.T

    # at 2000 steps the reference never polishes a state: the two agree to rounding
    grid, path, tan, nor, omega = setup(2000)
    lam = _rk4_callable(lambda t: omega, np.eye(model.ambient_dim), grid, "left", path.form)
    bent = perturb_normal_generator(path, omega, tan, nor)
    assert _peak(bent.R, lam @ path.R) <= 1e-13

    # at 250 steps the reference polishes a state only once its drift passes
    # REPROJECT_TOL, and the two differ by about 4e-13.  Against the exact
    # flow the new one is no worse in the Frobenius norm, in which removing
    # the off-group (symmetric) part of the RK4 truncation error, as the
    # Newton step on every node does, can only shorten the error to first
    # order; the largest single entry can move either way
    grid, path, tan, nor, omega = setup(250)
    lam_exact = expm_stack(grid.ts[:, None, None] * omega)
    lam = _rk4_callable(lambda t: omega, np.eye(model.ambient_dim), grid, "left", path.form)
    bent = perturb_normal_generator(path, omega, tan, nor)
    reference_err = _frobenius_peak(lam @ path.R, lam_exact @ path.R)
    assert _frobenius_peak(bent.R, lam_exact @ path.R) <= reference_err * (1.0 + 1e-3)


def _moebius_lift(z, grid, sigma):
    """Explicit horizontal lift g = h(z) exp(sigma theta A1) of a chart curve z(t).

    sigma = -1 lifts a Poincare disc curve into SU(1,1), sigma = +1 a Riemann
    sphere chart curve into SU(2).  With f = (1 + sigma |z|^2)^(-1/2) the
    section is h(z) = [[f, f z], [-sigma conj(f z), f]], and theta is the
    quadrature of 2 (x y' - x' y) / (1 + sigma |z|^2), z = x + i y.  The
    samples are the real forms of g, as the models hold their group.
    """
    den = 1.0 + sigma * np.abs(z) ** 2
    rate = 2.0 * (z.real * fd_derivative(z.imag, grid.h) - fd_derivative(z.real, grid.h) * z.imag) \
        / den
    theta = sigma * integrate_vector(dense_from_samples(grid.ts, rate)(grid.stage_ts), grid)
    f = 1.0 / np.sqrt(den)
    a = f * np.exp(0.5j * theta)
    b = f * z * np.exp(-0.5j * theta)
    rows = [np.stack([a, b], axis=-1), np.stack([-sigma * np.conj(b), np.conj(a)], axis=-1)]
    return GroupPath(grid=grid, samples=hyperbolic.real_form(np.stack(rows, axis=-2)))


@pytest.mark.parametrize("sigma", [-1.0, 1.0], ids=["su11", "su2"])
def test_moebius_theta_matches_callable_simpson(sigma):
    grid = TimeGrid(0.0, 1.0, 250)
    z = 0.4 * np.exp(2j * np.pi * grid.ts) * (1.0 + 0.3 * grid.ts)
    rate = 2.0 * (z.real * fd_derivative(z.imag, grid.h) - fd_derivative(z.real, grid.h) * z.imag) \
        / (1.0 + sigma * np.abs(z) ** 2)
    dense_rate = dense_from_samples(grid.ts, rate)
    theta = _simpson_callable(lambda t: np.atleast_1d(dense_rate(t)), grid)[:, 0]
    g00 = _complex(_moebius_lift(z, grid, sigma).samples)[:, 0, 0]
    factor = 1.0 / np.sqrt(1.0 + sigma * np.abs(z) ** 2)
    assert _peak(g00, factor * np.exp(0.5j * sigma * theta)) <= 1e-13


@pytest.mark.parametrize("name, sigma, z_of", [
    ("hyperboloid", -1.0, lambda t: 0.4 * np.tanh(t) * np.exp(0.8j * t)),
    ("sphere", 1.0, lambda t: 0.5 * t * np.exp(1.3j * t)),
], ids=["hyperboloid", "sphere"])
def test_explicit_lift_agrees_with_the_transport_roll(name, sigma, z_of):
    # the rotation of a sampled curve's transport roll is the J-inverse of rho
    # along its explicit horizontal lift, which starts at the identity
    model = get_model(name)
    grid = TimeGrid(0.0, 1.2, 400)
    z = z_of(grid.ts)
    explicit = _moebius_lift(z, grid, sigma)
    assert np.max(horizontality_residual(model, explicit)) <= 1e-6
    path = extrinsic_roll(model, EmbeddedCurve(grid, QUADRIC_REFERENCES[name][1](z)))
    assert _peak(path.R, j_transpose_inverse(model.rho_path(explicit.samples), model.form)) <= 1e-6


def _latitude_roll_error(n_steps):
    """Error of the transport roll of criterion 11's latitude against its exact rotation.

    The latitude at polar angle 1 is alpha(t) = expm(t Z) alpha0 with Z the
    rotation about the sphere's axis, and its transvections are
    expm(t Z) Omega0 expm(-t Z), Omega0 = v0 alpha0^T - alpha0 v0^T, so the
    exact lift has rho(q(t)) = expm(t Z) expm(t (Omega0 - Z)) rho(q0), and the
    rotation is its transpose.
    """
    sph = get_model("sphere")
    grid = TimeGrid(0.0, 2 * np.pi, n_steps)
    z = np.tan(0.5) * np.exp(1j * grid.ts)
    points = sphere.embed_sphere(z)
    q0 = sphere.chart_lift_matrix(z[0])
    Z = np.zeros((3, 3))
    Z[2, 0], Z[0, 2] = 1.0, -1.0
    alpha0 = points[0]
    v0 = Z @ alpha0
    omega0 = np.outer(v0, alpha0) - np.outer(alpha0, v0)
    ts = grid.ts[:, None, None]
    exact = expm_stack(ts * Z) @ expm_stack(ts * (omega0 - Z)) @ np.asarray(sph.rho(q0))
    path = extrinsic_roll(sph, EmbeddedCurve(grid, points), q0=q0)
    return _peak(path.R, np.swapaxes(exact, 1, 2))


def test_the_latitude_transport_roll_converges_to_its_exact_rotation():
    # criterion 11: the latitude at polar angle 1 on the sphere, from a complex q0
    err = _latitude_roll_error(2000)
    assert err <= 2e-11
    assert _latitude_roll_error(1000) >= 12.0 * err


def _base_point_model(name):
    if name != "so_plus_2_1@base":
        return get_model(name)
    base = get_model("so_plus_2_1").random_point(np.random.default_rng(7)).reshape(3, 3, order="F")
    return build_model(pseudo_orthogonal.description(2, 1, base))


def _constant_control_roll_error(model, n_steps):
    """Error of the transport roll of the curve of a constant control U.

    The lift of U is exactly q(t) = expm(t U), and the correction exactly
    S(t) = expm(t Omega), Omega = sum_i U_i ``omega_basis[i]``, so the exact
    rotation is the J-inverse of rho(expm(t U)) expm(t Omega).
    """
    grid = TimeGrid(0.0, 1.5, n_steps)
    coords = np.linspace(0.6, -0.8, model.p_dim)
    ts = grid.ts[:, None, None]
    rhos = model.rho_path(expm_stack(ts * model.p_element(coords)))
    exact = j_transpose_inverse(
        rhos @ expm_stack(ts * np.tensordot(coords, model.omega_basis, axes=(0, 0))), model.form)
    points = np.einsum("kij,j->ki", rhos, model.obar)
    return _peak(extrinsic_roll(model, EmbeddedCurve(grid, points)).R, exact)


@pytest.mark.parametrize("name", ["so_plus_1_2", "so_plus_2_2", "stiefel_3_1", "stiefel_4_2",
                                  "so_plus_2_1@base"])
def test_a_constant_control_curve_rolls_to_its_exact_rotation(name):
    # SO+(p,q) and the Stiefel manifolds roll sampled curves by the transport,
    # like the sphere and the hyperboloid: fourth order against the exact
    # rolling of a constant control, with the Stiefel correction flow
    model = _base_point_model(name)
    err = _constant_control_roll_error(model, 500)
    assert err <= 1e-13 or _constant_control_roll_error(model, 250) >= 12.0 * err


def _frame_matching_reference(model, lift):
    """The frame-matching rotation as ``extrinsic_roll`` built it inline before sampled
    curves shared its transport rule."""
    rhos = model.rho_path(lift.samples)
    frames = j_transpose_inverse(rhos[0], model.form) @ model.frames_along(rhos)
    rotated = rhos[0] @ rolling._transport_flow(frames, model.form, "moving tangent frame")
    return j_transpose_inverse(rotated, model.form)


@pytest.mark.parametrize("name", BENCHMARK_MODELS)
def test_frame_matching_rotations_equal_the_inline_transport(name):
    model = get_model(name)
    grid = TimeGrid(0.0, 1.0, 250)
    ctrl = _sinusoid(grid, model.p_dim, 4)
    for q0 in (None, model.random_group_element(np.random.default_rng(3))):
        path = extrinsic_roll(model, ctrl, q0=q0, normal_strategy="frame_matching")
        assert np.array_equal(path.R, _frame_matching_reference(model, horizontal_lift(
            model, ctrl, q0=q0)))


def test_stiefel_roll_reads_the_control_once_per_stage_and_flow():
    model = get_model("stiefel_4_2")
    grid = TimeGrid(0.0, 1.0, 50)
    ctrl = _sinusoid(grid, model.p_dim, 8)
    calls = [0]
    func = ctrl.func

    def counted(t):
        calls[0] += 1
        return func(t)

    ctrl.func = counted
    for roll, reads in ((extrinsic_roll, grid.n_steps), (intrinsic_roll, 0)):
        calls[0] = 0
        roll(model, ctrl)
        # the first lift reads the n step midpoints; its correction flow, and the
        # second roll's lift and correction, reuse the control's kept readings
        assert calls[0] == reads


# -- one rolling assembly against the per-kind builders it replaced ---------


def _stiefel_roll_reference(model, lift):
    """Stiefel rolling path with its own development of ``sdot = S^T vec(U E)``."""
    n, k = (int(size) for size in model.name.split("_")[-2:])
    grid = lift.grid
    S = stiefel._correction_path(model, lift)
    rhos = model.rho_path(lift.samples)
    alpha = np.einsum("kij,j->ki", rhos, model.obar)
    rots = np.swapaxes(rhos @ S, 1, 2)
    first_cols = model.p_element(lift.control.coords)[:, :, :k]
    sdot = np.einsum("mcia,mic->ma", S.reshape(grid.n_nodes, k, n, n * k), first_cols)
    s = integrate_vector(dense_from_samples(grid.ts, sdot)(grid.stage_ts), grid)
    return RollingMapPath(grid=grid, R=rots, s=s, alpha=alpha,
                          alpha_hat=model.obar[None, :] + s, form=model.form)


def _intrinsic_roll_reference(model, data, q0=None):
    """Intrinsic roll by model kind: a symmetric model integrates its control again."""
    lift = horizontal_lift(model, data, q0=q0)
    grid = lift.grid
    rhos = model.rho_path(lift.samples)
    head = model.d_e_pi @ model.cf0
    if model.symmetric_space:
        rots = j_transpose_inverse(rhos, model.form)
        alpha_hat = integrate_vector(lift.control.at(grid.stage_ts) @ model.d_e_pi.T, grid)
    else:
        epath = _stiefel_roll_reference(model, lift)
        rots = epath.R
        alpha_hat = np.einsum("ai,ki->ka", head, epath.alpha_hat - model.obar)
    return RollingTriple(
        grid=grid,
        alpha=np.einsum("kij,j->ki", rhos, model.obar),
        alpha_hat=alpha_hat,
        maps=np.einsum("ai,kij->kaj", head, rots),
        tangent_frames=model.frames_along(rhos),
        form=model.form,
        target_gram=model.target_gram,
    )


# agreement of the developments, by the step count of the grid
DEVELOPMENT_TOL = {250: 1e-10, 2000: 1e-13}


def _assert_triples_agree(triple, reference):
    for field in ("alpha", "maps", "tangent_frames"):
        assert _peak(getattr(triple, field), getattr(reference, field)) <= 1e-15, field
    tol = DEVELOPMENT_TOL[triple.grid.n_steps]
    assert _peak(triple.alpha_hat, reference.alpha_hat) <= tol


@pytest.mark.parametrize("n_steps", [250, 2000])
@pytest.mark.parametrize("name", BENCHMARK_MODELS)
def test_rolls_match_the_per_kind_builders(name, n_steps):
    model = get_model(name)
    grid = TimeGrid(0.0, 1.0, n_steps)
    ctrl = _sinusoid(grid, model.p_dim, 1)
    _assert_triples_agree(intrinsic_roll(model, ctrl), _intrinsic_roll_reference(model, ctrl))
    if not model.symmetric_space:
        path = extrinsic_roll(model, ctrl)
        reference = _stiefel_roll_reference(model, horizontal_lift(model, ctrl))
        for field in ("R", "alpha"):
            assert _peak(getattr(path, field), getattr(reference, field)) <= 1e-15, field
        tol = DEVELOPMENT_TOL[n_steps]
        for field in ("s", "alpha_hat"):
            assert _peak(getattr(path, field), getattr(reference, field)) <= tol, field


@pytest.mark.parametrize("name", ["sphere", "hyperboloid", "so_plus_1_2", "so_plus_2_2"])
def test_symmetric_intrinsic_roll_reads_the_control_once_per_stage(name):
    model = get_model(name)
    grid = TimeGrid(0.0, 1.0, 50)
    ctrl = _sinusoid(grid, model.p_dim, 9)
    calls = [0]
    func = ctrl.func

    def counted(t):
        calls[0] += 1
        return func(t)

    ctrl.func = counted
    intrinsic_roll(model, ctrl)
    # the lift reads the n step midpoints; the development reads none
    assert calls[0] == grid.n_steps



def _check_frames_reference(frames, what="frame"):
    conds = np.linalg.cond(frames)
    worst = float(np.max(conds))
    if not np.isfinite(worst) or worst > FRAME_COND_MAX:
        raise ValueError(f"{what} condition number {worst:.3e} exceeds {FRAME_COND_MAX:.0e}")


def _coeff_operators_reference(frames, form):
    _check_frames_reference(frames)
    grams = np.einsum("kia,i,kib->kab", frames, form.signs, frames)
    ft_j = np.swapaxes(frames, 1, 2) * form.signs[None, None, :]
    try:
        return np.linalg.solve(grams, ft_j)
    except np.linalg.LinAlgError as exc:
        raise ValueError("frame Gram matrix is singular under the ambient form") from exc


def _projectors_reference(frames, form, what=None):
    # takes (and ignores) the frame label that callers of ``_span_factors`` pass, so it can stand in
    return np.einsum("kia,kaj->kij", frames, _coeff_operators_reference(frames, form))


def _orthonormal_columns_reference(frames, what, ts):
    # max|r_ii| / min|r_ii| only bounds the condition number from below
    q, r = np.linalg.qr(frames)
    diag = np.abs(np.diagonal(r, axis1=1, axis2=2))
    hi = np.max(diag, axis=1)
    bad = (hi == 0.0) | (hi > FRAME_COND_MAX * np.min(diag, axis=1))
    if np.any(bad):
        k = int(np.flatnonzero(bad)[0])
        raise ValueError(f"tangency: {what} is rank deficient at node {k} (t={ts[k]:.6g})")
    return q


def _tangency_reference(path, tangent_m, normal_mhat):
    """Householder bases of F_M(t), moved by R(t) and normalised, paired with the unit normals."""
    signs = path.form.signs
    q = _orthonormal_columns_reference(tangent_m.frames, "F_M(t)", tangent_m.ts)
    normals = normal_mhat.frames / np.linalg.norm(normal_mhat.frames, axis=1, keepdims=True)
    w = np.einsum("kij,kja->kia", path.R, q)
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    return np.max(np.abs(np.einsum("kia,i,kib->kab", w, signs, normals)), axis=(1, 2),
                  initial=0.0)


def _residuals_reference(path, tangent_m, tangent_mhat, normal_mhat):
    """Per-node fields of ``rolling_condition_residuals`` by the einsum suite."""
    signs = path.form.signs
    gram = np.einsum("kji,j,kjl->kil", path.R, signs, path.R) - np.diag(signs)
    scale = np.maximum(1.0, np.max(np.abs(path.R), axis=(1, 2)))

    h = path.grid.h
    W = np.einsum("kij,kjl->kil", fd_derivative(path.R, h), j_transpose_inverse(path.R, path.form))
    w1 = np.einsum("kij,kj->ki", W, path.alpha_hat - path.s) + fd_derivative(path.s, h)
    w2 = fd_derivative(path.alpha_hat, h) - np.einsum("kij,kj->ki", path.R,
                                                      fd_derivative(path.alpha, h))

    def defect(frames):
        cols = frames / np.linalg.norm(frames, axis=1, keepdims=True)
        moved = np.einsum("kij,kja->kia", W, cols)
        comp = np.einsum("kij,kja->kia", _projectors_reference(frames, path.form), moved)
        return np.max(np.linalg.norm(comp, axis=1), axis=-1)

    moved = np.einsum("kij,kj->ki", path.R, path.alpha) + path.s
    return {
        "rolling_point": np.linalg.norm(moved - path.alpha_hat, axis=-1),
        "tangency": _tangency_reference(path, tangent_m, normal_mhat),
        "no_slip": np.maximum(np.linalg.norm(w1, axis=-1), np.linalg.norm(w2, axis=-1)),
        "no_twist_tan": defect(tangent_mhat.frames),
        "no_twist_norm": defect(normal_mhat.frames),
        "isometry": np.max(np.abs(gram), axis=(1, 2)) / scale ** 2,
    }


@pytest.mark.parametrize("n_steps", [250, 2000])
@pytest.mark.parametrize("name", BENCHMARK_MODELS)
def test_residual_report_matches_the_einsum_suite(name, n_steps):
    model = get_model(name)
    grid = TimeGrid(0.0, 1.0, n_steps)
    path = extrinsic_roll(model, _sinusoid(grid, model.p_dim, 10))
    frames = (model.pointwise_tangent_frames(grid, path.alpha),
              model.flat_tangent_frames(grid), model.flat_normal_frames(grid))
    report = model_residual_report(model, path)
    reference = _residuals_reference(path, *frames)
    assert set(report.per_node) == set(reference)
    for field, values in reference.items():
        assert _peak(report.per_node[field], values) <= 1e-13, field
    # a transport takes every stride's projectors from one stack
    for tangent_frames in frames:
        full = rolling._span_factors(tangent_frames.frames, model.form, "frame")
        for stride in (1, 2, 4):
            step = _projectors_reference(tangent_frames.frames[::stride], model.form)
            assert _peak(full[::stride], step) <= 1e-13


@pytest.mark.parametrize("name", ["sphere", "hyperboloid", "so_plus_1_2", "so_plus_2_2"])
def test_frame_matching_matches_the_einsum_projectors(name, monkeypatch):
    model = get_model(name)
    grid = TimeGrid(0.0, 1.0, 2000)
    ctrl = _sinusoid(grid, model.p_dim, 11)
    path = extrinsic_roll(model, ctrl, normal_strategy="frame_matching")
    normals = model.rho_path(horizontal_lift(model, ctrl).samples) @ model.normal0
    transported = parallel_transport_embedded(normals, normals[0][:, 0], model.form)
    monkeypatch.setattr(rolling, "_span_factors", _projectors_reference)
    reference = extrinsic_roll(model, ctrl, normal_strategy="frame_matching")
    assert _peak(path.R, reference.R) <= 1e-12
    assert _peak(transported, parallel_transport_embedded(
        normals, normals[0][:, 0], model.form)) <= 1e-12



def _per_node_projectors_reference(frames, form, what="frame"):
    # every node is rank-tested and solved on its own, constant or not
    _check_rank_reference(frames, what)
    ft_j = np.swapaxes(frames, 1, 2) * form.signs
    try:
        return frames @ np.linalg.solve(ft_j @ frames, ft_j)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"{what} Gram matrix is singular under the ambient form") from exc


def _per_node_residuals_reference(path, tangent_m, tangent_mhat, normal_mhat):
    """Per-node fields of ``rolling_condition_residuals``, every frame node factored."""
    # tangency reads every node's own unit normals, by the library's products
    normals = np.array(normal_mhat.frames)
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    q = tangent_m.frames @ rolling._check_rank(tangent_m.frames, "tangency: F_M(t)")
    image = path.R @ q
    image /= np.linalg.norm(image, axis=1, keepdims=True)
    pairing = np.swapaxes(image, 1, 2) @ (path.form.signs[:, None] * normals)
    tangency = np.max(np.abs(pairing), axis=(1, 2))
    W = rolling._rotation_generator(path)

    def defect(frames):
        frames = np.array(frames)
        scale = np.linalg.norm(frames, axis=1, keepdims=True)
        comp = _per_node_projectors_reference(frames, path.form) @ (W @ (frames / scale))
        return np.max(np.linalg.norm(comp, axis=1), axis=-1)

    return {
        "rolling_point": rolling_point_residual(path),
        "tangency": tangency,
        "no_slip": no_slip_residual(path),
        "no_twist_tan": defect(tangent_mhat.frames),
        "no_twist_norm": defect(normal_mhat.frames),
        "isometry": j_orthogonality_residual(path.R, path.form) / j_orthogonality_scale(path.R),
    }


def _faulted(model, path, fault):
    """``path`` with a criterion-09 normal twist or an eps sin^2(pi t) slip of the development."""
    grid = path.grid
    if fault == "twist":
        N0 = model.normal0
        raw = np.random.default_rng(9).standard_normal((N0.shape[1],) * 2)
        # N0 X N0^T J with X skew is J-skew, kills the tangent space and keeps the normal one
        omega = N0 @ (0.7 * (raw - raw.T)) @ N0.T * model.form.signs
        return perturb_normal_generator(path, omega, model.flat_tangent_frames(grid),
                                        model.flat_normal_frames(grid))
    v = model.frame0 @ np.linspace(1.0, 0.5, model.p_dim)
    bump = 1e-2 * np.sin(np.pi * grid.ts) ** 2
    alpha_hat = path.alpha_hat + bump[:, None] * v / np.linalg.norm(v)
    return RollingMapPath(grid=grid, R=path.R, alpha=path.alpha, alpha_hat=alpha_hat,
                          s=alpha_hat - np.einsum("kij,kj->ki", path.R, path.alpha),
                          form=path.form)


@pytest.mark.parametrize("fault", ["clean", "twist", "slip"])
@pytest.mark.parametrize("name", BENCHMARK_MODELS + ("stiefel_5_3",))
def test_kept_constant_frame_factors_match_fresh_ones(name, fault):
    # the reports read the one-frame factors the model kept; copies of the flat
    # frames carry none and are factored on their first node, as every report once was
    model = get_model(name)
    grid = TimeGrid(0.0, 1.0, 250)
    path = extrinsic_roll(model, _sinusoid(grid, model.p_dim, 13))
    if fault != "clean":
        path = _faulted(model, path, fault)
    kept = model_residual_report(model, path)
    again = model_residual_report(model, path)
    copies = [TangentFramePath(grid.ts, flat.frames)
              for flat in (model.flat_tangent_frames(grid), model.flat_normal_frames(grid))]
    cleared = rolling_condition_residuals(path, model.pointwise_tangent_frames(grid, path.alpha),
                                          *copies)
    assert set(kept.per_node) == set(cleared.per_node)
    for field, values in cleared.per_node.items():
        assert np.array_equal(kept.per_node[field], values), field
        assert np.array_equal(again.per_node[field], values), field
    # a one-dimensional normal space has no twist
    expected = {"clean": set(), "slip": {"no_slip"},
                "twist": {"no_twist_norm"} if model.normal0.shape[1] > 1 else set()}[fault]
    assert {f for f, v in cleared.per_node.items() if np.max(v) > 50 * grid.h ** 2} == expected


def _moving(frame_path):
    """A copy of ``frame_path`` whose frames are a moving stack, factored at every node."""
    return TangentFramePath(frame_path.ts, np.array(frame_path.frames))


# the hyperboloid's frames are J-aligned, so its projectors are the same under either form
@pytest.mark.parametrize("name", ["so_plus_1_2", "so_plus_2_2"])
def test_a_path_of_another_form_factors_the_flat_frames_under_it(name):
    # the model's factors are J-orthogonal under its indefinite form: a path
    # under the Euclidean form reads factors of its own
    model = get_model(name)
    grid = TimeGrid(0.0, 1.0, 250)
    path = extrinsic_roll(model, _sinusoid(grid, model.p_dim, 14))
    path.form = SignatureForm(np.ones(model.ambient_dim))
    tangent_m = model.pointwise_tangent_frames(grid, path.alpha)
    flat = (model.flat_tangent_frames(grid), model.flat_normal_frames(grid))
    other = rolling_condition_residuals(path, tangent_m, *flat)
    reference = rolling_condition_residuals(path, tangent_m, *map(_moving, flat))
    for field, values in reference.per_node.items():
        assert np.array_equal(other.per_node[field], values), field
    path.form = model.form
    own = rolling_condition_residuals(path, tangent_m, *flat)
    assert not np.array_equal(own.per_node["no_twist_tan"], other.per_node["no_twist_tan"])


@pytest.mark.parametrize("name", BENCHMARK_MODELS)
def test_a_flat_frame_path_given_new_frames_reads_them(name):
    model = get_model(name)
    grid = TimeGrid(0.0, 1.0, 250)
    path = extrinsic_roll(model, _sinusoid(grid, model.p_dim, 15))
    tangent_m = model.pointwise_tangent_frames(grid, path.alpha)
    flat = [model.flat_tangent_frames(grid), model.flat_normal_frames(grid)]
    before = rolling_condition_residuals(path, tangent_m, *flat)
    # rho(q) of a group element moves both frames off the base point
    turn = np.asarray(model.rho(model.random_group_element(np.random.default_rng(4))))
    for frame_path in flat:
        frame_path.frames = np.broadcast_to(turn @ frame_path.frames[0], frame_path.frames.shape)
    after = rolling_condition_residuals(path, tangent_m, *flat)
    reference = rolling_condition_residuals(path, tangent_m, *map(_moving, flat))
    for field, values in reference.per_node.items():
        assert np.array_equal(after.per_node[field], values), field
    assert after.no_twist_tan > before.no_twist_tan + 1e-3


def _triple_gram_einsum_reference(triple):
    mapped = np.einsum("kai,kib->kab", triple.maps, triple.tangent_frames)
    target = np.einsum("kab,ac,kcd->kbd", mapped, triple.target_gram, mapped)
    frames = triple.tangent_frames
    source = np.einsum("kia,i,kib->kab", frames, triple.form.signs, frames)
    return np.max(np.abs(target - source), axis=(1, 2))


@pytest.mark.parametrize("n_steps", [250, 2000])
@pytest.mark.parametrize("name", BENCHMARK_MODELS)
def test_constant_frames_factored_once_match_the_per_node_suite(name, n_steps):
    model = get_model(name)
    grid = TimeGrid(0.0, 1.0, n_steps)
    ctrl = _sinusoid(grid, model.p_dim, 12)
    path = extrinsic_roll(model, ctrl)
    frames = (model.pointwise_tangent_frames(grid, path.alpha),
              model.flat_tangent_frames(grid), model.flat_normal_frames(grid))
    report = model_residual_report(model, path)
    reference = _per_node_residuals_reference(path, *frames)
    assert set(report.per_node) == set(reference)
    for field, values in reference.items():
        assert np.array_equal(report.per_node[field], values), field
    # a flat frame's kept projector is one matrix, equal to every node's own
    for stack in frames[1:]:
        kept = rolling._frame_factors(path, stack, "frame")[0]
        assert kept.shape == (1,) + 2 * (model.form.dim,)
        full = np.broadcast_to(kept, (grid.n_nodes,) + kept.shape[1:])
        assert np.array_equal(full, _per_node_projectors_reference(stack.frames, model.form))
    triple = intrinsic_roll(model, ctrl)
    assert _peak(triple_gram_residual(triple), _triple_gram_einsum_reference(triple)) <= 1e-14


# -- the Cholesky-screened frame test and tangency against the QR paths ------


def _check_rank_reference(frames, what):
    """The exact-only frame test: QR, then the SVD of every triangular factor."""
    finite = np.all(np.isfinite(frames), axis=(1, 2))
    if not np.all(finite):
        raise ValueError(f"{what} contains NaN or inf at node {int(np.argmin(finite))}")
    sv = np.linalg.svd(np.linalg.qr(frames, mode="r"), compute_uv=False)
    with np.errstate(divide="ignore", invalid="ignore"):
        conds = sv[:, 0] / sv[:, -1]
    bad = np.flatnonzero(~(conds <= FRAME_COND_MAX))
    if bad.size:
        k = int(bad[0])
        raise ValueError(f"{what} is rank deficient at node {k} (condition number {conds[k]:.1e})")


def _frame_of_condition(rng, cond, N, r):
    u = np.linalg.qr(rng.standard_normal((N, r)))[0]
    v = np.linalg.qr(rng.standard_normal((r, r)))[0]
    return (u * np.geomspace(1.0, 1.0 / cond, r)) @ v.T


def _frames_with(cond, node, N=5, r=3, n_nodes=12, seed=0):
    """Frames of condition number 10, and ``cond`` at ``node``."""
    rng = np.random.default_rng(seed)
    frames = np.stack([_frame_of_condition(rng, 10.0, N, r) for _ in range(n_nodes)])
    frames[node] = _frame_of_condition(rng, cond, N, r)
    return frames


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [1.0, 1e-170, 1e170])
@pytest.mark.parametrize("cond", [1.0, 1e3, 5e5, 9e5])
def test_rank_screen_accepts_what_the_exact_test_accepts(cond, scale):
    frames = scale * _frames_with(cond, 7)
    assert np.linalg.cond(frames[7]) == pytest.approx(cond, rel=1e-6)
    _check_rank_reference(frames, "frame")
    rolling._check_rank(frames, "frame")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("cond", [1.1e6, 1e7, 1e9, "cond_1e14"])
def test_rank_screen_refuses_what_the_exact_test_refuses(cond):
    if cond == "cond_1e14":
        frames = _frames_with(10.0, 7, N=3, r=2)
        frames[7] = [[1.0, 1e7], [0.0, 1.0], [0.0, 0.0]]
    else:
        frames = _frames_with(cond, 7)
    # an accepted node the screen cannot certify comes before the refused one
    frames[3] = _frame_of_condition(np.random.default_rng(1), 9e5, *frames.shape[1:])
    with pytest.raises(ValueError, match="rank deficient at node 7 ") as exact:
        _check_rank_reference(frames, "frame")
    with pytest.raises(ValueError) as screened:
        rolling._check_rank(frames, "frame")
    assert str(screened.value) == str(exact.value)


# a 1 x 1 factor has condition number 1
@pytest.mark.parametrize("r, cond", [(1, 1.0)] + [(r, cond) for r in range(2, 7)
                                                  for cond in (1.0, 1e3, 5e5, 9e5)])
def test_triangular_substitution_matches_the_lu_inverse(r, cond):
    rng = np.random.default_rng(r)
    frames = np.stack([_frame_of_condition(rng, cond, 8, r) for _ in range(40)])
    lower = np.linalg.cholesky(np.swapaxes(frames, 1, 2) @ frames)
    reference = np.linalg.inv(lower)
    inverse = rolling._lower_inverse(lower)
    assert np.array_equal(np.triu(inverse, 1), np.zeros_like(inverse))
    assert np.linalg.cond(lower[0]) == pytest.approx(cond, rel=1e-4)
    # each errs by about eps cond(L) relative to the size of the inverse
    size = np.max(np.abs(reference), axis=(1, 2), keepdims=True)
    assert np.max(np.abs(inverse - reference) / size) <= 1e-15 * cond
    assert _peak(lower @ inverse, np.eye(r)) <= 1e-15 * cond


@pytest.mark.parametrize("cond", [10.0, 1e3, 1e5, 5e5, 9e5])
@pytest.mark.parametrize("signs, r, target", [
    ([1, -1, -1, -1, 1, 1, -1, 1, 1], 3, "moving"), ([1] * 8, 5, "moving"),
    ([1, -1, -1, -1, 1, 1, -1, 1, 1], 3, "constant"), ([1] * 8, 5, "constant")],
    ids=["so12_r3", "euclid8_r5", "so12_r3_constant", "euclid8_r5_constant"])
def test_tangency_of_ill_conditioned_frames_matches_the_householder_pairing(signs, r, target,
                                                                            cond):
    # Q_M = F_M U^-1 reuses the rank test's factor in one pass: its columns lie in
    # the span to about eps cond, so a vanishing pairing reads 0 to that (measured
    # 8.9e-17 cond at worst), and are orthonormal to about eps cond^2, which only
    # scales a pairing away from 0 (measured 0.15 of the bound below at worst)
    path, frames_m, _, normals = _tangency_case(signs, r, target=target)
    rng = np.random.default_rng(2)
    bent = np.linalg.qr(frames_m.frames)[0] @ _frame_of_condition(rng, cond, r, r)
    assert np.linalg.cond(bent[0]) == pytest.approx(cond, rel=1e-6)
    frames_m = TangentFramePath(frames_m.ts, bent)
    reference = _tangency_reference(path, frames_m, normals)
    error = np.abs(tangency_residual(path, frames_m, normals) - reference)
    tangent = reference < 1e-8
    assert np.any(tangent)
    assert np.max(error[tangent]) <= 1e-15 * cond
    assert np.all(error <= 1e-15 * cond + 1e-16 * cond ** 2 * reference)


def _j_transpose_inverse_reference(mats, form):
    signs = form.signs
    return signs[:, None] * np.swapaxes(mats, -1, -2) * signs


@pytest.mark.parametrize("name", BENCHMARK_MODELS)
def test_j_transpose_inverse_keeps_the_bits_and_the_layout(name):
    model = get_model(name)
    grid = TimeGrid(0.0, 1.0, 40)
    lift = horizontal_lift(model, _sinusoid(grid, model.p_dim, 13))
    path = extrinsic_roll(model, lift.control)
    rhos = model.rho_path(lift.samples)
    for mats in (rhos, path.R, np.ascontiguousarray(path.R), path.R[5]):
        before = mats.copy()
        out = j_transpose_inverse(mats, model.form)
        reference = _j_transpose_inverse_reference(mats, model.form)
        assert _same_bits(out, reference)
        # one layout for every input, so stacked einsums over the result sum in one order
        assert out.flags.c_contiguous
        assert _same_bits(mats, before)


def _fd_interior_reference(a, h):
    return (a[:-4] - 8.0 * a[1:-3] + 8.0 * a[3:-1] - a[4:]) / (12.0 * h)


# one block of the stencil holds 128 rows of 16 x 16 matrices
@pytest.mark.parametrize("shape", [(5, 16, 16), (132, 16, 16), (133, 16, 16), (2001, 16, 16),
                                   (2001, 9), (7,), (40000,), (6, 0)])
def test_blocked_fd_stencil_matches_the_whole_array_expression(shape):
    rng = np.random.default_rng(14)
    a = rng.standard_normal(shape)
    h = 1.0 / 3.0
    assert _same_bits(fd_derivative(a, h)[2:-2], _fd_interior_reference(a, h))
    z = a + 1j * rng.standard_normal(shape)
    assert _same_bits(fd_derivative(z, h)[2:-2], _fd_interior_reference(z, h))
    ints = rng.integers(-9, 9, shape)
    assert _same_bits(fd_derivative(ints, h)[2:-2], _fd_interior_reference(ints, h))
    # a strided view, as the rotation paths' transposes are
    view = np.swapaxes(a, -1, -2) if a.ndim == 3 else a[:, ::-1] if a.ndim == 2 else a[::-1]
    assert _same_bits(fd_derivative(view, h)[2:-2], _fd_interior_reference(view, h))


# -- trajectory file codec against the per-block writers and parser ---------

def _csv_labels_reference(mode, N, k):
    cols = ["t"]
    cols += [f"alpha_{i}" for i in range(N)]
    width = k if mode == "intrinsic" else N
    cols += [f"alphahat_{i}" for i in range(width)]
    rows = k if mode == "intrinsic" else N
    for i in range(rows):
        cols += [f"R_{i}_{j}" for j in range(N)]
    if mode == "extrinsic":
        cols += [f"s_{i}" for i in range(N)]
    return cols


def _trajectory_table_reference(mode, grid, result):
    blocks = [grid.ts[:, None], result.alpha]
    if mode == "extrinsic":
        blocks += [result.alpha_hat, result.R.reshape(grid.n_nodes, -1), result.s]
    else:
        blocks += [result.alpha_hat, result.maps.reshape(grid.n_nodes, -1)]
    return np.hstack(blocks)


def _write_csv_reference(out, meta, mode, grid, result, N, k):
    for key, value in meta.items():
        out.write(f"# {key}={value}\n")
    out.write(",".join(_csv_labels_reference(mode, N, k)) + "\n")
    table = _trajectory_table_reference(mode, grid, result)
    for row in table:
        out.write(",".join(format(x, ".17g") for x in row) + "\n")


def _write_json_reference(out, meta, mode, grid, result):
    doc = dict(meta)
    doc["t"] = grid.ts.tolist()
    doc["alpha"] = result.alpha.tolist()
    doc["alpha_hat"] = result.alpha_hat.tolist()
    if mode == "extrinsic":
        doc["R"] = result.R.tolist()
        doc["s"] = result.s.tolist()
    else:
        doc["A"] = result.maps.tolist()
    json.dump(doc, out, indent=1)
    out.write("\n")


def _parse_csv_reference(path):
    meta = {}
    rows = []
    header = None
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                key, _, value = line[1:].strip().partition("=")
                meta[key.strip()] = value.strip()
            elif header is None:
                header = line.split(",")
            else:
                rows.append([float(x) for x in line.split(",")])
    if header is None or not rows:
        cli._fail(f"{path}: no trajectory data found")
    return meta, np.asarray(rows)


def _load_trajectory_reference(path):
    if path.endswith(".json"):
        with open(path) as fh:
            doc = json.load(fh)
        meta = {key: doc[key] for key in
                ("format_version", "kind", "model", "mode", "t0", "t1",
                 "n_steps", "ambient_dim", "k_dim") if key in doc}
        arrays = {key: np.asarray(doc[key], dtype=float)
                  for key in ("t", "alpha", "alpha_hat", "R", "s", "A") if key in doc}
        return meta, arrays

    meta, table = _parse_csv_reference(path)
    for key in ("format_version", "n_steps", "ambient_dim", "k_dim"):
        if key in meta:
            meta[key] = int(meta[key])
    for key in ("t0", "t1"):
        if key in meta:
            meta[key] = float(meta[key])
    N = meta["ambient_dim"]
    k = meta["k_dim"]
    mode = meta.get("mode", "extrinsic")
    m = table.shape[0]
    pos = 0

    def take(width):
        nonlocal pos
        block = table[:, pos:pos + width]
        pos += width
        return block

    arrays = {"t": take(1)[:, 0], "alpha": take(N)}
    if mode == "extrinsic":
        arrays["alpha_hat"] = take(N)
        arrays["R"] = take(N * N).reshape(m, N, N)
        arrays["s"] = take(N)
    else:
        arrays["alpha_hat"] = take(k)
        arrays["A"] = take(k * N).reshape(m, k, N)
    if pos != table.shape[1]:
        cli._fail(f"{path}: column count does not match metadata dimensions")
    return meta, arrays


def _roll_file_reference(cfg, path):
    """The trajectory file of ``cfg`` through the reference writers."""
    model = get_model(cfg["model"])
    grid = cli._build_grid(cfg)
    data = cli._build_input(cfg, grid, model)
    mode = cfg.get("mode", "extrinsic")
    strategy = cfg.get("normal_strategy", "closed_form")
    if mode == "extrinsic":
        result = extrinsic_roll(model, data, normal_strategy=strategy)
    else:
        result = intrinsic_roll(model, data)
    meta = {
        "format_version": cli.FORMAT_VERSION,
        "kind": "rolling_trajectory",
        "model": cfg["model"],
        "mode": mode,
        "t0": grid.t0,
        "t1": grid.t1,
        "n_steps": grid.n_steps,
        "ambient_dim": model.ambient_dim,
        "k_dim": model.p_dim,
    }
    if mode == "extrinsic":
        meta["normal_strategy"] = strategy
    with open(path, "w") as out:
        if str(path).endswith(".csv"):
            _write_csv_reference(out, meta, mode, grid, result, model.ambient_dim, model.p_dim)
        else:
            _write_json_reference(out, meta, mode, grid, result)


def _assert_same_trajectory(path):
    """Both readers give equal metadata and bit-identical arrays of equal shape."""
    meta, arrays = cli._load_trajectory(str(path))
    ref_meta, ref_arrays = _load_trajectory_reference(str(path))
    assert meta == ref_meta
    assert {k: type(v) for k, v in meta.items()} == {k: type(v) for k, v in ref_meta.items()}
    assert arrays.keys() == ref_arrays.keys()
    for key, values in ref_arrays.items():
        assert arrays[key].shape == values.shape, key
        assert arrays[key].tobytes() == values.tobytes(), key


CONFIG_DIR = resources.files("semiroll") / "configs"
BUNDLED_CONFIGS = sorted(p.name for p in CONFIG_DIR.iterdir() if p.name.endswith(".json"))


@pytest.mark.parametrize("mode", ["extrinsic", "intrinsic"])
@pytest.mark.parametrize("config", BUNDLED_CONFIGS)
def test_trajectory_files_match_the_per_block_codec(config, mode, tmp_path, capsys):
    cfg = {**json.loads((CONFIG_DIR / config).read_text()), "mode": mode}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    for suffix in (".csv", ".json"):
        out, ref = tmp_path / f"traj{suffix}", tmp_path / f"ref{suffix}"
        assert cli.main(["roll", "--config", str(cfg_path), "--out", str(out)]) == 0
        _roll_file_reference(cfg, ref)
        assert out.read_bytes() == ref.read_bytes()
        _assert_same_trajectory(out)
    capsys.readouterr()


def test_json_trajectory_is_written_as_one_string():
    model = get_model("stiefel_4_2")
    grid = TimeGrid(0.0, 1.0, 2000)
    triple = intrinsic_roll(model, _sinusoid(grid, model.p_dim, 16))
    meta = {"model": "stiefel_4_2", "mode": "intrinsic", "n_steps": grid.n_steps}
    arrays = {"t": grid.ts, "alpha": triple.alpha, "alpha_hat": triple.alpha_hat, "A": triple.maps}
    writes = []

    class Recording(io.StringIO):
        def write(self, text):
            writes.append(len(text))
            return super().write(text)

    out, reference = Recording(), io.StringIO()
    cli._write_json(out, meta, arrays)
    json.dump({**meta, **{key: block.tolist() for key, block in arrays.items()}}, reference,
              indent=1)
    reference.write("\n")
    assert out.getvalue() == reference.getvalue()
    # the document and its closing newline, not one write per token
    assert len(writes) == 2


def _crlf(text):
    return text.replace("\n", "\r\n")


def _blank_lines(text):
    return "\n\n" + text.replace("\n", "\n\n  \n")


def _comment_after_header(text):
    lines = text.splitlines(True)
    header = next(i for i, line in enumerate(lines) if line.startswith("t,"))
    return "".join(lines[:header + 1] + ["# note=after the header\n"] + lines[header + 1:])


def _one_row(text):
    lines = text.splitlines(True)
    header = next(i for i, line in enumerate(lines) if line.startswith("t,"))
    return "".join(lines[:header + 2])


def _nan_entry(text):
    lines = text.splitlines()
    row = lines[-3].split(",")
    row[2] = "nan"
    lines[-3] = ",".join(row)
    return "\n".join(lines) + "\n"


def _header_only(text):
    return "".join(line for line in text.splitlines(True) if line.startswith(("#", "t,")))


def _header_then_comments(text):
    return _header_only(text) + "\n# trailing=1\n\n"


_SMALL_CONFIGS = {
    "extrinsic": {"model": "sphere", "mode": "extrinsic",
                  "grid": {"t0": 0.0, "t1": 1.0, "n_steps": 10},
                  "control": {"kind": "constant", "coords": [1.0, 0.0]}},
    "intrinsic": {"model": "stiefel_4_2", "mode": "intrinsic",
                  "grid": {"t0": 0.0, "t1": 1.0, "n_steps": 10},
                  "control": {"kind": "constant", "coords": [0.5, 0.8, 0.3, -0.5, 0.4]}},
}


def _small_csv(mode, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_SMALL_CONFIGS[mode]))
    out = tmp_path / "traj.csv"
    assert cli.main(["roll", "--config", str(cfg), "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("edit", [_crlf, _blank_lines, _comment_after_header, _one_row, _nan_entry])
@pytest.mark.parametrize("mode", ["extrinsic", "intrinsic"])
def test_csv_reader_matches_the_per_number_parser_on_edited_files(mode, edit, tmp_path, capsys):
    out = _small_csv(mode, tmp_path)
    out.write_bytes(edit(out.read_text()).encode())
    _assert_same_trajectory(out)
    capsys.readouterr()


@pytest.mark.parametrize("edit", [_header_only, _header_then_comments])
def test_csv_without_data_rows_is_refused_by_both_readers(edit, tmp_path, capsys):
    out = _small_csv("extrinsic", tmp_path)
    out.write_text(edit(out.read_text()))
    messages = []
    for reader in (cli._load_trajectory, _load_trajectory_reference):
        with pytest.raises(SystemExit) as exc:
            reader(str(out))
        messages.append(exc.value.code)
    assert messages[0] == messages[1]
    assert messages[0].endswith("no trajectory data found")
    capsys.readouterr()


# -- scanned transport, one-product Omega, skipped correction, one-array controls --


def _parallel_transport_loop_reference(frames, v0, form):
    """``parallel_transport_embedded`` as a per-step RK4 loop of X' = [P', P] X.

    Every node's projector by its own ``np.linalg.solve``, refused by the same
    rule as ``rolling._span_factors`` (1 / min |eigenvalue| of the J-Gram of a
    QR basis at most FRAME_COND_MAX); the midpoint projectors from the cubic
    through the node ones and P' by fourth-order differences of the stage
    samples, as the flow takes them; then one RK4 step per interval, with
    no polish onto the group.
    """
    frames = np.asarray(frames, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    what = "transport frame"
    m = frames.shape[0]
    if m < 3:
        raise ValueError(f"{what} needs at least 3 nodes for a fourth-order transport, got {m}")
    grid = TimeGrid(0.0, 1.0, m - 1)
    P = np.empty((2 * m - 1, form.dim, form.dim))
    for k, frame in enumerate(frames):
        q = np.linalg.qr(frame)[0]
        if 1.0 / np.min(np.abs(np.linalg.eigvalsh(q.T @ (form.signs[:, None] * q)))) \
                > FRAME_COND_MAX:
            raise ValueError(f"{what} Gram matrix is singular under the ambient form at node {k}")
        ft_j = frame.T * form.signs
        P[2 * k] = frame @ np.linalg.solve(ft_j @ frame, ft_j)
    P[1::2] = dense_from_samples(grid.ts, P[::2])(grid.stage_ts[1::2])
    dP = fd_derivative(P, 0.5 * grid.h)
    L, h = dP @ P - P @ dP, grid.h
    X = [np.eye(form.dim)]
    for k in range(m - 1):
        k1 = L[2 * k] @ X[-1]
        k2 = L[2 * k + 1] @ (X[-1] + 0.5 * h * k1)
        k3 = L[2 * k + 1] @ (X[-1] + 0.5 * h * k2)
        k4 = L[2 * k + 2] @ (X[-1] + h * k3)
        X.append(X[-1] + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
    if np.linalg.norm(v0 - P[0] @ v0) > 1e-8 * max(1.0, np.linalg.norm(v0)):
        raise ValueError("v0 does not lie in the initial transport space")
    return np.array(X) @ v0


@pytest.mark.parametrize("n_steps", [250, 251, 253, 2000])
@pytest.mark.parametrize("name", ["sphere", "hyperboloid", "so_plus_1_2", "so_plus_2_2"])
def test_scanned_transport_matches_the_per_node_loop(name, n_steps):
    model = get_model(name)
    grid = TimeGrid(0.0, 1.0, n_steps)
    lift = horizontal_lift(model, _sinusoid(grid, model.p_dim, 12))
    rhos = model.rho_path(lift.samples)
    for which, frames in (("tangent", model.frames_along(rhos)),
                          ("normal", rhos @ model.normal0)):
        for j in range(frames.shape[2]):
            args = (frames, frames[0][:, j], model.form)
            new = parallel_transport_embedded(*args)
            reference = _parallel_transport_loop_reference(*args)
            assert _peak(new, reference) <= 1e-12 * np.max(np.abs(reference)), (which, j)


@pytest.mark.parametrize("n_steps", [250, 251, 2000])
@pytest.mark.parametrize("name", ["sphere", "hyperboloid", "so_plus_1_2", "so_plus_2_2"])
def test_block_transport_matches_the_stacked_column_transports(name, n_steps):
    # one running product applied to the whole frame, against one call per column
    model = get_model(name)
    grid = TimeGrid(0.0, 1.0, n_steps)
    lift = horizontal_lift(model, _sinusoid(grid, model.p_dim, 12))
    rhos = model.rho_path(lift.samples)
    for which, frames in (("tangent", model.frames_along(rhos)),
                          ("normal", rhos @ model.normal0)):
        block = parallel_transport_embedded(frames, frames[0], model.form)
        columns = np.stack([parallel_transport_embedded(frames, frames[0][:, j], model.form)
                            for j in range(frames.shape[2])], axis=2)
        if name in ("sphere", "hyperboloid"):
            assert np.array_equal(block, columns), which
        else:
            assert _peak(block, columns) <= 1e-14 * np.max(np.abs(columns)), which


def test_scanned_transport_keeps_the_null_vector_path_and_the_causal_refusal():
    form = SignatureForm(np.array([1.0, 1.0, -1.0]))
    ts = np.linspace(0.0, 1.0, 21)
    # a rotating plane that contains the null vector (1, 0, 1) at every node
    frames = np.zeros((21, 3, 2))
    frames[:, 0, 0] = frames[:, 2, 0] = 1.0
    frames[:, 1, 1] = np.cos(ts + 0.5)
    frames[:, 0, 1] = np.sin(ts + 0.5)
    v0 = np.array([1.0, 0.0, 1.0])
    new = parallel_transport_embedded(frames, v0, form)
    assert _peak(new, _parallel_transport_loop_reference(frames, v0, form)) <= 1e-13
    assert np.max(np.abs(form.ip(new, new))) <= 1e-14
    # a Lorentz frame turning from spacelike to timelike through a null
    # direction is refused at that node, and two nodes are refused by count
    lorentz = SignatureForm(np.array([1.0, -1.0]))
    angle = 0.5 * np.pi * np.linspace(0.0, 1.0, 41)
    turning = np.stack([np.cos(angle), np.sin(angle)], axis=1)[:, :, None]
    for nodes, message in ((41, "Gram matrix is singular under the ambient form at node 20"),
                           (2, "needs at least 3 nodes for a fourth-order transport, got 2")):
        path = turning[np.linspace(0, 40, nodes).astype(int)]
        for transport in (parallel_transport_embedded, _parallel_transport_loop_reference):
            with pytest.raises(ValueError, match=f"^transport frame {message}"):
                transport(path, np.array([1.0, 0.0]), lorentz)


def _stiefel_omega_reference(model, qdot):
    """Omega by the Kronecker product and four stacked products per generator."""
    k = int(model.name.split("_")[-1])
    M = stacked_kron(np.eye(k), np.asarray(qdot, dtype=float))
    Pt = model.frame0 @ model.cf0
    Pn = np.eye(Pt.shape[0]) - Pt
    return -(Pt @ M @ Pt + Pn @ M @ Pn)


@pytest.mark.parametrize("name", ["stiefel_4_2", "stiefel_5_2"])
def test_one_product_omega_matches_the_kronecker_products(name):
    model = get_model(name)
    rng = np.random.default_rng(13)
    for coords in (rng.standard_normal((64, model.p_dim)), rng.standard_normal(model.p_dim),
                   rng.standard_normal((3, 5, model.p_dim))):
        new = np.tensordot(coords, model.omega_basis, axes=(-1, 0))
        reference = _stiefel_omega_reference(model, model.p_element(coords))
        assert new.shape == reference.shape
        assert _peak(new, reference) <= 1e-15


def _correction_flow_reference(model, lift):
    """The Stiefel correction by the RK4 flow of the Kronecker-product Omega."""
    omegas = _stiefel_omega_reference(model, model.p_element(lift.control.stage_coords()))
    return flow_matrix_ode(omegas, np.eye(model.ambient_dim), lift.grid, side="left",
                           reproject_form=model.form)


@pytest.mark.parametrize("name", ["stiefel_3_1", "stiefel_4_1"])
def test_symmetric_stiefel_runs_no_correction_flow(name, monkeypatch):
    model = get_model(name)
    ctrl = _sinusoid(TimeGrid(0.0, 1.0, 250), model.p_dim, 14)
    calls = []
    monkeypatch.setattr(homogeneous, "_correction_path", lambda *args: calls.append(args))
    extrinsic_roll(model, ctrl)
    intrinsic_roll(model, ctrl)
    assert model.symmetric_space and not calls


def test_derived_correction_keeps_the_bits_of_the_kronecker_products(monkeypatch):
    model = get_model("stiefel_4_2")
    ctrl = _sinusoid(TimeGrid(0.0, 1.0, 250), model.p_dim, 14)
    ext, intr = extrinsic_roll(model, ctrl), intrinsic_roll(model, ctrl)
    monkeypatch.setattr(homogeneous, "_correction_path", _correction_flow_reference)
    ext_ref, intr_ref = extrinsic_roll(model, ctrl), intrinsic_roll(model, ctrl)
    for field in ("R", "s", "alpha", "alpha_hat"):
        assert np.array_equal(getattr(ext, field), getattr(ext_ref, field)), field
    for field in ("alpha", "alpha_hat", "maps", "tangent_frames"):
        assert np.array_equal(getattr(intr, field), getattr(intr_ref, field)), field


def _stage_coords_reference(control):
    """Stage samples with every midpoint reading wrapped in ``np.atleast_1d``."""
    grid = control.grid
    out = np.empty((2 * grid.n_steps + 1, control.dim))
    out[::2] = control.coords
    out[1::2] = np.array([np.atleast_1d(control.func(t)) for t in grid.stage_ts[1::2]],
                         dtype=float)
    return out


def _scalar_control(grid):
    return ControlCurve(grid=grid, coords=np.sin(grid.ts)[:, None],
                        func=lambda t: float(np.sin(t)))


@pytest.mark.parametrize("n_steps", [1, 7, 2000])
@pytest.mark.parametrize("make", [
    lambda grid: _sinusoid(grid, 5, 15),
    _scalar_control,
    lambda grid: ControlCurve.from_function(grid, lambda t: 0.4 * np.sin(t + np.arange(5))),
    lambda grid: ControlCurve.from_function(grid, lambda t: float(np.sin(t))),
], ids=["vector", "scalar", "from_function_vector", "from_function_scalar"])
def test_one_array_control_table_matches_the_per_call_table(make, n_steps):
    control = make(TimeGrid(0.0, 1.3, n_steps))
    reference = _stage_coords_reference(control)
    calls, func = [0], control.func

    def counted(t):
        calls[0] += 1
        return func(t)

    control.func = counted
    table = control.stage_coords()
    assert calls[0] == n_steps
    assert table.shape == reference.shape
    assert np.array_equal(table, reference)


# -- a control read once against a fresh control for every roll -----------------


def _every_roll(model, make):
    """The arrays of every roll of a control, each roll taking the control ``make()``."""
    out = [horizontal_lift(model, make()).samples]
    rolls = [lambda c, s=s: extrinsic_roll(model, c, normal_strategy=s)
             for s in ("closed_form", "frame_matching")]
    if model.symmetric_space:
        rolls.append(lambda c: hyperbolic.kinematic_roll(model, c))
    if model.name == "hyperboloid":
        rolls.append(hyperbolic.roll_hyperboloid)
    for roll in rolls:
        path = roll(make())
        out += [path.R, path.s, path.alpha, path.alpha_hat]
    triple = intrinsic_roll(model, make())
    return out + [triple.alpha, triple.alpha_hat, triple.maps, triple.tangent_frames]


@pytest.mark.parametrize("n_steps", [8, 250, 2000])
@pytest.mark.parametrize("name", BENCHMARK_MODELS + ("stiefel_5_3",))
def test_a_reused_control_rolls_as_a_fresh_one(name, n_steps):
    model = get_model(name)
    grid = TimeGrid(0.0, 1.0, n_steps)
    ctrl = _sinusoid(grid, model.p_dim, 16)
    _every_roll(model, lambda: ctrl)
    reused = _every_roll(model, lambda: ctrl)
    fresh = _every_roll(model, lambda: _sinusoid(grid, model.p_dim, 16))
    assert len(reused) == len(fresh)
    for k, (a, b) in enumerate(zip(reused, fresh)):
        assert np.array_equal(a, b), k


def _counted(ctrl):
    """``ctrl`` with its func rebound to a counting wrapper; returns the count's list."""
    calls, func = [0], ctrl.func

    def counted(t):
        calls[0] += 1
        return func(t)

    ctrl.func = counted
    return calls


@pytest.mark.parametrize("name", ["sphere", "stiefel_4_2"])
def test_three_rolls_of_one_control_read_it_once(name):
    model = get_model(name)
    grid = TimeGrid(0.0, 1.0, 40)
    ctrl = _sinusoid(grid, model.p_dim, 17)
    calls = _counted(ctrl)
    extrinsic_roll(model, ctrl)
    intrinsic_roll(model, ctrl)
    extrinsic_roll(model, ctrl, normal_strategy="frame_matching")
    assert calls[0] == grid.n_steps


def test_rebinding_the_func_reads_the_new_one():
    grid = TimeGrid(0.0, 1.0, 30)
    ctrl = _sinusoid(grid, 3, 18)
    first = ctrl.stage_coords()
    ctrl.func = lambda t: np.array([t, 2.0 * t, -t])
    calls = _counted(ctrl)
    table = ctrl.stage_coords()
    assert calls[0] == grid.n_steps
    assert np.array_equal(table[::2], first[::2])
    ts = grid.stage_ts[1::2]
    assert np.array_equal(table[1::2], np.stack([ts, 2.0 * ts, -ts], axis=1))
    assert np.array_equal(ctrl.stage_coords(), table) and calls[0] == grid.n_steps


def test_writing_into_the_stage_coordinates_leaves_the_control_alone():
    ctrl = _sinusoid(TimeGrid(0.0, 1.0, 12), 2, 19)
    table = ctrl.stage_coords()
    expected = table.copy()
    table[:] = np.nan
    assert np.array_equal(ctrl.stage_coords(), expected)


# -- Householder null spaces against the per-node SVD they replaced ----------


def _svd_null_spaces_reference(rows):
    """The trailing right singular vectors of each slice: scipy's ``null_space``."""
    rows = np.asarray(rows, dtype=float)
    vh = np.linalg.svd(rows)[2]
    return np.swapaxes(vh[:, rows.shape[1]:, :], 1, 2)


def _model_points(model, n, seed):
    rng = np.random.default_rng(seed)
    return np.array([model.random_point(rng) for _ in range(n)])


@pytest.mark.parametrize("name", BENCHMARK_MODELS)
def test_householder_null_spaces_match_the_svd_on_every_model(name, monkeypatch):
    model = get_model(name)
    points = _model_points(model, 200, 11)
    frames = model.tangent_frame_at(points)
    monkeypatch.setattr(pseudo_orthogonal, "stacked_null_spaces", _svd_null_spaces_reference)
    reference = model.tangent_frame_at(points)
    assert frames.shape == reference.shape == (200, model.ambient_dim, model.p_dim)
    assert np.max(np.abs(frames - reference)) <= 1e-15
    rows = (model.frame0.T * model.form.signs[None, :])[None]
    normal = _svd_null_spaces_reference(rows)[0]
    assert model.normal0.shape == normal.shape
    assert np.max(np.abs(model.normal0 - normal), initial=0.0) <= 1e-15


# (k, N) and whether LAPACK's SVD takes the LQ step, and so the same basis; on
# the others it picks another basis of the same space
NULL_SPACE_SHAPES = [((1, 3), True), ((2, 4), True), ((3, 4), False), ((5, 8), False),
                     ((6, 16), True), ((10, 16), False)]


@pytest.mark.parametrize("shape, same_basis", NULL_SPACE_SHAPES,
                         ids=[f"{k}x{N}" for (k, N), _ in NULL_SPACE_SHAPES])
def test_householder_null_spaces_match_per_node_qr_and_the_svd(shape, same_basis):
    k, N = shape
    rows = np.random.default_rng(k * N).standard_normal((60, k, N))
    basis = stacked_null_spaces(rows)
    qr = np.array([np.linalg.qr(row.T, mode="complete")[0][:, k:] for row in rows])
    assert basis.shape == qr.shape == (60, N, N - k)
    assert np.max(np.abs(basis - qr)) <= 1e-14
    svd = _svd_null_spaces_reference(rows)
    if same_basis:
        assert np.max(np.abs(basis - svd)) <= 1e-14
    else:
        projector = basis @ np.swapaxes(basis, 1, 2)
        assert np.max(np.abs(projector - svd @ np.swapaxes(svd, 1, 2))) <= 1e-14


def _count_svd_calls(monkeypatch):
    calls = [0]
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls[0] += 1
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls


@pytest.mark.parametrize("name", BENCHMARK_MODELS)
def test_clean_report_and_intrinsic_check_take_no_svd(name, tmp_path, monkeypatch, capsys):
    # the exact condition number in ``_check_rank`` takes SVDs of the nodes the
    # Cholesky screen does not certify; clean 250-step rolls have none
    model = get_model(name)
    grid = TimeGrid(0.0, 1.0, 250)
    path = extrinsic_roll(model, _sinusoid(grid, model.p_dim, 5))
    amp = np.linspace(0.2, 0.5, model.p_dim)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "model": name, "mode": "intrinsic", "grid": {"t0": 0.0, "t1": 1.0, "n_steps": 250},
        "control": {"kind": "sinusoid", "amplitude": amp.tolist(),
                    "frequency": [1.0] * model.p_dim, "phase": [0.3] * model.p_dim}}))
    out = tmp_path / "traj.csv"
    assert cli.main(["roll", "--config", str(cfg), "--out", str(out)]) == 0
    calls = _count_svd_calls(monkeypatch)
    assert model_residual_report(model, path).passed(50.0 * grid.h ** 2)
    assert calls[0] == 0
    assert cli.main(["verify", "--in", str(out)]) == 0
    assert capsys.readouterr().out.strip().endswith("PASS")
    assert calls[0] == 0
