"""Stacked paths diffed against the per-node constructions they replaced.

``tangency_residual`` and the models' ``tangent_frame_at`` handle all nodes
in one batched computation.  The per-node constructions they replaced are
kept here as references: scipy's ``subspace_angles`` for the tangency angle,
and ``null_space`` (or the explicit column loop) for each bundle's frames.
The model maps ``rho``, ``p_element`` and ``algebra_coords`` broadcast over
leading axes; a stack must give the per-matrix results, and
``horizontality_residual`` must match the per-node ``solve`` plus ``lstsq``
loop it replaced.
"""

import numpy as np
import pytest
from scipy.linalg import null_space, subspace_angles

from semiroll.homogeneous import ControlCurve, GroupPath, horizontal_lift, horizontality_residual
from semiroll.integrate import TimeGrid, fd_derivative
from semiroll.linalg import SignatureForm, random_oriented_isometry, stacked_kron
from semiroll.models import get_model
from semiroll.models.pseudo_orthogonal import so_pq_basis
from semiroll.rolling import RollingMapPath, TangentFramePath, tangency_residual


def _tangency_case(signs, r, n_nodes=60, seed=0):
    """Random J-orthogonal R(t) and frames at angles 1e-12 .. 0.1, plus one node at 60 degrees.

    At the last node min(r, N - r) principal angles are 60 degrees and the
    rest 0 (two r-planes in N < 2r dimensions share a direction).  When all
    of them are 60 degrees (r = 1, or N >= 2r) the arccos branch is taken;
    otherwise the arcsine branch sees a large angle.
    """
    rng = np.random.default_rng(seed)
    form = SignatureForm(signs)
    N = form.dim
    grid = TimeGrid(0.0, 1.0, n_nodes - 1)
    R = np.array([random_oriented_isometry(form, rng, scale=0.4) for _ in range(n_nodes)])
    frames_m = rng.standard_normal((n_nodes, N, r))
    mapped = np.einsum("kij,kja->kia", R, frames_m)
    sizes = np.logspace(-12, -1, n_nodes)
    frames_hat = mapped + sizes[:, None, None] * rng.standard_normal((n_nodes, N, r))
    basis = np.linalg.qr(np.hstack([mapped[-1], rng.standard_normal((N, N - r))]))[0]
    tilted = min(r, N - r)
    frames_hat[-1] = basis[:, :r]
    frames_hat[-1][:, :tilted] = np.cos(np.pi / 3) * basis[:, :tilted] \
        + np.sin(np.pi / 3) * basis[:, r:r + tilted]
    zeros = np.zeros((n_nodes, N))
    path = RollingMapPath(grid=grid, R=R, s=zeros, alpha=zeros, alpha_hat=zeros, form=form)
    return path, TangentFramePath(grid.ts, frames_m), TangentFramePath(grid.ts, frames_hat)


@pytest.mark.parametrize(
    "signs, r",
    [
        ([1, 1, 1], 1),
        ([1, 1, 1], 2),
        ([-1, 1, 1], 2),
        ([1, -1, -1, -1, 1, 1, -1, 1, 1], 3),
        ([1] * 8, 5),
    ],
    ids=["euclid3_r1", "euclid3_r2", "lorentz3_r2", "so12_r3", "euclid8_r5"],
)
def test_batched_tangency_matches_scipy_subspace_angles(signs, r):
    path, frames_m, frames_hat = _tangency_case(signs, r)
    reference = np.array([
        np.max(subspace_angles(path.R[k] @ frames_m.frames[k], frames_hat.frames[k]))
        for k in range(path.n_nodes)
    ])
    assert reference[-1] == pytest.approx(np.pi / 3, abs=1e-12)
    assert np.min(reference) < 1e-10
    batched = tangency_residual(path, frames_m, frames_hat)
    assert np.max(np.abs(batched - reference)) <= 1e-14


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("where", ["R", "frames"])
def test_batched_tangency_rejects_non_finite_input(bad, where):
    path, frames_m, frames_hat = _tangency_case([1, 1, 1], 2, n_nodes=8)
    if where == "R":
        path.R[3, 0, 1] = bad
    else:
        frames_hat.frames[5, 2, 0] = bad
    with pytest.raises(ValueError, match="NaN or inf"):
        tangency_residual(path, frames_m, frames_hat)


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
    points = np.array([
        np.asarray(model.embed(model.random_point(rng)), dtype=float).ravel()
        for _ in range(40)
    ])
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
