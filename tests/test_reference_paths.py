"""Stacked verification paths diffed against per-node scipy references.

``tangency_residual`` and the models' ``tangent_frame_at`` handle all nodes
in one batched computation.  The per-node constructions they replaced are
kept here as references: scipy's ``subspace_angles`` for the tangency angle,
and ``null_space`` (or the explicit column loop) for each bundle's frames.
"""

import numpy as np
import pytest
from scipy.linalg import null_space, subspace_angles

from semiroll.integrate import TimeGrid
from semiroll.linalg import SignatureForm, random_oriented_isometry
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
