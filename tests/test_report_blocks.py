"""The residual suite in node blocks, diffed against the whole-stack suite it replaced.

``tangency_residual`` and ``no_twist_residuals`` take their products with R(t) and
W(t) in ``_node_blocks`` of ``_BLOCK_ENTRIES`` rotation entries (128 nodes at N = 16,
404 at N = 9), the column norms row by row (``_column_norms``) and the small per-node
maxima column by column (``_node_max``).  W = Rdot R^-1 takes R^-1 = J R^T J in the
same blocks, in Rdot's place, and the report takes ``isometry`` block by block.  The
whole-stack report and triple residuals they replaced are kept here as references;
every per-node array agrees to the last bit on the benchmark models and stiefel_5_3,
at node counts on both sides of the block edges, and on the model's kept flat frames,
moving copies of them and a user's zero-stride copies, under the model's form and the
Euclidean one.  The blocks fail closed as the whole stacks did.
"""

import re
import tracemalloc

import numpy as np
import pytest

from semiroll import rolling
from semiroll.homogeneous import ControlCurve, extrinsic_roll, intrinsic_roll, model_residual_report
from semiroll.integrate import _BLOCK_ENTRIES, TimeGrid, _node_blocks, fd_derivative
from semiroll.linalg import (SignatureForm, j_orthogonality_residual, j_orthogonality_scale,
                             j_transpose_inverse)
from semiroll.models import get_model
from semiroll.rolling import (
    RollingMapPath,
    RollingTriple,
    TangentFramePath,
    no_slip_residual,
    perturb_normal_generator,
    rolling_condition_residuals,
    rolling_point_residual,
    tangency_residual,
    triple_gram_residual,
    triple_velocity_residual,
)

MODELS = ("sphere", "hyperboloid", "so_plus_1_2", "so_plus_2_2", "stiefel_3_1", "stiefel_4_2",
          "stiefel_5_3")


# -- the whole-stack suite, as it was before the node blocks -------------------


def _report_reference(path, tangent_m, tangent_mhat, normal_mhat):
    """The per-node arrays of the whole-stack ``rolling_condition_residuals``."""
    R, form = path.R, path.form
    frames_m = tangent_m.frames
    q = frames_m @ rolling._check_rank(frames_m, "tangency: F_M(t)")
    _, normals = rolling._frame_factors(path, normal_mhat, "tangency: normal development frame")
    image = R @ q
    with np.errstate(invalid="ignore", divide="ignore"):
        image /= np.linalg.norm(image, axis=1, keepdims=True)
    pairing = np.swapaxes(image, 1, 2) @ (form.signs[:, None] * normals)
    W = fd_derivative(R, path.grid.h) @ j_transpose_inverse(R, form)

    def defect(frame_path):
        projector, cols = rolling._frame_factors(path, frame_path, "development frame")
        comp = projector @ (W @ cols)
        return np.max(np.linalg.norm(comp, axis=1), axis=-1, initial=0.0)

    return {
        "rolling_point": rolling_point_residual(path),
        "tangency": np.max(np.abs(pairing), axis=(1, 2), initial=0.0),
        "no_slip": no_slip_residual(path, W),
        "no_twist_tan": defect(tangent_mhat),
        "no_twist_norm": defect(normal_mhat),
        "isometry": j_orthogonality_residual(R, form) / j_orthogonality_scale(R),
    }


def _triple_references(triple):
    """The whole-stack velocity and Gram residuals of a triple."""
    h = triple.grid.h
    mapped = np.einsum("kai,ki->ka", triple.maps, fd_derivative(triple.alpha, h))
    velocity = np.linalg.norm(fd_derivative(triple.alpha_hat, h) - mapped, axis=-1)
    frames = triple.tangent_frames
    image = triple.maps @ frames
    target = np.swapaxes(image, 1, 2) @ (triple.target_gram @ image)
    source = np.swapaxes(frames, 1, 2) @ (triple.form.signs[:, None] * frames)
    return velocity, np.max(np.abs(target - source), axis=(1, 2))


# -- paths and frames -------------------------------------------------------------


def _control(grid, p_dim, seed):
    rng = np.random.default_rng(seed)
    amp = rng.uniform(0.2, 0.6, p_dim) * rng.choice((-1.0, 1.0), p_dim)
    freq = rng.uniform(0.5, 2.0, p_dim)
    phase = rng.uniform(0.0, 2.0 * np.pi, p_dim)
    return ControlCurve(grid=grid, coords=amp * np.sin(np.multiply.outer(grid.ts, freq) + phase))


def _roll(name, n_nodes, seed=21):
    model = get_model(name)
    return model, extrinsic_roll(model, _control(TimeGrid(0.0, 1.0, n_nodes - 1), model.p_dim,
                                                 seed))


def _development_frames(model, grid, kind):
    """The flat tangent and normal frames: the model's, which carry its kept factors,
    moving copies, factored at every node, or a user's zero-stride copies, on node 0."""
    flat = (model.flat_tangent_frames(grid), model.flat_normal_frames(grid))
    if kind == "kept":
        return flat
    if kind == "moving":
        return tuple(TangentFramePath(grid.ts, np.array(f.frames)) for f in flat)
    return tuple(TangentFramePath(grid.ts, np.broadcast_to(f.frames[0], f.frames.shape))
                 for f in flat)


def _assert_same_bits(report, reference):
    assert set(report.per_node) == set(reference)
    for field, values in reference.items():
        assert report.per_node[field].shape == values.shape, field
        assert np.array_equal(report.per_node[field], values), field
        assert getattr(report, field) == float(np.max(values)), field


def _block_edges(name):
    """Node counts one short of, at and one past the first two block edges of a model."""
    size = _BLOCK_ENTRIES // get_model(name).ambient_dim ** 2
    return [size - 1, size, size + 1, 2 * size, 2 * size + 1]


# -- bit for bit against the whole stacks ----------------------------------------------


@pytest.mark.parametrize("form", ["model", "euclidean"])
@pytest.mark.parametrize("kind", ["kept", "moving", "zero_stride"])
@pytest.mark.parametrize("name", MODELS)
def test_report_keeps_the_bits_of_the_whole_stack_suite(name, kind, form):
    model, path = _roll(name, 2001)
    if form == "euclidean":
        path.form = SignatureForm(np.ones(model.ambient_dim))
    tangent_m = model.pointwise_tangent_frames(path.grid, path.alpha)
    frames = _development_frames(model, path.grid, kind)
    report = rolling_condition_residuals(path, tangent_m, *frames)
    _assert_same_bits(report, _report_reference(path, tangent_m, *frames))


@pytest.mark.parametrize("fault", ["twist", "slip"])
@pytest.mark.parametrize("name", MODELS)
def test_faulted_reports_keep_the_bits_of_the_whole_stack_suite(name, fault):
    model, path = _roll(name, 2001)
    grid = path.grid
    if fault == "twist":
        normal0 = model.normal0
        raw = np.random.default_rng(9).standard_normal((normal0.shape[1],) * 2)
        # N0 X N0^T J with X skew is J-skew, kills the tangent space and keeps the normal one
        omega = normal0 @ (0.7 * (raw - raw.T)) @ normal0.T * model.form.signs
        path = perturb_normal_generator(path, omega, model.flat_tangent_frames(grid),
                                        model.flat_normal_frames(grid))
    else:
        bump = 1e-2 * np.sin(np.pi * grid.ts) ** 2
        alpha_hat = path.alpha_hat + bump[:, None] * model.frame0[:, 0]
        path = RollingMapPath(grid=grid, R=path.R, alpha=path.alpha, alpha_hat=alpha_hat,
                              s=alpha_hat - np.einsum("kij,kj->ki", path.R, path.alpha),
                              form=path.form)
    frames = (model.pointwise_tangent_frames(grid, path.alpha),
              model.flat_tangent_frames(grid), model.flat_normal_frames(grid))
    _assert_same_bits(model_residual_report(model, path), _report_reference(path, *frames))


@pytest.mark.parametrize("kind", ["kept", "moving"])
@pytest.mark.parametrize("name, n_nodes", [(name, n) for name in ("so_plus_2_2", "so_plus_1_2")
                                           for n in _block_edges(name)])
def test_report_keeps_the_bits_at_the_block_edges(name, n_nodes, kind):
    model, path = _roll(name, n_nodes, seed=n_nodes)
    blocks = _node_blocks(n_nodes, model.ambient_dim ** 2)
    assert len(blocks) == -(-n_nodes // (_BLOCK_ENTRIES // model.ambient_dim ** 2))
    tangent_m = model.pointwise_tangent_frames(path.grid, path.alpha)
    frames = _development_frames(model, path.grid, kind)
    report = rolling_condition_residuals(path, tangent_m, *frames)
    _assert_same_bits(report, _report_reference(path, tangent_m, *frames))


def test_the_block_edges_are_those_of_a_16_by_16_rotation():
    assert _block_edges("so_plus_2_2") == [127, 128, 129, 256, 257]
    assert _block_edges("so_plus_1_2") == [403, 404, 405, 808, 809]


@pytest.mark.parametrize("n, entries", [(1, 256), (127, 256), (128, 256), (129, 256), (257, 256),
                                        (3641, 9), (7, 1), (7, 0), (7, 40000)])
def test_the_node_blocks_tile_the_nodes(n, entries):
    # full blocks of _BLOCK_ENTRIES // entries nodes, at least one, and a last one cut at n
    blocks = _node_blocks(n, entries)
    size = max(1, _BLOCK_ENTRIES // max(1, entries))
    assert np.array_equal(np.concatenate([np.arange(n)[b] for b in blocks]), np.arange(n))
    assert [b.stop - b.start for b in blocks[:-1]] == [size] * (len(blocks) - 1)
    assert 1 <= blocks[-1].stop - blocks[-1].start <= size and blocks[-1].stop == n


@pytest.mark.parametrize("n_steps", [250, 2000])
@pytest.mark.parametrize("name", MODELS)
def test_triple_residuals_keep_the_bits_of_the_whole_stacks(name, n_steps):
    model = get_model(name)
    grid = TimeGrid(0.0, 1.0, n_steps)
    triple = intrinsic_roll(model, _control(grid, model.p_dim, 22))
    # the command's intrinsic check reads the model's pointwise frames
    triple = RollingTriple(grid=grid, alpha=triple.alpha, alpha_hat=triple.alpha_hat,
                           maps=triple.maps, form=triple.form, target_gram=triple.target_gram,
                           tangent_frames=model.pointwise_tangent_frames(grid, triple.alpha).frames)
    velocity, gram = _triple_references(triple)
    assert np.array_equal(triple_velocity_residual(triple), velocity)
    assert np.array_equal(triple_gram_residual(triple), gram)


@pytest.mark.parametrize("n", [9, 127, 128, 300])
@pytest.mark.parametrize("N, r", [(N, r) for N in (3, 8, 9, 16) for r in (1, 2, 6, 12)])
def test_column_norms_keep_the_bits_of_the_norm(N, r, n):
    # a single column of eight or more rows is where the norm's reduce sums pairwise;
    # fewer than 8 N nodes take the reduce, more the row loop
    rng = np.random.default_rng(N * 100 + r)
    stack = rng.standard_normal((n, N, r)) * np.exp(3.0 * rng.standard_normal((n, N, r)))
    stack[7, 1, 0] = np.nan
    stack[8, :, 0] = 0.0
    expected = np.linalg.norm(stack, axis=1)
    assert np.array_equal(rolling._column_norms(stack), expected, equal_nan=True)


@pytest.mark.parametrize("n", [9, 200, 700])
@pytest.mark.parametrize("entries", [0, 1, 2, 15, 32, 33, 256])
def test_node_max_keeps_the_bits_of_the_reduce(entries, n):
    # either side of _COLUMNWISE_MAX and of one entry per 20 nodes; an empty node reads
    # 0.0, a NaN entry NaN
    rng = np.random.default_rng(entries)
    stack = np.abs(rng.standard_normal((n, entries, 1)))
    if entries:
        stack[3, entries - 1, 0] = np.nan
        stack[4, 0, 0] = np.nan
        stack[5] = 0.0
    expected = np.max(stack, axis=(1, 2), initial=0.0)
    got = rolling._node_max(stack)
    assert np.array_equal(got, expected, equal_nan=True)
    assert np.array_equal(np.flatnonzero(np.isnan(got)), [3, 4] if entries else [])


# -- the blocks fail closed ----------------------------------------------------------


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("node", [256, 280, 299])
def test_a_non_finite_rotation_in_the_last_block_is_refused_at_its_node(node, bad):
    model, path = _roll("so_plus_2_2", 300)
    assert _node_blocks(path.n_nodes, model.ambient_dim ** 2)[-1] == slice(256, 300)
    path.R = path.R.copy()
    path.R[node, 3, 5] = bad
    message = f"tangency: R(t) contains NaN or inf at node {node}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        model_residual_report(model, path)


@pytest.mark.parametrize("node", [0, 127, 128, 280, 299])
def test_a_column_that_the_rotation_annihilates_reads_nan_at_that_node_only(node):
    model, path = _roll("so_plus_2_2", 300)
    grid = path.grid
    # axis-aligned tangent frames: R(t) e_0 is the first column of R(t), zero at the node
    axes = np.broadcast_to(np.eye(model.ambient_dim)[:, :model.p_dim],
                           (grid.n_nodes, model.ambient_dim, model.p_dim))
    tangent_m = TangentFramePath(grid.ts, np.array(axes))
    path.R = path.R.copy()
    path.R[node, :, 0] = 0.0
    tangency = tangency_residual(path, tangent_m, model.flat_normal_frames(grid))
    assert np.array_equal(np.flatnonzero(np.isnan(tangency)), [node])
    report = rolling_condition_residuals(path, tangent_m, model.flat_tangent_frames(grid),
                                         model.flat_normal_frames(grid))
    assert np.array_equal(report.per_node["tangency"], tangency, equal_nan=True)
    assert np.isnan(report.tangency) and np.isnan(report.max_residual())
    assert not report.passed(np.inf)


@pytest.mark.parametrize("kind", ["moving", "zero_stride"])
def test_a_full_dimensional_tangent_frame_reads_zero_in_every_block(kind):
    model, path = _roll("so_plus_2_2", 300)
    grid, N = path.grid, model.ambient_dim
    full = np.broadcast_to(np.eye(N), (grid.n_nodes, N, N))
    none = np.broadcast_to(np.zeros((N, 0)), (grid.n_nodes, N, 0))
    if kind == "moving":
        full, none = np.array(full), np.array(none)
    tangency = tangency_residual(path, TangentFramePath(grid.ts, full),
                                 TangentFramePath(grid.ts, none))
    assert np.array_equal(tangency, np.zeros(grid.n_nodes))


def test_a_report_keeps_no_factors_on_a_users_frames():
    # the report factors a user's normal frame once, on a path of its own: the user's
    # path carries nothing afterwards, so a refused frame is refused on every call
    model, path = _roll("sphere", 41)
    grid = path.grid
    tangent_m = model.pointwise_tangent_frames(grid, path.alpha)
    tangent_mhat, normal_mhat = _development_frames(model, grid, "zero_stride")
    rolling_condition_residuals(path, tangent_m, tangent_mhat, normal_mhat)
    assert tangent_mhat._factors is None and normal_mhat._factors is None
    bad = TangentFramePath(grid.ts, np.broadcast_to(np.zeros((3, 1)), (grid.n_nodes, 3, 1)))
    for _ in range(3):
        with pytest.raises(ValueError, match="^tangency: normal development frame contains|"
                                             "^tangency: normal development frame is rank"):
            rolling_condition_residuals(path, tangent_m, tangent_mhat, bad)
        assert bad._factors is None


# -- the report holds one rotation stack besides R ----------------------------------


def test_the_report_holds_one_rotation_stack_besides_the_path():
    # W takes Rdot's place and every other (n, N, N) product lives in a block; the
    # whole-stack suite's peak was 3.4 stacks of R on this path
    model, path = _roll("so_plus_2_2", 2001)
    model_residual_report(model, path)
    tracemalloc.start()
    try:
        model_residual_report(model, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * path.R.nbytes, peak / path.R.nbytes
