"""The rolls build only what they return, diffed against what they built before.

``intrinsic_roll`` reads its triple straight off the lift: the maps
A = head J (rho S)^T J, head = d_e_pi cf0, are the transpose of the (N, k)
product ``J rho (S (J head^T))``, and the development integrates A alpha' in
k dimensions.  Before, it was the tangential part of the whole extrinsic
rolling map along the lift: head applied to the N x N rotations of
``_rolling_path``'s exact-velocity path and to its N-dimensional
development, taken by Simpson's rule from the spline at the stage times.
That assembly is kept here as the reference, and the two agree within
1e-13 relative on every benchmark model at 1 to 2000 steps.

``extrinsic_develop`` integrates its not-a-knot cubic exactly with
``NotAKnotCubic.integral``, which equals ``integrate_vector`` of the spline
at the stage times within 1e-15 relative.  ``_step_factors`` and
``_newton_schulz_step`` combine in place; their old whole-array expressions
are kept here and agree to the bit.  ``ControlCurve`` hands a user ``func``
Python floats; a sinusoid reads the same bits as with np.float64 arguments.
"""

import numpy as np
import pytest

from semiroll.homogeneous import (
    ControlCurve,
    EmbeddedCurve,
    extrinsic_develop,
    extrinsic_roll,
    horizontal_lift,
    intrinsic_roll,
)
from semiroll.integrate import (
    TimeGrid,
    _newton_schulz_step,
    _running_product,
    _step_factors,
    dense_from_samples,
    integrate_vector,
    reproject,
)
from semiroll.models import get_model
from semiroll import homogeneous
from semiroll.rolling import RollingTriple

BENCHMARK_MODELS = ("sphere", "hyperboloid", "so_plus_1_2", "so_plus_2_2", "stiefel_3_1", "stiefel_4_2")


def _sinusoid(grid, p_dim, seed):
    """A benchmark-style control: seeded amplitudes, frequencies and phases."""
    rng = np.random.default_rng(seed)
    amp = rng.uniform(0.2, 0.6, p_dim) * rng.choice((-1.0, 1.0), p_dim)
    freq = rng.uniform(0.5, 2.0, p_dim)
    phase = rng.uniform(0.0, 2.0 * np.pi, p_dim)

    def func(t):
        return amp * np.sin(freq * t + phase)

    coords = amp * np.sin(np.multiply.outer(grid.ts, freq) + phase)
    return ControlCurve(grid=grid, coords=coords, func=func)


def _relative(new, reference):
    reference = np.asarray(reference)
    return float(np.max(np.abs(np.asarray(new) - reference))) / float(np.max(np.abs(reference)))


def _intrinsic_reference(model, data):
    """The intrinsic triple as the tangential part of the extrinsic rolling map.

    head = d_e_pi cf0 applied to the N x N rotations of the exact-velocity
    path and to its N-dimensional development, which is Simpson's rule on the
    spline through R alpha' evaluated at the stage times.
    """
    lift = horizontal_lift(model, data)
    grid = lift.grid
    path, rhos = homogeneous._rolling_path(model, lift)
    frames = model.frames_along(rhos)
    velocity = np.einsum("kia,ka->ki", frames, lift.control.coords)
    dense = dense_from_samples(grid.ts, np.einsum("kij,kj->ki", path.R, velocity))
    alpha_hat = model.obar[None, :] + integrate_vector(dense(grid.stage_ts), grid)
    head = model.d_e_pi @ model.cf0
    return RollingTriple(
        grid=grid,
        alpha=path.alpha,
        alpha_hat=np.einsum("ai,ki->ka", head, alpha_hat - model.obar),
        maps=head @ path.R,
        tangent_frames=frames,
        form=model.form,
        target_gram=model.target_gram,
    )


TRIPLE_FIELDS = ("maps", "alpha_hat", "alpha", "tangent_frames")


@pytest.mark.parametrize("n_steps", [1, 2, 3, 250, 2000])
@pytest.mark.parametrize("name", BENCHMARK_MODELS)
def test_intrinsic_triple_matches_the_tangential_part_of_the_extrinsic_map(name, n_steps):
    model = get_model(name)
    ctrl = _sinusoid(TimeGrid(0.0, 1.0, n_steps), model.p_dim, 3)
    new, reference = intrinsic_roll(model, ctrl), _intrinsic_reference(model, ctrl)
    for field in TRIPLE_FIELDS:
        assert getattr(new, field).shape == getattr(reference, field).shape, field
        assert _relative(getattr(new, field), getattr(reference, field)) <= 1e-13, field


@pytest.mark.parametrize("name", ["hyperboloid", "so_plus_2_2", "stiefel_4_2"])
def test_intrinsic_triple_of_a_sampled_curve_matches_the_reference(name):
    # a sampled curve has no lift: its triple is the tangential part of its
    # own extrinsic transport roll, on the model's pointwise frames
    model = get_model(name)
    grid = TimeGrid(0.0, 1.0, 400)
    curve = EmbeddedCurve(grid, extrinsic_roll(model, _sinusoid(grid, model.p_dim, 7)).alpha)
    new, path = intrinsic_roll(model, curve), extrinsic_roll(model, curve)
    head = model.d_e_pi @ model.cf0
    assert np.array_equal(new.maps, head @ path.R)
    assert np.array_equal(new.alpha, curve.points)
    assert np.array_equal(new.tangent_frames, model.tangent_frame_at(curve.points))
    assert _relative(new.alpha_hat, (path.alpha_hat - model.obar) @ head.T) <= 1e-13


def test_intrinsic_roll_builds_no_extrinsic_map(monkeypatch):
    model = get_model("stiefel_4_2")
    ctrl = _sinusoid(TimeGrid(0.0, 1.0, 40), model.p_dim, 3)
    calls = []
    monkeypatch.setattr(homogeneous, "_rolling_path", lambda *args, **kw: calls.append(args))
    monkeypatch.setattr(homogeneous, "j_transpose_inverse", lambda *args: calls.append(args))
    triple = intrinsic_roll(model, ctrl)
    assert not calls
    assert triple.maps.shape == (41, model.p_dim, model.ambient_dim)
    assert triple.maps.flags.c_contiguous


# -- the exact spline integral -------------------------------------------------


def _smooth_samples(ts, tail):
    """exp(sin(...)) at the nodes, one phase per trailing entry."""
    phases = np.linspace(0.1, 1.7, int(np.prod(tail, dtype=int))).reshape(tail)
    return np.exp(np.sin(np.multiply.outer(ts, 1.0 + phases) + phases))


@pytest.mark.parametrize("tail", [(), (3,), (2, 2)], ids=str)
@pytest.mark.parametrize("n_nodes", [2, 3, 4, 40, 2001])
def test_spline_integral_equals_simpson_at_the_stage_times(n_nodes, tail):
    grid = TimeGrid(-0.3, 1.7, n_nodes - 1)
    spline = dense_from_samples(grid.ts, _smooth_samples(grid.ts, tail))
    exact = spline.integral()
    assert exact.shape == (n_nodes,) + tail
    assert np.all(exact[0] == 0.0)
    assert _relative(exact, integrate_vector(spline(grid.stage_ts), grid)) <= 1e-15


@pytest.mark.parametrize("n_steps", [3, 4, 40, 2000])
def test_spline_integral_is_exact_on_cubics(n_steps):
    grid = TimeGrid(-0.5, 1.5, n_steps)
    t = grid.ts
    values = np.stack([3 * t**2 - 1.0, 4 * t**3 - 2 * t + 0.5, t**3 - t**2], axis=1)
    antiderivative = np.stack([t**3 - t, t**4 - t**2 + 0.5 * t, t**4 / 4 - t**3 / 3], axis=1)
    exact = dense_from_samples(t, values).integral()
    assert np.max(np.abs(exact - (antiderivative - antiderivative[0]))) <= 1e-13


@pytest.mark.parametrize("n_steps, degree", [(1, 1), (2, 2)])
def test_spline_integral_is_exact_on_short_grids_to_their_degree(n_steps, degree):
    grid = TimeGrid(0.2, 1.1, n_steps)
    coeffs = np.array([0.7, -1.3, 2.1])[:degree + 1]
    values = np.polynomial.polynomial.polyval(grid.ts, coeffs)
    anti = np.polynomial.polynomial.polyval(grid.ts, np.polynomial.polynomial.polyint(coeffs))
    exact = dense_from_samples(grid.ts, values).integral()
    assert np.max(np.abs(exact - (anti - anti[0]))) <= 1e-15


@pytest.mark.parametrize("name", ["so_plus_2_2", "stiefel_4_2"])
def test_extrinsic_develop_takes_rectangular_maps(name):
    model = get_model(name)
    grid = TimeGrid(0.0, 1.0, 250)
    path = extrinsic_roll(model, _sinusoid(grid, model.p_dim, 5))
    rng = np.random.default_rng(0)
    velocity = rng.standard_normal((grid.n_nodes, model.ambient_dim))
    head = model.d_e_pi @ model.cf0
    square = extrinsic_develop(path.R, velocity, grid)
    rectangular = extrinsic_develop(head @ path.R, velocity, grid)
    assert square.shape == (grid.n_nodes, model.ambient_dim)
    assert rectangular.shape == (grid.n_nodes, model.p_dim)
    assert _relative(rectangular, square @ head.T) <= 1e-13


# -- in-place flow helpers, bit for bit ----------------------------------------


def _step_factors_reference(L, h, side):
    """The RK4 step factors as whole-array expressions with an explicit identity."""
    L0, Lh, L1 = L[:-1:2], L[1::2], L[2::2]
    eye = np.eye(L.shape[-1], dtype=L.dtype)
    if side == "left":
        K2 = Lh @ (eye + (0.5 * h) * L0)
        K3 = Lh @ (eye + (0.5 * h) * K2)
        K4 = L1 @ (eye + h * K3)
    else:
        K2 = (eye + (0.5 * h) * L0) @ Lh
        K3 = (eye + (0.5 * h) * K2) @ Lh
        K4 = (eye + h * K3) @ L1
    return eye + (h / 6.0) * (L0 + 2.0 * K2 + 2.0 * K3 + K4)


def _newton_schulz_reference(X, form):
    """X (3I - J X^T J X)/2 with the adjoint scaled row- then column-wise."""
    signs = form.signs
    adjoint = signs[:, None] * np.swapaxes(X, -1, -2) * signs
    return 1.5 * X - 0.5 * (X @ (adjoint @ X))


def _flow_stacks(model, n_steps=250):
    """(grid, generators, start value) of a control lift."""
    grid = TimeGrid(0.0, 1.0, n_steps)
    L = model.p_element(_sinusoid(grid, model.p_dim, 11).stage_coords())
    return grid, L, model.random_group_element(np.random.default_rng(n_steps))


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("name", BENCHMARK_MODELS)
def test_step_factors_keep_the_bits_of_the_whole_array_expression(name, side):
    grid, L, _ = _flow_stacks(get_model(name))
    assert np.array_equal(_step_factors(L, grid.h, side), _step_factors_reference(L, grid.h, side))
    # a generator stack that is not C-ordered takes the same scaling
    L = np.swapaxes(L, -1, -2)
    assert np.array_equal(_step_factors(L, grid.h, side), _step_factors_reference(L, grid.h, side))


@pytest.mark.parametrize("name", BENCHMARK_MODELS)
def test_newton_schulz_step_keeps_the_bits_of_the_whole_array_expression(name):
    model = get_model(name)
    grid, L, X0 = _flow_stacks(model)
    form = model.group_form
    nodes = _running_product(reproject(_step_factors(L, grid.h, "right"), form), X0, "right")
    assert np.array_equal(_newton_schulz_step(nodes, form), _newton_schulz_reference(nodes, form))


# -- controls read at Python floats ---------------------------------------------


def test_control_func_receives_python_floats():
    grid = TimeGrid(0.0, 1.0, 8)
    seen = []

    def func(t):
        seen.append(type(t))
        return np.array([np.sin(t), t])

    ctrl = ControlCurve.from_function(grid, func)
    ctrl.stage_coords()
    ctrl.at(np.array([0.25, 0.5]))
    assert len(seen) == grid.n_nodes + grid.n_steps + 2
    assert set(seen) == {float}


@pytest.mark.parametrize("n_steps", [1, 17, 2000])
def test_sinusoid_table_keeps_the_bits_of_float64_readings(n_steps):
    grid = TimeGrid(0.0, 1.3, n_steps)
    ctrl = _sinusoid(grid, 5, n_steps)
    mids = grid.stage_ts[1::2]
    assert np.array_equal(ctrl.at(mids), np.array([ctrl.func(t) for t in mids]))
    built = ControlCurve.from_function(grid, ctrl.func)
    assert np.array_equal(built.coords, np.array([np.atleast_1d(ctrl.func(t)) for t in grid.ts]))
    assert isinstance(mids[0], np.float64)


# -- control shapes -------------------------------------------------------------


@pytest.mark.parametrize("coords", [np.zeros(9), np.zeros((8, 2)), np.zeros((9, 2, 1))],
                         ids=["one_d", "rows", "three_d"])
def test_control_coords_of_the_wrong_shape_name_both_shapes(coords):
    grid = TimeGrid(0.0, 1.0, 8)
    with pytest.raises(ValueError) as refused:
        ControlCurve(grid, coords=coords)
    message = str(refused.value)
    assert "(n_nodes, dim) = (9, dim)" in message
    assert f"got {coords.shape}" in message
