"""The rolls, diffed against the assemblies they replaced.

``intrinsic_roll`` is the tangential part of the extrinsic rolling: its maps
are head = d_e_pi cf0 applied to the same N x N rotations that
``extrinsic_roll`` returns, and its development is head applied to the one
N-dimensional development of the roll, which along a control integrates the
control itself, R alpha' = (rho S)^-1 rho F0 U = S^-1 F0 U.  The reference kept
here builds that with rotations J (rho S)^T J and a J-inverse of S of its own,
taken by Simpson's rule from the spline at the stage times; the two agree
within 1e-13 relative on every benchmark model at 1 to 2000 steps.  A roll
assembles R, alpha and the frames in blocks of nodes after the lift; the
whole-path assembly it replaced is kept here and agrees to the bit on both
sides of every block edge.  Under the closed form no extrinsic control roll
forms the moving frames.

``extrinsic_develop`` integrates its not-a-knot cubic exactly with
``NotAKnotCubic.integral``, which equals ``integrate_vector`` of the spline
at the stage times within 1e-15 relative and reads no row table.
``_step_factors`` and ``_newton_schulz_step`` combine in place; their old
whole-array expressions are kept here and agree to the bit, and the flow
that runs them leaves its inputs, and a roll its control, as they were.
``ControlCurve`` hands a user ``func`` Python floats; a sinusoid reads the
same bits as with np.float64 arguments.
"""

import numpy as np
import pytest

from semiroll.homogeneous import (
    CartanModel,
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
    fd_derivative,
    flow_matrix_ode,
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

    head = d_e_pi cf0 applied to the N x N rotations R = J (rho S)^T J, the
    J-inverse of rho(q) S (S = I on a symmetric space), and to the
    N-dimensional development of the control S^-1 F0 U, with S^-1 = J S^T J
    built as a whole stack, which is Simpson's rule on the spline through it
    evaluated at the stage times.
    """
    lift = horizontal_lift(model, data)
    grid = lift.grid
    rhos = model.rho_path(lift.samples)
    signs = model.form.signs
    control = lift.control.coords @ model.frame0.T
    if model.symmetric_space:
        moving = rhos
    else:
        S = homogeneous._correction_path(model, lift)
        moving = rhos @ S
        control = np.einsum("kij,kj->ki", signs[:, None] * np.swapaxes(S, 1, 2) * signs, control)
    rots = signs[:, None] * np.swapaxes(moving, 1, 2) * signs
    dense = dense_from_samples(grid.ts, control)
    development = integrate_vector(dense(grid.stage_ts), grid)
    head = model.d_e_pi @ model.cf0
    return RollingTriple(
        grid=grid,
        alpha=rhos @ model.obar,
        alpha_hat=np.einsum("ai,ki->ka", head, development),
        maps=head @ rots,
        tangent_frames=model.frames_along(rhos),
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


@pytest.mark.parametrize("n_nodes", [2, 3, 4, 40, 2001])
def test_spline_integral_reads_no_row_table_and_keeps_its_bits(n_nodes):
    grid = TimeGrid(-0.3, 1.7, n_nodes - 1)
    samples = _smooth_samples(grid.ts, (2, 2))
    spline = dense_from_samples(grid.ts, samples)
    exact = spline.integral()
    assert spline._rows is None
    # the spline keeps its own samples: a later write into them changes nothing
    samples[...] = np.nan
    values = spline(grid.stage_ts)
    assert np.all(np.isfinite(values))
    # the integral as it was read off the row table, which the first call built
    h, (y0, y1, m0, m1) = spline.h, np.moveaxis(spline._rows, 1, 0)
    c = h * h / 16.0
    mid = 0.5 * y0 + 0.5 * y1 - c * m0 - c * m1
    steps = (h / 6.0) * (y0 + 4.0 * mid + y1)
    reference = np.concatenate([np.zeros((1,) + steps.shape[1:]), np.cumsum(steps, axis=0)])
    assert np.array_equal(exact, reference.reshape(exact.shape))
    assert np.array_equal(spline.integral(), exact)


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


@pytest.mark.parametrize("name", BENCHMARK_MODELS)
def test_newton_schulz_step_into_its_argument_keeps_the_bits(name):
    model = get_model(name)
    grid, L, X0 = _flow_stacks(model)
    form = model.group_form
    nodes = _running_product(reproject(_step_factors(L, grid.h, "right"), form), X0, "right")
    expected, before = _newton_schulz_reference(nodes, form), nodes.copy()
    assert np.array_equal(_newton_schulz_step(nodes, form), expected)
    assert np.array_equal(nodes, before)
    assert _newton_schulz_step(nodes, form, out=nodes) is nodes
    assert np.array_equal(nodes, expected)


# -- inputs stay untouched --------------------------------------------------------


def _frozen(array):
    """A read-only copy: a write into it raises."""
    array = np.array(array)
    array.flags.writeable = False
    return array


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("name", ["sphere", "so_plus_2_2", "stiefel_4_2"])
def test_the_flow_leaves_its_generators_and_start_value_alone(name, side):
    model = get_model(name)
    grid, L, X0 = _flow_stacks(model, 600)
    generators, start = _frozen(L), _frozen(X0)
    flow = flow_matrix_ode(generators, start, grid, side, model.group_form)
    assert np.array_equal(generators, L) and np.array_equal(start, X0)
    assert np.array_equal(flow[0], X0)


def test_reproject_never_writes_into_its_argument():
    model = get_model("so_plus_1_2")
    form = model.group_form
    rng = np.random.default_rng(4)
    on = np.array([model.random_group_element(rng) for _ in range(5)])
    off = on + 1e-7 * rng.standard_normal(on.shape)
    for X, on_group in ((on, True), (off, False), (on[0], True), (off[0], False)):
        frozen = _frozen(X)
        fixed = reproject(frozen, form)
        assert np.array_equal(frozen, X)
        # a stack that needs no Newton step comes back as itself
        assert (fixed is frozen) == on_group


@pytest.mark.parametrize("name", ["sphere", "stiefel_4_2"])
def test_rolls_leave_the_control_and_its_kept_midpoints_alone(name):
    model = get_model(name)
    ctrl = _sinusoid(TimeGrid(0.0, 1.0, 600), model.p_dim, 9)
    coords = ctrl.coords.copy()
    ctrl.coords.flags.writeable = False
    mids = ctrl.stage_coords()[1::2]
    kept = ctrl._midpoints[2]
    extrinsic_roll(model, ctrl)
    extrinsic_roll(model, ctrl, normal_strategy="frame_matching")
    intrinsic_roll(model, ctrl)
    assert np.array_equal(ctrl.coords, coords)
    assert ctrl._midpoints[2] is kept
    assert np.array_equal(kept, mids)


# -- the assembly after the lift, in node blocks ---------------------------------


def _assembly_reference(model, data):
    """The whole-path assembly: rho_path of every node, R = J (rho S)^T J (S = I on a
    symmetric space), alpha and the frames rho F0 by one einsum each, and the integrand
    of the closed form's development, the control S^-1 F0 U = J S^T J F0 U."""
    lift = horizontal_lift(model, data)
    rhos = model.rho_path(lift.samples)
    signs = model.form.signs
    control = lift.control.coords @ model.frame0.T
    if model.symmetric_space:
        moving = rhos
    else:
        S = homogeneous._correction_path(model, lift)
        moving = rhos @ S
        control = signs * np.einsum("kji,kj->ki", S, signs * control)
    # C-ordered, as the rotations are returned: einsum sums a strided stack in another order
    rots = np.ascontiguousarray(signs[:, None] * np.swapaxes(moving, 1, 2) * signs)
    return (lift.grid, rots, np.einsum("kij,j->ki", rhos, model.obar), control,
            rhos @ model.frame0)


def _block_edge_cases():
    """(model, n_steps): short grids, the benchmark's 2000 steps, and node counts on both
    sides of each model's first two block edges (blocks of ``_BLOCK_ENTRIES`` entries)."""
    for name in BENCHMARK_MODELS:
        size = max(1, homogeneous._BLOCK_ENTRIES // get_model(name).ambient_dim ** 2)
        edges = {k * size + d for k in (1, 2) for d in (-2, -1, 0)}
        for n_steps in sorted({1, 2, 255, 256, 257, 511, 512, 2000} | edges):
            yield name, n_steps


@pytest.mark.parametrize("name, n_steps", list(_block_edge_cases()))
def test_node_blocks_keep_the_bits_of_the_whole_path_assembly(name, n_steps):
    model = get_model(name)
    ctrl = _sinusoid(TimeGrid(0.0, 1.0, n_steps), model.p_dim, n_steps)
    grid, rots, alpha, control, frames = _assembly_reference(model, ctrl)
    development = dense_from_samples(grid.ts, control).integral()
    head = model.d_e_pi @ model.cf0
    triple = intrinsic_roll(model, ctrl)
    expected = {"maps": head @ rots, "alpha": alpha, "tangent_frames": frames,
                "alpha_hat": development @ head.T}
    for field, value in expected.items():
        assert np.array_equal(getattr(triple, field), value), field
    if model.symmetric_space:
        if grid.n_nodes < 5:
            with pytest.raises(ValueError, match="at least 5 nodes"):
                extrinsic_roll(model, ctrl)
            return
        development = extrinsic_develop(rots, fd_derivative(alpha, grid.h), grid)
    alpha_hat = model.obar + development
    path = extrinsic_roll(model, ctrl)
    expected = {"R": rots, "alpha": alpha, "alpha_hat": alpha_hat,
                "s": alpha_hat - np.einsum("kij,kj->ki", rots, alpha)}
    for field, value in expected.items():
        assert np.array_equal(getattr(path, field), value), field


def test_no_extrinsic_closed_form_control_roll_forms_moving_frames(monkeypatch):
    calls = []
    frames_along = CartanModel.frames_along
    for name in BENCHMARK_MODELS:
        model = get_model(name)
        # on the class, counting only this model's calls: a patch of a cached instance
        # would leave a bound method behind (tests/conftest.py)
        monkeypatch.setattr(CartanModel, "frames_along",
                            lambda self, rhos, model=model: (self is model and calls.append(1))
                            or frames_along(self, rhos))
        ctrl = _sinusoid(TimeGrid(0.0, 1.0, 300), model.p_dim, 2)
        rolls = {"extrinsic": lambda: extrinsic_roll(model, ctrl),
                 "intrinsic": lambda: intrinsic_roll(model, ctrl),
                 "frame_matching": lambda: extrinsic_roll(model, ctrl,
                                                          normal_strategy="frame_matching")}
        for kind, roll in rolls.items():
            del calls[:]
            roll()
            # the closed form develops the control, or the differenced alpha', and
            # reads no frames; the intrinsic view returns them, and frame matching
            # transports along them
            if kind == "extrinsic":
                assert calls == [], name
            else:
                assert len(calls) >= 1, (name, kind)


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
