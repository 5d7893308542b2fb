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
The flow's checks, and the frame gates of ``rolling``, read whole-stack
maxima and build per-node values only to name a failing node, and the scan
writes the path it returns; the padded scan, the per-node checks and a flow
built from them are kept here, and agree to the bit, or refuse with the same
node, t and value.
``ControlCurve`` hands a user ``func`` Python floats; a sinusoid reads the
same bits as with np.float64 arguments.
"""

import functools
import math

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
    REPROJECT_MAX_ITER,
    REPROJECT_TOL,
    TimeGrid,
    _newton_schulz_step,
    _newton_step,
    _running_product,
    _step_factors,
    dense_from_samples,
    fd_derivative,
    flow_matrix_ode,
    integrate_vector,
    reproject,
    reproject_info,
)
from semiroll.linalg import (
    SignatureForm,
    _j_gram_defect,
    expm,
    j_orthogonality_residual,
    j_orthogonality_scale,
)
from semiroll.models import get_model
from semiroll import homogeneous, integrate, rolling
from semiroll.rolling import RollingTriple

from boosted import boosted_start

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


# -- checks that decide on the worst node ----------------------------------------


def _reproject_info_reference(X, form, max_iter=REPROJECT_MAX_ITER):
    """``reproject_info`` with the worst residual read off the per-node residuals."""
    residual = np.max(j_orthogonality_residual(X, form), initial=0.0)
    for it in range(max_iter):
        if residual <= REPROJECT_TOL:
            return X, it, residual
        X = _newton_step(X, form)
        residual = np.max(j_orthogonality_residual(X, form), initial=0.0)
    if residual <= REPROJECT_TOL:
        return X, max_iter, residual
    raise ValueError(f"reprojection did not converge in {max_iter} iterations "
                     f"(residual {residual:.3e})")


def _scan_reference(factors, X0, side):
    """Nodes 1..n of the blocked scan, sliced from a padded stack of every block's nodes."""
    n, d = factors.shape[0], factors.shape[-1]
    b = math.isqrt(n - 1) + 1
    m = -(-n // b)
    blocks = np.empty((m * b, d, d), dtype=factors.dtype)
    blocks[:n] = factors
    blocks[n:] = np.eye(d)
    blocks = blocks.reshape(m, b, d, d)
    carry = np.empty((m, d, d), dtype=factors.dtype)
    carry[0] = X0
    if side == "right":
        for j in range(1, b):
            blocks[:, j] = blocks[:, j - 1] @ blocks[:, j]
        for i in range(1, m):
            carry[i] = carry[i - 1] @ blocks[i - 1, -1]
        nodes = carry[:, None] @ blocks
    else:
        for j in range(1, b):
            blocks[:, j] = blocks[:, j] @ blocks[:, j - 1]
        for i in range(1, m):
            carry[i] = blocks[i - 1, -1] @ carry[i - 1]
        nodes = blocks @ carry[:, None]
    return nodes.reshape(m * b, d, d)[:n]


def _node_check_reference(nodes, grid, form):
    """The node check on every node's residual: absolute, then relative to the node's scale.

    The residuals are ``j_orthogonality_residual``'s whole-array expression, which reads
    NaN on an overflowed node where that function refuses a non-finite stack."""
    gram = np.swapaxes(nodes, 1, 2) @ (form.signs[:, None] * nodes) - np.diag(form.signs)
    residual = np.max(np.abs(gram), axis=(1, 2))
    if not np.max(residual) <= REPROJECT_TOL:
        residual = residual / j_orthogonality_scale(nodes)
    worst = int(np.argmax(residual))
    if not residual[worst] <= REPROJECT_TOL:
        raise ValueError(
            f"flow left the group at node {worst + 1} (t={grid.ts[worst + 1]:.6g}, "
            f"residual {residual[worst]:.3e})"
        )


def _flow_reference(L, X0, grid, side, form):
    """The group flow with the padded scan copied into the path and the per-node checks."""
    factors = _reproject_info_reference(_step_factors(L, grid.h, side), form)[0]
    out = np.empty((grid.n_nodes,) + X0.shape)
    out[0] = X0
    out[1:] = _scan_reference(factors, X0, side)
    _newton_schulz_step(out[1:], form, out=out[1:])
    _node_check_reference(out[1:], grid, form)
    return out


FLOW_STEPS = 2000


def _captured_transport(model, ctrl):
    """The generators, start value and form of a frame-matching roll's transport flow."""
    seen = []

    def record(generators, X0, grid, side, reproject_form):
        seen.append((np.array(generators), np.array(X0), reproject_form))
        return flow(generators, X0, grid, side, reproject_form)

    flow, rolling.flow_matrix_ode = rolling.flow_matrix_ode, record
    try:
        extrinsic_roll(model, ctrl, normal_strategy="frame_matching")
    finally:
        rolling.flow_matrix_ode = flow
    (case,) = seen
    return case


@functools.lru_cache(maxsize=None)
def _flow_case(case):
    """(generators at FLOW_STEPS steps on [0, 1], start value, form) of a roll's flows:
    a model's lift, stiefel_4_2's correction, and a frame-matching transport."""
    kind, name = case.split(".")
    model = get_model(name)
    ctrl = _sinusoid(TimeGrid(0.0, 1.0, FLOW_STEPS), model.p_dim, 11)
    if kind == "lift":
        return (model.p_element(ctrl.stage_coords()),
                model.random_group_element(np.random.default_rng(5)), model.group_form)
    if kind == "correction":
        omegas = np.tensordot(ctrl.stage_coords(), model.omega_basis, axes=(-1, 0))
        return omegas, np.eye(model.ambient_dim), model.form
    return _captured_transport(model, ctrl)


FLOW_CASES = [f"lift.{name}" for name in BENCHMARK_MODELS] + [
    "correction.stiefel_4_2", "transport.sphere"]


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("n_steps", [1, 2, 3, 8, 255, 256, 257, FLOW_STEPS])
@pytest.mark.parametrize("case", FLOW_CASES)
def test_the_flow_keeps_the_bits_of_the_padded_scan_and_the_per_node_check(case, n_steps, side):
    # the first n_steps of each stack at its own step: the scan's last block is whole at
    # 1, 2 and 256 steps and partial at the others
    generators, X0, form = _flow_case(case)
    grid = TimeGrid(0.0, n_steps / FLOW_STEPS, n_steps)
    L = generators[:2 * n_steps + 1]
    flow = flow_matrix_ode(L, X0, grid, side, form)
    assert np.array_equal(flow, _flow_reference(L, X0, grid, side, form))


def test_reproject_info_keeps_its_triple_at_every_iteration_count():
    model = get_model("so_plus_1_2")
    form = model.group_form
    grid, L, _ = _flow_stacks(model, 2000)
    on = reproject(_step_factors(L, grid.h, "left"), form)
    rng = np.random.default_rng(8)
    iterations = set()
    for stack in (on, on[7], on + 1e-9 * rng.standard_normal(on.shape),
                  on[7] + 1e-9 * rng.standard_normal(on[7].shape),
                  on + 1e-3 * rng.standard_normal(on.shape)):
        fixed, iters, residual = reproject_info(stack, form)
        expected = _reproject_info_reference(stack, form)
        assert np.array_equal(fixed, expected[0])
        assert (iters, residual) == expected[1:]
        assert type(residual) is type(expected[2])
        iterations.add(min(iters, 2))
    assert iterations == {0, 1, 2}


# the fail-closed side: a gate that reads a whole-stack maximum builds per-node
# values only after it fails, and names the same node, t and value as before


@pytest.mark.parametrize("a, b", [(5.0, 3.5), (6.0, 4.0)])
def test_a_boosted_start_value_passes_the_relative_rule_with_the_same_path(a, b):
    model = get_model("so_plus_2_2")
    grid, L, _ = _flow_stacks(model, 400)
    form = model.group_form
    path = flow_matrix_ode(L, boosted_start(a, b), grid, "right", form)
    # off the group by more than REPROJECT_TOL in absolute terms: the per-node path ran
    assert np.max(_j_gram_defect(path[1:], form.signs)) > REPROJECT_TOL
    assert np.array_equal(path, _flow_reference(L, boosted_start(a, b), grid, "right", form))


def _refusal(call):
    with pytest.raises(ValueError) as refused:
        call()
    return str(refused.value)


def _boost(form, size):
    """A J-orthogonal matrix of largest entry ``size``: a boost between the form's first
    plus and first minus direction."""
    X = np.zeros((form.dim, form.dim))
    i, j = form.pos_indices[0], form.neg_indices[0]
    X[i, j] = X[j, i] = np.arccosh(size)
    return expm(X)


@pytest.mark.parametrize("node", [1, 700, 1990])
@pytest.mark.parametrize("scale", [1.0, 1e3])
def test_a_node_off_the_group_is_refused_by_name(node, scale, monkeypatch):
    # one node bent off the group after the node step; at scale 1e3 the relative rule judges
    model = get_model("so_plus_1_2")
    form = model.group_form
    grid, L, _ = _flow_stacks(model, 2000)
    X0 = _boost(form, scale)
    step, seen = integrate._newton_schulz_step, []
    bend = np.random.default_rng(node).standard_normal((form.dim, form.dim))

    def bent(X, form, out=None):
        out = step(X, form, out=out)
        # X (I + e S) is off by about e |S| absolute, judged against the node's max|X|^2
        out[node - 1] += 1e-9 * scale ** 2 * out[node - 1] @ (bend + bend.T)
        seen.append(out.copy())
        return out

    monkeypatch.setattr(integrate, "_newton_schulz_step", bent)
    message = _refusal(lambda: flow_matrix_ode(L, X0, grid, "right", form))
    assert f"at node {node} " in message
    assert message == _refusal(lambda: _node_check_reference(seen[0], grid, form))


@pytest.mark.parametrize("rate", [200.0, 300.0])
def test_a_path_that_overflows_after_the_scan_is_refused(rate):
    # finite factors whose running product is finite: the Gram of the check (rate 200)
    # or the node step (rate 300) overflows, and the path is refused, not returned
    form = SignatureForm([1.0, -1.0])
    grid = TimeGrid(0.0, 1.0, 2000)
    L = np.broadcast_to(rate * np.array([[0.0, 1.0], [1.0, 0.0]]), (2 * grid.n_steps + 1, 2, 2))
    with np.errstate(all="ignore"):
        factors = reproject(_step_factors(L, grid.h, "left"), form)
        assert np.all(np.isfinite(_running_product(factors, np.eye(2), "left")))
        message = _refusal(lambda: flow_matrix_ode(L, np.eye(2), grid, "left", form))
        assert message == _refusal(lambda: _flow_reference(L, np.eye(2), grid, "left", form))
    assert message.startswith("flow left the group at node ")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("rate, node, t", [(200.0, 1315, "0.6575"), (300.0, 875, "0.4375"),
                                           (1000.0, 263, "0.1315")])
def test_an_overflowing_flow_is_refused_at_its_node_with_warnings_as_errors(rate, node, t):
    # no errstate here: the flow's own overflow, under the suite's warning filter,
    # must end in its node check, not in numpy's RuntimeWarning
    form = SignatureForm([1.0, -1.0])
    grid = TimeGrid(0.0, 1.0, 2000)
    L = np.broadcast_to(rate * np.array([[0.0, 1.0], [1.0, 0.0]]), (2 * grid.n_steps + 1, 2, 2))
    with pytest.raises(ValueError, match=rf"^flow left the group at node {node} \(t={t}, "):
        flow_matrix_ode(L, np.eye(2), grid, "left", form)


def test_a_stack_that_fails_to_polish_at_one_matrix_is_refused_with_its_residual():
    model = get_model("so_plus_1_2")
    form = model.group_form
    grid, L, _ = _flow_stacks(model, 300)
    stack = reproject(_step_factors(L, grid.h, "right"), form)
    stack[150] += 1e-3 * np.random.default_rng(2).standard_normal(stack[150].shape)
    message = _refusal(lambda: reproject_info(stack, form, max_iter=1))
    assert message == _refusal(lambda: _reproject_info_reference(stack, form, max_iter=1))


def _refuse_non_finite_reference(stack, what):
    finite = np.all(np.isfinite(stack), axis=(1, 2))
    if not np.all(finite):
        raise ValueError(f"{what} contains NaN or inf at node {int(np.argmin(finite))}")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_non_finite_node_is_refused_by_name(bad):
    stack = np.tile(np.eye(3), (40, 1, 1))
    stack[17, 2, 1] = bad
    stack[31, 0, 0] = np.nan
    message = _refusal(lambda: rolling._refuse_non_finite(stack, "R(t)"))
    assert message == "R(t) contains NaN or inf at node 17"
    assert message == _refusal(lambda: _refuse_non_finite_reference(stack, "R(t)"))
    rolling._refuse_non_finite(stack[:17], "R(t)")


def _singular_gram_reference(frames, form, what):
    """The per-node Gram gate of ``_span_factors``: 1 / min |eigenvalue| of every node."""
    q = frames @ rolling._check_rank(frames, what)
    gram_q = np.swapaxes(q, 1, 2) @ (form.signs[:, None] * q)
    with np.errstate(divide="ignore"):
        conds = 1.0 / np.min(np.abs(np.linalg.eigvalsh(gram_q)), axis=-1, initial=np.inf)
    bad = np.flatnonzero(~(conds <= rolling.FRAME_COND_MAX))
    if bad.size:
        k = int(bad[0])
        raise ValueError(f"{what} Gram matrix is singular under the ambient form at node {k} "
                         f"(condition number {conds[k]:.1e})")


@pytest.mark.parametrize("first, lift", [(6, 1e-8), (6, 0.0), (29, 1e-8)])
def test_a_frame_null_under_the_form_is_refused_by_name(first, lift):
    # spacelike frames of the Minkowski form, one node nearly (or exactly) lightlike
    # and a later one exactly lightlike: the first is named, with its own value
    form = SignatureForm([1.0, 1.0, -1.0])
    angle = np.linspace(0.0, 2.0, 40)
    frames = np.stack([np.cos(angle), np.sin(angle), 0.5 * np.ones(40)], axis=1)[:, :, None]
    frames[first, :, 0] = [1.0, 0.0, 1.0 - lift]
    frames[35, :, 0] = [0.0, 1.0, 1.0]
    message = _refusal(lambda: rolling._span_factors(frames, form, "frame"))
    assert f"at node {first} " in message
    assert message == _refusal(lambda: _singular_gram_reference(frames, form, "frame"))
    assert rolling._span_factors(frames[:first], form, "frame").shape == (first, 3, 3)


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
        size = max(1, integrate._BLOCK_ENTRIES // get_model(name).ambient_dim ** 2)
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
