"""Grid, quadrature, and flow integrator behaviour on cases with exact answers."""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from semiroll.integrate import (
    REPROJECT_TOL,
    TimeGrid,
    dense_from_samples,
    fd_derivative,
    flow_matrix_ode,
    integrate_vector,
    reproject,
    reproject_info,
)
from semiroll.linalg import SignatureForm, j_orthogonality_residual, random_oriented_isometry


def test_time_grid_fields():
    grid = TimeGrid(0.0, 2.0, 8)
    assert grid.ts.shape == (9,)
    assert grid.h == pytest.approx(0.25)
    assert grid.ts[0] == 0.0 and grid.ts[-1] == 2.0


def test_time_grid_rejects_bad_interval():
    with pytest.raises(ValueError):
        TimeGrid(1.0, 1.0, 10)
    with pytest.raises(ValueError):
        TimeGrid(0.0, 1.0, 0)


@pytest.mark.parametrize("n_steps", [True, False])
def test_time_grid_refuses_a_boolean_step_count(n_steps):
    with pytest.raises(TypeError, match=f"n_steps must be an integer, got {n_steps}"):
        TimeGrid(0.0, 1.0, n_steps)


@pytest.mark.parametrize("t0, t1", [(0.0, np.inf), (-np.inf, 1.0), (np.nan, 1.0), (0.0, np.nan)])
def test_time_grid_rejects_non_finite_ends(t0, t1):
    with pytest.raises(ValueError, match="grid ends must be finite"):
        TimeGrid(t0, t1, 10)


def test_constant_generator_flow_matches_exponential():
    rng = np.random.default_rng(0)
    U = rng.standard_normal((4, 4))
    U = U - U.T
    grid = TimeGrid(0.0, 1.5, 600)
    Us = np.broadcast_to(U, (grid.stage_ts.size, 4, 4))
    left = flow_matrix_ode(Us, np.eye(4), grid, "left", SignatureForm.from_pq(4, 0))
    right = flow_matrix_ode(Us, np.eye(4), grid, "right", SignatureForm.from_pq(4, 0))
    for k in (0, 150, 600):
        E = expm(grid.ts[k] * U)
        assert np.max(np.abs(left[k] - E)) <= 1e-9
        assert np.max(np.abs(right[k] - E)) <= 1e-9


def test_left_and_right_flows_are_transposes_for_skew_generator():
    # d/dt X = U(t) X  and  d/dt Y = -Y U(t)  give Y = X^{-1}; for a
    # time-dependent generator the two sides genuinely differ from expm.
    rng = np.random.default_rng(3)
    A = rng.standard_normal((3, 3))
    B = rng.standard_normal((3, 3))

    def gen(t):
        M = np.cos(t) * A + np.sin(3 * t) * B
        return M - M.T

    grid = TimeGrid(0.0, 2.0, 800)
    gens = np.array([gen(t) for t in grid.stage_ts])
    X = flow_matrix_ode(gens, np.eye(3), grid, "left", SignatureForm.from_pq(3, 0))
    Y = flow_matrix_ode(-gens, np.eye(3), grid, "right", SignatureForm.from_pq(3, 0))
    resid = max(np.max(np.abs(Y[k] @ X[k] - np.eye(3))) for k in range(0, 801, 100))
    assert resid <= 1e-9


def test_flow_is_fourth_order():
    rng = np.random.default_rng(1)
    A = rng.standard_normal((3, 3))
    B = rng.standard_normal((3, 3))

    def gen(t):
        M = np.sin(t) * A + np.cos(2 * t) * B
        return M - M.T

    def flow(grid):
        return flow_matrix_ode(np.array([gen(t) for t in grid.stage_ts]), np.eye(3), grid,
                               "left", SignatureForm.from_pq(3, 0))

    errs = []
    for n in (50, 100, 200):
        grid = TimeGrid(0.0, 1.0, n)
        X = flow(grid)
        fine = flow(TimeGrid(0.0, 1.0, 3200))
        errs.append(np.max(np.abs(X[-1] - fine[-1])))
    assert errs[0] / errs[1] >= 12.0
    assert errs[1] / errs[2] >= 12.0


def test_flow_reprojection_keeps_group_residual_flat():
    form = SignatureForm(np.array([1.0, 1.0, -1.0]))
    J = np.diag(form.signs)
    rng = np.random.default_rng(7)
    M = rng.standard_normal((3, 3))
    U = M - J @ M.T @ J  # J-skew, so the flow stays in the isometry group

    grid = TimeGrid(0.0, 4.0, 2000)
    X = flow_matrix_ode(np.broadcast_to(U, (grid.stage_ts.size, 3, 3)), np.eye(3), grid,
                        "left", form)
    worst = max(j_orthogonality_residual(X[k], form) for k in range(0, 2001, 200))
    assert worst <= 1e-12


def _j_skew(form, rng, scale):
    """A random J-skew matrix of spectral norm ``scale``."""
    K = rng.standard_normal((form.dim, form.dim))
    L = form.signs[:, None] * (K - K.T)
    return scale * L / np.linalg.norm(L, 2)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(3, 0), (1, 2), (2, 2), (4, 0)]), st.integers(1, 300),
       st.floats(0.0, 2.0), st.sampled_from(["left", "right"]), st.integers(0, 2**31 - 1))
def test_group_flows_stay_on_the_group_and_match_the_exponential(pq, n_steps, scale, side, seed):
    form = SignatureForm.from_pq(*pq)
    rng = np.random.default_rng(seed)
    grid = TimeGrid(0.0, 1.0, n_steps)
    A, B = _j_skew(form, rng, scale), _j_skew(form, rng, scale)
    t = grid.stage_ts[:, None, None]
    varying = flow_matrix_ode(np.cos(3.0 * t) * A + np.sin(t) * B, np.eye(form.dim), grid,
                              side=side, reproject_form=form)
    assert np.max(j_orthogonality_residual(varying, form)) <= REPROJECT_TOL

    X = flow_matrix_ode(np.broadcast_to(A, t.shape[:1] + A.shape), np.eye(form.dim), grid,
                        side=side, reproject_form=form)
    assert np.max(j_orthogonality_residual(X, form)) <= REPROJECT_TOL
    exact = np.array([expm(tk * A) for tk in grid.ts])
    # RK4's local error on a constant generator is the exponential's Taylor
    # tail past degree 4, at most a^5/5! e^a with a = h |A|; the flow grows
    # it by at most e^(t |A|) up to t = 1
    a = grid.h * scale
    truncation = n_steps * a**5 / 120.0 * np.exp(a) * np.exp(scale)
    assert np.max(np.abs(X - exact)) <= truncation + 1e-12


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("where", ["generator", "start"])
def test_flow_rejects_non_finite_input(side, where, dtype):
    # a complex input is refused as complex before its values are read: a
    # float cast would drop a NaN in its imaginary part
    grid = TimeGrid(0.0, 1.0, 10)
    gens = np.zeros((grid.stage_ts.size, 3, 3), dtype=dtype)
    X0 = np.eye(3, dtype=dtype)
    if where == "generator":
        # one stage time, a step midpoint; a complex one in its imaginary part
        gens[7, 0, 1] = np.nan if dtype is float else complex(0.0, np.nan)
    else:
        X0[1, 2] = np.inf
    message = "NaN or inf" if dtype is float else "must be real, got a complex array"
    with pytest.raises(ValueError, match=message):
        flow_matrix_ode(gens, X0, grid, side, SignatureForm.from_pq(3, 0))


@pytest.mark.parametrize("call, name", [
    (lambda X, form, grid: flow_matrix_ode(np.zeros((grid.stage_ts.size, 2, 2)), X, grid,
                                           "left", form), "flow start value"),
    (lambda X, form, grid: flow_matrix_ode(np.broadcast_to(0.0 * X, (grid.stage_ts.size, 2, 2)),
                                           np.eye(2), grid, "left", form), "flow generators"),
    (lambda X, form, grid: reproject(X, form), "reproject input"),
    (lambda X, form, grid: reproject_info(X, form), "reproject input"),
], ids=["flow_start", "flow_generators", "reproject", "reproject_info"])
def test_complex_input_is_refused_not_cast(call, name):
    # a float cast would keep the real part of a J-unitary matrix and drop the
    # rest with only a ComplexWarning; a complex group enters as its real form
    X = np.diag(np.exp([0.3j, -0.3j]))
    with pytest.raises(ValueError, match=f"^{name} must be real, got a complex array"):
        call(X, SignatureForm([1.0, -1.0]), TimeGrid(0.0, 1.0, 4))


def test_flow_refuses_a_singular_step_factor():
    # with L = 0 at a step's first two stages and -6/h at its end, the
    # step's RK4 factor I + h/6 L(t1) is singular, and so is its polish
    grid = TimeGrid(0.0, 1.0, 4)
    gens = np.zeros((grid.stage_ts.size, 3, 3))
    gens[4] = np.diag([-6.0 / grid.h, 0.0, 0.0])
    with pytest.raises(ValueError, match="singular"):
        flow_matrix_ode(gens, np.eye(3), grid, "left", SignatureForm.from_pq(3, 0))


def test_flow_names_the_node_that_leaves_the_group():
    # a start value off the group carries its defect into every node, and
    # one Newton step cannot remove a defect of 10%
    grid = TimeGrid(0.0, 1.0, 5)
    gens = np.zeros((grid.stage_ts.size, 3, 3))
    with pytest.raises(ValueError, match="node 1 "):
        flow_matrix_ode(gens, 1.1 * np.eye(3), grid, "left", SignatureForm.from_pq(3, 0))


def test_flow_node_check_is_relative_to_the_size_of_the_node():
    # a boost with entries near 800 is J-orthogonal to the rounding of its
    # entries, eps 800^2, far above an absolute 1e-12; a node is measured
    # against max(1, max|X_ij|^2), so it flows, and a 10% defect is still refused
    form = SignatureForm([1.0, -1.0, 1.0])
    a = np.arccosh(800.0)
    boost = np.array([[np.cosh(a), np.sinh(a), 0.0], [np.sinh(a), np.cosh(a), 0.0],
                      [0.0, 0.0, 1.0]])
    assert j_orthogonality_residual(boost, form) > REPROJECT_TOL
    grid = TimeGrid(0.0, 1.0, 5)
    gens = np.zeros((grid.stage_ts.size, 3, 3))
    path = flow_matrix_ode(gens, boost, grid, "left", form)
    assert np.max(np.abs(path - boost)) <= 1e-9 * 800.0
    with pytest.raises(ValueError, match="node 1 "):
        flow_matrix_ode(gens, 1.1 * boost, grid, "left", form)


def test_stacked_reproject_matches_per_matrix_calls():
    form = SignatureForm.from_pq(2, 2)
    rng = np.random.default_rng(4)
    stack = np.array([random_oriented_isometry(form, rng) + 1e-6 * rng.standard_normal((4, 4))
                      for _ in range(6)])
    fixed, iters, res = reproject_info(stack, form)
    assert fixed.shape == stack.shape and res <= REPROJECT_TOL
    assert np.all(j_orthogonality_residual(fixed, form) <= REPROJECT_TOL)
    for X, Y in zip(stack, fixed):
        assert np.max(np.abs(reproject(X, form) - Y)) <= 1e-14
    # one singular matrix anywhere in the stack is refused
    stack[3] = np.diag([1.0, 1.0, 0.0, 1.0])
    with pytest.raises(ValueError, match="singular"):
        reproject(stack, form)


def test_integrate_vector_is_exact_on_cubics():
    # composite Simpson at the trapezoid nodes reproduces cubic primitives
    grid = TimeGrid(0.0, 2.0, 64)
    t = grid.stage_ts
    vals = integrate_vector(np.stack([3 * t**2, 4 * t**3 - 1], axis=1), grid)
    ts = grid.ts
    exact = np.stack([ts**3, ts**4 - ts], axis=1)
    assert np.max(np.abs(vals - exact)) <= 1e-12


def test_integrate_vector_convergence_rate():
    errs = []
    for n in (40, 80):
        grid = TimeGrid(0.0, np.pi, n)
        vals = integrate_vector(np.sin(grid.stage_ts)[:, None], grid)
        errs.append(abs(vals[-1, 0] - (1 - np.cos(np.pi))))
    assert errs[0] / errs[1] >= 12.0


def test_fd_derivative_exact_on_cubics():
    ts = np.linspace(0.0, 1.0, 21)
    h = ts[1] - ts[0]
    samples = np.stack([ts**3, 2 * ts**2 - ts], axis=1)
    d = fd_derivative(samples, h)
    exact = np.stack([3 * ts**2, 4 * ts - 1], axis=1)
    assert np.max(np.abs(d - exact)) <= 1e-10


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_fd_derivative_refuses_fewer_than_five_samples(m):
    with pytest.raises(ValueError, match=f"need at least 5 nodes .*, got {m}; refine n_steps"):
        fd_derivative(np.linspace(0.0, 1.0, m) ** 3, 0.25)
    # five samples carry the stencils, exact on a cubic
    ts = np.linspace(0.0, 1.0, 5)
    assert np.max(np.abs(fd_derivative(ts**3, 0.25) - 3 * ts**2)) <= 1e-13


def test_fd_derivative_fourth_order_interior():
    errs = []
    for n in (40, 80):
        ts = np.linspace(0.0, 1.0, n + 1)
        h = ts[1] - ts[0]
        d = fd_derivative(np.exp(np.sin(3 * ts))[:, None], h)
        exact = 3 * np.cos(3 * ts) * np.exp(np.sin(3 * ts))
        errs.append(np.max(np.abs(d[2:-2, 0] - exact[2:-2])))
    assert errs[0] / errs[1] >= 12.0


def test_dense_from_samples_handles_complex_values():
    ts = np.linspace(0.0, 1.0, 33)
    samples = np.exp(1j * 2 * np.pi * ts)[:, None]
    f = dense_from_samples(ts, samples)
    probe = np.array([0.123, 0.5, 0.877])
    out = np.array([f(t)[0] for t in probe])
    assert np.max(np.abs(out - np.exp(1j * 2 * np.pi * probe))) <= 1e-6


def test_reproject_restores_group_membership():
    form = SignatureForm.from_pq(2, 2)
    rng = np.random.default_rng(2)
    from semiroll.linalg import random_oriented_isometry

    R = random_oriented_isometry(form, rng)
    noisy = R + 1e-4 * rng.standard_normal((4, 4))
    fixed, iters, res = reproject_info(noisy, form)
    assert j_orthogonality_residual(fixed, form) <= 1e-12
    assert res <= 1e-12
    assert iters <= 6
    assert np.max(np.abs(fixed - R)) <= 1e-3
    assert np.allclose(reproject(noisy, form), fixed)


def test_reproject_refuses_far_from_group():
    form = SignatureForm.from_pq(3, 0)
    with pytest.raises(ValueError):
        reproject(np.diag([1.0, 1.0, 0.0]), form)


_GRID4 = TimeGrid(0.0, 1.0, 4)
_EUCLID2 = SignatureForm.from_pq(2, 0)


@pytest.mark.parametrize("call, message", [
    (lambda: reproject_info(2.0 * np.eye(2), _EUCLID2, max_iter=1),
     "reprojection did not converge in 1 iterations (residual 5.625e-01)"),
    (lambda: reproject_info(np.eye(3), _EUCLID2), "matrix shape does not match the form"),
    (lambda: flow_matrix_ode(np.zeros((8, 2, 2)), np.eye(2), _GRID4, "left", _EUCLID2),
     "need 9 samples at the grid's stage times, got shape (8, 2, 2)"),
    (lambda: integrate_vector(np.zeros(10), _GRID4),
     "need 9 samples at the grid's stage times, got shape (10,)"),
    (lambda: flow_matrix_ode(np.zeros((9, 2, 2)), np.eye(2), _GRID4, "up", _EUCLID2),
     "side must be 'left' or 'right'"),
    (lambda: flow_matrix_ode(np.zeros((9, 2, 2)), np.eye(3), _GRID4, "left", _EUCLID2),
     "generators and X0 must be square matrices of equal size"),
    (lambda: flow_matrix_ode(np.zeros((9, 2, 3)), np.zeros((2, 3)), _GRID4, "left", _EUCLID2),
     "generators and X0 must be square matrices of equal size"),
], ids=["no_convergence", "form_size", "flow_samples", "quadrature_samples", "side",
        "unequal_sizes", "not_square"])
def test_integrator_refusals_name_their_cause(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


# the interpolant against scipy's not-a-knot spline, on the node counts the
# package uses and the block edges of its Toeplitz solve (32 rows a block)
@pytest.mark.parametrize("complex_data", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("trailing", [(), (3,), (4, 4)], ids=["scalar", "vector", "matrix"])
@pytest.mark.parametrize("n_nodes", [2, 3, 4, 5, 6, 31, 32, 33, 34, 251, 2001, 4001])
def test_dense_from_samples_matches_make_interp_spline(n_nodes, trailing, complex_data):
    from scipy.interpolate import make_interp_spline

    rng = np.random.default_rng(n_nodes)
    ts = np.linspace(0.3, 2.1, n_nodes)
    samples = rng.standard_normal((n_nodes,) + trailing)
    if complex_data:
        samples = samples + 1j * rng.standard_normal((n_nodes,) + trailing)
    ours = dense_from_samples(ts, samples)
    ref = make_interp_spline(ts, samples, k=min(3, n_nodes - 1), axis=0)
    h = ts[1] - ts[0]
    stages = np.linspace(0.3, 2.1, 2 * n_nodes - 1)
    random = np.concatenate([rng.uniform(0.3, 2.1, 64), [0.3 - 0.5 * h, 2.1 + 0.5 * h]])
    scale = np.max(np.abs(samples))
    for t in (stages, random, 0.777):
        got, want = ours(t), ref(t)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.max(np.abs(got - want)) <= 1e-12 * scale


@pytest.mark.parametrize("n_nodes", [4, 5, 33, 251, 2001])
def test_dense_from_samples_reproduces_cubics(n_nodes):
    ts = np.linspace(-1.0, 1.0, n_nodes)
    coeffs = np.array([[0.3, -1.2], [1.0, 0.5], [-0.7, 0.25], [0.9, -0.4]])

    def cubic(t):
        return np.polynomial.polynomial.polyval(t, coeffs).T

    probe = np.linspace(-1.0, 1.0, 777)
    assert np.max(np.abs(dense_from_samples(ts, cubic(ts))(probe) - cubic(probe))) <= 1e-14


@pytest.mark.parametrize(
    "ts, samples, message",
    [
        (np.linspace(0.0, 1.0, 9), np.where(np.arange(9) == 4, np.nan, 1.0), "NaN or inf"),
        (np.linspace(0.0, 1.0, 9), np.where(np.arange(9) == 0, -np.inf, 1.0), "NaN or inf"),
        (np.append(np.linspace(0.0, 1.0, 8), np.inf), np.ones(9), "NaN or inf"),
        (np.linspace(1.0, 0.0, 9), np.ones(9), "uniformly spaced"),
        (np.zeros(9), np.ones(9), "uniformly spaced"),
        (np.linspace(0.0, 1.0, 9) ** 2, np.ones(9), "uniformly spaced"),
        (np.array([0.0, 0.5, 0.5, 1.0]), np.ones(4), "uniformly spaced"),
        (np.array([0.0]), np.ones(1), "at least two"),
        (np.linspace(0.0, 1.0, 9), np.ones(8), "one sample at each"),
    ],
    ids=["nan_sample", "inf_sample", "inf_node", "decreasing", "repeated", "nonuniform",
         "duplicate", "one_node", "count"],
)
def test_dense_from_samples_refuses_bad_nodes_and_samples(ts, samples, message):
    with pytest.raises(ValueError, match=message):
        dense_from_samples(ts, samples)


@pytest.mark.parametrize("shape", [(9, 0), (9, 3, 0), (9, 0, 2)])
def test_dense_from_samples_refuses_an_empty_trailing_shape_by_name(shape):
    with pytest.raises(ValueError, match=re.escape(f"samples of shape {shape} are empty")):
        dense_from_samples(np.linspace(0.0, 1.0, 9), np.zeros(shape))


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf, np.array([0.25, np.nan, 0.5]),
                               np.array([[0.0, 1.0], [np.inf, 0.5]])],
                         ids=["nan", "inf", "minus_inf", "nan_in_array", "inf_in_array"])
def test_interpolant_refuses_non_finite_times(t):
    interp = dense_from_samples(np.linspace(0.0, 1.0, 11), np.arange(11.0))
    with pytest.raises(ValueError, match="NaN or inf"):
        interp(t)
