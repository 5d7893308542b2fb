"""Kinematic condition residuals, path algebra, and fault injection.

Every rolling here is written down in closed form, so the residual
functions are checked against paths whose defects are known exactly:
genuine rollings must come out at discretization level and injected
faults must surface in the one condition they violate.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from semiroll import rolling
from semiroll.homogeneous import ControlCurve, extrinsic_roll
from semiroll.integrate import TimeGrid
from semiroll.linalg import SignatureForm, random_oriented_isometry
from semiroll.models import get_model
from semiroll.rolling import (
    ResidualReport,
    RollingMapPath,
    RollingTriple,
    TangentFramePath,
    compose_rolling,
    invert_rolling,
    no_slip_residual,
    no_twist_residuals,
    parallel_transport_embedded,
    perturb_normal_generator,
    rolling_condition_residuals,
    rolling_point_residual,
    tangency_residual,
    triple_orientation_flips,
)

EUCLID3 = SignatureForm.from_pq(3, 0)


def _plane_on_plane(n_steps=200):
    """Trivial rolling of the z=0 plane on itself along a straight line."""
    grid = TimeGrid(0.0, 1.0, n_steps)
    m = grid.n_nodes
    direction = np.array([0.6, -0.8, 0.0])
    alpha = grid.ts[:, None] * direction[None, :]
    R = np.broadcast_to(np.eye(3), (m, 3, 3)).copy()
    s = np.zeros((m, 3))
    path = RollingMapPath(grid=grid, R=R, s=s, alpha=alpha, alpha_hat=alpha.copy(), form=EUCLID3)
    tan = np.broadcast_to(np.eye(3)[:, :2], (m, 3, 2)).copy()
    nor = np.broadcast_to(np.eye(3)[:, 2:], (m, 3, 1)).copy()
    frames_t = TangentFramePath(grid.ts, tan)
    frames_n = TangentFramePath(grid.ts, nor)
    return path, frames_t, frames_n


def _sphere_equator(n_steps=400, t1=np.pi / 2):
    """Unit sphere rolling on its tangent plane at (1,0,0) along the equator."""
    grid = TimeGrid(0.0, t1, n_steps)
    ts = grid.ts
    c, s_ = np.cos(ts), np.sin(ts)
    alpha = np.stack([c, s_, np.zeros_like(ts)], axis=1)
    alpha_hat = np.stack([np.ones_like(ts), ts, np.zeros_like(ts)], axis=1)
    R = np.zeros((ts.size, 3, 3))
    R[:, 0, 0] = c
    R[:, 0, 1] = s_
    R[:, 1, 0] = -s_
    R[:, 1, 1] = c
    R[:, 2, 2] = 1.0
    s_vec = alpha_hat - np.einsum("kij,kj->ki", R, alpha)
    path = RollingMapPath(grid=grid, R=R, s=s_vec, alpha=alpha, alpha_hat=alpha_hat, form=EUCLID3)

    tan_m = np.zeros((ts.size, 3, 2))
    tan_m[:, 0, 0] = -s_
    tan_m[:, 1, 0] = c
    tan_m[:, 2, 1] = 1.0
    tan_hat = np.broadcast_to(np.eye(3)[:, 1:], (ts.size, 3, 2)).copy()
    nor_hat = np.broadcast_to(np.eye(3)[:, :1], (ts.size, 3, 1)).copy()
    return path, TangentFramePath(ts, tan_m), TangentFramePath(ts, tan_hat), TangentFramePath(ts, nor_hat)


def test_plane_rolling_has_zero_residuals():
    path, ft, fn = _plane_on_plane()
    report = rolling_condition_residuals(path, ft, ft, fn)
    assert report.max_residual() <= 1e-12


def test_equator_rolling_residuals_at_discretization_level():
    path, fm, ft, fn = _sphere_equator()
    report = rolling_condition_residuals(path, fm, ft, fn)
    assert report.max_residual() <= 1e-8
    assert report.passed(1e-8)


def test_injected_slip_is_detected():
    path, fm, ft, fn = _sphere_equator()
    eps = 1e-3
    w = np.array([0.0, 0.3, -0.4])
    s_bad = path.s + eps * path.grid.ts[:, None] * w[None, :]
    bad = RollingMapPath(
        grid=path.grid, R=path.R, s=s_bad, alpha=path.alpha, alpha_hat=path.alpha_hat, form=path.form
    )
    point = rolling_point_residual(bad)
    assert np.max(point) == pytest.approx(eps * path.grid.t1 * 0.5, rel=1e-6)
    assert np.max(no_slip_residual(bad)) >= 0.5 * eps * 0.5
    # the clean path stays clean
    assert np.max(no_slip_residual(path)) <= 1e-8


def test_injected_tangential_twist_is_detected():
    path, fm, ft, fn = _sphere_equator()
    eps = 1e-3
    ts = path.grid.ts
    # spin the development tangent plane (y,z) while keeping contact exact
    extra = np.zeros((ts.size, 3, 3))
    c, s_ = np.cos(eps * ts), np.sin(eps * ts)
    extra[:, 0, 0] = 1.0
    extra[:, 1, 1] = c
    extra[:, 1, 2] = -s_
    extra[:, 2, 1] = s_
    extra[:, 2, 2] = c
    R_bad = np.einsum("kij,kjl->kil", extra, path.R)
    s_bad = path.alpha_hat - np.einsum("kij,kj->ki", R_bad, path.alpha)
    bad = RollingMapPath(
        grid=path.grid, R=R_bad, s=s_bad, alpha=path.alpha, alpha_hat=path.alpha_hat, form=path.form
    )
    report = rolling_condition_residuals(bad, fm, ft, fn)
    assert report.rolling_point <= 1e-12
    assert report.no_twist_tan == pytest.approx(eps, rel=1e-3)


def test_perturbation_breaks_only_normal_twist():
    # roll a 2-plane in R^4 on itself, then twist the untouched normal plane
    grid = TimeGrid(0.0, 1.0, 160)
    m = grid.n_nodes
    form = SignatureForm.from_pq(4, 0)
    alpha = np.zeros((m, 4))
    alpha[:, 0] = grid.ts
    R = np.broadcast_to(np.eye(4), (m, 4, 4)).copy()
    path = RollingMapPath(grid=grid, R=R, s=np.zeros((m, 4)), alpha=alpha, alpha_hat=alpha.copy(), form=form)
    ft = TangentFramePath(grid.ts, np.broadcast_to(np.eye(4)[:, :2], (m, 4, 2)).copy())
    fn = TangentFramePath(grid.ts, np.broadcast_to(np.eye(4)[:, 2:], (m, 4, 2)).copy())

    eps = 5e-3
    omega = np.zeros((4, 4))
    omega[2, 3] = eps
    omega[3, 2] = -eps
    bent = perturb_normal_generator(path, omega, ft, fn)
    report = rolling_condition_residuals(bent, ft, ft, fn)
    assert report.rolling_point <= 1e-12
    assert report.tangency <= 1e-10
    assert report.no_slip <= 1e-10
    assert report.no_twist_tan <= 1e-10
    assert report.no_twist_norm == pytest.approx(eps, rel=1e-6)


def test_perturbation_with_zero_generator_is_identity():
    path, fm, ft, fn = _sphere_equator(n_steps=100)
    same = perturb_normal_generator(path, np.zeros((3, 3)), ft, fn)
    assert np.max(np.abs(same.R - path.R)) <= 1e-12
    assert np.max(np.abs(same.s - path.s)) <= 1e-12


def test_perturbation_rejects_inadmissible_generators():
    path, fm, ft, fn = _sphere_equator(n_steps=50)
    sym = np.eye(3) * 1e-2
    with pytest.raises(ValueError, match="J-skew"):
        perturb_normal_generator(path, sym, ft, fn)
    hits_tangent = np.zeros((3, 3))
    hits_tangent[0, 1] = 1e-2
    hits_tangent[1, 0] = -1e-2
    with pytest.raises(ValueError, match="annihilate"):
        perturb_normal_generator(path, hits_tangent, ft, fn)
    # one constant generator: a callable or per-node samples are refused by shape
    for other in (lambda t: np.zeros((3, 3)), np.zeros((path.grid.n_nodes, 3, 3)), np.zeros((2, 2))):
        with pytest.raises(ValueError, match=r"omega0 must be one constant \(3, 3\) matrix"):
            perturb_normal_generator(path, other, ft, fn)


def test_invert_is_an_involution():
    path, *_ = _sphere_equator(n_steps=60)
    twice = invert_rolling(invert_rolling(path))
    assert np.max(np.abs(twice.R - path.R)) <= 1e-14
    assert np.max(np.abs(twice.s - path.s)) <= 1e-14
    assert np.array_equal(twice.alpha, path.alpha)


def test_inverse_composes_to_identity():
    path, *_ = _sphere_equator(n_steps=60)
    loop = compose_rolling(path, invert_rolling(path))
    m = path.n_nodes
    assert np.max(np.abs(loop.R - np.eye(3)[None])) <= 1e-12
    assert np.max(np.abs(loop.s)) <= 1e-12
    assert loop.alpha.shape == (m, 3)


def test_compose_rejects_mismatched_curves():
    path, *_ = _sphere_equator(n_steps=60)
    with pytest.raises(ValueError, match="contact curves disagree"):
        compose_rolling(path, path)


def test_compose_rejects_mismatched_grids():
    a, *_ = _sphere_equator(n_steps=60)
    b, *_ = _sphere_equator(n_steps=50)
    with pytest.raises(ValueError, match="grids"):
        compose_rolling(a, invert_rolling(b))


signatures = st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(
    lambda pq: 2 <= pq[0] + pq[1] <= 6
)


def _random_rolling(pq, seed, n_nodes=7):
    """Random J-orthogonal rotations with contact-preserving translations."""
    form = SignatureForm.from_pq(*pq)
    rng = np.random.default_rng(seed)
    n = form.dim
    R = np.array([random_oriented_isometry(form, rng, scale=0.5) for _ in range(n_nodes)])
    alpha, alpha_hat = rng.standard_normal((2, n_nodes, n))
    s = alpha_hat - np.einsum("kij,kj->ki", R, alpha)
    return RollingMapPath(grid=TimeGrid(0.0, 1.0, n_nodes - 1), R=R, s=s, alpha=alpha,
                          alpha_hat=alpha_hat, form=form)


@settings(max_examples=60, deadline=None)
@given(signatures, st.integers(0, 2**31 - 1))
def test_inverting_twice_gives_back_the_path(pq, seed):
    path = _random_rolling(pq, seed)
    twice = invert_rolling(invert_rolling(path))
    # the J-transpose inverse is exact; the translation passes through R R^-1
    for field in ("R", "alpha", "alpha_hat"):
        assert np.array_equal(getattr(twice, field), getattr(path, field)), field
    assert np.max(np.abs(twice.s - path.s)) <= 1e-12 * max(1.0, np.max(np.abs(path.s)))


@settings(max_examples=60, deadline=None)
@given(signatures, st.integers(0, 2**31 - 1))
def test_rolling_composed_with_its_inverse_is_the_identity(pq, seed):
    path = _random_rolling(pq, seed)
    loop = compose_rolling(path, invert_rolling(path))
    assert np.max(np.abs(loop.R - np.eye(path.form.dim))) <= 1e-12
    assert np.max(np.abs(loop.s)) <= 1e-12
    assert np.array_equal(loop.alpha, path.alpha)
    assert np.array_equal(loop.alpha_hat, path.alpha)


# every check that needs a frame's basis or projector refuses a degenerate one
# at its node: NaN or inf, all zero, or columns e1 and 1e7 e1 + e2, whose
# condition number 1e14 the QR diagonal (1, 1) does not reveal
FRAME_CHECKS = {
    "tangency_m": lambda path, bad, ft, fn: tangency_residual(path, bad, fn),
    "tangency_mhat": lambda path, bad, ft, fn: tangency_residual(path, ft, bad),
    "no_twist": lambda path, bad, ft, fn: no_twist_residuals(path, bad, fn),
    "perturb": lambda path, bad, ft, fn: perturb_normal_generator(path, np.zeros((3, 3)), bad, fn),
    "transport": lambda path, bad, ft, fn: parallel_transport_embedded(
        bad.frames, np.eye(3)[0], EUCLID3),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "frame, node, message",
    [
        ([[1.0, 1e7], [0.0, 1.0], [0.0, 0.0]], 0, "rank deficient at node 0"),
        (np.zeros((3, 2)), 3, "rank deficient at node 3"),
        ([[1.0, 0.0], [0.0, np.nan], [0.0, 0.0]], 3, "NaN or inf at node 3"),
        ([[1.0, 0.0], [np.inf, 1.0], [0.0, 0.0]], 5, "NaN or inf at node 5"),
    ],
    ids=["cond_1e14", "zero", "nan", "inf"],
)
@pytest.mark.parametrize("check", FRAME_CHECKS)
def test_degenerate_frames_are_refused_at_their_node(check, frame, node, message):
    path, ft, fn = _plane_on_plane(10)
    frames = ft.frames.copy()
    frames[node] = frame
    with pytest.raises(ValueError, match=message):
        FRAME_CHECKS[check](path, TangentFramePath(ft.ts, frames), ft, fn)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("check", FRAME_CHECKS)
def test_frames_with_more_columns_than_rows_are_refused(check):
    # four vectors in a three-dimensional space never span four dimensions
    path, ft, fn = _plane_on_plane(10)
    wide = np.random.default_rng(4).standard_normal((ft.frames.shape[0], 3, 4))
    with pytest.raises(ValueError, match="rank deficient at node 0 "):
        FRAME_CHECKS[check](path, TangentFramePath(ft.ts, wide), ft, fn)


def test_latitude_transport_matches_closed_form():
    # transport around a latitude circle turns at rate -cos(theta0) relative
    # to the meridian/parallel frame
    theta0 = 1.0
    m = 1601
    phis = np.linspace(0.0, 2 * np.pi, m)
    st, ct = np.sin(theta0), np.cos(theta0)
    e_th = np.stack([ct * np.cos(phis), ct * np.sin(phis), -st * np.ones_like(phis)], axis=1)
    e_ph = np.stack([-np.sin(phis), np.cos(phis), np.zeros_like(phis)], axis=1)
    frames = np.stack([e_th, e_ph], axis=2)
    out = parallel_transport_embedded(frames, e_th[0], EUCLID3)
    angle = -ct * phis
    predicted = np.cos(angle)[:, None] * e_th + np.sin(angle)[:, None] * e_ph
    assert np.max(np.linalg.norm(out - predicted, axis=1)) <= 1e-6
    # the transport is a group flow, so it keeps the norm to its group check
    norms = np.linalg.norm(out, axis=1)
    assert np.max(np.abs(norms - 1.0)) <= 1e-8


def test_transport_rejects_vector_outside_start_space():
    frames = np.broadcast_to(np.eye(3)[:, :2], (11, 3, 2)).copy()
    with pytest.raises(ValueError, match="does not lie in the initial"):
        parallel_transport_embedded(frames, np.array([0.0, 0.0, 1.0]), EUCLID3)


@pytest.mark.parametrize("v0", [
    np.float64(1.0), np.zeros((3, 2, 1)), np.zeros(2), np.zeros((4, 2)), np.zeros((3, 0)),
], ids=["scalar", "ndim_3", "short_vector", "long_block", "no_columns"])
def test_transport_refuses_a_malformed_start_by_its_shape(v0):
    frames = np.broadcast_to(np.eye(3)[:, :2], (11, 3, 2)).copy()
    shape = str(v0.shape).replace("(", r"\(").replace(")", r"\)")
    with pytest.raises(ValueError, match=rf"^v0 has shape {shape}, expected \(3,\) or \(3, c\)$"):
        parallel_transport_embedded(frames, v0, EUCLID3)


def test_transport_of_a_block_names_the_column_outside_the_start_space():
    frames = np.broadcast_to(np.eye(3)[:, :2], (11, 3, 2)).copy()
    block = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(ValueError, match="^v0 column 2 does not lie in the initial transport space$"):
        parallel_transport_embedded(frames, block, EUCLID3)
    out = parallel_transport_embedded(frames, block[:, :2], EUCLID3)
    assert out.shape == (11, 3, 2)
    assert np.max(np.abs(out - block[None, :, :2])) <= 1e-15


def test_transport_carries_null_vectors_without_rescaling():
    form = SignatureForm(np.array([1.0, 1.0, -1.0]))
    span = np.stack([np.eye(3)[:, 0], np.eye(3)[:, 2]], axis=1)
    frames = np.broadcast_to(span, (21, 3, 2)).copy()
    v0 = np.array([1.0, 0.0, 1.0])  # null for the (+,+,-) form
    out = parallel_transport_embedded(frames, v0, form)
    assert np.max(np.abs(out - v0[None, :])) <= 1e-12


def test_transport_detects_causal_type_loss():
    # a Lorentz frame turning from spacelike to timelike is null at its middle
    # node, where its J-Gram is 2.2e-16, not exactly singular
    form = SignatureForm(np.array([1.0, -1.0]))
    angle = 0.5 * np.pi * np.linspace(0.0, 1.0, 41)
    frames = np.stack([np.cos(angle), np.sin(angle)], axis=1)[:, :, None]
    with pytest.raises(ValueError, match=r"^transport frame Gram matrix is singular "
                       r"under the ambient form at node 20 \(condition number"):
        parallel_transport_embedded(frames, np.array([1.0, 0.0]), form)
    # a spacelike start continued by a timelike node at once: two nodes are too few
    with pytest.raises(ValueError, match="^transport frame needs at least 3 nodes "
                       "for a fourth-order transport, got 2$"):
        parallel_transport_embedded(frames[[0, -1]], np.array([1.0, 0.0]), form)


def test_singular_frame_gram_is_reported():
    form = SignatureForm(np.array([1.0, 1.0, -1.0]))
    null_frame = np.zeros((11, 3, 1))
    null_frame[:, 0, 0] = 1.0
    null_frame[:, 2, 0] = 1.0  # null column: Gram vanishes identically
    with pytest.raises(ValueError, match="^transport frame Gram matrix is singular under the "
                       "ambient form at node 0"):
        parallel_transport_embedded(null_frame, null_frame[0, :, 0], form)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("entry", [(0, 0), (2, 2), (1, 2)])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_tangency_refuses_a_non_finite_rotation_at_its_node(bad, entry):
    # R(t) itself is scanned: (2, 2) meets only the normal column e3
    path, ft, fn = _plane_on_plane(10)
    path.R[4][entry] = bad
    with pytest.raises(ValueError, match=r"^tangency: R\(t\) contains NaN or inf at node 4$"):
        tangency_residual(path, ft, fn)


def _tiny_triple(det_signs):
    m = len(det_signs)
    grid = TimeGrid(0.0, 1.0, m - 1)
    form = SignatureForm.from_pq(2, 0)
    alpha = np.zeros((m, 2))
    alpha_hat = np.zeros((m, 1))
    maps = np.array([[[float(sign), 0.0]] for sign in det_signs])
    frames = np.broadcast_to(np.eye(2)[:, :1], (m, 2, 1)).copy()
    return RollingTriple(
        grid=grid,
        alpha=alpha,
        alpha_hat=alpha_hat,
        maps=maps,
        tangent_frames=frames,
        form=form,
        target_gram=np.eye(1),
    )


def test_orientation_flip_count():
    assert triple_orientation_flips(_tiny_triple([1, 1, 1, 1])) == 0
    assert triple_orientation_flips(_tiny_triple([1, -1, -1, 1])) == 2


def test_orientation_flip_rejects_singular_map():
    with pytest.raises(ValueError, match="singular"):
        triple_orientation_flips(_tiny_triple([1, 0, 1]))


def _with_frames(triple, frames):
    return RollingTriple(grid=triple.grid, alpha=triple.alpha, alpha_hat=triple.alpha_hat,
                         maps=triple.maps, tangent_frames=frames, form=triple.form,
                         target_gram=triple.target_gram)


def test_orientation_flip_follows_the_frame_signs():
    # the frame's sign changes at nodes 1 and 3: det(A F) changes with it, and
    # the propagated frame orientation cancels that, not a change of A itself
    frames = np.array([sign * np.eye(2)[:, :1] for sign in (1.0, -1.0, -1.0, 1.0)])
    assert triple_orientation_flips(_with_frames(_tiny_triple([1, 1, 1, 1]), frames)) == 0
    assert triple_orientation_flips(_with_frames(_tiny_triple([1, -1, -1, 1]), frames)) == 2


def test_orientation_flip_refuses_frames_that_do_not_overlap():
    frames = np.array([np.eye(2)[:, :1], np.eye(2)[:, :1], np.eye(2)[:, 1:]])
    triple = _with_frames(_tiny_triple([1, 1, 1]), frames)
    triple.maps = np.array([[[1.0, 0.0]], [[1.0, 0.0]], [[0.0, 1.0]]])
    with pytest.raises(ValueError, match=r"^tangent frames at nodes 1 and 2 do not overlap; "
                       "refine n_steps$"):
        triple_orientation_flips(triple)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("field", ResidualReport._FIELDS)
def test_report_with_non_finite_field_fails_closed(field, bad):
    values = dict.fromkeys(ResidualReport._FIELDS, 1e-9)
    values[field] = bad
    report = ResidualReport(grid=TimeGrid(0.0, 1.0, 4), **values)
    assert not np.isfinite(report.max_residual())
    assert not report.passed(1e-6)
    assert not report.passed(np.inf)


# a refusal names the frame path at fault: the tangent or the normal
# development frame of a no-twist check, the frame of a normal generator's
# admissibility check, the frames of a transport
FRAME_LABELS = {
    "no_twist_tangent": (lambda path, bad, ft, fn: no_twist_residuals(path, bad, fn),
                         "no twist: tangent development frame"),
    "no_twist_normal": (lambda path, bad, ft, fn: no_twist_residuals(path, ft, bad),
                        "no twist: normal development frame"),
    "perturb": (lambda path, bad, ft, fn: perturb_normal_generator(path, np.zeros((3, 3)), bad, fn),
                "normal generator: tangent frame"),
    "transport": (lambda path, bad, ft, fn: parallel_transport_embedded(
        bad.frames, bad.frames[0][:, 0], EUCLID3), "transport frame"),
}


@pytest.mark.parametrize("defect, message", [
    ("zero", "is rank deficient at node 3"),
    ("nan", "contains NaN or inf at node 3"),
])
@pytest.mark.parametrize("check", FRAME_LABELS)
def test_frame_refusals_name_their_frame_path(check, defect, message):
    path, ft, fn = _plane_on_plane(10)
    run, label = FRAME_LABELS[check]
    bad = (fn if check == "no_twist_normal" else ft).frames.copy()
    bad[3] = 0.0 if defect == "zero" else np.nan
    with pytest.raises(ValueError, match=f"^{label} {message}"):
        run(path, TangentFramePath(ft.ts, bad), ft, fn)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("shape", [(11, 4, 2), (11, 2, 1)], ids=["wider", "narrower"])
@pytest.mark.parametrize("check", FRAME_LABELS)
def test_frames_of_another_ambient_dimension_are_refused_by_name(check, shape):
    # the projectors refuse them before any product, not by numpy's broadcast error
    path, ft, fn = _plane_on_plane(10)
    run, label = FRAME_LABELS[check]
    if check == "transport":
        def run(path, bad, ft, fn):
            return parallel_transport_embedded(bad.frames, np.eye(3)[0], EUCLID3)
    expected = re.escape(f"{label} has shape {shape}, expected (n_nodes, 3, r)")
    with pytest.raises(ValueError, match=f"^{expected}$"):
        run(path, TangentFramePath(ft.ts, np.ones(shape)), ft, fn)


def test_transport_refuses_frames_that_are_not_a_stack_of_matrices():
    with pytest.raises(ValueError, match=r"^transport frame has shape \(11, 3\), "
                       r"expected \(n_nodes, 3, r\)$"):
        parallel_transport_embedded(np.ones((11, 3)), np.eye(3)[0], EUCLID3)


# a zero-stride broadcast of one frame (the flat development's frames) is
# factored once, a copied constant stack node by node; both are refused at
# node 0 with the per-node messages, and one bad node in an otherwise
# constant stack is still refused at that node
DEGENERATE_FRAMES = {
    "zero": (np.zeros((3, 2)), "rank deficient at node"),
    "cond_1e14": ([[1.0, 1e7], [0.0, 1.0], [0.0, 0.0]], "rank deficient at node"),
    "nan": ([[1.0, 0.0], [0.0, np.nan], [0.0, 0.0]], "NaN or inf at node"),
    "inf": ([[1.0, 0.0], [np.inf, 1.0], [0.0, 0.0]], "NaN or inf at node"),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("defect", DEGENERATE_FRAMES)
@pytest.mark.parametrize("check", FRAME_CHECKS)
def test_broadcast_degenerate_frames_are_refused_at_node_0(check, defect):
    path, ft, fn = _plane_on_plane(10)
    frame, message = DEGENERATE_FRAMES[defect]
    bad = np.broadcast_to(np.asarray(frame, dtype=float), ft.frames.shape)
    with pytest.raises(ValueError, match=f"{message} 0\\b"):
        FRAME_CHECKS[check](path, TangentFramePath(ft.ts, bad), ft, fn)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("defect", DEGENERATE_FRAMES)
@pytest.mark.parametrize("check", FRAME_CHECKS)
def test_constant_degenerate_frames_are_refused_at_node_0(check, defect):
    path, ft, fn = _plane_on_plane(10)
    frame, message = DEGENERATE_FRAMES[defect]
    bad = np.broadcast_to(np.asarray(frame, dtype=float), ft.frames.shape).copy()
    with pytest.raises(ValueError, match=f"{message} 0\\b"):
        FRAME_CHECKS[check](path, TangentFramePath(ft.ts, bad), ft, fn)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("node", [1, 7, 10])
@pytest.mark.parametrize("defect", DEGENERATE_FRAMES)
@pytest.mark.parametrize("check", FRAME_CHECKS)
def test_one_bad_node_in_a_constant_stack_is_refused_at_that_node(check, defect, node):
    path, ft, fn = _plane_on_plane(10)
    frame, message = DEGENERATE_FRAMES[defect]
    bad = ft.frames.copy()
    bad[node] = frame
    with pytest.raises(ValueError, match=f"{message} {node}\\b"):
        FRAME_CHECKS[check](path, TangentFramePath(ft.ts, bad), ft, fn)


@pytest.mark.parametrize("node", [None, 0, 5, 10], ids=["constant", "node_0", "node_5", "node_10"])
def test_null_development_frames_have_a_singular_gram(node):
    form = SignatureForm(np.array([1.0, 1.0, -1.0]))
    path, ft, fn = _plane_on_plane(10)
    path.form = form
    null_frame = np.array([[1.0], [0.0], [1.0]])
    bad = fn.frames.copy()
    if node is None:
        bad[:] = null_frame
    else:
        bad[node] = null_frame
    with pytest.raises(ValueError, match="normal development frame Gram matrix is singular"):
        no_twist_residuals(path, ft, TangentFramePath(ft.ts, bad))
    with pytest.raises(ValueError, match="^transport frame Gram matrix is singular"):
        parallel_transport_embedded(bad, bad[0][:, 0], form)


# -- a constant development frame outside a model is factored on its first node ----


def _tilted(frame, angle):
    """``frame`` turned by ``angle`` in the plane of its first and last rows."""
    c, s_ = np.cos(angle), np.sin(angle)
    turn = np.eye(frame.shape[0])
    turn[[0, 0, -1, -1], [0, -1, 0, -1]] = c, -s_, s_, c
    return turn @ frame


def _broadcast(frame, like):
    return TangentFramePath(like.ts, np.broadcast_to(frame, like.frames.shape))


def test_a_changed_constant_frame_equals_its_moving_copy():
    path, fm, ft, fn = _sphere_equator(40)
    first = rolling_condition_residuals(path, fm, _broadcast(ft.frames[0], ft),
                                        _broadcast(fn.frames[0], fn))
    tilted = (_broadcast(_tilted(ft.frames[0], 0.01), ft),
              _broadcast(_tilted(fn.frames[0], 0.01), fn))
    changed = rolling_condition_residuals(path, fm, *tilted)
    # the tilted frames are factored as their copied, moving stacks are, node by node
    moving = [TangentFramePath(f.ts, np.array(f.frames)) for f in tilted]
    reference = rolling_condition_residuals(path, fm, *moving)
    for field, values in reference.per_node.items():
        assert np.array_equal(changed.per_node[field], values), field
    assert changed.tangency > first.tangency + 1e-3
    assert changed.no_twist_tan > first.no_twist_tan + 1e-3


# a Lorentz-null plane, e1 + e3 and e2 under diag(1, 1, -1): its J-Gram is singular
NULL_PLANE = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("check, defect", [
    *((check, defect) for check in ("tangency_mhat", "no_twist", "perturb")
      for defect in ("zero", "cond_1e14", "nan")),
    ("no_twist", "null"), ("perturb", "null")])
def test_a_refused_constant_frame_is_refused_on_every_call(check, defect):
    path, ft, fn = _plane_on_plane(10)
    if defect == "null":
        path.form = SignatureForm(np.array([1.0, 1.0, -1.0]))
        frame, message = NULL_PLANE, "Gram matrix is singular under the ambient form at node 0"
    else:
        frame, message = DEGENERATE_FRAMES[defect]
        message = f"{message} 0\\b"
    bad = _broadcast(np.asarray(frame, dtype=float), ft)
    for _ in range(3):
        with pytest.raises(ValueError, match=message):
            FRAME_CHECKS[check](path, bad, ft, fn)


def test_kept_factors_are_read_only():
    model = get_model("sphere")
    grid = TimeGrid(0.0, 1.0, 40)
    flat = (model.flat_tangent_frames(grid), model.flat_normal_frames(grid))
    path = extrinsic_roll(model, ControlCurve(grid, np.full((grid.n_nodes, 2), 0.5)))
    # a projector and unit columns for each flat frame, as the residuals read them
    kept = [array for frames in flat for array in rolling._frame_factors(path, frames, "frame")]
    assert len(kept) == 4
    for array in kept + [model.frame0, model.normal0]:
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0.0


def test_a_moving_stack_builds_no_unit_columns(monkeypatch):
    path, fm, ft, fn = _sphere_equator(40)
    unit_columns, calls = rolling._unit_columns, []
    monkeypatch.setattr(rolling, "_unit_columns",
                        lambda frames: calls.append(frames.shape[0]) or unit_columns(frames))
    # the transport and the twist injection read only the projectors of these moving stacks
    parallel_transport_embedded(fm.frames, fm.frames[0][:, 0], EUCLID3)
    perturb_normal_generator(path, np.zeros((3, 3)), ft, fn)
    assert calls == []
    # the no-twist checks read the unit columns of each node
    no_twist_residuals(path, ft, fn)
    assert calls == [41, 41]
