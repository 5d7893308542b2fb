"""Rules of the numerical core written once, diffed against the two spellings they replaced.

``linalg.j_transpose_inverse`` is one C-ordered product of R^T with the sign matrix,
where it was a C-ordered copy of R^T scaled in place; ``_newton_schulz_step`` calls it.
``rolling._unit_columns`` divides by ``_column_norms``, where it divided by
``np.linalg.norm``.  ``no_slip_residual``'s velocity matching and
``triple_velocity_residual`` are one ``_velocity_defect``.  The old spellings are kept
here, and every output agrees to the last bit: one matrix, stacks and integer arrays
for the J-inverse; one column and several, on stacks below and above the 8 N nodes where
``_column_norms`` leaves numpy's reduce for its row loop; rolls, triples and faulted
paths of every benchmark model for the velocity defect.  The flow's two sides, one body
in ``integrate._THEN``, and the Newton-Schulz step are pinned by the bit-identity tests
of ``tests/test_roll_assembly.py``.  ``pseudo_orthogonal._pair_basis`` is the one rule
of an elementary generator E_ij -+ E_ji per index pair, which ``so_pq_basis`` and the
Stiefel generator apply to their pair lists, where each wrote out its own loops; every
so(p, q) basis keeps its bits and every generated description its JSON text.
``pseudo_orthogonal._level_set`` is the one rule of the level set X^T J X = G, whose
constraint and frames the quadric bundle, the Stiefel bundle and the SO+(p, q) constraint
each wrote out.  Their old bodies are kept here: every frame keeps its bits, signed zeros
included, and so does the quadric constraint <x, x>_J -+ 1.  The Stiefel and SO+(p, q)
constraints now apply the signs to the products X_ic X_id, as the quadric's x^2 @ signs,
where they took a stacked matrix product, so they agree within 4 eps max(1, |x|^2).
"""

import json

import numpy as np
import pytest
from scipy.linalg import expm

from semiroll import rolling
from semiroll.homogeneous import ControlCurve, extrinsic_roll, intrinsic_roll
from semiroll.integrate import TimeGrid, fd_derivative
from semiroll.linalg import SignatureForm, j_transpose_inverse, stacked_null_spaces
from semiroll.models import get_model, pseudo_orthogonal, stiefel
from semiroll.rolling import RollingMapPath, no_slip_residual, triple_velocity_residual

MODELS = ("sphere", "hyperboloid", "so_plus_1_2", "so_plus_2_2", "stiefel_3_1", "stiefel_4_2")
FORMS = tuple(SignatureForm.from_pq(p, q) for p, q in ((3, 0), (2, 1), (2, 2), (9, 7)))


# -- the replaced spellings ---------------------------------------------------------


def _j_transpose_inverse_copy_then_scale(mats, form):
    mats, signs = np.asarray(mats), form.signs
    out = np.array(np.swapaxes(mats, -1, -2), dtype=np.result_type(mats, signs), order="C")
    out *= signs[:, None] * signs
    return out


def _unit_columns_by_norm(frames):
    return frames / np.linalg.norm(frames, axis=1, keepdims=True)


def _no_slip_two_formulas(path, W):
    h = path.grid.h
    sdot = fd_derivative(path.s, h)
    adot = fd_derivative(path.alpha, h)
    ahatdot = fd_derivative(path.alpha_hat, h)
    w1 = np.einsum("kij,kj->ki", W, path.alpha_hat - path.s) + sdot
    w2 = ahatdot - np.einsum("kij,kj->ki", path.R, adot)
    return np.maximum(np.linalg.norm(w1, axis=-1), np.linalg.norm(w2, axis=-1))


def _triple_velocity_by_maps(triple):
    h = triple.grid.h
    adot = fd_derivative(triple.alpha, h)
    ahatdot = fd_derivative(triple.alpha_hat, h)
    mapped = np.einsum("kai,ki->ka", triple.maps, adot)
    return np.linalg.norm(ahatdot - mapped, axis=-1)


def _so_pq_basis_loop(p, q):
    n = p + q
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            B = np.zeros((n, n))
            B[i, j] = 1.0
            B[j, i] = 1.0 if (i < p) != (j < p) else -1.0
            out.append(B)
    return np.array(out)


def _stiefel_description_loops(n, k):
    basis = []
    for i in range(k):
        for j in range(i + 1, k):
            M = np.zeros((n, n))
            M[i, j] = 1.0
            M[j, i] = -1.0
            basis.append(M.tolist())
    for r in range(n - k):
        for c in range(k):
            M = np.zeros((n, n))
            M[k + r, c] = 1.0
            M[c, k + r] = -1.0
            basis.append(M.tolist())
    dp = len(basis)
    for i in range(k, n):
        for j in range(i + 1, n):
            M = np.zeros((n, n))
            M[i, j] = 1.0
            M[j, i] = -1.0
            basis.append(M.tolist())
    dh = len(basis) - dp
    return {
        "format_version": 2,
        "name": f"stiefel_{n}_{k}",
        "J_signs": [1] * (n * k),
        "group_signs": [1] * n,
        "basis": basis,
        "h_indices": list(range(dp, dp + dh)),
        "p_indices": list(range(dp)),
        "d_e_pi": np.eye(dp).tolist(),
        "obar": np.eye(n, k).T.ravel().tolist(),
        "embedding": "builtin:stiefel",
    }


def _quadric_parts(signs, level):
    signs = np.asarray(signs, dtype=float)
    return {
        "tangent_frame_at": lambda x: stacked_null_spaces((signs * np.asarray(x, float))[:, None]),
        "constraint": lambda x: (np.asarray(x, dtype=float) ** 2 @ signs - level)[:, None],
    }


def _stiefel_parts(n, k):
    def constraint(xs):
        At = np.asarray(xs, dtype=float).reshape(-1, k, n)
        return (At @ np.swapaxes(At, 1, 2) - np.eye(k)).reshape(len(At), -1)

    def tangent_frame_at(xs):
        Pt = np.asarray(xs, dtype=float).reshape(-1, k, n)
        m = Pt.shape[0]
        Pperp = stacked_null_spaces(Pt)
        skew_pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
        out = np.zeros((m, k, n, len(skew_pairs) + (n - k) * k))
        for a, (i, j) in enumerate(skew_pairs):
            out[:, j, :, a] = Pt[:, i, :]
            out[:, i, :, a] = -Pt[:, j, :]
        a0 = len(skew_pairs)
        for r in range(n - k):
            for c in range(k):
                out[:, c, :, a0 + r * k + c] = Pperp[:, :, r]
        return out.reshape(m, k * n, -1)

    return {"tangent_frame_at": tangent_frame_at, "constraint": constraint}


def _so_plus_constraint(p, q):
    n = p + q
    jd = np.concatenate([np.ones(p), -np.ones(q)])
    J = np.diag(jd)

    def constraint(xs):
        Xt = np.asarray(xs, dtype=float).reshape(-1, n, n)
        return (Xt @ (jd[:, None] * np.swapaxes(Xt, 1, 2)) - J).reshape(len(Xt), -1)

    return constraint


LEVEL_SET_REFERENCES = {
    "sphere": _quadric_parts([1, 1, 1], 1.0),
    "hyperboloid": _quadric_parts([-1, 1, 1], -1.0),
    **{f"stiefel_{n}_{k}": _stiefel_parts(n, k) for n, k in ((3, 1), (4, 2), (5, 3), (6, 2))},
}


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b, equal_nan=True)


def _control(grid, p_dim, seed):
    rng = np.random.default_rng(seed)
    amp = rng.uniform(0.2, 0.6, p_dim) * rng.choice((-1.0, 1.0), p_dim)
    freq = rng.uniform(0.5, 2.0, p_dim)
    phase = rng.uniform(0.0, 2.0 * np.pi, p_dim)
    return ControlCurve(grid=grid, coords=amp * np.sin(np.multiply.outer(grid.ts, freq) + phase))


# -- the J-inverse: one product ------------------------------------------------------


@pytest.mark.parametrize("form", FORMS, ids=lambda f: f"{f.p}_{f.q}")
def test_j_transpose_inverse_keeps_the_bits_of_the_copy_then_scale(form):
    rng = np.random.default_rng(form.dim)
    N = form.dim
    stack = rng.standard_normal((40, N, N)) * np.exp(2.0 * rng.standard_normal((40, N, N)))
    cases = {
        "one matrix": stack[3],
        "a stack": stack,
        "a strided stack": stack[::3, :, ::-1],
        "a transposed stack": np.swapaxes(stack, 1, 2),
        "two leading axes": stack.reshape(4, 10, N, N),
        "an integer matrix": rng.integers(-9, 10, (N, N)),
        "an integer stack": rng.integers(-2 ** 40, 2 ** 40, (7, N, N)),
        "a float32 stack": stack[:5].astype(np.float32),
        "a nested list": stack[:2].tolist(),
    }
    for what, mats in cases.items():
        before = np.array(mats, copy=True)
        out = j_transpose_inverse(mats, form)
        assert _same_bits(out, _j_transpose_inverse_copy_then_scale(mats, form)), what
        assert out.flags.c_contiguous, what
        assert np.array_equal(np.asarray(mats), before), what


# -- unit columns: the norm's own sum of squares ---------------------------------------


@pytest.mark.parametrize("N, r", [(N, r) for N in (3, 9, 16) for r in (1, 2, 6)])
def test_unit_columns_keep_the_bits_of_the_norm(N, r):
    # fewer than 8 N nodes take numpy's reduce, more the row loop; one column always the reduce
    rng = np.random.default_rng(10 * N + r)
    for n in (1, 8 * N - 1, 8 * N, 8 * N + 37):
        frames = rng.standard_normal((n, N, r)) * np.exp(3.0 * rng.standard_normal((n, N, r)))
        if n > 8:
            frames[5, 1, 0] = np.nan
            frames[6, :, -1] = 0.0
        for stack in (frames, np.broadcast_to(frames[:1], frames.shape), frames[:, ::-1, :]):
            with np.errstate(invalid="ignore"):
                got, expected = rolling._unit_columns(stack), _unit_columns_by_norm(stack)
            assert _same_bits(got, expected), (n, stack.strides)


@pytest.mark.parametrize("name", MODELS)
def test_unit_columns_of_the_model_frames_keep_the_bits_of_the_norm(name):
    # the flat frames a model factors once, and its moving frames along a 2000-step roll
    model = get_model(name)
    grid = TimeGrid(0.0, 1.0, 2000)
    triple = intrinsic_roll(model, _control(grid, model.p_dim, 4))
    moving = model.pointwise_tangent_frames(grid, triple.alpha).frames
    for frames in (model.frame0[None], model.normal0[None], moving, moving[:5]):
        assert _same_bits(rolling._unit_columns(frames), _unit_columns_by_norm(frames))


# -- the velocity defect: one body for the slip and the intrinsic no-slip law ---------------


def _faulted(path, rng):
    """``path`` with its development, contact curve and translations bent by smooth noise."""
    ts = path.grid.ts[:, None]

    def bend(shape):
        return 1e-3 * rng.standard_normal(shape) * np.sin(7.0 * ts + rng.uniform(0.0, 6.0, shape))

    return RollingMapPath(grid=path.grid, R=path.R, form=path.form,
                          s=path.s + bend(path.s.shape[1:]),
                          alpha=path.alpha + bend(path.alpha.shape[1:]),
                          alpha_hat=path.alpha_hat + bend(path.alpha_hat.shape[1:]))


@pytest.mark.parametrize("n_steps", [4, 250, 2000])
@pytest.mark.parametrize("name", MODELS)
def test_the_velocity_defect_keeps_the_bits_of_both_formulas(name, n_steps):
    model = get_model(name)
    grid = TimeGrid(0.0, 1.0, n_steps)
    control = _control(grid, model.p_dim, 9)
    path = extrinsic_roll(model, control)
    triple = intrinsic_roll(model, control)
    for p in (path, _faulted(path, np.random.default_rng(n_steps))):
        W = rolling._rotation_generator(p)
        expected = _no_slip_two_formulas(p, W)
        assert _same_bits(no_slip_residual(p), expected)
        assert _same_bits(no_slip_residual(p, W), expected)
    assert _same_bits(triple_velocity_residual(triple), _triple_velocity_by_maps(triple))


# -- the elementary generators: one rule for so(p, q) and the Stiefel split ---------------


@pytest.mark.parametrize("p, q", [(p, n - p) for n in range(2, 7) for p in range(n + 1)])
def test_so_pq_basis_keeps_the_bits_of_its_loop(p, q):
    got, expected = pseudo_orthogonal.so_pq_basis(p, q), _so_pq_basis_loop(p, q)
    assert _same_bits(got, expected)
    assert got.tobytes() == expected.tobytes()
    assert np.array_equal(np.signbit(got), np.signbit(expected))


@pytest.mark.parametrize("p, q", [(0, 0), (1, 0), (0, 1)])
def test_an_empty_so_pq_basis_is_a_stack_of_no_matrices(p, q):
    # the loop's np.array([]) had shape (0,); the rule keeps the matrix axes
    assert _so_pq_basis_loop(p, q).shape == (0,)
    got = pseudo_orthogonal.so_pq_basis(p, q)
    assert got.dtype == np.float64 and got.shape == (0, p + q, p + q)


@pytest.mark.parametrize("n, k", [(n, k) for n in range(2, 8) for k in range(1, n)])
def test_the_stiefel_description_keeps_the_json_text_of_its_loops(n, k):
    assert json.dumps(stiefel.description(n, k)) == json.dumps(_stiefel_description_loops(n, k))


def _moved_base_point():
    X = np.zeros((3, 3))
    X[0, 1] = X[1, 0] = 0.8
    X[0, 2] = X[2, 0] = -0.5
    return expm(X)


@pytest.mark.parametrize("p, q, moved", [(p, q, False) for p in range(5) for q in range(5)
                                         if p + q >= 2] + [(1, 2, True)])
def test_the_so_pq_description_keeps_the_json_text_of_the_loop_basis(p, q, moved, monkeypatch):
    base_point = _moved_base_point() if moved else None
    got = json.dumps(pseudo_orthogonal.description(p, q, base_point))
    monkeypatch.setattr(pseudo_orthogonal, "so_pq_basis", _so_pq_basis_loop)
    assert got == json.dumps(pseudo_orthogonal.description(p, q, base_point))


# -- the level set X^T J X = G: one rule for the quadrics, Stiefel and SO+(p, q) ---------


def _points_off_unit_size(model, m, seed):
    """``m`` points of ``model`` scaled by factors e^(2 z) off the manifold; past the first,
    the last is 3 obar, which carries the signed zeros of obar."""
    rng = np.random.default_rng(seed)
    points = np.array([model.random_point(rng) for _ in range(m)])
    points = points * np.exp(2.0 * rng.standard_normal((m, 1)))
    points[1:][-1:] = 3.0 * model.obar
    return points


def _sizes(model):
    return (1, 8 * model.ambient_dim - 1, 2001)


@pytest.mark.parametrize("name", sorted(LEVEL_SET_REFERENCES))
def test_level_set_frames_keep_the_bits_of_the_bundles_they_replace(name):
    model, reference = get_model(name), LEVEL_SET_REFERENCES[name]
    for m in _sizes(model):
        points = _points_off_unit_size(model, m, m)
        got, expected = model.tangent_frame_at(points), reference["tangent_frame_at"](points)
        assert _same_bits(got, expected) and got.tobytes() == expected.tobytes(), m
        assert np.array_equal(np.signbit(got), np.signbit(expected)), m
        assert got.flags.c_contiguous, m


@pytest.mark.parametrize("name", ["sphere", "hyperboloid"])
def test_the_quadric_level_set_constraint_keeps_its_bits(name):
    model, reference = get_model(name), LEVEL_SET_REFERENCES[name]
    for m in _sizes(model):
        points = _points_off_unit_size(model, m, m)
        got, expected = model.constraint(points), reference["constraint"](points)
        assert _same_bits(got, expected) and got.tobytes() == expected.tobytes(), m


MATRIX_LEVEL_SETS = {
    **{name: LEVEL_SET_REFERENCES[name]["constraint"]
       for name in LEVEL_SET_REFERENCES if name.startswith("stiefel")},
    **{f"so_plus_{p}_{q}": _so_plus_constraint(p, q) for p, q in ((1, 2), (2, 2), (3, 1))},
}


@pytest.mark.parametrize("name", sorted(MATRIX_LEVEL_SETS))
def test_the_matrix_level_set_constraints_agree_within_rounding(name):
    model, reference = get_model(name), MATRIX_LEVEL_SETS[name]
    for m in _sizes(model):
        points = _points_off_unit_size(model, m, m)
        got, expected = model.constraint(points), reference(points)
        assert got.dtype == expected.dtype and got.shape == expected.shape
        scale = 4.0 * np.finfo(float).eps * np.maximum(1.0, np.sum(points * points, axis=1))
        assert np.all(np.abs(got - expected) <= scale[:, None]), m
