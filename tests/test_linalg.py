"""Group laws and form bookkeeping for rigid motions of an indefinite space."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from semiroll import linalg
from semiroll.linalg import (
    RigidMotion,
    SignatureForm,
    expm,
    is_oriented_isometry,
    j_orthogonality_residual,
    random_motion,
    random_oriented_isometry,
    se_act,
    se_compose,
    se_inverse,
    stacked_null_spaces,
)
from semiroll.models import available_models, get_model, hyperbolic, sphere

ALGEBRA_TOL = 1e-12


def _motion(rng, form):
    return random_motion(form, rng)


signatures = st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(
    lambda pq: 2 <= pq[0] + pq[1] <= 6
)


@settings(max_examples=60, deadline=None)
@given(signatures, st.integers(0, 2**31 - 1))
def test_compose_is_associative(pq, seed):
    form = SignatureForm.from_pq(*pq)
    rng = np.random.default_rng(seed)
    g1, g2, g3 = (_motion(rng, form) for _ in range(3))
    left = se_compose(se_compose(g3, g2), g1)
    right = se_compose(g3, se_compose(g2, g1))
    assert np.max(np.abs(left.R - right.R)) <= ALGEBRA_TOL
    assert np.max(np.abs(left.s - right.s)) <= ALGEBRA_TOL


@settings(max_examples=60, deadline=None)
@given(signatures, st.integers(0, 2**31 - 1))
def test_inverse_cancels(pq, seed):
    form = SignatureForm.from_pq(*pq)
    rng = np.random.default_rng(seed)
    g = _motion(rng, form)
    e = se_compose(g, se_inverse(g))
    assert np.max(np.abs(e.R - np.eye(form.dim))) <= ALGEBRA_TOL
    assert np.max(np.abs(e.s)) <= ALGEBRA_TOL


@settings(max_examples=60, deadline=None)
@given(signatures, st.integers(0, 2**31 - 1))
def test_action_respects_composition(pq, seed):
    form = SignatureForm.from_pq(*pq)
    rng = np.random.default_rng(seed)
    g1, g2 = _motion(rng, form), _motion(rng, form)
    v = rng.standard_normal(form.dim)
    assert np.max(np.abs(se_act(se_compose(g2, g1), v) - se_act(g2, se_act(g1, v)))) <= ALGEBRA_TOL


@settings(max_examples=60, deadline=None)
@given(signatures, st.integers(0, 2**31 - 1))
def test_motions_preserve_interval(pq, seed):
    """The quadratic form of a difference vector is a joint invariant."""
    form = SignatureForm.from_pq(*pq)
    rng = np.random.default_rng(seed)
    g = _motion(rng, form)
    x = rng.standard_normal(form.dim)
    y = rng.standard_normal(form.dim)
    before = form.ip(x - y, x - y)
    after = form.ip(se_act(g, x) - se_act(g, y), se_act(g, x) - se_act(g, y))
    assert abs(before - after) <= 1e-10 * max(1.0, abs(before))


def test_se_act_batches_points():
    form = SignatureForm.from_pq(2, 1)
    rng = np.random.default_rng(11)
    g = _motion(rng, form)
    pts = rng.standard_normal((7, 3))
    batch = se_act(g, pts)
    assert batch.shape == (7, 3)
    for i in range(7):
        assert np.allclose(batch[i], se_act(g, pts[i]))


def test_signature_form_basics():
    form = SignatureForm.from_pq(2, 1)
    assert form.dim == 3 and form.p == 2 and form.q == 1
    e = np.eye(3)
    assert form.ip(e[0], e[0]) == 1.0
    assert form.ip(e[2], e[2]) == -1.0
    assert form.ip(e[0], e[2]) == 0.0
    assert np.array_equal(form.signs, [1.0, 1.0, -1.0])


def test_orientation_accepts_lorentz_boost():
    form = SignatureForm(np.array([1.0, -1.0]))
    t = 0.7
    boost = np.array([[np.cosh(t), np.sinh(t)], [np.sinh(t), np.cosh(t)]])
    ok, res = is_oriented_isometry(boost, form)
    assert ok and res <= 1e-12


def test_orientation_rejects_space_reflection():
    form = SignatureForm(np.array([1.0, 1.0, -1.0]))
    refl = np.diag([-1.0, 1.0, 1.0])
    ok, _ = is_oriented_isometry(refl, form)
    assert not ok


def test_orientation_rejects_time_reversal():
    form = SignatureForm(np.array([1.0, 1.0, -1.0]))
    rev = np.diag([1.0, 1.0, -1.0])
    ok, _ = is_oriented_isometry(rev, form)
    assert not ok


def test_orientation_accepts_double_reflection():
    # minus on two spatial axes is a rotation by pi, still oriented
    form = SignatureForm(np.array([1.0, 1.0, -1.0]))
    rot = np.diag([-1.0, -1.0, 1.0])
    ok, res = is_oriented_isometry(rot, form)
    assert ok and res <= 1e-12


def test_orientation_rejects_non_isometry():
    form = SignatureForm.from_pq(3, 0)
    ok, res = is_oriented_isometry(1.1 * np.eye(3), form)
    assert not ok and res > 1e-3


def _su11_element():
    """An SU(1,1) element: J-unitary for J = diag(1, -1), complex."""
    a, b = np.cosh(0.4) * np.exp(0.3j), np.sinh(0.4) * np.exp(-0.1j)
    return np.array([[a, b], [np.conj(b), np.conj(a)]])


@pytest.mark.parametrize("stacked", [False, True], ids=["matrix", "stack"])
@pytest.mark.parametrize("check", [j_orthogonality_residual, is_oriented_isometry],
                         ids=lambda f: f.__name__)
def test_group_checks_refuse_a_complex_matrix_by_name(check, stacked):
    # a complex group enters as its real form; a complex matrix is refused, not judged
    g = _su11_element()
    with pytest.raises(ValueError, match=f"^{check.__name__} input must be real, got a complex"):
        check(np.stack([g, g]) if stacked else g, SignatureForm(np.array([1.0, -1.0])))


@pytest.mark.parametrize("pq", [(3, 0), (2, 2), (1, 3)])
def test_j_orthogonality_residual_keeps_the_bits_of_the_whole_array_expression(pq):
    form = SignatureForm.from_pq(*pq)
    rng = np.random.default_rng(sum(pq))
    R = np.array([random_oriented_isometry(form, rng, scale=2.0) for _ in range(7)])
    R += 1e-9 * rng.standard_normal(R.shape)
    J = np.diag(form.signs)
    reference = np.max(np.abs(np.swapaxes(R, 1, 2) @ (form.signs[:, None] * R) - J), axis=(1, 2))
    assert np.array_equal(j_orthogonality_residual(R, form), reference)
    assert j_orthogonality_residual(R[3], form) == reference[3]


def test_random_oriented_isometry_lands_in_group():
    rng = np.random.default_rng(5)
    form = SignatureForm.from_pq(2, 2)
    for _ in range(20):
        R = random_oriented_isometry(form, rng, scale=0.6)
        ok, res = is_oriented_isometry(R, form)
        assert ok and res <= 1e-9


def test_rigid_motion_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        RigidMotion(R=np.eye(3), s=np.zeros(2))


# ``expm`` against scipy's, relative to the largest entry of the exponential
EXPM_ALGEBRA_TOL = 1e-13
EXPM_J_SKEW_TOL = 1e-12


def _relative_expm_gap(X):
    ref = scipy.linalg.expm(X)
    return np.max(np.abs(expm(X) - ref)) / np.max(np.abs(ref))


# the sphere and the hyperboloid hold their algebras as real forms; expm also
# takes the complex SU(2) / SU(1,1) bases they are the real forms of
COMPLEX_BASES = {"su2": sphere.SU2_BASIS, "su11": hyperbolic.SU11_BASIS}


@pytest.mark.parametrize("name", sorted({*available_models(), "so_plus_2_2", *COMPLEX_BASES}))
def test_expm_matches_scipy_on_the_model_algebras(name):
    basis = COMPLEX_BASES[name] if name in COMPLEX_BASES else get_model(name).basis
    rng = np.random.default_rng(11)
    gaps = [_relative_expm_gap(np.tensordot(0.5 * rng.standard_normal(len(basis)), basis,
                                            axes=(0, 0))) for _ in range(20)]
    assert max(gaps) <= EXPM_ALGEBRA_TOL


@pytest.mark.parametrize("n", range(3, 9))
def test_expm_matches_scipy_on_j_skew_draws_of_every_signature(n):
    rng = np.random.default_rng(n)
    for p in range(n + 1):
        signs = SignatureForm.from_pq(p, n - p).signs
        for _ in range(20):
            K = rng.standard_normal((n, n))
            assert _relative_expm_gap(signs[:, None] * (K - K.T) / 2) <= EXPM_J_SKEW_TOL


def test_expm_of_zero_is_exactly_the_identity():
    assert np.array_equal(expm(np.zeros((5, 5))), np.eye(5))
    assert np.array_equal(expm(np.zeros((2, 2), dtype=complex)), np.eye(2))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_expm_refuses_non_finite_input_by_name(bad):
    X = np.zeros((3, 3))
    X[1, 2] = bad
    with pytest.raises(ValueError, match="NaN or inf"):
        expm(X)


@pytest.mark.parametrize("shape", [(3,), (2, 3), (2, 2, 2)])
def test_expm_refuses_anything_but_one_square_matrix(shape):
    with pytest.raises(ValueError, match="one square matrix"):
        expm(np.zeros(shape))


def test_expm_keeps_j_orthogonality_no_worse_than_scipy():
    # the defect of exp(J K), scaled by max|E|^2, over 3000 seeded draws of
    # dimension 3-8 and random signature: ours against scipy's at p99 and max
    rng = np.random.default_rng(2024)
    ours, ref = [], []
    for _ in range(3000):
        n = int(rng.integers(3, 9))
        p = int(rng.integers(0, n + 1))
        form = SignatureForm.from_pq(p, n - p)
        K = rng.standard_normal((n, n))
        X = form.signs[:, None] * (K - K.T) / 2
        for exp, defects in ((expm, ours), (scipy.linalg.expm, ref)):
            E = exp(X)
            defects.append(j_orthogonality_residual(E, form) / np.max(np.abs(E)) ** 2)
    assert np.percentile(ours, 99) <= np.percentile(ref, 99)
    assert max(ours) <= max(ref)


# -- stacked_null_spaces: LAPACK's reflector conventions at the edge cases --


def test_null_space_of_an_axis_aligned_row_with_a_negative_zero_pivot_is_scipys():
    # the hyperboloid's frame0^T J: its first entry is -0.0, which LAPACK
    # counts as negative; a ">= 0" pivot sign would flip the basis
    model = get_model("hyperboloid")
    rows = model.frame0.T * model.form.signs[None, :]
    assert np.any(np.signbit(rows) & (rows == 0.0))
    basis = stacked_null_spaces(rows[None])[0]
    assert np.max(np.abs(basis - scipy.linalg.null_space(rows))) <= 1e-15
    for row in ([-0.0, 1.0, 0.0], [-0.0, 0.0, 2.0], [0.0, -0.0, 3.0], [-0.0, -0.0, -1.0]):
        row = np.array([row])
        basis = stacked_null_spaces(row[None])[0]
        assert np.max(np.abs(basis - scipy.linalg.null_space(row))) <= 1e-15


@pytest.mark.parametrize("rows", [
    [[0.0, 0.0, 0.0]],                          # a zero row
    [[2.0, 0.0, 0.0]],                          # nothing below the pivot
    [[-0.0, 0.0, 0.0]],
    [[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]],
    [[1.0, 2.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]],
    [[0.0, 0.0, 0.0, 0.0], [0.0, 3.0, 0.0, 1.0]],
], ids=["zero", "axis", "negative-zero", "axis-then-zero", "row-then-zero", "zero-then-row"])
def test_null_space_of_zero_columns_below_the_pivot_is_finite_and_orthonormal(rows):
    # pytest turns a 0/0 or x/0 RuntimeWarning into an error
    rows = np.array([rows])
    _, k, N = rows.shape
    basis = stacked_null_spaces(rows)
    assert basis.shape == (1, N, N - k)
    assert np.all(np.isfinite(basis))
    assert np.max(np.abs(np.swapaxes(basis, 1, 2) @ basis - np.eye(N - k))) <= 1e-15
    if np.linalg.matrix_rank(rows[0]) == rows.shape[1]:
        assert np.max(np.abs(rows @ basis)) <= 1e-15


@pytest.mark.parametrize("k, N", [(1, 1), (2, 2), (3, 3)])
def test_null_space_of_a_square_stack_is_empty(k, N):
    rows = np.random.default_rng(k).standard_normal((5, k, N))
    assert stacked_null_spaces(rows).shape == (5, N, 0)


def test_null_space_of_a_full_rank_square_stack_takes_no_reflection(monkeypatch):
    def refuse(*args):
        raise AssertionError("a square stack took a Householder reflection")

    monkeypatch.setattr(linalg, "_householder", refuse)
    monkeypatch.setattr(linalg, "_reflect", refuse)
    rows = np.array([np.eye(4), 2.0 * np.eye(4)[::-1], np.diag([1.0, 1.0, -1.0, -1.0])])
    basis = stacked_null_spaces(rows)
    assert basis.shape == (3, 4, 0)
    rows[1, 2, 0] = np.nan
    with pytest.raises(ValueError, match="^null-space rows contain NaN or inf$"):
        stacked_null_spaces(rows)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_null_space_refuses_non_finite_rows_by_name(bad):
    rows = np.ones((4, 1, 3))
    rows[2, 0, 1] = bad
    with pytest.raises(ValueError, match="NaN or inf"):
        stacked_null_spaces(rows)
