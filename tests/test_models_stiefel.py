"""Stiefel manifolds: the model's base splitting, the no-twist correction, rolling."""

import json
from importlib import resources

import numpy as np
import pytest

from semiroll.homogeneous import (
    ControlCurve,
    EmbeddedCurve,
    TimeGrid,
    extrinsic_roll,
    model_residual_report,
)
from semiroll.linalg import stacked_vec
from semiroll.models import build_model, get_model
from semiroll.models.stiefel import description


def _projectors(model):
    """The model's orthogonal projectors onto the base tangent and normal spaces."""
    Pt = model.frame0 @ model.cf0
    return Pt, np.eye(model.ambient_dim) - Pt


def test_subspaces_are_orthonormal_and_complementary():
    model = get_model("stiefel_4_2")
    Pt, Pn = _projectors(model)
    N = model.normal0
    assert model.frame0.shape == (8, 5) and N.shape == (8, 3)
    assert np.max(np.abs(Pt @ Pt - Pt)) <= 1e-14
    assert np.max(np.abs(Pt - Pt.T)) <= 1e-14
    assert np.max(np.abs(N.T @ N - np.eye(3))) <= 1e-14
    assert np.max(np.abs(model.frame0.T @ N)) <= 1e-14
    assert np.max(np.abs(Pn - N @ N.T)) <= 1e-14


def test_subspace_dimensions_follow_the_general_count():
    for n, k in ((3, 1), (4, 2), (5, 2), (5, 3)):
        model = get_model(f"stiefel_{n}_{k}")
        dim_st = n * k - k * (k + 1) // 2
        assert model.frame0.shape == (n * k, dim_st)
        assert model.normal0.shape == (n * k, k * (k + 1) // 2)


def test_correction_is_skew_and_block_diagonal():
    model = get_model("stiefel_4_2")
    Pt, Pn = _projectors(model)
    rng = np.random.default_rng(1)
    omega = np.tensordot(rng.standard_normal(model.p_dim) * 0.4, model.omega_basis, axes=(0, 0))
    assert np.max(np.abs(omega + omega.T)) <= 1e-14
    assert np.max(np.abs(Pn @ omega @ Pt)) <= 1e-13
    assert np.max(np.abs(Pt @ omega @ Pn)) <= 1e-13


def test_sphere_case_needs_no_correction():
    # V_1(R^3) = S^2 is a symmetric space, and the derived correction says so
    model = get_model("stiefel_3_1")
    assert np.max(np.abs(model.omega_basis)) == 0.0
    assert model.symmetric_space


def test_model_flags():
    model = get_model("stiefel_4_2")
    assert not model.symmetric_space
    sphere_like = get_model("stiefel_3_1")
    assert sphere_like.ambient_dim == 3


@pytest.mark.parametrize("n,k", [(3, 1), (4, 2)])
def test_rolling_passes_the_condition_suite(n, k):
    model = get_model(f"stiefel_{n}_{k}")
    grid = TimeGrid(0.0, 1.0, 200)
    rng = np.random.default_rng(n * 10 + k)
    amp = rng.standard_normal(model.p_dim) * 0.4
    ctrl = ControlCurve.from_function(grid, lambda t: amp * np.cos(t + np.arange(model.p_dim)))
    path = extrinsic_roll(model, ctrl)
    report = model_residual_report(model, path)
    assert report.passed(50 * grid.h**2)


def test_roll_accepts_sampled_matrices():
    # feed the same geodesic once as a control and once as point samples
    grid = TimeGrid(0.0, 1.0, 300)
    model = get_model("stiefel_4_2")
    ctrl = ControlCurve.from_function(grid, lambda t: np.array([0.7, 0.0, 0.0, 0.0, 0.0]))
    from_control = extrinsic_roll(model, ctrl)
    mats = from_control.alpha.reshape(grid.n_nodes, 2, 4).transpose(0, 2, 1)
    from_samples = extrinsic_roll(model, EmbeddedCurve(grid, stacked_vec(mats)))
    assert np.max(np.abs(from_samples.alpha - from_control.alpha)) <= 1e-7
    assert np.max(np.abs(from_samples.R - from_control.R)) <= 1e-6


def test_bundled_descriptions_match_the_generators():
    data_dir = resources.files("semiroll.models") / "data"
    generators = {
        "stiefel_4_2": lambda: description(4, 2),
        "sphere": None,
        "hyperboloid": None,
        "so_plus_1_2": None,
    }
    from semiroll.models import hyperbolic, pseudo_orthogonal, sphere

    generators["sphere"] = sphere.description
    generators["hyperboloid"] = hyperbolic.description
    generators["so_plus_1_2"] = lambda: pseudo_orthogonal.description(1, 2)
    for stem, gen in generators.items():
        shipped = json.loads((data_dir / f"{stem}.json").read_text())
        fresh = json.loads(json.dumps(gen()))
        assert shipped == fresh, f"bundled {stem}.json drifted from its generator"


def _stiefel_4_2_at(frame):
    desc = description(4, 2)
    desc["base_point"] = frame.tolist()
    return desc


def test_bundle_takes_the_base_point_of_the_description():
    # a frame rotated inside the top k x k block is fixed by the isotropy SO(n - k)
    c, s = np.cos(0.7), np.sin(0.7)
    frame = np.eye(4, 2) @ np.array([[c, -s], [s, c]])
    model = build_model(_stiefel_4_2_at(frame), validate=True)
    assert np.array_equal(model.base_point, frame)
    assert np.array_equal(model.obar, frame.reshape(-1, order="F"))


def test_base_point_off_the_fixed_frames_of_the_isotropy_is_refused():
    frame = np.linalg.qr(np.random.default_rng(0).standard_normal((4, 2)))[0]
    with pytest.raises(ValueError, match="isotropy algebra does not fix the base point"):
        build_model(_stiefel_4_2_at(frame), validate=True)
