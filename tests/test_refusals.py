"""Every refusal that no other test reaches, each by its exact message.

A CLI refusal exits 1 and prints ``error: <message>`` on stderr; a library
refusal raises ``ValueError`` with the message itself.  The last tests cover
three branches that are not refusals: a reprojection that converges on its
last allowed step, a form compared with a non-form, and equal forms hashing
equal.
"""

import json
import re

import numpy as np
import pytest

from semiroll.cli import main
from semiroll.homogeneous import EmbeddedCurve, GroupPath, extrinsic_roll
from semiroll.integrate import TimeGrid, reproject_info
from semiroll.linalg import (RigidMotion, SignatureForm, j_orthogonality_residual, se_act,
                             se_compose)
from semiroll.models import build_model, get_model
from semiroll.models.sphere import description as sphere_description
from semiroll.models.stiefel import description as stiefel_description
from semiroll.rolling import RollingMapPath, compose_rolling

GRID = {"t0": 0.0, "t1": 1.0, "n_steps": 10}
ROLL = {"model": "sphere", "grid": GRID, "control": {"kind": "constant", "coords": [1.0, 0.0]}}


def _refused(argv, capsys):
    """The message of a CLI run that must exit 1."""
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.endswith("\n"), err
    return err[len("error: "):-1]


def _roll_refusal(config, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(config if isinstance(config, str) else json.dumps(config))
    return _refused(["roll", "--config", str(cfg)], capsys)


# -- cli: configs ----------------------------------------------------------

def test_a_config_that_cannot_be_read_is_refused(tmp_path, capsys):
    absent = tmp_path / "absent.json"
    assert _refused(["roll", "--config", str(absent)], capsys) == \
        f"cannot read config: [Errno 2] No such file or directory: '{absent}'"


@pytest.mark.parametrize("config, message", [
    ("not json", "config is not valid JSON: Expecting value: line 1 column 1 (char 0)"),
    ({**ROLL, "grid": {"t0": 0.0, "n_steps": 10}}, "config grid is missing 't1'"),
    ({**ROLL, "control": {"kind": "constant", "coords": [1.0, 0.0, 0.0]}},
     "control coords must have 2 components"),
    ({**ROLL, "control": {"kind": "sinusoid", "amplitude": [1.0, 0.0, 0.0],
                          "frequency": [1.0, 2.0, 3.0]}},
     "sinusoid arrays must have 2 components"),
    ({**ROLL, "control": {"kind": "spline"}}, "unknown control kind 'spline'"),
    ({**ROLL, "control": [1.0, 0.0]}, "config 'control' must be a JSON object"),
    ({"model": "sphere", "grid": GRID, "curve": {"points": [[0.0, -1.0]] * 11}},
     "curve points must be (11, 3)"),
    ({"grid": GRID, "control": ROLL["control"]}, "config is missing 'model'"),
], ids=["not_json", "grid_without_t1", "coords", "sinusoid", "control_kind", "control_list",
        "curve_points", "no_model"])
def test_a_bad_config_is_refused_by_name(config, message, tmp_path, capsys):
    assert _roll_refusal(config, tmp_path, capsys) == message


# -- cli: trajectories -----------------------------------------------------

def _trajectory(tmp_path):
    cfg, out = tmp_path / "cfg.json", tmp_path / "traj.csv"
    cfg.write_text(json.dumps(ROLL))
    assert main(["roll", "--config", str(cfg), "--out", str(out)]) == 0
    return out


def _drop_last_label(text):
    head, _, body = text.partition("\nt,")
    return head + "\nt," + body.replace(",s_2\n", "\n", 1)


@pytest.mark.parametrize("edit, message", [
    (lambda text: text.replace("# ambient_dim=3", "# ambient_dim=4"),
     "column count does not match metadata dimensions"),
    (_drop_last_label, "the header names 18 columns, the layout 19"),
    (lambda text: text.replace("# format_version=1", "# format_version=7"),
     "unsupported format_version 7"),
], ids=["ambient_dim", "header", "format_version"])
def test_a_bad_trajectory_is_refused_by_name(edit, message, tmp_path, capsys):
    out = _trajectory(tmp_path)
    text = out.read_text()
    edited = edit(text)
    assert edited != text
    out.write_text(edited)
    assert _refused(["verify", "--in", str(out)], capsys) == f"{out}: {message}"


def test_a_trajectory_that_cannot_be_read_is_refused(tmp_path, capsys):
    absent = tmp_path / "absent.csv"
    assert _refused(["verify", "--in", str(absent)], capsys) == \
        f"cannot read trajectory: [Errno 2] No such file or directory: '{absent}'"


# -- homogeneous -----------------------------------------------------------

def _raises(message):
    return pytest.raises(ValueError, match=f"^{re.escape(message)}$")


def test_group_samples_of_the_wrong_shape_are_refused():
    grid = TimeGrid(0.0, 1.0, 10)
    for samples in (np.zeros((11, 4)), np.zeros((10, 4, 4))):
        with _raises("group samples must be (n_nodes, d, d) matching the grid"):
            GroupPath(grid, samples)


@pytest.mark.parametrize("field, value, message", [
    ("basis", np.zeros((7, 4, 3)).tolist(), "basis must be a stack of square matrices"),
    ("h_indices", [0, 1], "h_indices and p_indices must partition the basis"),
    ("d_e_pi", [[0.5, 0.0]], "d_e_pi must be square of size len(p_indices)"),
    ("group_signs", [1, 1, 1], "group form has dimension 3, the basis matrices are 4 x 4"),
], ids=["basis", "indices", "d_e_pi", "group_signs"])
def test_a_description_that_breaks_the_model_shapes_is_refused(field, value, message):
    desc = sphere_description()
    desc[field] = value
    with _raises(message):
        build_model(desc)


def test_a_stiefel_description_whose_group_form_disagrees_with_its_basis_is_refused():
    # the bundle reads n off the group form: a short one must not reach a reshape
    desc = stiefel_description(4, 2)
    desc["group_signs"] = [1, 1, 1]
    with _raises("group form has dimension 3, the basis matrices are 4 x 4"):
        build_model(desc)


def test_a_curve_of_another_ambient_dimension_is_refused():
    grid = TimeGrid(0.0, 1.0, 10)
    points = np.tile([0.0, -1.0], (grid.n_nodes, 1))
    with _raises("curve ambient dimension does not match the model"):
        extrinsic_roll(get_model("sphere"), EmbeddedCurve(grid, points))


# -- linalg ----------------------------------------------------------------

@pytest.mark.parametrize("make, message", [
    (lambda: SignatureForm([]), "signature must be a nonempty 1-d sign vector"),
    (lambda: SignatureForm([[1, -1]]), "signature must be a nonempty 1-d sign vector"),
    (lambda: SignatureForm([1, 0]), "signature entries must be +1 or -1"),
    (lambda: SignatureForm.from_pq(0, 0), "need p, q >= 0 with p + q >= 1"),
    (lambda: SignatureForm.from_pq(-1, 2), "need p, q >= 0 with p + q >= 1"),
    (lambda: SignatureForm([1, -1]).ip(np.ones(3), np.ones(2)),
     "vectors have trailing dimension 3/2, form has dimension 2"),
    (lambda: RigidMotion(np.eye(3)[:2], np.zeros(2)), "R must be a square matrix"),
    (lambda: se_act(RigidMotion(np.eye(3), np.zeros(3)), np.ones(2)),
     "vector dimension 2 != motion dimension 3"),
    (lambda: se_compose(RigidMotion(np.eye(3), np.zeros(3)), RigidMotion(np.eye(2), np.zeros(2))),
     "cannot compose motions of different dimensions"),
    (lambda: j_orthogonality_residual(np.eye(3), SignatureForm([1, -1])),
     "matrix shape does not match the form"),
], ids=["empty_signs", "matrix_signs", "zero_sign", "from_pq_empty", "from_pq_negative", "ip",
        "motion_not_square", "se_act", "se_compose", "j_orthogonality_residual"])
def test_linalg_refuses_by_name(make, message):
    with _raises(message):
        make()


# -- rolling ---------------------------------------------------------------

def test_rolling_paths_of_different_forms_do_not_compose():
    grid = TimeGrid(0.0, 1.0, 4)
    m = grid.n_nodes

    def still(signs):
        n = len(signs)
        x = np.tile(np.eye(n)[0], (m, 1))
        return RollingMapPath(grid, np.tile(np.eye(n), (m, 1, 1)), np.zeros((m, n)), x, x,
                              SignatureForm(signs))

    with _raises("rolling paths use different ambient forms"):
        compose_rolling(still([1, 1, 1]), still([-1, 1, 1]))


# -- branches that are not refusals ------------------------------------------

def test_reprojection_converges_on_its_last_allowed_step():
    form = SignatureForm([1, -1, 1])
    X = np.eye(3) + 1e-7 * np.array([[0.0, 1.0, 2.0], [1.0, 3.0, 0.0], [2.0, 0.0, 1.0]])
    projected, iterations, residual = reproject_info(X, form, max_iter=1)
    assert iterations == 1
    assert residual <= 1e-12
    assert j_orthogonality_residual(projected, form) == residual
    with pytest.raises(ValueError, match="^reprojection did not converge in 0 iterations"):
        reproject_info(X, form, max_iter=0)


def test_a_form_is_not_equal_to_what_is_no_form():
    form = SignatureForm([1, -1, 1])
    assert form.__eq__(3) is NotImplemented
    assert not form == 3 and form != 3


def test_equal_forms_hash_equal():
    a, b = SignatureForm([1, 1, -1]), SignatureForm.from_pq(2, 1)
    assert a == b and a is not b
    assert hash(a) == hash(b)
    assert len({a, b, SignatureForm([1, -1, 1])}) == 2
