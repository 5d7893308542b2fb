"""End-to-end CLI behaviour: exit codes, file formats, bundled configs."""

import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import semiroll
from semiroll.cli import _load_trajectory, main
from semiroll.homogeneous import ControlCurve, extrinsic_roll, model_residual_report
from semiroll.integrate import TimeGrid
from semiroll.linalg import expm
from semiroll.models import get_model
from semiroll.rolling import RollingMapPath

CONFIG_DIR = resources.files("semiroll") / "configs"
BUNDLED = sorted(p.name for p in CONFIG_DIR.iterdir() if p.name.endswith(".json"))


def _cfg(name):
    return str(CONFIG_DIR / name)


@pytest.mark.parametrize("config", BUNDLED)
def test_bundled_configs_roll_and_verify(config, tmp_path, capsys):
    out = tmp_path / "traj.csv"
    assert main(["roll", "--config", _cfg(config), "--out", str(out)]) == 0
    assert out.exists()
    assert main(["verify", "--in", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.out.strip().endswith("PASS")


def test_roll_to_stdout_prints_a_csv_table(capsys):
    assert main(["roll", "--config", _cfg("sphere_quarter_equator.json")]) == 0
    out = capsys.readouterr().out
    assert "# kind=rolling_trajectory" in out
    assert "# model=sphere" in out
    header = next(line for line in out.splitlines() if line.startswith("t,"))
    assert "alpha_0" in header and "R_0_0" in header and "s_0" in header


def test_json_output_round_trips_through_verify(tmp_path, capsys):
    out = tmp_path / "traj.json"
    assert main(["roll", "--config", _cfg("sphere_quarter_equator.json"), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["kind"] == "rolling_trajectory"
    assert doc["model"] == "sphere"
    assert len(doc["t"]) == doc["n_steps"] + 1
    assert main(["verify", "--in", str(out)]) == 0
    assert capsys.readouterr().out.strip().endswith("PASS")


def test_csv_writing_is_deterministic(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    main(["roll", "--config", _cfg("hyperboloid_geodesic.json"), "--out", str(a)])
    main(["roll", "--config", _cfg("hyperboloid_geodesic.json"), "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_csv_values_survive_a_parse_rewrite_cycle(tmp_path):
    # %.17g is enough digits to reproduce every double bit for bit
    out = tmp_path / "traj.csv"
    main(["roll", "--config", _cfg("sphere_quarter_equator.json"), "--out", str(out)])
    from semiroll.cli import _load_trajectory

    _, first = _load_trajectory(str(out))
    rewritten = tmp_path / "again.csv"
    text = out.read_text()
    rewritten.write_text(text)
    _, second = _load_trajectory(str(rewritten))
    for key in first:
        assert np.array_equal(first[key], second[key])
    reformatted = "\n".join(
        ",".join(f"{v:.17g}" for v in row) for row in np.atleast_2d(first["alpha"])
    )
    reparsed = np.array([[float(x) for x in line.split(",")] for line in reformatted.splitlines()])
    assert np.array_equal(reparsed, first["alpha"])


def test_tampered_trajectory_breaches(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    main(["roll", "--config", _cfg("sphere_quarter_equator.json"), "--out", str(out)])
    lines = out.read_text().splitlines()
    row = lines[-1].split(",")
    row[1] = f"{float(row[1]) + 0.05:.17g}"  # push alpha off the contact point
    lines[-1] = ",".join(row)
    out.write_text("\n".join(lines) + "\n")
    assert main(["verify", "--in", str(out)]) == 2
    captured = capsys.readouterr().out
    assert "BREACH" in captured
    assert captured.strip().endswith("FAIL")


def _scale_time_column(out, factor):
    if out.suffix == ".json":
        doc = json.loads(out.read_text())
        doc["t"] = [t * factor for t in doc["t"]]
        out.write_text(json.dumps(doc))
        return
    lines = out.read_text().splitlines()
    first = next(i for i, line in enumerate(lines) if line.startswith("t,"))
    for i in range(first + 1, len(lines)):
        row = lines[i].split(",")
        row[0] = f"{float(row[0]) * factor:.17g}"
        lines[i] = ",".join(row)
    out.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("suffix", [".csv", ".json"])
@pytest.mark.parametrize("factor, code", [(1.0, 0), (1 + 1e-13, 0), (1 + 1e-9, 1), (1 + 1e-6, 1)])
def test_a_stretched_time_column_is_refused(suffix, factor, code, tmp_path, capsys):
    out = tmp_path / f"traj{suffix}"
    assert main(["roll", "--config", _cfg("sphere_quarter_equator.json"), "--out", str(out)]) == 0
    _scale_time_column(out, factor)
    capsys.readouterr()
    assert main(["verify", "--in", str(out)]) == code
    captured = capsys.readouterr()
    if code:
        assert "time column does not match the declared grid" in captured.err
        assert captured.out == ""
    else:
        assert captured.out.strip().endswith("PASS")


def test_overtight_tolerance_breaches(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    main(["roll", "--config", _cfg("sphere_quarter_equator.json"), "--out", str(out)])
    assert main(["verify", "--in", str(out), "--tol", "1e-18"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
def test_verify_refuses_a_tolerance_that_is_not_finite_and_positive(tol, tmp_path, capsys):
    cfg, out = tmp_path / "cfg.json", tmp_path / "traj.csv"
    cfg.write_text(json.dumps(_SMALL_ROLL))
    assert main(["roll", "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["verify", "--in", str(out), "--tol", tol]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: --tol must be finite and > 0, got {float(tol)}")
    assert captured.out == ""


def test_wrong_kind_is_an_error_not_a_breach(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    main(["roll", "--config", _cfg("sphere_quarter_equator.json"), "--out", str(out)])
    text = out.read_text().replace("rolling_trajectory", "something_else")
    out.write_text(text)
    assert main(["verify", "--in", str(out)]) == 1
    assert "not a rolling trajectory" in capsys.readouterr().err


def test_unknown_model_in_config(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({
        "model": "torus",
        "grid": {"t0": 0.0, "t1": 1.0, "n_steps": 10},
        "control": {"kind": "constant", "coords": [1.0, 0.0]},
    }))
    assert main(["roll", "--config", str(cfg)]) == 1
    assert "torus" in capsys.readouterr().err


def test_config_with_control_and_curve_is_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({
        "model": "sphere",
        "grid": {"t0": 0.0, "t1": 1.0, "n_steps": 10},
        "control": {"kind": "constant", "coords": [1.0, 0.0]},
        "curve": {"points": [[0.0, -1.0, 0.0]] * 11},
    }))
    assert main(["roll", "--config", str(cfg)]) == 1
    assert "exactly one" in capsys.readouterr().err


def test_missing_required_argument_exits_one(capsys):
    assert main(["roll"]) == 1
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_models_listing(capsys):
    assert main(["models"]) == 0
    plain = capsys.readouterr().out
    for name in ("sphere", "hyperboloid", "so_plus_1_2", "stiefel_4_2"):
        assert name in plain
    assert main(["models", "--long"]) == 0
    detailed = capsys.readouterr().out
    assert "symmetric" in detailed and "reductive" in detailed


def test_non_finite_rotation_is_an_error_not_a_pass(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    main(["roll", "--config", _cfg("sphere_quarter_equator.json"), "--out", str(out)])
    lines = out.read_text().splitlines()
    header = next(i for i, line in enumerate(lines) if line.startswith("t,"))
    col = lines[header].split(",").index("R_0_0")
    row = lines[-3].split(",")
    row[col] = "nan"
    lines[-3] = ",".join(row)
    out.write_text("\n".join(lines) + "\n")
    assert main(["verify", "--in", str(out)]) == 1
    assert "NaN or inf" in capsys.readouterr().err


def test_zero_rotation_is_an_error_not_a_pass(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    main(["roll", "--config", _cfg("sphere_quarter_equator.json"), "--out", str(out)])
    lines = out.read_text().splitlines()
    header = next(i for i, line in enumerate(lines) if line.startswith("t,"))
    cols = [i for i, name in enumerate(lines[header].split(",")) if name.startswith("R_")]
    row = lines[-3].split(",")
    for col in cols:
        row[col] = "0"
    lines[-3] = ",".join(row)
    out.write_text("\n".join(lines) + "\n")
    assert main(["verify", "--in", str(out)]) == 1
    assert "rank deficient" in capsys.readouterr().err



_SMALL_ROLL = {
    "model": "sphere",
    "grid": {"t0": 0.0, "t1": 1.0, "n_steps": 10},
    "control": {"kind": "constant", "coords": [1.0, 0.0]},
}


def _drop_t0_line(text):
    return "".join(line for line in text.splitlines(True) if not line.startswith("# t0="))


def _json_edit(change):
    def edit(text):
        doc = json.loads(text)
        change(doc)
        return json.dumps(doc)

    return edit


@pytest.mark.parametrize("command, payload", [
    pytest.param("verify", (".csv", _drop_t0_line), id="csv_without_t0"),
    pytest.param("verify", (".json", _json_edit(lambda doc: doc.pop("t0"))), id="json_without_t0"),
    pytest.param("verify", (".json", _json_edit(lambda doc: doc.update(n_steps=0))),
                 id="zero_n_steps"),
    pytest.param("verify", (".json", _json_edit(lambda doc: doc.update(n_steps="10"))),
                 id="string_n_steps"),
    pytest.param("verify", (".json", _json_edit(lambda doc: doc["t"].pop())), id="short_t_column"),
    pytest.param("verify", (".json", lambda text: "5"), id="json_not_an_object"),
    pytest.param("verify", (".json", _json_edit(lambda doc: doc.update(model=5))),
                 id="int_model_in_trajectory"),
    pytest.param("roll", {**_SMALL_ROLL, "control": {"kind": "sinusoid", "amplitude": [1.0, 0.5]}},
                 id="sinusoid_without_frequency"),
    pytest.param("roll", {**_SMALL_ROLL, "control": {"kind": "constant", "coords": ["a", 1]}},
                 id="non_numeric_coords"),
    pytest.param("roll", {"model": "sphere", "grid": _SMALL_ROLL["grid"], "curve": {}},
                 id="curve_without_points"),
    pytest.param("roll", [_SMALL_ROLL], id="list_config"),
    pytest.param("roll", {**_SMALL_ROLL, "model": 5}, id="int_model"),
    pytest.param("roll", {**_SMALL_ROLL, "model": True}, id="bool_model"),
    pytest.param("roll", {**_SMALL_ROLL, "model": ["sphere"]}, id="list_model"),
])
def test_bad_input_is_an_error_message_not_a_traceback(command, payload, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    if command == "verify":
        suffix, edit = payload
        out = tmp_path / f"traj{suffix}"
        cfg.write_text(json.dumps(_SMALL_ROLL))
        assert main(["roll", "--config", str(cfg), "--out", str(out)]) == 0
        out.write_text(edit(out.read_text()))
        argv = ["verify", "--in", str(out)]
    else:
        cfg.write_text(json.dumps(payload))
        argv = ["roll", "--config", str(cfg)]
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


def _samples_config(values):
    """A 100-step so_plus_1_2 config whose control is known only by its node ``values``."""
    return {"model": "so_plus_1_2", "grid": {"t0": 0.0, "t1": 1.0, "n_steps": 100},
            "control": {"kind": "samples", "values": np.asarray(values).tolist()}}


def _smooth_samples(n_rows=101, n_cols=3):
    ts = np.linspace(0.0, 1.0, 101)[:n_rows]
    return np.stack([0.4 * np.sin(2 * ts), -0.3 * np.cos(3 * ts), 0.25 * ts], 1)[:, :n_cols]


def test_a_samples_control_rolls_and_verifies(tmp_path, capsys):
    cfg, out = tmp_path / "cfg.json", tmp_path / "traj.csv"
    cfg.write_text(json.dumps(_samples_config(_smooth_samples())))
    assert main(["roll", "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["verify", "--in", str(out)]) == 0
    *fields, verdict = capsys.readouterr().out.strip().splitlines()
    assert verdict == "PASS" and len(fields) == 5
    # the cubic through the samples is smooth: every residual sits far below 50 h^2
    assert all(float(line.split()[1]) <= 1e-6 for line in fields), fields


@pytest.mark.parametrize("values", [_smooth_samples(n_rows=100), _smooth_samples(n_cols=2)],
                         ids=["rows", "columns"])
def test_a_samples_control_of_the_wrong_shape_is_refused(values, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_samples_config(values)))
    capsys.readouterr()
    assert main(["roll", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == "error: control samples must be (101, 3)\n"


@pytest.mark.parametrize("n_steps", [10.7, "10", True], ids=["float", "string", "bool"])
def test_roll_refuses_a_non_integer_step_count(n_steps, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**_SMALL_ROLL, "grid": {**_SMALL_ROLL["grid"], "n_steps": n_steps}}))
    capsys.readouterr()
    assert main(["roll", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err.startswith("error: bad grid")


@pytest.mark.parametrize("end, value", [("t1", np.inf), ("t0", -np.inf), ("t1", np.nan)])
def test_roll_refuses_a_non_finite_grid_end(end, value, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**_SMALL_ROLL, "grid": {**_SMALL_ROLL["grid"], end: value}}))
    capsys.readouterr()
    assert main(["roll", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err.startswith("error: bad grid: grid ends must be finite")


def test_verify_refuses_a_non_finite_grid_end(tmp_path, capsys):
    cfg, out = tmp_path / "cfg.json", tmp_path / "traj.json"
    cfg.write_text(json.dumps(_SMALL_ROLL))
    assert main(["roll", "--config", str(cfg), "--out", str(out)]) == 0
    out.write_text(out.read_text().replace('"t1": 1.0', '"t1": Infinity'))
    capsys.readouterr()
    assert main(["verify", "--in", str(out)]) == 1
    assert "bad grid: grid ends must be finite" in capsys.readouterr().err


def test_short_grid_extrinsic_roll_is_refused_by_name(tmp_path, capsys):
    # the sphere's extrinsic roll differentiates its curve, which needs five nodes
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**_SMALL_ROLL, "grid": {**_SMALL_ROLL["grid"], "n_steps": 3}}))
    capsys.readouterr()
    assert main(["roll", "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "need at least 5 nodes for a fourth-order derivative, got 4; refine n_steps" \
        in captured.err


def test_short_grid_intrinsic_file_is_refused_not_passed(tmp_path, capsys):
    # the intrinsic roll takes no derivative and writes the file; checking
    # its velocity residual does, and is refused
    cfg, out = tmp_path / "cfg.json", tmp_path / "traj.csv"
    cfg.write_text(json.dumps({**_SMALL_ROLL, "mode": "intrinsic",
                               "grid": {**_SMALL_ROLL["grid"], "n_steps": 3}}))
    assert main(["roll", "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["verify", "--in", str(out)]) == 1
    captured = capsys.readouterr()
    assert "PASS" not in captured.out
    assert "got 4; refine n_steps" in captured.err


def _sampled_curve_config(name, mode, drift=0.0, edit=None):
    """A 400-step ``curve`` config holding the points of a library roll, edited by
    ``edit(model, points)`` in place if given."""
    model = get_model(name)
    grid = TimeGrid(0.0, 1.0, 400)
    i = np.arange(1, model.p_dim + 1)
    ctrl = ControlCurve.from_function(grid, lambda t: 0.4 * np.sin(i * t + 0.3))
    points = extrinsic_roll(model, ctrl).alpha * (1.0 + drift * grid.ts)[:, None]
    if edit is not None:
        edit(model, points)
    return {"model": name, "mode": mode, "grid": {"t0": 0.0, "t1": 1.0, "n_steps": 400},
            "curve": {"points": points.tolist()}}


SAMPLED_MODELS = ["sphere", "hyperboloid", "so_plus_1_2", "stiefel_4_2"]


@pytest.mark.parametrize("mode", ["extrinsic", "intrinsic"])
@pytest.mark.parametrize("name", SAMPLED_MODELS)
def test_sampled_curve_configs_roll_and_verify(name, mode, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_sampled_curve_config(name, mode)))
    out = tmp_path / "traj.csv"
    assert main(["roll", "--config", str(cfg), "--out", str(out)]) == 0
    assert main(["verify", "--in", str(out)]) == 0
    assert capsys.readouterr().out.strip().endswith("PASS")
    # a sampled curve rolls by transport, whatever a strategy would select
    assert "normal_strategy" not in out.read_text()


@pytest.mark.parametrize("strategy", ["closed_form", "frame_matching"])
def test_a_curve_config_with_a_normal_strategy_is_refused(strategy, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**_sampled_curve_config("sphere", "extrinsic"),
                               "normal_strategy": strategy}))
    capsys.readouterr()
    assert main(["roll", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err.startswith("error: 'normal_strategy' applies to controls only")


@pytest.mark.parametrize("mode", ["extrinsic", "intrinsic"])
@pytest.mark.parametrize("name", SAMPLED_MODELS)
def test_sampled_curve_drifting_off_the_manifold_is_refused(name, mode, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_sampled_curve_config(name, mode, drift=0.05)))
    capsys.readouterr()
    assert main(["roll", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "curve leaves the model manifold at t=" in err


def _moved(model, points):
    """The whole curve moved by a group element: on the manifold, away from the base point."""
    g = model.random_group_element(np.random.default_rng(3))
    points[:] = points @ np.asarray(model.rho(g), dtype=float).T


def _turned(model, points):
    """points[120:] carried by rho(exp(0.05 p_0)): a jump at t=0.3 that stays on the manifold."""
    g = expm(0.05 * model.basis[model.p_indices[0]])
    points[120:] = points[120:] @ np.asarray(model.rho(g), dtype=float).T


CURVE_REFUSALS = {
    "jump": (lambda model, points: points[120:].__imul__(1.02),
             "curve leaves the model manifold at t=0.3 "),
    "turn": (_turned, "curve jumps between t=0.2975 and t=0.3 "),
    "start": (_moved, "curve does not start at the projection of q0"),
}


@pytest.mark.parametrize("case", CURVE_REFUSALS)
@pytest.mark.parametrize("mode", ["extrinsic", "intrinsic"])
@pytest.mark.parametrize("name", ["sphere", "stiefel_4_2"])
def test_a_sampled_curve_that_jumps_or_starts_elsewhere_is_refused(name, mode, case, tmp_path,
                                                                    capsys):
    edit, message = CURVE_REFUSALS[case]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_sampled_curve_config(name, mode, edit=edit)))
    capsys.readouterr()
    assert main(["roll", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")


def test_frame_matching_so_plus_2_2_off_the_multiples_of_4_rolls_and_verifies(tmp_path, capsys):
    # the roll once refused step counts that 4 does not divide; the transport
    # flow takes every step count alike
    p_dim = get_model("so_plus_2_2").p_dim
    rng = np.random.default_rng(5)
    freq = rng.uniform(0.5, 2.0, p_dim)
    phase = rng.uniform(0.0, 2 * np.pi, p_dim)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "model": "so_plus_2_2", "grid": {"t0": 0.0, "t1": 1.0, "n_steps": 250},
        "control": {"kind": "sinusoid", "amplitude": [0.4] * p_dim, "frequency": freq.tolist(),
                    "phase": phase.tolist()},
        "normal_strategy": "frame_matching",
    }))
    out = tmp_path / "traj.csv"
    assert main(["roll", "--config", str(cfg), "--out", str(out)]) == 0
    assert main(["verify", "--in", str(out)]) == 0
    assert capsys.readouterr().out.strip().endswith("PASS")


def test_roll_into_a_missing_directory_is_an_error(tmp_path, capsys):
    out = tmp_path / "missing_dir" / "traj.csv"
    assert main(["roll", "--config", _cfg("sphere_quarter_equator.json"), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write trajectory:")
    assert "Traceback" not in err


@pytest.mark.parametrize("text", ["5", "[1, 2]", "null", '"rolling_trajectory"'])
def test_json_trajectory_that_is_not_an_object_is_refused(text, tmp_path, capsys):
    out = tmp_path / "traj.json"
    out.write_text(text)
    assert main(["verify", "--in", str(out)]) == 1
    assert "not a rolling trajectory file" in capsys.readouterr().err


@pytest.mark.parametrize("suffix", [".csv", ".json"])
def test_unknown_trajectory_mode_is_refused_not_checked(suffix, tmp_path, capsys):
    out = tmp_path / f"traj{suffix}"
    main(["roll", "--config", _cfg("stiefel_4_2_intrinsic.json"), "--out", str(out)])
    text = out.read_text()
    edited = text.replace("mode=intrinsic", "mode=bogus").replace('"mode": "intrinsic"', '"mode": "bogus"')
    assert edited != text
    out.write_text(edited)
    capsys.readouterr()
    assert main(["verify", "--in", str(out)]) == 1
    captured = capsys.readouterr()
    assert "unknown mode 'bogus'" in captured.err
    assert "PASS" not in captured.out


def test_trajectory_without_a_mode_is_extrinsic(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    main(["roll", "--config", _cfg("sphere_quarter_equator.json"), "--out", str(out)])
    text = out.read_text()
    out.write_text("".join(line for line in text.splitlines(True) if line != "# mode=extrinsic\n"))
    assert "mode=" not in out.read_text()
    assert main(["verify", "--in", str(out)]) == 0
    assert capsys.readouterr().out.strip().endswith("PASS")


def test_csv_with_swapped_columns_is_refused_by_name(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    main(["roll", "--config", _cfg("sphere_quarter_equator.json"), "--out", str(out)])
    lines = out.read_text().splitlines()
    first = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    header = lines[first].split(",")
    a, b = header.index("alpha_0"), header.index("alphahat_0")
    for i in range(first, len(lines)):
        row = lines[i].split(",")
        row[a], row[b] = row[b], row[a]
        lines[i] = ",".join(row)
    out.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["verify", "--in", str(out)]) == 1
    captured = capsys.readouterr()
    assert f"column {a + 1} is labelled 'alphahat_0'" in captured.err
    assert "'alpha_0'" in captured.err
    assert "PASS" not in captured.out and "BREACH" not in captured.out


def test_json_triple_with_short_map_rows_is_refused(tmp_path, capsys):
    out = tmp_path / "traj.json"
    main(["roll", "--config", _cfg("stiefel_4_2_intrinsic.json"), "--out", str(out)])
    doc = json.loads(out.read_text())
    doc["A"] = [[row[:-1] for row in node] for node in doc["A"]]
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", "--in", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: cannot rebuild rolling triple: maps must have shape")
    assert "Traceback" not in captured.err and "PASS" not in captured.out


def _command(*argv):
    src = str(Path(semiroll.__file__).resolve().parents[1])
    return dict(args=[sys.executable, "-m", "semiroll.cli", *argv], stderr=subprocess.PIPE,
                env={**os.environ, "PYTHONPATH": src})


def test_roll_into_a_pipe_closed_early_exits_one_without_a_traceback(tmp_path):
    # 2000 steps write about 0.5 MB, far more than a pipe buffers, so the
    # command is still writing when the reader goes away after one line
    cfg = json.loads((CONFIG_DIR / "sphere_quarter_equator.json").read_text())
    cfg["grid"]["n_steps"] = 2000
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    with subprocess.Popen(**_command("roll", "--config", str(path)), stdout=subprocess.PIPE) as proc:
        assert proc.stdout.readline().startswith(b"# format_version=")
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=300) == 1
    assert "Traceback" not in err
    assert err.startswith("error:")


@pytest.mark.parametrize("unbuffered", ["1", ""])
def test_verify_into_a_closed_pipe_exits_one_without_a_traceback(unbuffered, tmp_path):
    # the pipe's read end is closed before the command starts, so its first
    # write (or, with buffered stdout, its final flush) fails
    out = tmp_path / "traj.csv"
    main(["roll", "--config", _cfg("sphere_quarter_equator.json"), "--out", str(out)])
    read_end, write_end = os.pipe()
    os.close(read_end)
    command = _command("verify", "--in", str(out))
    command["env"]["PYTHONUNBUFFERED"] = unbuffered
    try:
        proc = subprocess.run(**command, stdout=write_end, timeout=300)
    finally:
        os.close(write_end)
    err = proc.stderr.decode()
    assert proc.returncode == 1
    assert "Traceback" not in err and "Exception ignored" not in err
    assert err.startswith("error:")


@pytest.mark.parametrize("mode", ["extrinsic", "intrinsic"])
def test_stiefel_description_file_rolls_and_verifies_without_stderr(mode, tmp_path):
    # a Stiefel manifold is declared non-symmetric by its rotation correction,
    # so loading its description file has nothing to warn about
    desc = resources.files("semiroll") / "models" / "data" / "stiefel_4_2.json"
    cfg = json.loads((CONFIG_DIR / "stiefel_4_2_intrinsic.json").read_text())
    cfg.update(model=str(desc), mode=mode)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "traj.csv"
    # to stdout, as "--out" reports the file it wrote on stderr
    rolled = subprocess.run(**_command("roll", "--config", str(path)), stdout=subprocess.PIPE,
                            timeout=300)
    out.write_bytes(rolled.stdout)
    checked = subprocess.run(**_command("verify", "--in", str(out)), stdout=subprocess.PIPE,
                             timeout=300)
    for proc in (rolled, checked):
        assert proc.returncode == 0, proc.stderr.decode()
        assert proc.stderr == b""
    assert checked.stdout.decode().strip().endswith("PASS")


BENCHMARK_MODELS = ["sphere", "hyperboloid", "so_plus_1_2", "so_plus_2_2", "stiefel_3_1",
                    "stiefel_4_2"]


@pytest.mark.parametrize("suffix", [".csv", ".json"])
@pytest.mark.parametrize("name", BENCHMARK_MODELS)
def test_reloaded_roll_reports_bit_for_bit_as_the_in_process_roll(name, suffix, tmp_path):
    # a trajectory file reloads the roll's arrays exactly, so verifying it must
    # reproduce the in-process residuals exactly, whatever their memory layout
    model = get_model(name)
    rng = np.random.default_rng(3)
    amp = rng.uniform(0.2, 0.6, model.p_dim) * rng.choice((-1.0, 1.0), model.p_dim)
    freq = rng.uniform(0.5, 2.0, model.p_dim)
    phase = rng.uniform(0.0, 2.0 * np.pi, model.p_dim)
    grid = TimeGrid(0.0, 1.0, 2000)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "model": name, "grid": {"t0": 0.0, "t1": 1.0, "n_steps": 2000},
        "control": {"kind": "sinusoid", "amplitude": amp.tolist(),
                    "frequency": freq.tolist(), "phase": phase.tolist()},
    }))
    out = tmp_path / f"traj{suffix}"
    assert main(["roll", "--config", str(cfg), "--out", str(out)]) == 0
    _, arrays = _load_trajectory(str(out))

    coords = amp[None, :] * np.sin(freq[None, :] * grid.ts[:, None] + phase[None, :])
    path = extrinsic_roll(model, ControlCurve(grid=grid, coords=coords))
    fields = ("R", "s", "alpha", "alpha_hat")
    assert all(np.array_equal(arrays[key], getattr(path, key)) for key in fields)
    loaded = RollingMapPath(grid=grid, form=model.form, **{key: arrays[key] for key in fields})
    expected = model_residual_report(model, path).per_node
    got = model_residual_report(model, loaded).per_node
    assert got.keys() == expected.keys()
    for key in expected:
        assert np.array_equal(got[key], expected[key]), key


def test_normal_strategy_defaults_to_closed_form_and_auto_is_refused(tmp_path, capsys):
    cfg, out = tmp_path / "cfg.json", tmp_path / "traj.csv"
    cfg.write_text(json.dumps(_SMALL_ROLL))
    assert main(["roll", "--config", str(cfg), "--out", str(out)]) == 0
    assert "# normal_strategy=closed_form\n" in out.read_text()
    capsys.readouterr()
    cfg.write_text(json.dumps({**_SMALL_ROLL, "normal_strategy": "auto"}))
    assert main(["roll", "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: unknown normal strategy 'auto'; "
                                   "use 'closed_form' or 'frame_matching'")
    assert captured.out == ""


@pytest.mark.parametrize("fmt, name", [("json", "t.csv"), ("csv", "t.json"), ("json", "t.txt"),
                                       (None, "t.txt")])
def test_verify_reads_the_format_from_the_content_not_the_suffix(fmt, name, tmp_path, capsys):
    cfg, out = tmp_path / "cfg.json", tmp_path / name
    cfg.write_text(json.dumps(_SMALL_ROLL))
    argv = ["roll", "--config", str(cfg), "--out", str(out)]
    assert main(argv + (["--format", fmt] if fmt else [])) == 0
    assert out.read_text().startswith("{") == (fmt == "json")
    capsys.readouterr()
    assert main(["verify", "--in", str(out)]) == 0
    assert capsys.readouterr().out.strip().endswith("PASS")


@pytest.mark.parametrize("text", ["", "\n  \n", "hello\nworld\n", "1,2,3\n4,5,6\n", "{}"],
                         ids=["empty", "blank", "words", "bare_table", "empty_object"])
@pytest.mark.parametrize("suffix", [".csv", ".json", ".txt"])
def test_a_file_that_is_no_trajectory_is_refused_by_name(text, suffix, tmp_path, capsys):
    out = tmp_path / f"traj{suffix}"
    out.write_text(text)
    assert main(["verify", "--in", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {out}: not a rolling trajectory file")
    assert captured.out == ""


@pytest.mark.parametrize("suffix", [".csv", ".json", ".txt"])
def test_a_broken_json_document_is_refused_by_name(suffix, tmp_path, capsys):
    out = tmp_path / f"traj{suffix}"
    out.write_text('  {"kind": "rolling_trajectory",')
    assert main(["verify", "--in", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {out}: cannot parse trajectory:")


@pytest.mark.parametrize("strategy", ["bogus", "closed_form"])
def test_an_intrinsic_config_with_a_normal_strategy_is_refused(strategy, tmp_path, capsys):
    # an intrinsic roll has no normal bundle to complete, so the key is refused
    # whatever its value, and no file is written
    cfg, out = tmp_path / "cfg.json", tmp_path / "traj.csv"
    cfg.write_text(json.dumps({**_SMALL_ROLL, "mode": "intrinsic", "normal_strategy": strategy}))
    assert main(["roll", "--config", str(cfg), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: 'normal_strategy' applies to extrinsic rolls only")
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("strategy, code", [("closed_form", 0), ("frame_matching", 0),
                                            ("bogus", 1)])
def test_an_extrinsic_config_still_takes_its_normal_strategy(strategy, code, tmp_path, capsys):
    cfg, out = tmp_path / "cfg.json", tmp_path / "traj.csv"
    cfg.write_text(json.dumps({**_SMALL_ROLL, "mode": "extrinsic", "normal_strategy": strategy}))
    assert main(["roll", "--config", str(cfg), "--out", str(out)]) == code
    captured = capsys.readouterr()
    if code:
        assert captured.err.startswith("error: unknown normal strategy 'bogus'")
    else:
        assert f"# normal_strategy={strategy}\n" in out.read_text()


def test_an_intrinsic_config_without_a_normal_strategy_rolls(tmp_path, capsys):
    cfg, out = tmp_path / "cfg.json", tmp_path / "traj.csv"
    cfg.write_text(json.dumps({**_SMALL_ROLL, "mode": "intrinsic"}))
    assert main(["roll", "--config", str(cfg), "--out", str(out)]) == 0
    assert "normal_strategy" not in out.read_text()
    capsys.readouterr()
    assert main(["verify", "--in", str(out)]) == 0
    assert capsys.readouterr().out.strip().endswith("PASS")
