"""Checks of an installed semiroll package, as a user gets it from a wheel.

Every model fixture and bundled config arrives and builds; a second report of
one roll reproduces its per-node arrays from the flat-frame factors its model
keeps, and the model's base-point frames are read-only; reports of rolls that end
one node into a block read the same arrays from moving copies of the flat frames;
frame-matching rolls, a moved base point and sampled curves (in both modes) roll
and verify through the installed console script, and so do a description in the
minimal format and one in the older format with ``params`` and ``dtype``, to equal
trajectories, while a description with a mistyped field is refused by name with no
traceback; a NaN matrix is no oriented isometry; the intrinsic file holds d_e_pi cf0
times its extrinsic file's rotations and development; a control is read once; a complex
control and a complex sampled curve are refused; a slipped trajectory
and a stretched rotation breach, and a config is refused as a trajectory.  Run
it from a scratch directory, where it writes its configs and trajectories, with
the interpreter of the environment under test:

    python ci/installed_package.py <semiroll command>
"""

import json
import subprocess
import sys
from importlib.resources import files

import numpy as np

from semiroll.models import get_model


def main(semiroll):
    # every model fixture arrives in the wheel and builds and validates
    fixtures = sorted(p for p in (files("semiroll") / "models" / "data").iterdir()
                      if p.name.endswith(".json"))
    assert fixtures, "no model fixtures in the installed package"
    for fixture in fixtures:
        get_model(str(fixture))

    # the model factors its flat frames once: a second report of one roll reads
    # those factors and reproduces every per-node array, and the base-point
    # frames they were built from are read-only
    from semiroll import ControlCurve, TimeGrid, extrinsic_roll, model_residual_report

    so_plus_2_2 = get_model("so_plus_2_2")
    grid = TimeGrid(0.0, 1.0, 300)
    path = extrinsic_roll(so_plus_2_2, ControlCurve.from_function(
        grid, lambda t: 0.3 * np.sin(t + np.arange(so_plus_2_2.p_dim))))
    first, second = (model_residual_report(so_plus_2_2, path) for _ in range(2))
    assert first.per_node.keys() == second.per_node.keys()
    for field, values in first.per_node.items():
        assert np.array_equal(values, second.per_node[field]), field
    for frame in (so_plus_2_2.frame0, so_plus_2_2.normal0):
        assert not frame.flags.writeable

    # the report takes its products in blocks of 128 nodes of 16 x 16 rotations: rolls of
    # 129 and 257 nodes end one node into a block, and moving copies of the flat frames,
    # sliced to each block, read what the model's kept factors, broadcast, read
    from semiroll import TangentFramePath, rolling_condition_residuals

    for n_steps in (128, 256):
        edge = TimeGrid(0.0, 1.0, n_steps)
        path = extrinsic_roll(so_plus_2_2, ControlCurve.from_function(
            edge, lambda t: 0.3 * np.sin(t + np.arange(so_plus_2_2.p_dim))))
        kept = model_residual_report(so_plus_2_2, path)
        moving = [TangentFramePath(edge.ts, np.array(flat.frames))
                  for flat in (so_plus_2_2.flat_tangent_frames(edge),
                               so_plus_2_2.flat_normal_frames(edge))]
        tangent_m = so_plus_2_2.pointwise_tangent_frames(edge, path.alpha)
        fresh = rolling_condition_residuals(path, tangent_m, *moving)
        assert kept.per_node.keys() == fresh.per_node.keys()
        for field, values in kept.per_node.items():
            assert values.shape == (n_steps + 1,), (field, values.shape)
            assert np.array_equal(values, fresh.per_node[field]), (n_steps, field)

    configs = sorted(p for p in (files("semiroll") / "configs").iterdir()
                     if p.name.endswith(".json"))
    assert configs, "no bundled configs in the installed package"
    # no bundled config reaches the transport flow, so two frame-matching
    # rolls and three sampled curves, each rolled in both modes, which roll by
    # that flow, are written here: each on a symmetric space and a
    # non-symmetric one, and a curve on the indefinite quadric
    controls = {
        "so_plus_1_2": {"amplitude": [0.4, -0.3, 0.25], "frequency": [1.0, 2.0, 1.5],
                        "phase": [0.0, 0.5, 1.0]},
        "stiefel_4_2": {"amplitude": [0.5, 0.8, 0.3, -0.5, 0.4],
                        "frequency": [2.0, 1.0, 0.5, 1.0, 1.5],
                        "phase": [0.0, 1.5, 1.5, 0.0, 0.3]},
    }
    for model, control in controls.items():
        cfg = f"{model}_frame_matching.json"
        with open(cfg, "w") as fh:
            json.dump({"model": model, "grid": {"t0": 0.0, "t1": 1.0, "n_steps": 300},
                       "control": {"kind": "sinusoid", **control},
                       "normal_strategy": "frame_matching"}, fh)
        configs.append(cfg)

    # a description with a base point of its own, written from the wheel and
    # rolled by path: the description's obar field, not only the fixtures'
    from semiroll.linalg import expm
    from semiroll.models import pseudo_orthogonal

    X = np.zeros((3, 3))
    X[0, 1] = X[1, 0] = 0.8
    X[0, 2] = X[2, 0] = -0.5
    with open("so_plus_1_2_moved.json", "w") as fh:
        json.dump(pseudo_orthogonal.description(1, 2, expm(X)), fh)
    with open("so_plus_1_2_moved_roll.json", "w") as fh:
        json.dump({"model": "so_plus_1_2_moved.json",
                   "grid": {"t0": 0.0, "t1": 1.0, "n_steps": 300},
                   "control": {"kind": "sinusoid", **controls["so_plus_1_2"]}}, fh)
    configs.append("so_plus_1_2_moved_roll.json")

    # the sampled curves hold the points of a library roll of the same controls
    from semiroll import EmbeddedCurve

    for model, control in (("sphere", {"amplitude": [0.5, -0.4], "frequency": [1.0, 2.0],
                                       "phase": [0.0, 0.5]}),
                           ("hyperboloid", {"amplitude": [0.6, 0.3],
                                            "frequency": [1.5, 1.0], "phase": [0.3, 0.0]}),
                           ("stiefel_4_2", controls["stiefel_4_2"])):
        amp, freq, phase = (np.array(control[key]) for key in ("amplitude", "frequency", "phase"))
        ctrl = ControlCurve.from_function(grid, lambda t: amp * np.sin(freq * t + phase))
        points = extrinsic_roll(get_model(model), ctrl).alpha
        # extrinsic last: the slip below tampers the last trajectory rolled
        for mode in ("intrinsic", "extrinsic"):
            cfg = f"{model}_curve_{mode}.json"
            with open(cfg, "w") as fh:
                json.dump({"model": model, "mode": mode,
                           "grid": {"t0": 0.0, "t1": 1.0, "n_steps": 300},
                           "curve": {"points": points.tolist()}}, fh)
            configs.append(cfg)

    # a control is read once: an extrinsic then an intrinsic roll of one
    # control call its func at the 300 step midpoints in all, and each
    # equals the roll of a fresh control with the same func
    from semiroll import intrinsic_roll

    stiefel_4_2 = get_model("stiefel_4_2")
    amp, freq, phase = (np.array(controls["stiefel_4_2"][key])
                        for key in ("amplitude", "frequency", "phase"))
    calls = [0]

    def counted(t):
        calls[0] += 1
        return amp * np.sin(freq * t + phase)

    coords = amp * np.sin(np.multiply.outer(grid.ts, freq) + phase)
    ctrl = ControlCurve(grid=grid, coords=coords, func=counted)
    rolls = {extrinsic_roll: ("R", "s", "alpha", "alpha_hat"),
             intrinsic_roll: ("alpha", "alpha_hat", "maps", "tangent_frames")}
    reused = [roll(stiefel_4_2, ctrl) for roll in rolls]
    assert calls[0] == 300, calls[0]
    for (roll, fields), out in zip(rolls.items(), reused):
        fresh = roll(stiefel_4_2, ControlCurve(grid=grid, coords=coords, func=counted))
        for field in fields:
            assert np.array_equal(getattr(out, field), getattr(fresh, field)), field

    # a complex control is refused, not cast to its real part, with the
    # warnings at the runtime default that a user runs with
    for control in (lambda: ControlCurve(grid=grid, coords=coords[:, :2] + 0.5j),
                    lambda: ControlCurve(grid=grid, coords=coords[:, :2],
                                         func=lambda t: np.array([1.0 + 0.5j, 0.2]))):
        try:
            extrinsic_roll(get_model("sphere"), control())
        except ValueError as exc:
            assert "must be real, got a complex array" in str(exc), exc
        else:
            raise AssertionError("a complex control was rolled")
    # and so is a sampled curve on the sphere with an imaginary part, by its points' name
    sphere = get_model("sphere")
    points = extrinsic_roll(sphere, ControlCurve(grid=grid, coords=coords[:, :2])).alpha
    try:
        extrinsic_roll(sphere, EmbeddedCurve(grid, points + 1e-3j))
    except ValueError as exc:
        assert str(exc).startswith("curve points must be real, got a complex array"), exc
    else:
        raise AssertionError("a complex curve was rolled")
    for cfg in configs:
        subprocess.run([semiroll, "roll", "--config", str(cfg), "--out", "traj.csv"],
                       check=True)
        subprocess.run([semiroll, "verify", "--in", "traj.csv"], check=True)

    # a description states its sizes once, in its forms: the minimal format and the
    # older one, which restates them in params and carries "dtype": "real", roll the
    # same trajectory through the console script, and each verifies
    from semiroll.models.stiefel import description as stiefel_description

    minimal = stiefel_description(4, 2)
    assert "params" not in minimal and "dtype" not in minimal, sorted(minimal)
    tables = []
    for label, desc in (("minimal", minimal),
                        ("older", {**minimal, "dtype": "real", "params": {"n": 4, "k": 2}})):
        with open(f"stiefel_4_2_{label}.json", "w") as fh:
            json.dump(desc, fh)
        with open(f"stiefel_4_2_{label}_roll.json", "w") as fh:
            json.dump({"model": f"stiefel_4_2_{label}.json",
                       "grid": {"t0": 0.0, "t1": 1.0, "n_steps": 300},
                       "control": {"kind": "sinusoid", **controls["stiefel_4_2"]}}, fh)
        subprocess.run([semiroll, "roll", "--config", f"stiefel_4_2_{label}_roll.json",
                        "--out", f"{label}.csv"], check=True)
        subprocess.run([semiroll, "verify", "--in", f"{label}.csv"], check=True)
        tables.append(_read_csv(f"{label}.csv")[1:])
    assert tables[0][0] == tables[1][0] and np.array_equal(tables[0][1], tables[1][1])

    # a description field of the wrong JSON type is refused by its name, exit 1 and no
    # traceback: an integer where h_indices is a list, and a float index, which a cast
    # would truncate into a model that rolls
    float_index = {**minimal, "p_indices": minimal["p_indices"][:-1]
                   + [minimal["p_indices"][-1] + 0.5]}
    for label, desc, field in (("int_h_indices", {**minimal, "h_indices": 5}, "h_indices"),
                               ("float_index", float_index, "p_indices")):
        with open(f"stiefel_4_2_{label}.json", "w") as fh:
            json.dump(desc, fh)
        with open(f"stiefel_4_2_{label}_roll.json", "w") as fh:
            json.dump({"model": f"stiefel_4_2_{label}.json",
                       "grid": {"t0": 0.0, "t1": 1.0, "n_steps": 300},
                       "control": {"kind": "sinusoid", **controls["stiefel_4_2"]}}, fh)
        proc = subprocess.run([semiroll, "roll", "--config", f"stiefel_4_2_{label}_roll.json"],
                              capture_output=True, text=True)
        assert proc.returncode == 1, (label, proc.returncode)
        assert "Traceback" not in proc.stderr, proc.stderr
        assert proc.stderr.startswith(f"error: model description field '{field}' must be a list "
                                      "of integers, got "), proc.stderr

    # a NaN matrix is no isometry, with the warnings at the runtime default: every
    # comparison with NaN is False, so the check must not read "residual > tol"
    from semiroll.linalg import SignatureForm, is_oriented_isometry

    ok, _ = is_oriented_isometry(np.full((3, 3), np.nan), SignatureForm([1, 1, 1]))
    assert ok is False, ok

    # one roll, two views: the intrinsic file's maps are d_e_pi cf0 times the
    # extrinsic file's rotations, bit for bit, for the bundled non-symmetric control,
    # for a symmetric one on 600 steps, whose 601 nodes of 16 x 16 rotations the
    # library assembles in four blocks of 128 and a part of a fifth, and for the
    # sampled sphere curve; each file verifies.  One development per roll: the
    # intrinsic alphahat is d_e_pi cf0 times the extrinsic alphahat - obar, within
    # 1e-14 of max(1, max|x|), wherever the extrinsic roll develops what the intrinsic
    # one does (not a symmetric control, whose extrinsic roll differences alpha)
    stiefel = next(cfg for cfg in configs if str(cfg).endswith("stiefel_4_2_intrinsic.json"))
    with open(stiefel) as fh:
        bundled = json.load(fh)
    with open("sphere_curve_extrinsic.json") as fh:
        sampled = json.load(fh)
    multi_block = {"model": "so_plus_2_2", "grid": {"t0": 0.0, "t1": 1.0, "n_steps": 600},
                   "control": {"kind": "sinusoid", "amplitude": [0.3, -0.2, 0.25, 0.2, -0.3, 0.15],
                               "frequency": [1.0, 2.0, 1.5, 0.5, 1.0, 2.5],
                               "phase": [0.0, 0.5, 1.0, 1.5, 2.0, 2.5]}}
    for label, cfg in (("stiefel_control", bundled), ("so_plus_control", multi_block),
                       ("sphere_curve", sampled)):
        model = get_model(cfg["model"])
        views = {}
        for mode in ("intrinsic", "extrinsic"):
            config = f"{label}_{mode}_view.json"
            with open(config, "w") as fh:
                json.dump({**cfg, "mode": mode}, fh)
            subprocess.run([semiroll, "roll", "--config", config, "--out", f"{mode}.csv"],
                           check=True)
            subprocess.run([semiroll, "verify", "--in", f"{mode}.csv"], check=True)
            _, header, table = _read_csv(f"{mode}.csv")
            views[mode] = header, table
        n, k = model.ambient_dim, model.p_dim
        head = model.d_e_pi @ model.cf0
        header, table = views["extrinsic"]
        assert table.shape[0] == cfg["grid"]["n_steps"] + 1, table.shape
        R = np.ascontiguousarray(table[:, [header.index(f"R_{i}_{j}") for i in range(n)
                                           for j in range(n)]]).reshape(-1, n, n)
        developed = table[:, [header.index(f"alphahat_{i}") for i in range(n)]] - model.obar
        header, table = views["intrinsic"]
        A = table[:, [header.index(f"R_{i}_{j}") for i in range(k) for j in range(n)]]
        assert np.array_equal(A.reshape(-1, k, n), head @ R), label
        if "curve" in cfg or not model.symmetric_space:
            expected = developed @ head.T
            gap = np.max(np.abs(table[:, [header.index(f"alphahat_{i}") for i in range(k)]]
                                - expected))
            assert gap <= 1e-14 * max(1.0, float(np.max(np.abs(expected)))), (label, gap)

    # the installed CLI fails closed: a slipped trajectory breaches (exit 2),
    # and a config, which is no trajectory, is refused (exit 1); the slip is
    # perfbench's tamper, 0.05 sin^2(pi t / T) added to alphahat_1 and s_1
    head, header, table = _read_csv("traj.csv")
    t = table[:, header.index("t")]
    bump = 0.05 * np.sin(np.pi * (t - t[0]) / (t[-1] - t[0])) ** 2
    for column in ("alphahat_1", "s_1"):
        table[:, header.index(column)] += bump
    _write_csv("slipped.csv", head, table)
    for trajectory, code in (("slipped.csv", 2), (str(configs[0]), 1)):
        proc = subprocess.run([semiroll, "verify", "--in", trajectory])
        assert proc.returncode == code, (trajectory, proc.returncode, code)

    # a rotation stretched by 1.01 along one normal direction, with the
    # contact kept, is no rigid motion: the group residual breaches
    sphere = next(cfg for cfg in configs if str(cfg).endswith("sphere_quarter_equator.json"))
    subprocess.run([semiroll, "roll", "--config", str(sphere), "--out", "sphere.csv"], check=True)
    head, header, table = _read_csv("sphere.csv")
    n = 3
    v = get_model("sphere").normal0[:, 0]
    stretch = np.eye(n) + 0.01 * np.outer(v, v)
    rotations = [header.index(f"R_{i}_{j}") for i in range(n) for j in range(n)]
    shifts = [header.index(f"s_{i}") for i in range(n)]
    points = [header.index(f"alpha_{i}") for i in range(n)]
    for row in table:
        R = row[rotations].reshape(n, n)
        row[shifts] -= (stretch @ R - R) @ row[points]
        row[rotations] = (stretch @ R).ravel()
    _write_csv("stretched.csv", head, table)
    proc = subprocess.run([semiroll, "verify", "--in", "stretched.csv"], capture_output=True,
                          text=True)
    assert proc.returncode == 2, proc.returncode
    assert any(line.startswith("isometry: ") and line.endswith(" BREACH")
               for line in proc.stdout.splitlines()), proc.stdout


def _read_csv(path):
    """The metadata and header lines, the column names and the table of a trajectory CSV."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("t,"))
    table = np.array([[float(x) for x in line.split(",")] for line in lines[start + 1:]])
    return lines[:start + 1], lines[start].split(","), table


def _write_csv(path, head, table):
    with open(path, "w") as fh:
        fh.write("\n".join(head) + "\n")
        fh.writelines(",".join(format(x, ".17g") for x in row) + "\n" for row in table)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit("usage: python ci/installed_package.py <semiroll command>")
    main(sys.argv[1])
