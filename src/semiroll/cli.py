"""Command-line interface: roll along configured curves, verify trajectory files.

Subcommands
-----------
roll    --config FILE [--out FILE] [--format csv|json]
verify  --in FILE [--tol X]
models  [--long]

``roll`` integrates the rolling map described by a JSON config and writes the
trajectory; ``verify`` re-reads a trajectory file, rebuilds the model named in
its metadata and re-checks the rolling conditions, exiting 0 when every
residual passes, 2 on a breach, and 1 on any structural error.  The default
verification tolerance is 50 h^2 for step size h.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .homogeneous import ControlCurve, EmbeddedCurve, extrinsic_roll, intrinsic_roll, model_residual_report
from .integrate import TimeGrid
from .models import available_models, get_model
from .rolling import RollingTriple, triple_gram_residual, triple_velocity_residual

FORMAT_VERSION = 1


def _fail(message):
    raise SystemExit(f"error: {message}")


def _load_config(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        _fail(f"cannot read config: {exc}")
    except json.JSONDecodeError as exc:
        _fail(f"config is not valid JSON: {exc}")


def _build_grid(cfg):
    try:
        g = cfg["grid"]
        return TimeGrid(float(g["t0"]), float(g["t1"]), g["n_steps"])
    except KeyError as exc:
        _fail(f"config grid is missing {exc}")
    except (TypeError, ValueError) as exc:
        _fail(f"bad grid: {exc}")


def _build_control(section, grid, p_dim):
    kind = section.get("kind", "constant")
    ts = grid.ts
    if kind == "constant":
        coords = np.asarray(section["coords"], dtype=float)
        if coords.shape != (p_dim,):
            _fail(f"control coords must have {p_dim} components")
        values = np.tile(coords, (grid.n_nodes, 1))
    elif kind == "sinusoid":
        amp = np.asarray(section["amplitude"], dtype=float)
        freq = np.asarray(section["frequency"], dtype=float)
        phase = np.asarray(section.get("phase", np.zeros_like(amp)), dtype=float)
        if not (amp.shape == freq.shape == phase.shape == (p_dim,)):
            _fail(f"sinusoid arrays must have {p_dim} components")
        values = amp[None, :] * np.sin(freq[None, :] * ts[:, None] + phase[None, :])
    elif kind == "samples":
        values = np.asarray(section["values"], dtype=float)
        if values.shape != (grid.n_nodes, p_dim):
            _fail(f"control samples must be ({grid.n_nodes}, {p_dim})")
    else:
        _fail(f"unknown control kind {kind!r}")
    return ControlCurve(grid=grid, coords=values)


def _build_input(cfg, grid, model):
    has_control = "control" in cfg
    if has_control == ("curve" in cfg):
        _fail("config needs exactly one of 'control' or 'curve'")
    key = "control" if has_control else "curve"
    section = cfg[key]
    if not isinstance(section, dict):
        _fail(f"config '{key}' must be a JSON object")
    try:
        if has_control:
            return _build_control(section, grid, model.p_dim)
        points = np.asarray(section["points"], dtype=float)
    except KeyError as exc:
        _fail(f"config '{key}' is missing {exc}")
    except (TypeError, ValueError) as exc:
        _fail(f"bad {key}: {exc}")
    if points.shape != (grid.n_nodes, model.ambient_dim):
        _fail(f"curve points must be ({grid.n_nodes}, {model.ambient_dim})")
    return EmbeddedCurve(grid=grid, points=points)


def _csv_labels(mode, N, k):
    cols = ["t"]
    cols += [f"alpha_{i}" for i in range(N)]
    width = k if mode == "intrinsic" else N
    cols += [f"alphahat_{i}" for i in range(width)]
    rows = k if mode == "intrinsic" else N
    for i in range(rows):
        cols += [f"R_{i}_{j}" for j in range(N)]
    if mode == "extrinsic":
        cols += [f"s_{i}" for i in range(N)]
    return cols


def _trajectory_table(mode, grid, result):
    blocks = [grid.ts[:, None], result.alpha]
    if mode == "extrinsic":
        blocks += [result.alpha_hat, result.R.reshape(grid.n_nodes, -1), result.s]
    else:
        blocks += [result.alpha_hat, result.maps.reshape(grid.n_nodes, -1)]
    return np.hstack(blocks)


def _write_csv(out, meta, mode, grid, result, N, k):
    for key, value in meta.items():
        out.write(f"# {key}={value}\n")
    out.write(",".join(_csv_labels(mode, N, k)) + "\n")
    table = _trajectory_table(mode, grid, result)
    for row in table:
        out.write(",".join(format(x, ".17g") for x in row) + "\n")


def _write_json(out, meta, mode, grid, result):
    doc = dict(meta)
    doc["t"] = grid.ts.tolist()
    doc["alpha"] = result.alpha.tolist()
    doc["alpha_hat"] = result.alpha_hat.tolist()
    if mode == "extrinsic":
        doc["R"] = result.R.tolist()
        doc["s"] = result.s.tolist()
    else:
        doc["A"] = result.maps.tolist()
    json.dump(doc, out, indent=1)
    out.write("\n")


def cmd_roll(args):
    cfg = _load_config(args.config)
    if not isinstance(cfg, dict):
        _fail("config must be a JSON object")
    name = cfg.get("model")
    if not name:
        _fail("config is missing 'model'")
    try:
        model = get_model(name)
    except (KeyError, ValueError) as exc:
        _fail(str(exc))
    grid = _build_grid(cfg)
    mode = cfg.get("mode", "extrinsic")
    if mode not in ("extrinsic", "intrinsic"):
        _fail(f"unknown mode {mode!r}")
    data = _build_input(cfg, grid, model)
    strategy = cfg.get("normal_strategy", "auto")
    try:
        if mode == "extrinsic":
            result = extrinsic_roll(model, data, normal_strategy=strategy)
        else:
            result = intrinsic_roll(model, data)
    except (ValueError, np.linalg.LinAlgError) as exc:
        _fail(str(exc))

    meta = {
        "format_version": FORMAT_VERSION,
        "kind": "rolling_trajectory",
        "model": name,
        "mode": mode,
        "t0": grid.t0,
        "t1": grid.t1,
        "n_steps": grid.n_steps,
        "ambient_dim": model.ambient_dim,
        "k_dim": model.p_dim,
    }
    if mode == "extrinsic":
        meta["normal_strategy"] = strategy

    fmt = args.format
    if fmt is None:
        fmt = "json" if args.out and args.out.endswith(".json") else "csv"
    out = open(args.out, "w") if args.out else sys.stdout
    try:
        if fmt == "csv":
            _write_csv(out, meta, mode, grid, result, model.ambient_dim, model.p_dim)
        else:
            _write_json(out, meta, mode, grid, result)
    finally:
        if args.out:
            out.close()
    if args.out:
        print(f"wrote {args.out}", file=sys.stderr)
    return 0


def _parse_csv(path):
    meta = {}
    rows = []
    header = None
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                key, _, value = line[1:].strip().partition("=")
                meta[key.strip()] = value.strip()
            elif header is None:
                header = line.split(",")
            else:
                rows.append([float(x) for x in line.split(",")])
    if header is None or not rows:
        _fail(f"{path}: no trajectory data found")
    return meta, np.asarray(rows)


def _load_trajectory(path):
    if path.endswith(".json"):
        with open(path) as fh:
            doc = json.load(fh)
        meta = {key: doc[key] for key in
                ("format_version", "kind", "model", "mode", "t0", "t1",
                 "n_steps", "ambient_dim", "k_dim") if key in doc}
        arrays = {key: np.asarray(doc[key], dtype=float)
                  for key in ("t", "alpha", "alpha_hat", "R", "s", "A") if key in doc}
        return meta, arrays

    meta, table = _parse_csv(path)
    for key in ("format_version", "n_steps", "ambient_dim", "k_dim"):
        if key in meta:
            meta[key] = int(meta[key])
    for key in ("t0", "t1"):
        if key in meta:
            meta[key] = float(meta[key])
    N = meta["ambient_dim"]
    k = meta["k_dim"]
    mode = meta.get("mode", "extrinsic")
    m = table.shape[0]
    pos = 0

    def take(width):
        nonlocal pos
        block = table[:, pos:pos + width]
        pos += width
        return block

    arrays = {"t": take(1)[:, 0], "alpha": take(N)}
    if mode == "extrinsic":
        arrays["alpha_hat"] = take(N)
        arrays["R"] = take(N * N).reshape(m, N, N)
        arrays["s"] = take(N)
    else:
        arrays["alpha_hat"] = take(k)
        arrays["A"] = take(k * N).reshape(m, k, N)
    if pos != table.shape[1]:
        _fail(f"{path}: column count does not match metadata dimensions")
    return meta, arrays


def _check(label, value, tol, lines):
    ok = value <= tol
    lines.append(f"{label}: {value:.6e} (tol {tol:.6e}) {'ok' if ok else 'BREACH'}")
    return ok


def cmd_verify(args):
    path = args.infile
    try:
        meta, arrays = _load_trajectory(path)
    except OSError as exc:
        _fail(f"cannot read trajectory: {exc}")
    except (json.JSONDecodeError, ValueError, KeyError) as exc:
        _fail(f"cannot parse trajectory: {exc}")
    if meta.get("kind") != "rolling_trajectory":
        _fail(f"{path}: not a rolling trajectory file")
    if meta.get("format_version") != FORMAT_VERSION:
        _fail(f"{path}: unsupported format_version {meta.get('format_version')!r}")

    try:
        model = get_model(meta["model"])
    except (KeyError, ValueError) as exc:
        _fail(str(exc))
    try:
        grid = TimeGrid(float(meta["t0"]), float(meta["t1"]), meta["n_steps"])
    except KeyError as exc:
        _fail(f"{path}: trajectory metadata is missing {exc}")
    except (TypeError, ValueError) as exc:
        _fail(f"{path}: bad grid: {exc}")
    t = arrays.get("t")
    if t is None or t.shape != grid.ts.shape or not np.allclose(grid.ts, t, atol=1e-12):
        _fail(f"{path}: time column does not match the declared grid")

    tol = args.tol if args.tol is not None else 50.0 * grid.h ** 2
    mode = meta.get("mode", "extrinsic")
    lines = []
    if mode == "extrinsic":
        from .rolling import RollingMapPath

        try:
            traj = RollingMapPath(grid=grid, R=arrays["R"], s=arrays["s"],
                                  alpha=arrays["alpha"], alpha_hat=arrays["alpha_hat"],
                                  form=model.form)
            report = model_residual_report(model, traj)
        except (ValueError, KeyError) as exc:
            _fail(f"cannot rebuild rolling path: {exc}")
        ok = True
        for field in report._FIELDS:
            ok &= _check(field, getattr(report, field), tol, lines)
    else:
        try:
            frames = model.pointwise_tangent_frames(grid, arrays["alpha"]).frames
            triple = RollingTriple(grid=grid, alpha=arrays["alpha"],
                                   alpha_hat=arrays["alpha_hat"], maps=arrays["A"],
                                   tangent_frames=frames, form=model.form,
                                   target_gram=model.target_gram)
        except (ValueError, KeyError) as exc:
            _fail(f"cannot rebuild rolling triple: {exc}")
        ok = _check("velocity_match", float(np.max(triple_velocity_residual(triple))),
                    tol, lines)
        ok &= _check("isometry_gram", float(np.max(triple_gram_residual(triple))),
                     tol, lines)
    for line in lines:
        print(line)
    print("PASS" if ok else "FAIL")
    return 0 if ok else 2


def cmd_models(args):
    for name in available_models():
        if args.long:
            model = get_model(name)
            kind = "symmetric" if model.symmetric_space else "reductive"
            print(f"{name}: k={model.p_dim} ambient={model.ambient_dim} {kind}")
        else:
            print(name)
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="semiroll",
        description="Rolling maps of semi-Riemannian homogeneous spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_roll = sub.add_parser("roll", help="integrate a rolling map from a config")
    p_roll.add_argument("--config", required=True, help="JSON config file")
    p_roll.add_argument("--out", help="output file (default: stdout)")
    p_roll.add_argument("--format", choices=("csv", "json"),
                        help="output format (default: by file suffix, else csv)")
    p_roll.set_defaults(func=cmd_roll)

    p_verify = sub.add_parser("verify", help="re-check a trajectory file")
    p_verify.add_argument("--in", dest="infile", required=True,
                          help="trajectory file from 'roll'")
    p_verify.add_argument("--tol", type=float,
                          help="residual tolerance (default 50*h^2)")
    p_verify.set_defaults(func=cmd_verify)

    p_models = sub.add_parser("models", help="list available models")
    p_models.add_argument("--long", action="store_true", help="show dimensions")
    p_models.set_defaults(func=cmd_models)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; reserve 2 for residual breaches
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
            return 1
        raise


if __name__ == "__main__":
    sys.exit(main())
