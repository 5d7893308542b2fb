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
verification tolerance is 50 h^2 for step size h; ``--tol`` must be finite and > 0.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .homogeneous import ControlCurve, EmbeddedCurve, extrinsic_roll, intrinsic_roll, model_residual_report
from .integrate import TimeGrid
from .models import available_models, get_model
from .rolling import RollingMapPath, RollingTriple, triple_gram_residual, triple_velocity_residual

FORMAT_VERSION = 1

# A trajectory file holds the time column ``t`` and then, per mode, these
# blocks: (document key, CSV column prefix, per-node shape in the ambient
# dimension N and the p-dimension k).  A CSV column is the prefix followed by
# the row-major index within the node's block: alpha_0, R_0_1, ...
LAYOUT = {
    "extrinsic": (("alpha", "alpha", "N"), ("alpha_hat", "alphahat", "N"),
                  ("R", "R", "NN"), ("s", "s", "N")),
    "intrinsic": (("alpha", "alpha", "N"), ("alpha_hat", "alphahat", "k"),
                  ("A", "R", "kN")),
}
# the metadata that ``verify`` reads, by type; a CSV stores every value as text
META_TYPES = {"format_version": int, "kind": str, "model": str, "mode": str,
              "t0": float, "t1": float, "n_steps": int, "ambient_dim": int, "k_dim": int}


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


def _model(name):
    """The model ``name`` looks up; an unknown or malformed one exits with the lookup's message."""
    try:
        return get_model(name)
    except (KeyError, ValueError) as exc:
        # the message itself: str() of a KeyError quotes it
        _fail(exc.args[0])


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


def _blocks(mode):
    """The blocks of a ``mode`` trajectory after its time column."""
    if not isinstance(mode, str) or mode not in LAYOUT:
        _fail(f"unknown mode {mode!r}")
    return LAYOUT[mode]


def _node_shapes(meta):
    """(key, per-node shape, CSV column prefix) of each block after the time column."""
    dims = {"N": meta["ambient_dim"], "k": meta["k_dim"]}
    return [(key, tuple(dims[d] for d in shape), prefix)
            for key, prefix, shape in _blocks(meta.get("mode", "extrinsic"))]


def _csv_labels(meta):
    labels = ["t"]
    for _, shape, prefix in _node_shapes(meta):
        labels += [prefix + "".join(f"_{i}" for i in idx) for idx in np.ndindex(shape)]
    return labels


def _write_csv(out, meta, arrays):
    header = "".join(f"# {key}={value}\n" for key, value in meta.items()) + ",".join(_csv_labels(meta))
    table = np.hstack([block.reshape(len(block), -1) for block in arrays.values()])
    np.savetxt(out, table, fmt="%.17g", delimiter=",", header=header, comments="")


def _write_json(out, meta, arrays):
    doc = {**meta, **{key: block.tolist() for key, block in arrays.items()}}
    out.write(json.dumps(doc, indent=1))
    out.write("\n")


def cmd_roll(args):
    cfg = _load_config(args.config)
    if not isinstance(cfg, dict):
        _fail("config must be a JSON object")
    name = cfg.get("model")
    if not name:
        _fail("config is missing 'model'")
    model = _model(name)
    grid = _build_grid(cfg)
    mode = cfg.get("mode", "extrinsic")
    blocks = _blocks(mode)
    if mode == "intrinsic" and "normal_strategy" in cfg:
        _fail("'normal_strategy' applies to extrinsic rolls only; remove it from an "
              "intrinsic config")
    if "curve" in cfg and "normal_strategy" in cfg:
        _fail("'normal_strategy' applies to controls only: a sampled curve rolls by "
              "transport; remove it from a curve config")
    data = _build_input(cfg, grid, model)
    strategy = cfg.get("normal_strategy", "closed_form")
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
    if mode == "extrinsic" and "control" in cfg:
        meta["normal_strategy"] = strategy
    # an intrinsic roll holds A as its tangential ``maps``
    arrays = {"t": grid.ts, **{key: getattr(result, "maps" if key == "A" else key)
                               for key, _, _ in blocks}}

    fmt = args.format
    if fmt is None:
        fmt = "json" if args.out and args.out.endswith(".json") else "csv"
    write = _write_csv if fmt == "csv" else _write_json
    if not args.out:
        write(sys.stdout, meta, arrays)
        return 0
    try:
        with open(args.out, "w") as out:
            write(out, meta, arrays)
    except OSError as exc:
        _fail(f"cannot write trajectory: {exc}")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


def _load_trajectory(path):
    """Metadata and arrays of a trajectory file, whatever its name: a JSON
    document if its first non-blank character is ``{``, else a CSV table."""
    with open(path) as fh:
        text = fh.read()
    doc = json.loads(text) if text.lstrip().startswith("{") else None
    meta = {}
    lines = []
    if doc is not None:
        meta = {key: doc[key] for key in META_TYPES if key in doc}
    else:
        for line in text.splitlines():
            line = line.strip()
            if line.startswith("#"):
                key, _, value = line[1:].strip().partition("=")
                meta[key.strip()] = value.strip()
            elif line:
                lines.append(line)
    if meta.get("kind") != "rolling_trajectory":
        _fail(f"{path}: not a rolling trajectory file")
    if doc is not None:
        keys = ["t"] + [key for key, _, _ in _blocks(meta.get("mode", "extrinsic"))]
        return meta, {key: np.asarray(doc[key], dtype=float) for key in keys if key in doc}

    # lines[0] is the column header; loadtxt would only warn on an empty body
    if len(lines) < 2:
        _fail(f"{path}: no trajectory data found")
    meta = {key: META_TYPES.get(key, str)(value) for key, value in meta.items()}
    table = np.loadtxt(lines[1:], delimiter=",", ndmin=2)
    blocks = _node_shapes(meta)
    ends = np.cumsum([1] + [math.prod(shape) for _, shape, _ in blocks])
    if ends[-1] != table.shape[1]:
        _fail(f"{path}: column count does not match metadata dimensions")
    header, labels = [label.strip() for label in lines[0].split(",")], _csv_labels(meta)
    if len(header) != len(labels):
        _fail(f"{path}: the header names {len(header)} columns, the layout {len(labels)}")
    for column, (label, expected) in enumerate(zip(header, labels), start=1):
        if label != expected:
            _fail(f"{path}: column {column} is labelled {label!r}, the layout puts "
                  f"{expected!r} there")
    t, *columns = np.split(table, ends[:-1], axis=1)
    arrays = {"t": t[:, 0]}
    for (key, shape, _), block in zip(blocks, columns):
        arrays[key] = block.reshape(len(table), *shape)
    return meta, arrays


def cmd_verify(args):
    path = args.infile
    if args.tol is not None and not (math.isfinite(args.tol) and args.tol > 0):
        _fail(f"--tol must be finite and > 0, got {args.tol}")
    try:
        meta, arrays = _load_trajectory(path)
    except OSError as exc:
        _fail(f"cannot read trajectory: {exc}")
    except (ValueError, KeyError) as exc:
        _fail(f"{path}: cannot parse trajectory: {exc}")
    if meta.get("format_version") != FORMAT_VERSION:
        _fail(f"{path}: unsupported format_version {meta.get('format_version')!r}")

    model = _model(meta.get("model"))
    try:
        grid = TimeGrid(float(meta["t0"]), float(meta["t1"]), meta["n_steps"])
    except KeyError as exc:
        _fail(f"{path}: trajectory metadata is missing {exc}")
    except (TypeError, ValueError) as exc:
        _fail(f"{path}: bad grid: {exc}")
    t = arrays.get("t")
    # absolute in the grid's own scale: a relative slack would pass a stretched column
    atol = 1e-12 * max(1.0, abs(grid.t0), abs(grid.t1))
    if t is None or t.shape != grid.ts.shape or not np.allclose(grid.ts, t, rtol=0.0, atol=atol):
        _fail(f"{path}: time column does not match the declared grid")

    tol = args.tol if args.tol is not None else 50.0 * grid.h ** 2
    if meta.get("mode", "extrinsic") == "extrinsic":
        try:
            traj = RollingMapPath(grid=grid, R=arrays["R"], s=arrays["s"],
                                  alpha=arrays["alpha"], alpha_hat=arrays["alpha_hat"],
                                  form=model.form)
            report = model_residual_report(model, traj)
        except (ValueError, KeyError) as exc:
            _fail(f"cannot rebuild rolling path: {exc}")
        residuals = {field: getattr(report, field) for field in report._FIELDS}
    else:
        try:
            frames = model.pointwise_tangent_frames(grid, arrays["alpha"]).frames
            triple = RollingTriple(grid=grid, alpha=arrays["alpha"],
                                   alpha_hat=arrays["alpha_hat"], maps=arrays["A"],
                                   tangent_frames=frames, form=model.form,
                                   target_gram=model.target_gram)
            residuals = {"velocity_match": float(np.max(triple_velocity_residual(triple))),
                         "isometry_gram": float(np.max(triple_gram_residual(triple)))}
        except (ValueError, KeyError) as exc:
            _fail(f"cannot rebuild rolling triple: {exc}")
    for label, value in residuals.items():
        print(f"{label}: {value:.6e} (tol {tol:.6e}) {'ok' if value <= tol else 'BREACH'}")
    ok = all(value <= tol for value in residuals.values())
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
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout early; point it at devnull so the exit flush stays quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: stdout closed before the output was written", file=sys.stderr)
        return 1
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
            return 1
        raise


if __name__ == "__main__":
    sys.exit(main())
