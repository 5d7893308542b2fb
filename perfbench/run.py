"""semiroll benchmark: the roll, verify and cli workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload {roll,verify,cli} --seed N --seconds S --trace {0,1}

The package is imported from ``src/`` next to this directory; nothing needs
installing.  Inputs are generated from ``--seed``.  Each op is timed on its
own and checked outside the timed region.  The last stdout line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  The lines before it repeat each metric with its unit, plus
the environment record.  See perfbench/README.md.
"""

import os

# Pin BLAS/OpenMP pools before numpy loads; subprocesses inherit the settings.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import pickle  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

from tracer import SPAN_NAMES, Tracer  # noqa: E402  (imports no semiroll module)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("roll", "verify", "cli")
# A run does round(seconds / PASS_SECONDS) whole passes (at least one), so every
# run, and every commit, samples the same mix of ops the same number of times.
# On a 2-core x86 box a roll pass takes 10-16 s, a verify pass about 8 s after
# 10 s of building its inputs, and a cli pass about 14 s.
PASS_SECONDS = 12.5
SETUP_SAMPLES = 7  # fresh set-up processes, spread evenly over the passes
CLI_MODELS = ("sphere", "hyperboloid", "so_plus_1_2", "so_plus_2_2", "stiefel_3_1", "stiefel_4_2")
# {per-layer metric: the end-to-end metric and workload it should move}
LAYERS = json.loads((HERE / "layers.json").read_text())


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="10x smaller grids and one set-up sample (self-check only)")
    return ap.parse_args(argv)


# -- output checking ----------------------------------------------------------


def digest(output):
    """SHA-256 of the pickled output, or None when it cannot be pickled."""
    try:
        return hashlib.sha256(pickle.dumps(output)).digest()
    except Exception:  # noqa: BLE001 - an unpicklable output is simply checked again
        return None


class Gate:
    """Counts attempts and failures and checks every output.

    The checks are deterministic, so an output whose pickle is byte-equal
    to one already checked for the same op slot reuses that verdict.  On
    ``roll`` this saves the residual reports of the later passes, about 8 s
    each on a 2-core x86 box.  Any difference means a full check.
    """

    def __init__(self):
        self.verdicts = {}
        self.attempted = 0
        self.failed = 0
        self.resid = []
        self.closed_form = []
        self.failures = []

    def record(self, op, output, error=None):
        from workloads import Outcome

        self.attempted += 1
        if error is not None:
            outcome = Outcome(False, detail=f"raised {error!r}")
        else:
            key = digest(output)
            outcome = self.verdicts.get((op.name, key)) if key is not None else None
            if outcome is None:
                try:
                    outcome = op.check(output)
                except Exception as exc:  # a crashing check is a failed op, not a crash
                    outcome = Outcome(False, detail=f"check raised {exc!r}")
                if key is not None:
                    self.verdicts[(op.name, key)] = outcome
        if not outcome.ok:
            self.failed += 1
            self.failures.append(f"{op.name}: {outcome.detail}")
        if outcome.resid_ratio is not None and op.accuracy:
            self.resid.append(outcome.resid_ratio)
        if outcome.closed_form_ratio is not None:
            self.closed_form.append(outcome.closed_form_ratio)


def run_op(op, gate):
    """Seconds of one op; its output is checked after the clock stops."""
    error = output = None
    t0 = perf_counter()
    try:
        output = op.run()
    except Exception as exc:  # the program failing an op is a measured failure
        error = exc
    dt = perf_counter() - t0
    gate.record(op, output, error)
    return dt


# -- machine speed --------------------------------------------------------------

# The box the benchmark was defined on is shared: the same code runs up to 2x
# slower for seconds or minutes at a time.  A fixed kernel of the program's kind
# of work (no semiroll code), timed just before every op and set-up sample,
# follows that drift.  Each timing is multiplied by (REF_SECONDS / m) ** ELASTICITY,
# m the median of the kernel times around it, and so is reported at the machine
# speed where the kernel takes REF_SECONDS.  ELASTICITY is the measured slope of
# log(op time) against log(kernel time) across the box's speed changes (0.67-0.84
# in three tests); a slope of 1 over-corrects.  A change to the program moves
# the scaled timings as much as the raw ones.
REF_SECONDS = 0.025
REF_WINDOW = 3  # kernel samples on each side of a timing
ELASTICITY = 0.7
_KERNEL_A = np.random.default_rng(1).standard_normal((4, 4)) * 0.3
_KERNEL_B = _KERNEL_A - _KERNEL_A.T


def kernel_seconds():
    """Seconds of the speed kernel: RK4 steps of a 4x4 matrix flow in a Python loop,
    then fourth-order differences and products over the whole batch of steps."""
    t0 = perf_counter()
    h = 1e-3
    X = np.eye(4)
    steps = np.empty((600, 4, 4))
    for k in range(600):
        A = _KERNEL_B + np.sin(k * h) * _KERNEL_A
        k1 = A @ X
        k2 = A @ (X + 0.5 * h * k1)
        k3 = A @ (X + 0.5 * h * k2)
        k4 = A @ (X + h * k3)
        X = X + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        steps[k] = X
    B = np.tile(steps, (4, 1, 1))
    for _ in range(6):
        d = (B[:-4] - 8.0 * B[1:-3] + 8.0 * B[3:-1] - B[4:]) / (12.0 * h)
        W = np.einsum("kij,klj->kil", d, B[2:-2])
        np.linalg.norm(W + W.transpose(0, 2, 1), axis=(1, 2))
    return perf_counter() - t0


def scaled(timings):
    """{name: [seconds at reference speed]} from [(name, seconds, kernel seconds)]."""
    kernels = [k for _, _, k in timings]
    out = {}
    for i, (name, dt, _) in enumerate(timings):
        near = statistics.median(kernels[max(0, i - REF_WINDOW): i + REF_WINDOW + 1])
        out.setdefault(name, []).append(dt * (REF_SECONDS / near) ** ELASTICITY)
    return out


# -- set-up -------------------------------------------------------------------


def setup_probe(models, env):
    """Wall time of a fresh process importing semiroll.cli and building the models,
    and the import and get_model times it measured inside."""
    cmd = [sys.executable, str(HERE / "probe.py"), *models]
    t0 = perf_counter()
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, check=True)
    return perf_counter() - t0, json.loads(proc.stdout.strip().splitlines()[-1])


class CliLauncher:
    """Command prefix and environment of CLI calls; traced calls go through cli_child.py."""

    def __init__(self, env, spans_file):
        self.env = env
        self.spans_file = spans_file
        self.traced_env = dict(env, PERFBENCH_SPANS=str(spans_file))
        self.traced = False

    def __call__(self):
        if self.traced:
            return [sys.executable, str(HERE / "cli_child.py")], self.traced_env
        return [sys.executable, "-m", "semiroll.cli"], self.env

    def collect(self, tracer):
        """Move the spans of finished traced calls into ``tracer``; one dict per process."""
        if not self.spans_file.exists():
            return []
        procs = []
        with open(self.spans_file) as fh:
            for line in fh:
                child = json.loads(line)
                procs.append({"import_s": child["import_s"],
                              "get_model_s": sum(sp[2] - sp[1] for sp in child["spans"]
                                                 if sp[0] == "models.get_model")})
                tracer.absorb(child["spans"])
        self.spans_file.unlink()
        return procs


# -- measurement --------------------------------------------------------------


def measure(ops, passes, gate, probe):
    """Untraced whole passes, every other one in reverse, with SETUP_SAMPLES calls of
    ``probe`` spread evenly over them; each timing follows a kernel timing.

    Returns [(op name or "setup", seconds, kernel seconds)] in run order.
    """
    order = [op for index in range(passes) for op in (ops if index % 2 == 0 else ops[::-1])]
    slots = [len(order) * j // SETUP_SAMPLES for j in range(SETUP_SAMPLES)]
    timings = []
    for index, op in enumerate(order):
        for _ in range(slots.count(index)):
            kernel = kernel_seconds()
            timings.append(("setup", probe()[0], kernel))
        kernel = kernel_seconds()
        timings.append((op.name, run_op(op, gate), kernel))
    return timings


def count_control_evals(ops):
    """Wrap each benchmark-built ControlCurve.func once with a counter; returns an undo list.

    The extrinsic and intrinsic ops of a model share one control, so controls
    are deduplicated by identity.
    """
    counters = {}
    for ctrl in (c for op in ops for c in op.controls):
        if id(ctrl) not in counters:
            calls = [0]

            def counted(t, _f=ctrl.func, _c=calls):
                _c[0] += 1
                return _f(t)

            counters[id(ctrl)] = (ctrl, ctrl.func, calls)
            ctrl.func = counted
    return list(counters.values())


def measure_traced(ops, passes, gate, tracer, launcher):
    """Each pass runs untraced, then traced on the same inputs; returns the raw counts.

    The untraced and traced op times are scaled like the end-to-end timings, so
    their difference, the tracing overhead, is not the box changing speed.
    """
    stats = {"stiefel_intrinsic": 0, "evals": 0, "eval_nodes": 0, "bytes_written": 0,
             "processes": []}
    timings = []
    for index in range(passes):
        for op in ops:
            kernel = kernel_seconds()
            timings.append(("plain", run_op(op, gate), kernel))

        counters = count_control_evals(ops)
        tracer.install()
        if launcher:
            launcher.traced = True
        outputs = []
        try:
            for op in ops:
                tracer.op = f"{index}:{op.name}"
                kernel = kernel_seconds()
                t0 = perf_counter()
                try:
                    outputs.append((op, op.run(), None))
                except Exception as exc:  # the program failing an op is a measured failure
                    outputs.append((op, None, exc))
                timings.append(("traced", perf_counter() - t0, kernel))
                if launcher:
                    stats["processes"] += launcher.collect(tracer)
        finally:
            tracer.uninstall()
            if launcher:
                launcher.traced = False
            for ctrl, orig, calls in counters:
                ctrl.func = orig
                stats["evals"] += calls[0]
        for op, output, error in outputs:  # checks run with the wrappers removed
            gate.record(op, output, error)
            stats["bytes_written"] += getattr(output, "size", 0)
            stats["stiefel_intrinsic"] += op.name.startswith("intrinsic.stiefel")
            stats["eval_nodes"] += op.nodes if op.controls else 0
    at_ref = scaled(timings)
    stats["plain"], stats["traced"] = sum(at_ref["plain"]), sum(at_ref["traced"])
    return stats


# -- metrics ------------------------------------------------------------------


def tail_percentile(values):
    """Highest integer percentile with at least ten samples above it (50 if none)."""
    x = np.asarray(values)
    for p in range(99, 49, -1):
        q = float(np.percentile(x, p))
        if int(np.sum(x > q)) >= 10:
            return p, q
    return 50, float(np.percentile(x, 50))


def e2e_metrics(ops, timings, gate):
    """The end-to-end metrics, each timing at reference speed, plus note lines."""
    at_ref = scaled(timings)
    latencies = {op.name: at_ref[op.name] for op in ops}
    all_lat = [dt for op_lat in latencies.values() for dt in op_lat]
    busy = sum(statistics.median(lat) for lat in latencies.values())
    tail_p, tail = tail_percentile(all_lat)
    raw = [dt for name, dt, _ in timings if name != "setup"]
    metrics = {
        "setup_s": statistics.median(at_ref["setup"]),
        "throughput_nodes_per_s": sum(op.nodes for op in ops) / busy,
        "latency_p50_ms": 1e3 * float(np.percentile(all_lat, 50)),
        "accuracy_resid_over_tol": max(gate.resid) if gate.resid else float("nan"),
        "accuracy_closed_form_err": max(gate.closed_form) if gate.closed_form else float("nan"),
    }
    # The tail is one order statistic of about 36 samples, and on a shared box
    # its quartile spread over ten seeds reached 0.17-0.22 on roll, too close to
    # any usable bound; it is printed, not listed in BENCHMARK.json.
    notes = [f"latency_tail_ms {1e3 * tail!r} ms (p{tail_p} of {len(all_lat)} samples)",
             f"error_rate {gate.failed / gate.attempted!r} ({gate.failed}/{gate.attempted})",
             f"kernel median {statistics.median(k for _, _, k in timings)!r} s "
             f"(timings are scaled to {REF_SECONDS} s)",
             f"unscaled latency p50 {1e3 * float(np.percentile(raw, 50))!r} ms, "
             f"setup {statistics.median(dt for n, dt, _ in timings if n == 'setup')!r} s"]
    return metrics, notes


def layer_metrics(names, tracer, passes, stats, processes):
    selfs = tracer.self_times()
    out = {}
    for name in names:
        span, _, stat = name.rpartition(".")
        if stat == "self_s" and span in SPAN_NAMES:
            out[name] = selfs.get(span, (0, 0.0))[1] / passes
        elif stat == "calls" and span in SPAN_NAMES:
            out[name] = selfs.get(span, (0, 0.0))[0] / passes
    iters = np.asarray(tracer.newton_iters, dtype=float)
    out["integrate.reproject.newton_iters_mean"] = float(iters.mean()) if iters.size else 0.0
    out["integrate.reproject.newton_iters_max"] = float(iters.max()) if iters.size else 0.0
    out["linalg.j_orthogonality_residual.calls"] = \
        tracer.counts["linalg.j_orthogonality_residual"] / passes
    out["control.evals_per_node"] = \
        stats["evals"] / stats["eval_nodes"] if stats["eval_nodes"] else 0.0
    corrections = sum(1 for sp in tracer.spans
                      if sp[0] == "models.stiefel.correction" and ":intrinsic.stiefel" in str(sp[4]))
    out["models.stiefel.correction.total_s"] = sum(
        sp[2] - sp[1] for sp in tracer.spans if sp[0] == "models.stiefel.correction") / passes
    out["models.stiefel.correction.calls_per_roll"] = \
        corrections / stats["stiefel_intrinsic"] if stats["stiefel_intrinsic"] else 0.0
    out["cli.import_s"] = statistics.median(p["import_s"] for p in processes)
    out["models.get_model.self_s"] = statistics.median(p["get_model_s"] for p in processes)
    out["cli.main.self_s"] = selfs.get("cli.main", (0, 0.0))[1] / passes
    out["cli.bytes_written"] = stats["bytes_written"] / passes
    out["trace.overhead_s"] = (stats["traced"] - stats["plain"]) / passes
    return {name: out[name] for name in names}


# -- main ---------------------------------------------------------------------


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "semiroll" / "__init__.py").is_file():
        print(f"error: semiroll sources not found under {SRC}", file=sys.stderr)
        return 1
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))

    import scipy
    import semiroll

    if Path(semiroll.__file__).resolve().parent != (SRC / "semiroll").resolve():
        print(f"error: imported semiroll from {semiroll.__file__}, not {SRC}", file=sys.stderr)
        return 1
    import workloads as W

    OUT.mkdir(exist_ok=True)
    print("env " + json.dumps({
        "python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
    }))

    models = CLI_MODELS if args.workload == "cli" else W.MODELS
    setup_probe(models, env)  # untimed: writes the bytecode caches

    rng = np.random.default_rng(args.seed)
    scale = 10 if args.tiny else 1
    passes = max(1, round(args.seconds * (0.5 if args.trace else 1.0)
                          / PASS_SECONDS))
    workdir = launcher = None
    try:
        if args.workload == "cli":
            workdir = tempfile.mkdtemp(prefix="cli-", dir=OUT)
            launcher = CliLauncher(env, OUT / f"cli-spans-{os.getpid()}.jsonl")
            ops = W.cli_ops(rng, workdir, env, scale, launcher)
        else:
            build = W.roll_ops if args.workload == "roll" else W.verify_ops
            ops = build(rng, 2000 // scale)
            # one untimed pass at a tiny size fills lazy imports and first-call caches;
            # the closed-form and fixed-input cases keep their sizes and are left out
            for op in build(np.random.default_rng(args.seed), 40):
                if op.nodes > 41:
                    continue
                try:
                    op.run()
                except Exception:  # noqa: BLE001 - warm-up only; timed ops are gated
                    pass

        timed = [op for op in ops if not op.accuracy]
        gate = Gate()
        if not args.trace:
            timings = measure(timed, passes, gate, lambda: setup_probe(models, env))
            for op in ops:
                if op.accuracy:
                    run_op(op, gate)
            metrics, notes = e2e_metrics(timed, timings, gate)
            kind = "end_to_end"
        else:
            tracer = Tracer()
            stats = measure_traced(timed, passes, gate, tracer, launcher)
            # on cli the fresh processes that matter are the CLI calls themselves
            processes = stats["processes"] or [setup_probe(models, env)[1] for _ in range(3)]
            metrics = layer_metrics([m["name"] for m in bench["per_layer"]], tracer, passes,
                                    stats, processes)
            notes = [f"{passes} traced passes, {len(tracer.spans)} spans"]
            tracer.dump(OUT / f"spans-{args.workload}.csv")
            kind = "per_layer"
    finally:
        if workdir is not None:
            shutil.rmtree(workdir, ignore_errors=True)
        if launcher is not None and launcher.spans_file.exists():
            launcher.spans_file.unlink()

    units = {m["name"]: m["unit"] for m in bench[kind]}
    for name, value in metrics.items():
        link = LAYERS.get(name, {})
        moves = f"  (moves {link['moves']} on {link['workload']})" if link else ""
        print(f"metric {name} {value!r} {units[name]}{moves}")
    for line in notes:
        print(f"note {line}")
    for line in gate.failures[:20]:
        print(f"failure {line}")
    print(json.dumps({"correct": gate.failed == 0, "attempted": gate.attempted,
                      "failed": gate.failed,
                      "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
