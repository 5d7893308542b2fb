"""Record a baseline: untraced runs of seeds 1-10 plus one traced run per workload.

Usage (from the repository root):

    python3 perfbench/record.py --out perfbench/baseline/<label>.json

Every run measures for BENCHMARK.json's ``run_seconds``.  For every
end-to-end metric it stores each run's value, the median, the quartiles of
``statistics.quantiles(values, n=4)`` and their distance as a share of the
median (the spread that the metric's bound in BENCHMARK.json is compared
against); a spread above a third of the bound is flagged.  The traced run
adds the per-layer breakdown.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result.update(seed=seed, wall_s=wall,
                  notes=[ln for ln in lines if ln.startswith(("note", "failure"))])
    env = json.loads(lines[0][len("env "):])
    return result, env


def summarize(runs):
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        out[name] = {"unit": runs[0]["metrics"][name]["unit"], "median": med,
                     "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]

    record = {"seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in SEEDS:
            result, env = run(workload, seed, seconds, 0)
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"wall={result['wall_s']:.1f}s", flush=True)
        record["env"] = {k: v for k, v in env.items() if k not in ("workload", "seed", "trace")}
        summary = summarize(runs)
        for name, s in summary.items():
            flag = "" if s["spread"] <= bounds[name] / 3 else "  <-- over bound/3"
            print(f"  {workload} {name}: median {s['median']:.6g} {s['unit']} "
                  f"spread {s['spread']:.4f} (bound {bounds[name]}){flag}", flush=True)
        traced, _ = run(workload, SEEDS[0], seconds, 1)
        entry = {"runs": runs, "summary": summary, "traced": traced}
        print(f"  {workload} traced: correct={traced['correct']} wall={traced['wall_s']:.1f}s",
              flush=True)
        record["workloads"][workload] = entry
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
