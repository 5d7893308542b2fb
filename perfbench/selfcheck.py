"""Tiny-size self-check of the benchmark (about a minute).

Usage (from the repository root):  python3 perfbench/selfcheck.py

Runs every workload at 10x smaller grids, untraced and traced, and checks
the output contract: exit code 0; a last stdout line holding exactly
``correct``, ``attempted``, ``failed`` and ``metrics``; every end-to-end
(``--trace 0``) or per-layer (``--trace 1``) metric of BENCHMARK.json with
its unit and a finite value; no failed operation.  It also checks that the
benchmark exits non-zero without a result when the package sources are
missing.
"""

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(root, workload, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=600)


def check_result(bench, workload, trace, proc):
    label = f"{workload} trace={trace}"
    if proc.returncode != 0:
        return [f"{label}: exit {proc.returncode}: {proc.stderr[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{label}: result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        errors.append(f"{label}: correct={result['correct']} failed={result['failed']}: "
                      + " | ".join(ln for ln in proc.stdout.splitlines()
                                   if ln.startswith("failure")))
    expected = bench["per_layer" if trace else "end_to_end"]
    if set(result["metrics"]) != {m["name"] for m in expected}:
        errors.append(f"{label}: metric names differ from BENCHMARK.json")
    for m in expected:
        got = result["metrics"].get(m["name"])
        if got is None:
            continue
        if got["unit"] != m["unit"]:
            errors.append(f"{label}: {m['name']} unit {got['unit']} != {m['unit']}")
        value = got["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append(f"{label}: {m['name']} value {value!r} is not finite")
        elif not trace and value <= 0:
            errors.append(f"{label}: end-to-end {m['name']} is {value!r}")
    return errors


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            errors += check_result(bench, workload, trace, run(ROOT, workload, trace))
            print(f"checked {workload} trace={trace}", flush=True)

    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out) as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, Path(bare) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, bench["workloads"][0]["name"], 0)
        if proc.returncode == 0 or proc.stdout.strip():
            errors.append("benchmark did not fail without the package sources")
    print("checked missing-sources failure", flush=True)

    for line in errors:
        print(f"SELFCHECK FAIL {line}")
    print("SELFCHECK OK" if not errors else f"SELFCHECK FAILED ({len(errors)})")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
