"""Run the semiroll CLI with the benchmark tracer installed (traced cli runs only).

Usage: python3 perfbench/cli_child.py <semiroll CLI arguments>
Appends one JSON line {"import_s": ..., "spans": [...]} to $PERFBENCH_SPANS
and exits with the CLI's exit code.
"""

import json
import os
import sys
import time

t0 = time.perf_counter()
import semiroll.cli as cli  # noqa: E402

import_s = time.perf_counter() - t0

from tracer import Tracer  # noqa: E402

tracer = Tracer()
tracer.install()
try:
    code = tracer.span("cli.main", cli.main)(sys.argv[1:])
finally:
    tracer.uninstall()
    with open(os.environ["PERFBENCH_SPANS"], "a") as fh:
        fh.write(json.dumps({"import_s": import_s, "spans": tracer.spans}) + "\n")
sys.exit(code)
