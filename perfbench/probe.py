"""Fresh-process set-up cost: import semiroll.cli, then get_model for each named model.

Usage: python3 perfbench/probe.py MODEL... (with the package's src on PYTHONPATH).
Prints one JSON line with the import and get_model times measured inside.
"""

import json
import sys
import time

t0 = time.perf_counter()
import semiroll.cli  # noqa: E402,F401

t1 = time.perf_counter()
from semiroll.models import get_model  # noqa: E402

for name in sys.argv[1:]:
    get_model(name)
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "get_model_s": t2 - t1}))
