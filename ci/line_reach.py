"""Fail when the tier-1 tests leave a line of ``src/semiroll`` unexecuted.

Runs the tier-1 suite in this process under a ``sys.settrace`` line tracer that
records each line of ``src/semiroll`` a frame executes, then compares those with
every line that holds code: the line tables of the code objects that compiling
each module gives.  A line that only a child process runs is not traced, so a
code path that tier-1 reaches only through ``python -m semiroll.cli`` needs an
in-process test too.  The one line no test process can run in-process, the
``__main__`` call of ``cli.py``, is listed in ``UNTRACEABLE``.  Run it from the
root of the checkout, with any extra pytest arguments after it:

    PYTHONPATH=src python ci/line_reach.py

It exits with pytest's code when a test fails, with 1 when a line is left
unexecuted (each is printed as path:line and its source), and with 0 otherwise.
The tracer makes the suite about 1.5 times slower.
"""

import sys
import threading
from collections import defaultdict
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "semiroll"

# (file, stripped source) of the lines that only run as a script's entry point
UNTRACEABLE = {("cli.py", "sys.exit(main())")}


def code_lines(path):
    """Line numbers of ``path`` that hold code, from the line tables of all its code objects."""
    lines, stack = set(), [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        # a module's entry sits on line 0 and a function's on its first line, which no line
        # event reports; that first line counts as run with the code that defines it
        entry = code.co_firstlineno if code.co_name != "<module>" else 0
        lines.update(line for _, _, line in code.co_lines() if line not in (None, entry))
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def traced_run(args):
    """pytest's exit code of ``args`` and the lines run per file under PACKAGE."""
    hits = defaultdict(set)
    root = str(PACKAGE)

    def line(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return line

    def call(frame, event, arg):
        return line if frame.f_code.co_filename.startswith(root) else None

    threading.settrace(call)
    sys.settrace(call)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return code, hits


def main(argv):
    code, hits = traced_run(["-q", "--continue-on-collection-errors", *argv])
    imported = Path(sys.modules["semiroll"].__file__).resolve().parent
    if imported != PACKAGE:
        print(f"line_reach: semiroll was imported from {imported}, not {PACKAGE}")
        return 1
    if code != 0:
        return code
    missed = []
    for path in sorted(PACKAGE.rglob("*.py")):
        source = path.read_text().splitlines()
        for number in sorted(code_lines(path) - hits[str(path)]):
            text = source[number - 1].strip()
            if (path.name, text) not in UNTRACEABLE:
                missed.append(f"{path.relative_to(PACKAGE.parents[1])}:{number}: {text}")
    print(f"line_reach: {len(missed)} line(s) of src/semiroll left unexecuted by tier-1")
    for entry in missed:
        print(entry)
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
