"""Fail when the tier-1 tests leave a line or a function of ``src/semiroll`` unrun.

Runs the tier-1 suite in this process under a ``sys.settrace`` tracer that
records each line of ``src/semiroll`` a frame executes and each code object it
calls, then compares those with every line that holds code and every code
object but the module's (each function, lambda, nested def, class body and
comprehension), as compiling each module gives them.  A function's first line
counts as run with the code that defines it, so the call check is what sees a
one-line lambda or def that nothing calls.  A line that only a child process
runs is not traced, so a code path that tier-1 reaches only through
``python -m semiroll.cli`` needs an in-process test too.  The one line no test
process can run in-process, the ``__main__`` call of ``cli.py``, is listed in
``UNTRACEABLE``.  Run it from the root of the checkout, with any extra pytest
arguments after it:

    PYTHONPATH=src python ci/line_reach.py

It exits with pytest's code when a test fails, with 1 when a line is left
unexecuted (each is printed as path:line and its source) or a function is never
called (each is printed as path:line (name)), and with 0 otherwise.  The
tracer makes the suite about 1.5 times slower.  It needs Python 3.11 or later,
for the ``co_qualname`` it prints.
"""

import sys
import threading
from collections import defaultdict
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "semiroll"

# (file, stripped source) of the lines that only run as a script's entry point
UNTRACEABLE = {("cli.py", "sys.exit(main())")}


def code_objects(path):
    """Line numbers of ``path`` that hold code, from the line tables of all its code
    objects, and those code objects but the module's, keyed by (first line, name)."""
    lines, functions, stack = set(), {}, [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        # a module's entry sits on line 0 and a function's on its first line, which no line
        # event reports; that first line counts as run with the code that defines it
        entry = code.co_firstlineno if code.co_name != "<module>" else 0
        lines.update(line for _, _, line in code.co_lines() if line not in (None, entry))
        if entry:
            functions[code.co_firstlineno, code.co_name] = code
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines, functions


def traced_run(args):
    """pytest's exit code of ``args``, and the lines run and the (first line, name) of the
    code objects called, per file under PACKAGE."""
    hits, calls = defaultdict(set), defaultdict(set)
    root = str(PACKAGE)

    def line(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return line

    def call(frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(root):
            return None
        calls[code.co_filename].add((code.co_firstlineno, code.co_name))
        return line

    threading.settrace(call)
    sys.settrace(call)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return code, hits, calls


def main(argv):
    code, hits, calls = traced_run(["-q", "--continue-on-collection-errors", *argv])
    imported = Path(sys.modules["semiroll"].__file__).resolve().parent
    if imported != PACKAGE:
        print(f"line_reach: semiroll was imported from {imported}, not {PACKAGE}")
        return 1
    if code != 0:
        return code
    missed, uncalled = [], []
    for path in sorted(PACKAGE.rglob("*.py")):
        source = path.read_text().splitlines()
        name = path.relative_to(PACKAGE.parents[1])
        lines, functions = code_objects(path)
        for number in sorted(lines - hits[str(path)]):
            text = source[number - 1].strip()
            if (path.name, text) not in UNTRACEABLE:
                missed.append(f"{name}:{number}: {text}")
        for key in sorted(functions.keys() - calls[str(path)]):
            uncalled.append(f"{name}:{key[0]} ({functions[key].co_qualname})")
    print(f"line_reach: {len(missed)} line(s) of src/semiroll left unexecuted by tier-1")
    for entry in missed:
        print(entry)
    print(f"line_reach: {len(uncalled)} function(s) of src/semiroll never called by tier-1")
    for entry in uncalled:
        print(entry)
    return 1 if missed or uncalled else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
