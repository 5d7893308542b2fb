"""The package runs on numpy alone; scipy is a test dependency only.

A fresh interpreter that imports the package, builds every named model and
rolls and verifies every bundled config, as CSV and as JSON, must not import
scipy.  With scipy blocked outright, the same run still works, and so do
``CartanModel.validate`` on every named model, ``get_model`` of every
bundled description file by path and the ``random_*`` draws.

Every name in the ``__all__`` of every ``semiroll`` module resolves, so a
deletion leaves no stale export behind.  Every module-level import of the
package is read in its module or exported by its ``__all__``, so a deletion
leaves no stale import behind either; a line marked ``# noqa: F401`` keeps an
import for its readers elsewhere.
"""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import semiroll

GUARDED = """
import contextlib, io, os, sys, tempfile
from importlib import resources

import semiroll
import semiroll.cli
from semiroll.models import available_models, get_model

for name in available_models():
    get_model(name)
configs = sorted(p for p in (resources.files("semiroll") / "configs").iterdir()
                 if p.name.endswith(".json"))
with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
    for config in configs:
        for suffix in (".csv", ".json"):
            out = os.path.join(tmp, config.name + suffix)
            codes = (semiroll.cli.main(["roll", "--config", str(config), "--out", out]),
                     semiroll.cli.main(["verify", "--in", out]))
            assert codes == (0, 0), (config.name, suffix, codes)
print(len(configs), sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def _run(code):
    src = str(Path(semiroll.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_cli_and_named_models_import_no_scipy():
    n_configs, *scipy_modules = _run(GUARDED)
    assert int(n_configs) >= 5
    assert scipy_modules == ["[]"]


def test_everything_runs_with_scipy_blocked():
    code = """
import sys
sys.modules["scipy"] = None
from importlib import resources
import numpy as np
from semiroll.linalg import random_motion
from semiroll.models import available_models, get_model

rng = np.random.default_rng(7)
for name in available_models():
    model = get_model(name)
    model.validate()
    model.random_point(rng)
    random_motion(model.form, rng)
files = sorted(p for p in (resources.files("semiroll") / "models" / "data").iterdir()
               if p.name.endswith(".json"))
for path in files:
    get_model(path)
print(len(files))
""" + GUARDED
    n_files, n_configs, scipy_modules = _run(code)
    assert int(n_files) >= 4 and int(n_configs) >= 5
    assert scipy_modules == "['scipy']"  # the blocking None entry, and nothing under it


MODULES = ["semiroll"] + sorted(m.name for m in pkgutil.walk_packages(semiroll.__path__, "semiroll."))


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    assert [export for export in getattr(module, "__all__", ()) if not hasattr(module, export)] == []


def _unread_imports(path):
    """(line, name) of each module-level import that the module neither reads nor exports."""
    source = path.read_text()
    tree, lines = ast.parse(source), source.splitlines()
    read_or_exported = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                for t in node.targets):
            read_or_exported |= set(ast.literal_eval(node.value))
    unread = []
    for node in tree.body:
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                            and node.module != "__future__"):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in read_or_exported and "# noqa: F401" not in lines[alias.lineno - 1]:
                    unread.append((alias.lineno, name))
    return unread


@pytest.mark.parametrize("name", MODULES)
def test_every_import_is_read_or_exported(name):
    assert _unread_imports(Path(importlib.import_module(name).__file__)) == []
