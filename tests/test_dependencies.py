"""The package runs on numpy alone; scipy is a test-only dependency."""

import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import rowloc

_IMPORT_ALL = """
import importlib, pkgutil, sys
sys.modules["scipy"] = None  # any `import scipy...` now raises ImportError
import rowloc
for mod in pkgutil.iter_modules(rowloc.__path__):
    importlib.import_module("rowloc." + mod.name)
print(sorted(m for m in sys.modules if m.startswith("rowloc.")))
"""


def test_every_module_imports_without_scipy():
    src = str(Path(rowloc.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", _IMPORT_ALL], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    names = {"rowloc." + m.name for m in pkgutil.iter_modules(rowloc.__path__)}
    assert names and all(repr(n) in proc.stdout for n in names)
