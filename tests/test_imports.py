"""Every skewlat module imports on its own, in a fresh set of modules, so
an import cycle between modules fails here whichever side is imported
first."""

import os
import subprocess
import sys

import skewlat

_CHILD = """
import importlib, pkgutil, sys
import skewlat

names = ["skewlat"] + [
    "skewlat." + m.name
    for m in pkgutil.iter_modules(skewlat.__path__)
    if m.name != "__main__"
]
for name in names:
    for key in [k for k in sys.modules if k.split(".")[0] == "skewlat"]:
        del sys.modules[key]
    importlib.import_module(name)
print(" ".join(names))
"""


def test_each_module_imports_first():
    src = os.path.dirname(os.path.dirname(os.path.abspath(skewlat.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", _CHILD],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    imported = done.stdout.split()
    assert "skewlat.cli" in imported and "skewlat.matrix_rings" in imported
