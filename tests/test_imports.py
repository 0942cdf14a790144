"""Every skewlat module imports on its own, in a fresh set of modules, so
an import cycle between modules fails here whichever side is imported
first, and no import compiles a kernel: not a GF(p) product or nabla
kernel, nor an associativity kernel of the band searches."""

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
    # GF(p) product and nabla kernels and the search's associativity
    # kernels are compiled on first use, never at import
    mr = sys.modules.get("skewlat.matrix_rings")
    if mr is not None and mr._kernel.cache_info().currsize:
        sys.exit(f"importing {name} compiled a product kernel")
    if mr is not None and mr._nabla_kernel.cache_info().currsize:
        sys.exit(f"importing {name} compiled a nabla kernel")
    kp = sys.modules.get("skewlat._kernels_py")
    if kp is not None and kp._assoc_kernel.cache_info().currsize:
        sys.exit(f"importing {name} compiled an associativity kernel")
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
    assert "skewlat._kernels_py" in imported
