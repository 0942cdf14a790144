"""Kernel backend selection.

Imports the compiled extension when present, falling back to the pure-Python
twin.  Set SKEWLAT_PURE=1 to force the fallback (used by the parity tests
and the benchmark).

The compiled twin works in fixed stack arrays of MAXN*MAXN cells, so with
it in use every call on more than MAXN elements goes to the pure path.
"""

import functools
import os

from . import _kernels_py

MAXN = 8

if os.environ.get("SKEWLAT_PURE"):
    _impl = _kernels_py
    BACKEND = "python"
else:
    try:
        from . import _kernels_c as _impl

        BACKEND = "compiled"
    except ImportError:
        _impl = _kernels_py
        BACKEND = "python"


def _bounded(name, n_at):
    """Kernel `name` of the backend in use; on the compiled twin, a call
    whose order (positional argument `n_at`) exceeds MAXN runs the pure
    kernel instead."""
    fast = getattr(_impl, name)
    if _impl is _kernels_py:
        return fast
    pure = getattr(_kernels_py, name)

    @functools.wraps(pure)
    def call(*args, **kwargs):
        return (pure if args[n_at] > MAXN else fast)(*args, **kwargs)

    return call


assoc_witness = _bounded("assoc_witness", 1)
meet_tables = _bounded("meet_tables", 0)
join_completions = _bounded("join_completions", 1)
relabel = _bounded("relabel", 1)
canonical_pair = _bounded("canonical_pair", 2)
