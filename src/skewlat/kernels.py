"""The enumeration kernels, one implementation each: the pure-Python
functions of `_kernels_py`, bound here under their own names, so each
kernel is the same object wherever it is imported."""

from ._kernels_py import (
    assoc_witness,
    canonical_pair,
    join_completions,
    meet_tables,
    relabel,
)

BACKEND = "python"
