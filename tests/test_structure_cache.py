"""Per-algebra structural facts are computed once per SkewLattice instance.

Counts executions of the function bodies themselves (not calls, which may
be answered from the instance), while the whole analysis stack runs on one
instance.
"""

import gc
import sys
import weakref
from collections import Counter

import pytest

from skewlat import cosets, decompose, greens, laws
from skewlat.catalog import enumerate_catalog, nc5
from skewlat.core import SkewLattice, chain, direct_product, rectangular
from skewlat.matrix_rings import primitive_right_handed
from skewlat.varieties import classify

FACTS = {
    "R": greens.green_R,
    "L": greens.green_L,
    "D": greens.green_D,
    "H": greens.green_H,
    "natural_order": greens.natural_order,
    "natural_preorder": greens.natural_preorder,
    "dclass_order": greens.dclass_order,
    "kimura": decompose.kimura,
}


def _body(fn):
    return getattr(fn, "__wrapped__", fn).__code__


def _count_bodies(run):
    names = {_body(fn): name for name, fn in FACTS.items()}
    names[greens.quotient.__code__] = "quotient"
    counts = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in names:
            counts[names[frame.f_code]] += 1

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return counts


def _analyze(s):
    classify(s)
    for check in laws.ALL_LAW_CHECKS.values():
        check(s)
    decompose.kimura(s)
    decompose.find_lattice_section(s)
    decompose.skew_diamonds(s)
    decompose.projections(s)


ALGEBRAS = [
    pytest.param(nc5("right"), id="nc5-right"),
    pytest.param(nc5("left"), id="nc5-left"),
] + [
    pytest.param(s, id=f"order4-{i:02d}")
    for i, s in enumerate(enumerate_catalog(4).algebras)
]


@pytest.mark.parametrize("s", ALGEBRAS)
def test_facts_built_at_most_once(s):
    s = SkewLattice(s.meet, s.join)
    counts = _count_bodies(lambda: _analyze(s))
    for name in FACTS:
        assert counts[name] <= 1, (name, counts)
    # S/R, S/L and S/D, all inside the one Kimura decomposition
    assert counts["quotient"] <= 3, counts
    assert counts["D"] == counts["kimura"] == 1

    fresh = SkewLattice(s.meet, s.join)
    assert fresh == s and hash(fresh) == hash(s)
    for name, fn in FACTS.items():
        cached = fn(s)
        hash(cached)  # immutable: shared by every caller
        assert cached == fn(fresh), name


def test_analysed_algebra_freed_without_the_cycle_collector():
    # No cached fact refers back to its algebra, so reference counting
    # alone frees an algebra at `del`, whatever was computed on it.
    s = direct_product(nc5("right"), rectangular(2, 1))
    enabled = gc.isenabled()
    gc.disable()
    try:
        decompose.kimura(s)
        for check in laws.ALL_LAW_CHECKS.values():
            check(s)
        classify(s)
        ref = weakref.ref(s)
        del s
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def test_library_leaves_no_cyclic_garbage():
    # No function builds a closure that refers to itself, so reference
    # counting frees everything the library allocates: with the cycle
    # collector off, a search, a full analysis and a matrix closure, with
    # no warm-up call, leave nothing for it to find.
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        enumerate_catalog(4)
        s = direct_product(nc5("right"), chain(2))
        classify(s)
        for check in laws.ALL_LAW_CHECKS.values():
            check(s)
        decompose.kimura(s)
        decompose.find_lattice_section(s)
        for pair in cosets.comparable_pairs(s):
            cosets.flat_cosets(s, pair)
        greens.to_dot(s)
        primitive_right_handed(3, (1, 1, 1), [], [])
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
