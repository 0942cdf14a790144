"""Per-algebra structural facts are computed once per SkewLattice instance.

Counts executions of the function bodies themselves (not calls, which may
be answered from the instance), while the whole analysis stack runs on one
instance.  Coset maps are such facts too: each coset is formed once per
instance, however many readers look its map up.
"""

import gc
import sys
import weakref
from collections import Counter

import pytest

from skewlat import cosets, decompose, greens, laws, varieties
from skewlat.catalog import enumerate_catalog, nc5
from skewlat.core import SkewLattice, chain, direct_product, rectangular
from skewlat.matrix_rings import primitive_right_handed
from skewlat.varieties import classify, predicate

FACTS = {
    "R": greens.green_R,
    "L": greens.green_L,
    "D": greens.green_D,
    "H": greens.green_H,
    "natural_order": greens.natural_order,
    "natural_preorder": greens.natural_preorder,
    "dclass_order": greens.dclass_order,
    "kimura": decompose.kimura,
    "skew_diamonds": decompose.skew_diamonds,
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


# the scans run inside the body of the predicate they decide
SCANS = {varieties._commutation_implies.__code__, varieties._separated.__code__}


def _decision(frame):
    """(id of the algebra, what it decides) for one call of a watched body:
    an identity check by the identity's name, a scan by its caller."""
    code = frame.f_code
    if code is varieties.check_identity.__code__:
        return id(frame.f_locals["s"]), frame.f_locals["ident"].name
    if code in SCANS:
        frame = frame.f_back
        return id(frame.f_locals["s"]), f"{code.co_name} in {frame.f_code.co_name}"
    return id(frame.f_locals["s"]), code.co_name


@pytest.mark.parametrize("which", ["nc5xc2", "o7.60", "o7.112", "o7.138", "o7.510"])
def test_each_predicate_decided_once_per_algebra(which, nc5_right, non_symmetric7):
    # classify, every law family and a compound predicate read the same
    # facts: each body runs once per (algebra, predicate), the quotients'
    # facts included
    if which == "nc5xc2":
        s = direct_product(nc5_right, chain(2))
    else:
        s = SkewLattice(non_symmetric7[which].meet, non_symmetric7[which].join)
    watched = {varieties.check_identity.__code__, *SCANS} | {
        f.__code__ for f in varieties.PREDICATES.values() if callable(f)
    }
    counts = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in watched:
            counts[_decision(frame)] += 1

    sys.setprofile(profile)
    try:
        classify(s)
        for check in laws.ALL_LAW_CHECKS.values():
            check(s)
        predicate(s, "cancellative")
    finally:
        sys.setprofile(None)
    assert max(counts.values()) == 1, counts.most_common(3)
    dec = decompose.kimura(s)
    label = {
        id(s): "S",
        id(dec.base.quotient): "S/D",
        id(dec.left_factor.quotient): "S/R",
        id(dec.right_factor.quotient): "S/L",
    }
    # on S: 13 identities, 11 bodies, 2 commutation and 3 cancellation
    # scans; on S/D the distributive identity; on S/R and S/L the three
    # cancellation bodies and the two one-sided scans
    assert Counter(label[i] for i, _ in counts) == {
        "S": 29, "S/D": 1, "S/R": 5, "S/L": 5
    }


@pytest.mark.parametrize(
    "s", ALGEBRAS + [pytest.param(direct_product(nc5("right"), chain(2)), id="nc5xc2")]
)
def test_cosets_formed_at_most_once(monkeypatch, s):
    s = SkewLattice(s.meet, s.join)
    formed = Counter()
    for flavor in cosets.COSET_FLAVORS:
        side, kind = flavor.split("-")
        name = f"{side}_coset_{kind}"

        def counting(t, C, x, fn=getattr(cosets, name), name=name):
            # the quotients of the Kimura factors are kept alive by s
            formed[id(t), name, frozenset(C), x] += 1
            return fn(t, C, x)

        monkeypatch.setattr(cosets, name, counting)
    _analyze(s)
    for pair in cosets.comparable_pairs(s):
        cosets.flat_cosets(s, pair)
    assert max(formed.values(), default=1) == 1, formed.most_common(1)


def test_coset_maps_are_shared_read_only_facts():
    s = direct_product(nc5("right"), chain(2))
    _analyze(s)
    assert s.__dict__[cosets._STORE]
    pair = cosets.comparable_pairs(s)[0]
    C, X = cosets.sides("full-meet", pair.upper, pair.lower)
    shared = cosets.coset_map(s, "full-meet", C, X)
    # keyed by the two sets, whatever their form; X in ascending order
    assert cosets.coset_map(s, "full-meet", set(C), sorted(X, reverse=True)) is shared
    assert list(shared) == sorted(X)
    with pytest.raises(TypeError):
        shared[min(X)] = frozenset()

    fresh = SkewLattice(s.meet, s.join)
    assert fresh == s and hash(fresh) == hash(s)
    assert cosets._STORE not in fresh.__dict__
    assert cosets.coset_map(fresh, "full-meet", C, X) == shared


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
