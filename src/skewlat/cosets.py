"""Full and flat cosets between comparable D-classes, and their
partitions.  The theorems about them (the flat decomposition of each full
coset, the coset bijections, image sets, intersection and linking laws and
the Kimura diagram) are law records: `laws.check_coset_structure_laws`.

All coset sets are computed by direct evaluation of their defining
comprehensions; nothing is derived through quotient shortcuts.

One rule says which cosets a flavor takes (`sides`): meet cosets are
taken of the upper class through the elements of the lower class, and
join cosets of the lower class through the elements of the upper class.
`coset_map` is the one coset store of an algebra: each map is formed once
per instance, and every reader looks it up there.  `CosetSystem.blocks`
maps each of the six flavors to the partition its cosets make.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType

from .core import SkewLattice
from .errors import InternalInconsistency
from .greens import dclass_order

# --- generic coset comprehensions ----------------------------------------
# C is any element set; these are meaningful also for incomparable classes
# (used by the law harness on skew diamonds).


def right_coset_meet(s, C, x):
    """x ^ C = {x ^ c}."""
    row = s.meet[x]
    return frozenset(row[c] for c in C)


def left_coset_meet(s, C, x):
    """C ^ x = {c ^ x}."""
    t = s.meet
    return frozenset(t[c][x] for c in C)


def full_coset_meet(s, C, x):
    """C ^ x ^ C = {c ^ x ^ c}."""
    t = s.meet
    return frozenset(t[t[c][x]][c] for c in C)


def right_coset_join(s, C, x):
    """C v x = {c v x}."""
    t = s.join
    return frozenset(t[c][x] for c in C)


def left_coset_join(s, C, x):
    """x v C = {x v c}."""
    row = s.join[x]
    return frozenset(row[c] for c in C)


def full_coset_join(s, C, x):
    """C v x v C = {c v x v c}."""
    t = s.join
    return frozenset(t[t[c][x]][c] for c in C)


# The six flavors, "<full|right|left>-<meet|join>", each naming the
# comprehension <side>_coset_<kind> above; left and right are mirror images.
COSET_FLAVORS = (
    "full-join", "right-join", "left-join",
    "full-meet", "right-meet", "left-meet",
)


def sides(flavor, upper, lower):
    """(C, X) for a flavor, or for its kind "meet" or "join": the class C
    whose cosets are taken and the class X of the elements they are taken
    through.  Meet cosets are of the upper class through the lower, join
    cosets of the lower class through the upper."""
    return (upper, lower) if flavor.endswith("meet") else (lower, upper)


_STORE = f"{__name__}.coset_map"


def coset_map(s, flavor, C, X):
    """{x: the flavor's coset of C through x} over x in X ascending, as a
    read-only map formed once per algebra instance: it is kept in the
    instance's ``__dict__`` under (flavor, C, X), outside ``==`` and
    ``hash``, as `core._cached` keeps Green's relations.  The comprehension
    is looked up as a module attribute, so a wrapper put in its place sees
    each coset formed."""
    store = s.__dict__.setdefault(_STORE, {})
    key = (flavor, frozenset(C), frozenset(X))
    if key not in store:
        side, kind = flavor.split("-")
        fn = globals()[f"{side}_coset_{kind}"]
        store[key] = MappingProxyType({x: fn(s, C, x) for x in sorted(X)})
    return store[key]


# --- comparable D-class pairs --------------------------------------------


@dataclass(frozen=True)
class DClassPair:
    upper: frozenset
    lower: frozenset


@dataclass(frozen=True)
class CosetSystem:
    pair: DClassPair
    blocks: dict  # flavor -> its cosets, sorted by least element


def comparable_pairs(s: SkewLattice):
    """All ordered pairs (A, B) of distinct D-classes with A > B in S/D."""
    d, leq = dclass_order(s)
    k = len(d.blocks)
    out = []
    for i in range(k):
        for j in range(k):
            if i != j and leq[j][i]:  # class j below class i
                out.append(DClassPair(upper=d.blocks[i], lower=d.blocks[j]))
    out.sort(key=lambda p: (min(p.upper), min(p.lower)))
    return out


def _blocks(sets):
    return tuple(sorted(set(sets), key=min))


def flat_cosets(s: SkewLattice, pair: DClassPair) -> CosetSystem:
    """All six coset partitions of the pair, with the partition,
    refinement and transversal properties verified."""
    A, B = pair.upper, pair.lower
    sys = CosetSystem(
        pair,
        {f: _blocks(coset_map(s, f, *sides(f, A, B)).values()) for f in COSET_FLAVORS},
    )
    _verify_system(s, sys)
    return sys


def _is_partition(blocks, universe):
    seen = set()
    for b in blocks:
        if b & seen:
            return False
        seen |= b
    return seen == universe


def _verify_system(s, sys):
    A, B = sys.pair.upper, sys.pair.lower
    for flavor, blocks in sys.blocks.items():
        C, X = sides(flavor, A, B)
        if not _is_partition(blocks, X):
            raise InternalInconsistency("coset blocks do not partition")
        if len({len(b) for b in blocks}) != 1:
            raise InternalInconsistency("coset blocks not equipotent")
        # refinement: the coset through x lies in the full one through x
        full = coset_map(s, "full-" + flavor.split("-")[1], C, X)
        if not all(c <= full[x] for x, c in coset_map(s, flavor, C, X).items()):
            raise InternalInconsistency(f"{flavor} cosets do not refine full cosets")
    # x in b^A iff x^A = b^A
    right = coset_map(s, "right-meet", A, B)
    for b in B:
        for x in B:
            if (x in right[b]) != (right[x] == right[b]):
                raise InternalInconsistency("right coset membership law fails")
    # the right image set B^a is a transversal of the right cosets of A in B
    for img in coset_map(s, "left-meet", B, A).values():  # B ^ a
        for blk in sys.blocks["right-meet"]:
            if len(img & blk) != 1:
                raise InternalInconsistency("right image set not a transversal")
    # b v A = {a in A : a >=_L b}
    mt = s.meet
    for b, coset in coset_map(s, "left-join", A, B).items():  # b v A
        if coset != frozenset(a for a in A if mt[b][a] == b):
            raise InternalInconsistency("b v A mismatch with >=_L description")


def coset_system_to_json(sys: CosetSystem):
    """The pair's classes and its six partitions, each under the key
    "<side>_cosets_in_<lower|upper>": meet cosets lie in the lower class,
    join cosets in the upper."""
    out = {"upper": sorted(sys.pair.upper), "lower": sorted(sys.pair.lower)}
    for flavor, blocks in sys.blocks.items():
        side, kind = flavor.split("-")
        where = "lower" if kind == "meet" else "upper"
        out[f"{side}_cosets_in_{where}"] = [sorted(b) for b in blocks]
    return out
