"""Full and flat cosets between comparable D-classes, coset bijections,
the rectangular coset decomposition, and the commuting-diagram check.

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
from .errors import ElementNotInClass, InternalInconsistency
from .greens import dclass_order, natural_order

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


@dataclass(frozen=True)
class CosetBijection:
    kind: str  # full | right | left
    from_block: frozenset
    to_block: frozenset
    mapping: tuple  # sorted (x, y) association pairs


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


def _kind_maps(s, pair, kind):
    """The pair's full, right and left coset maps of a kind, "meet" or
    "join"."""
    C, X = sides(kind, pair.upper, pair.lower)
    return [coset_map(s, f"{side}-{kind}", C, X) for side in ("full", "right", "left")]


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


def image_sets(s: SkewLattice, pair: DClassPair, x: int) -> frozenset:
    """Image set of x in the opposite class: {y : y < x} or {y : x < y}."""
    A, B = pair.upper, pair.lower
    order = natural_order(s)
    if x in A:
        img = frozenset(s.m(x, b, x) for b in B)
        by_order = frozenset(b for b in B if b in order[x] and b != x)
        blocks = _blocks(coset_map(s, "full-meet", A, B).values())
    elif x in B:
        img = frozenset(s.j(x, a, x) for a in A)
        by_order = frozenset(a for a in A if x in order[a] and a != x)
        blocks = _blocks(coset_map(s, "full-join", B, A).values())
    else:
        raise ElementNotInClass(f"{x} not in either class")
    if img != by_order:
        raise InternalInconsistency("image set differs from order description")
    for blk in blocks:
        if len(img & blk) != 1:
            raise InternalInconsistency("image set not a coset transversal")
    return img


def _restrict_tables(s, elems):
    order = sorted(elems)
    idx = {e: i for i, e in enumerate(order)}
    meet = [[idx[s.meet[a][b]] for b in order] for a in order]
    join = [[idx[s.join[a][b]] for b in order] for a in order]
    return order, meet, join


def induced_subalgebra(s: SkewLattice, elems) -> SkewLattice:
    """Subalgebra on a closed subset; raises if the subset is not closed."""
    es = set(elems)
    for a in es:
        for b in es:
            if s.meet[a][b] not in es or s.join[a][b] not in es:
                raise ElementNotInClass(
                    f"subset not closed at ({a}, {b})"
                )
    _, meet, join = _restrict_tables(s, es)
    return SkewLattice(meet, join)


def coset_bijection(
    s: SkewLattice, pair: DClassPair, a: int, b: int, kind: str
) -> CosetBijection:
    """The coset bijection determined by (a, b), verified to be a
    bijective homomorphism with the stated order pairing."""
    A, B = pair.upper, pair.lower
    if a not in A:
        raise ElementNotInClass(f"{a} not in the upper class")
    if b not in B:
        raise ElementNotInClass(f"{b} not in the lower class")
    if kind not in ("full", "right", "left"):
        raise ValueError(f"unknown bijection kind {kind!r}")
    mt = s.meet
    order = natural_order(s)
    # B v a v B, B v a or a v B onto A ^ b ^ A, b ^ A or A ^ b
    dom = coset_map(s, f"{kind}-join", B, A)[a]
    cod = coset_map(s, f"{kind}-meet", A, B)[b]
    if kind == "full":
        fwd = {x: s.m(x, b, x) for x in dom}
        relation = lambda xx, yy: yy in order[xx]
    elif kind == "right":
        fwd = {x: s.m(b, x) for x in dom}
        inv = {y: s.j(y, a) for y in cod}
        relation = lambda xx, yy: mt[yy][xx] == yy  # y <=_L x
    else:
        fwd = {x: s.m(x, b) for x in dom}
        inv = {y: s.j(a, y) for y in cod}
        relation = lambda xx, yy: mt[xx][yy] == yy  # y <=_R x

    if set(fwd.values()) != cod or len(set(fwd.values())) != len(dom):
        raise InternalInconsistency(f"{kind} coset map is not bijective")
    for xx, yy in fwd.items():
        if not relation(xx, yy):
            raise InternalInconsistency(
                f"{kind} coset map violates its order pairing at {xx}"
            )
    if kind in ("right", "left"):
        for xx in dom:
            if inv[fwd[xx]] != xx:
                raise InternalInconsistency(f"{kind} inverse check fails")
    # homomorphism between the induced (rectangular) subalgebras
    for xx in dom:
        for yy in dom:
            if fwd[s.m(xx, yy)] != s.m(fwd[xx], fwd[yy]):
                raise InternalInconsistency(f"{kind} map not a ^-morphism")
            if fwd[s.j(xx, yy)] != s.j(fwd[xx], fwd[yy]):
                raise InternalInconsistency(f"{kind} map not a v-morphism")
    return CosetBijection(
        kind=kind,
        from_block=frozenset(dom),
        to_block=frozenset(cod),
        mapping=tuple(sorted(fwd.items())),
    )


def coset_intersection(s: SkewLattice, pair: DClassPair, x: int, xp: int):
    """(x ^ A) intersect (A ^ x'): the singleton {x ^ x'} when the two lie
    in the same full coset, empty otherwise."""
    B = pair.lower
    if x not in B or xp not in B:
        raise ElementNotInClass(f"{x}, {xp} must lie in the lower class")
    full, right, left = _kind_maps(s, pair, "meet")
    literal = right[x] & left[xp]
    same = full[x] == full[xp]
    expected = frozenset([s.m(x, xp)]) if same else frozenset()
    if literal != expected:
        raise InternalInconsistency("coset intersection law fails")
    return s.m(x, xp) if same else None


def linking_elements(s: SkewLattice, pair: DClassPair, x: int, y: int):
    """(x^y, y^x) linking the right coset of x with the left coset of y
    (and dually), when both lie in the same full coset."""
    B = pair.lower
    if x not in B or y not in B:
        raise ElementNotInClass(f"{x}, {y} must lie in the lower class")
    full, right, left = _kind_maps(s, pair, "meet")
    if full[x] != full[y]:
        return None
    b, c = s.m(x, y), s.m(y, x)
    checks = (
        left[b] == left[y],
        right[x] == right[b],
        right[c] == right[y],
        left[x] == left[c],
    )
    if not all(checks):
        raise InternalInconsistency("linking element laws fail")
    return b, c


@dataclass(frozen=True)
class DeltaDecomposition:
    """Isomorphism of a full coset with the product of its flat cosets."""

    domain: tuple      # the full coset, sorted
    left_block: tuple  # A ^ x (rows of the product), sorted
    right_block: tuple # x ^ A (columns), sorted
    mapping: tuple     # (z, (left index, right index)) pairs


def delta_decomposition(
    s: SkewLattice, pair: DClassPair, x: int
) -> DeltaDecomposition:
    """z -> (z ^ x, x ^ z), verified bijective onto the rectangular product
    of the left and right cosets through x."""
    if x not in pair.lower:
        raise ElementNotInClass(f"{x} not in the lower class")
    dom, right, left = (sorted(m[x]) for m in _kind_maps(s, pair, "meet"))
    return _delta(s, dom, left, right, lambda z: (s.m(z, x), s.m(x, z)))


def delta_decomposition_up(
    s: SkewLattice, pair: DClassPair, y: int
) -> DeltaDecomposition:
    """Dual map u -> (y v u, u v y) on the coset B v y v B."""
    if y not in pair.upper:
        raise ElementNotInClass(f"{y} not in the upper class")
    dom, right, left = (sorted(m[y]) for m in _kind_maps(s, pair, "join"))
    return _delta(s, dom, left, right, lambda u: (s.j(y, u), s.j(u, y)))


def _delta(s, dom, left, right, fn):
    li = {e: i for i, e in enumerate(left)}
    ri = {e: i for i, e in enumerate(right)}
    fwd = {}
    for z in dom:
        u, v = fn(z)
        if u not in li or v not in ri:
            raise InternalInconsistency("delta image leaves the flat cosets")
        fwd[z] = (li[u], ri[v])
    if len(set(fwd.values())) != len(dom) or len(dom) != len(left) * len(right):
        raise InternalInconsistency("delta map is not bijective")
    # homomorphism onto the rectangular product (u,v)^(u',v') = (u,v')
    for z1 in dom:
        for z2 in dom:
            mz = fwd[s.m(z1, z2)]
            jz = fwd[s.j(z1, z2)]
            if mz != (fwd[z1][0], fwd[z2][1]):
                raise InternalInconsistency("delta not a ^-morphism")
            if jz != (fwd[z2][0], fwd[z1][1]):
                raise InternalInconsistency("delta not a v-morphism")
    return DeltaDecomposition(
        domain=tuple(dom),
        left_block=tuple(left),
        right_block=tuple(right),
        mapping=tuple(sorted(fwd.items())),
    )


def kimura_diagram_check(s: SkewLattice, pair: DClassPair, a: int, b: int):
    """Commutation of the flat-coset maps with the full coset bijection:
    for every x in B v a v B, ((a v x) ^ b, b ^ (x v a)) must equal
    (x ^ b, b ^ x)."""
    A, B = pair.upper, pair.lower
    if a not in A or b not in B:
        raise ElementNotInClass(f"({a}, {b}) not in (upper, lower)")
    for x in sorted(coset_map(s, "full-join", B, A)[a]):
        via_flat = (s.m(s.j(a, x), b), s.m(b, s.j(x, a)))
        via_full = (s.m(x, b), s.m(b, x))
        if via_flat != via_full:
            return False, x
    return True, None


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
