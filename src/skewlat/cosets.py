"""Full and flat cosets between comparable D-classes, coset bijections,
the rectangular coset decomposition, and the commuting-diagram check.

All coset sets are computed by direct evaluation of their defining
comprehensions; nothing is derived through quotient shortcuts.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._bits import bits
from .core import SkewLattice
from .decompose import kimura
from .errors import ElementNotInClass, InternalInconsistency
from .greens import dclass_order, green_L, green_R, natural_order

# --- generic coset comprehensions ----------------------------------------
# C is any element set; these are meaningful also for incomparable classes
# (used by the law harness on skew diamonds).


def right_coset_meet(s, C, x):
    """x ^ C = {x ^ c}."""
    return frozenset(s.m(x, c) for c in C)


def left_coset_meet(s, C, x):
    """C ^ x = {c ^ x}."""
    return frozenset(s.m(c, x) for c in C)


def full_coset_meet(s, C, x):
    """C ^ x ^ C = {c ^ x ^ c}."""
    return frozenset(s.m(c, x, c) for c in C)


def right_coset_join(s, C, x):
    """C v x = {c v x}."""
    return frozenset(s.j(c, x) for c in C)


def left_coset_join(s, C, x):
    """x v C = {x v c}."""
    return frozenset(s.j(x, c) for c in C)


def full_coset_join(s, C, x):
    """C v x v C = {c v x v c}."""
    return frozenset(s.j(c, x, c) for c in C)


# flavor -> (coset function, "meet" or "join").  Meet cosets are taken of
# an upper class through elements below it, join cosets of a lower class
# through elements above it; left and right are mirror images.
COSET_FLAVORS = {
    "full-join": (full_coset_join, "join"),
    "right-join": (right_coset_join, "join"),
    "left-join": (left_coset_join, "join"),
    "full-meet": (full_coset_meet, "meet"),
    "right-meet": (right_coset_meet, "meet"),
    "left-meet": (left_coset_meet, "meet"),
}


# --- comparable D-class pairs --------------------------------------------


@dataclass(frozen=True)
class DClassPair:
    upper: frozenset
    lower: frozenset


@dataclass(frozen=True)
class CosetSystem:
    pair: DClassPair
    full_cosets_in_lower: tuple
    full_cosets_in_upper: tuple
    right_cosets_in_lower: tuple  # blocks b ^ A
    left_cosets_in_lower: tuple   # blocks A ^ b
    right_cosets_in_upper: tuple  # blocks B v a
    left_cosets_in_upper: tuple   # blocks a v B


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
                out.append(
                    DClassPair(
                        upper=frozenset(bits(d.blocks[i])),
                        lower=frozenset(bits(d.blocks[j])),
                    )
                )
    out.sort(key=lambda p: (min(p.upper), min(p.lower)))
    return out


def full_coset(s: SkewLattice, pair: DClassPair, b: int) -> frozenset:
    """The coset A ^ b ^ A of the upper class through b."""
    if b not in pair.lower:
        raise ElementNotInClass(f"{b} not in the lower class")
    return full_coset_meet(s, pair.upper, b)


def full_coset_up(s: SkewLattice, pair: DClassPair, a: int) -> frozenset:
    """The coset B v a v B of the lower class through a."""
    if a not in pair.upper:
        raise ElementNotInClass(f"{a} not in the upper class")
    return full_coset_join(s, pair.lower, a)


def _blocks(sets):
    return tuple(sorted(set(sets), key=min))


def flat_cosets(s: SkewLattice, pair: DClassPair) -> CosetSystem:
    """All six coset partitions of the pair, with the partition,
    refinement and transversal properties verified."""
    A, B = pair.upper, pair.lower
    sys = CosetSystem(
        pair=pair,
        full_cosets_in_lower=_blocks(full_coset_meet(s, A, b) for b in B),
        full_cosets_in_upper=_blocks(full_coset_join(s, B, a) for a in A),
        right_cosets_in_lower=_blocks(right_coset_meet(s, A, b) for b in B),
        left_cosets_in_lower=_blocks(left_coset_meet(s, A, b) for b in B),
        right_cosets_in_upper=_blocks(right_coset_join(s, B, a) for a in A),
        left_cosets_in_upper=_blocks(left_coset_join(s, B, a) for a in A),
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


def _refines(fine, coarse):
    return all(any(b <= c for c in coarse) for b in fine)


def _verify_system(s, sys):
    A, B = sys.pair.upper, sys.pair.lower
    for blocks, universe in (
        (sys.full_cosets_in_lower, B),
        (sys.right_cosets_in_lower, B),
        (sys.left_cosets_in_lower, B),
        (sys.full_cosets_in_upper, A),
        (sys.right_cosets_in_upper, A),
        (sys.left_cosets_in_upper, A),
    ):
        if not _is_partition(blocks, universe):
            raise InternalInconsistency("coset blocks do not partition")
        if len({len(b) for b in blocks}) != 1:
            raise InternalInconsistency("coset blocks not equipotent")
    if not _refines(sys.right_cosets_in_lower, sys.full_cosets_in_lower):
        raise InternalInconsistency("right cosets do not refine full cosets")
    if not _refines(sys.left_cosets_in_lower, sys.full_cosets_in_lower):
        raise InternalInconsistency("left cosets do not refine full cosets")
    if not _refines(sys.right_cosets_in_upper, sys.full_cosets_in_upper):
        raise InternalInconsistency("right cosets do not refine full cosets")
    if not _refines(sys.left_cosets_in_upper, sys.full_cosets_in_upper):
        raise InternalInconsistency("left cosets do not refine full cosets")
    # x in b^A iff x^A = b^A
    for b in B:
        blk = right_coset_meet(s, A, b)
        for x in B:
            if (x in blk) != (right_coset_meet(s, A, x) == blk):
                raise InternalInconsistency("right coset membership law fails")
    # the right image set B^a is a transversal of the right cosets of A in B
    for a in A:
        img = left_coset_meet(s, B, a)  # B ^ a
        for blk in sys.right_cosets_in_lower:
            if len(img & blk) != 1:
                raise InternalInconsistency("right image set not a transversal")
    # b v A = {a in A : a >=_L b}
    mt = s.meet.entries
    for b in B:
        expected = frozenset(a for a in A if mt[b][a] == b)
        if left_coset_join(s, A, b) != expected:
            raise InternalInconsistency("b v A mismatch with >=_L description")


def image_sets(s: SkewLattice, pair: DClassPair, x: int) -> frozenset:
    """Image set of x in the opposite class: {y : y < x} or {y : x < y}."""
    A, B = pair.upper, pair.lower
    order = natural_order(s)
    if x in A:
        img = frozenset(s.m(x, b, x) for b in B)
        by_order = frozenset(b for b in B if order[x] >> b & 1 and b != x)
        blocks = _blocks(full_coset_meet(s, A, b) for b in B)
    elif x in B:
        img = frozenset(s.j(x, a, x) for a in A)
        by_order = frozenset(a for a in A if order[a] >> x & 1 and a != x)
        blocks = _blocks(full_coset_join(s, B, a) for a in A)
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
    mt = s.meet.entries
    order = natural_order(s)
    if kind == "full":
        dom = full_coset_join(s, B, a)       # B v a v B
        cod = full_coset_meet(s, A, b)       # A ^ b ^ A
        fwd = {x: s.m(x, b, x) for x in dom}
        relation = lambda xx, yy: bool(order[xx] >> yy & 1)
    elif kind == "right":
        dom = right_coset_join(s, B, a)      # B v a
        cod = right_coset_meet(s, A, b)      # b ^ A
        fwd = {x: s.m(b, x) for x in dom}
        inv = {y: s.j(y, a) for y in cod}
        relation = lambda xx, yy: mt[yy][xx] == yy  # y <=_L x
    elif kind == "left":
        dom = left_coset_join(s, B, a)       # a v B
        cod = left_coset_meet(s, A, b)       # A ^ b
        fwd = {x: s.m(x, b) for x in dom}
        inv = {y: s.j(a, y) for y in cod}
        relation = lambda xx, yy: mt[xx][yy] == yy  # y <=_R x
    else:
        raise ValueError(f"unknown bijection kind {kind!r}")

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
    A, B = pair.upper, pair.lower
    if x not in B or xp not in B:
        raise ElementNotInClass(f"{x}, {xp} must lie in the lower class")
    literal = right_coset_meet(s, A, x) & left_coset_meet(s, A, xp)
    same = full_coset_meet(s, A, x) == full_coset_meet(s, A, xp)
    expected = frozenset([s.m(x, xp)]) if same else frozenset()
    if literal != expected:
        raise InternalInconsistency("coset intersection law fails")
    return s.m(x, xp) if same else None


def linking_elements(s: SkewLattice, pair: DClassPair, x: int, y: int):
    """(x^y, y^x) linking the right coset of x with the left coset of y
    (and dually), when both lie in the same full coset."""
    A, B = pair.upper, pair.lower
    if x not in B or y not in B:
        raise ElementNotInClass(f"{x}, {y} must lie in the lower class")
    if full_coset_meet(s, A, x) != full_coset_meet(s, A, y):
        return None
    b, c = s.m(x, y), s.m(y, x)
    checks = (
        left_coset_meet(s, A, b) == left_coset_meet(s, A, y),
        right_coset_meet(s, A, x) == right_coset_meet(s, A, b),
        right_coset_meet(s, A, c) == right_coset_meet(s, A, y),
        left_coset_meet(s, A, x) == left_coset_meet(s, A, c),
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
    A, B = pair.upper, pair.lower
    if x not in B:
        raise ElementNotInClass(f"{x} not in the lower class")
    dom = sorted(full_coset_meet(s, A, x))
    left = sorted(left_coset_meet(s, A, x))
    right = sorted(right_coset_meet(s, A, x))
    return _delta(s, dom, left, right, lambda z: (s.m(z, x), s.m(x, z)))


def delta_decomposition_up(
    s: SkewLattice, pair: DClassPair, y: int
) -> DeltaDecomposition:
    """Dual map u -> (y v u, u v y) on the coset B v y v B."""
    A, B = pair.upper, pair.lower
    if y not in A:
        raise ElementNotInClass(f"{y} not in the upper class")
    dom = sorted(full_coset_join(s, B, y))
    left = sorted(left_coset_join(s, B, y))
    right = sorted(right_coset_join(s, B, y))
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
    for x in sorted(full_coset_join(s, B, a)):
        via_flat = (s.m(s.j(a, x), b), s.m(b, s.j(x, a)))
        via_full = (s.m(x, b), s.m(b, x))
        if via_flat != via_full:
            return False, x
    return True, None


def flat_vs_full_correspondence(
    s: SkewLattice, pair: DClassPair, x: int, y: int
):
    """Both sides of the two flat-vs-full coset equivalences for (x, y),
    plus their factor-wise forms through the fibered decomposition: meet
    cosets of the upper class when x, y lie in the lower class, join
    cosets of the lower class when they lie in the upper one."""
    A, B = pair.upper, pair.lower
    if x in B and y in B:
        kind, C = "meet", A
    elif x in A and y in A:
        kind, C = "join", B
    else:
        raise ElementNotInClass(
            f"{x}, {y} must lie in the same class of the pair"
        )
    right, left, full = (
        COSET_FLAVORS[f"{side}-{kind}"][0] for side in ("right", "left", "full")
    )
    same = lambda fn, t, D, u, v: fn(t, D, u) == fn(t, D, v)
    direct_full = same(full, s, C, x, y)
    direct_right = same(right, s, C, x, y)
    direct_left = same(left, s, C, x, y)

    dec = kimura(s)
    xl, xr = dec.left_factor.class_of, dec.right_factor.class_of
    sl, sr = dec.left_factor.quotient, dec.right_factor.quotient
    CL = frozenset(xl[e] for e in C)
    CR = frozenset(xr[e] for e in C)
    sides = {
        f"right-{kind}": (
            direct_right, direct_full and green_R(s).same(x, y)
        ),
        f"left-{kind}": (direct_left, direct_full and green_L(s).same(x, y)),
        "factor-full": (
            same(full, sl, CL, xl[x], xl[y]) and same(full, sr, CR, xr[x], xr[y]),
            direct_full,
        ),
        "factor-right": (
            xl[x] == xl[y] and same(right, sr, CR, xr[x], xr[y]),
            direct_right,
        ),
        "factor-left": (
            xr[x] == xr[y] and same(left, sl, CL, xl[x], xl[y]),
            direct_left,
        ),
    }
    return {
        name: {"flat": lhs, "full_and_green": rhs, "agree": lhs == rhs}
        for name, (lhs, rhs) in sides.items()
    }


def coset_system_to_json(sys: CosetSystem):
    blk = lambda blocks: [sorted(b) for b in blocks]
    return {
        "upper": sorted(sys.pair.upper),
        "lower": sorted(sys.pair.lower),
        "full_cosets_in_lower": blk(sys.full_cosets_in_lower),
        "full_cosets_in_upper": blk(sys.full_cosets_in_upper),
        "right_cosets_in_lower": blk(sys.right_cosets_in_lower),
        "left_cosets_in_lower": blk(sys.left_cosets_in_lower),
        "right_cosets_in_upper": blk(sys.right_cosets_in_upper),
        "left_cosets_in_upper": blk(sys.left_cosets_in_upper),
    }
