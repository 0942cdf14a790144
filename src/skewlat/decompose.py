"""Fibered-product decomposition, lattice sections, skew diamonds.

The decomposition realizes S as pairs over S/D: one coordinate from the
left-handed image S/R, one from the right-handed image S/L, glued along
the natural maps onto S/D.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import SkewLattice, _cached, to_json_dict
from .errors import InternalInconsistency
from .greens import (
    QuotientMap,
    dclass_order,
    green_D,
    green_L,
    green_R,
    quotient,
)


@dataclass(frozen=True)
class KimuraDecomposition:
    left_factor: QuotientMap   # S/R, left-handed
    right_factor: QuotientMap  # S/L, right-handed
    base: QuotientMap          # S/D
    fibered: SkewLattice
    pairs: tuple               # fibered element index -> (S/R elt, S/L elt)
    iso: tuple                 # source element -> fibered element index


@dataclass(frozen=True)
class Sections:
    lattice_section: frozenset | None
    left_section: frozenset | None
    right_section: frozenset | None
    pi_L: tuple | None
    pi_R: tuple | None


@_cached
def kimura(s: SkewLattice) -> KimuraDecomposition:
    """Build S/R, S/L, S/D and verify x -> (x_L, x_R) is an isomorphism
    onto the fibered product."""
    qr = quotient(s, green_R(s))
    ql = quotient(s, green_L(s))
    qd = quotient(s, green_D(s))
    # class of an S/R (S/L) element in S/D: R and L both refine D, so every
    # source preimage gives the same one
    p = {qr.class_of[e]: qd.class_of[e] for e in range(s.n)}
    q = {ql.class_of[e]: qd.class_of[e] for e in range(s.n)}
    pairs = sorted(
        (u, v)
        for u in range(qr.quotient.n)
        for v in range(ql.quotient.n)
        if p[u] == q[v]
    )
    index = {pv: i for i, pv in enumerate(pairs)}
    k = len(pairs)
    meet = [[0] * k for _ in range(k)]
    join = [[0] * k for _ in range(k)]
    for i, (u1, v1) in enumerate(pairs):
        for j2, (u2, v2) in enumerate(pairs):
            meet[i][j2] = index[
                (qr.quotient.meet[u1][u2], ql.quotient.meet[v1][v2])
            ]
            join[i][j2] = index[
                (qr.quotient.join[u1][u2], ql.quotient.join[v1][v2])
            ]
    fibered = SkewLattice(meet, join)
    iso = tuple(index[(qr.class_of[e], ql.class_of[e])] for e in range(s.n))
    if len(set(iso)) != s.n or fibered.n != s.n:
        raise InternalInconsistency("fibered product carrier size mismatch")
    for a in range(s.n):
        for b in range(s.n):
            if iso[s.meet[a][b]] != fibered.meet[iso[a]][iso[b]]:
                raise InternalInconsistency("iso not a meet homomorphism")
            if iso[s.join[a][b]] != fibered.join[iso[a]][iso[b]]:
                raise InternalInconsistency("iso not a join homomorphism")
    return KimuraDecomposition(qr, ql, qd, fibered, tuple(pairs), iso)


def _closed_so_far(chosen, elem_rank, mt, jt):
    """No meet or join of two chosen elements lies in a decided D-class
    (one of the first len(chosen) in the search order) without being
    chosen."""
    cs = set(chosen)
    decided = len(chosen)
    for a in chosen:
        for b in chosen:
            for p in (mt[a][b], jt[a][b]):
                if elem_rank[p] < decided and p not in cs:
                    return False
    return True


def _search(chosen, classes, elem_rank, mt, jt):
    """Extend `chosen`, which holds one element of each of the first
    len(chosen) classes, by one element of each later class so that it
    stays closed so far.  True when it gets through every class, with
    `chosen` the section; False, with `chosen` as it was, otherwise."""
    if len(chosen) == len(classes):
        return True
    for e in classes[len(chosen)]:
        chosen.append(e)
        if _closed_so_far(chosen, elem_rank, mt, jt) and _search(
            chosen, classes, elem_rank, mt, jt
        ):
            return True
        chosen.pop()
    return False


def find_lattice_section(s: SkewLattice) -> Sections:
    """Backtracking search for a transversal of the D-classes closed under
    both operations; absence is reported as None fields, not an error."""
    d, leq = dclass_order(s)
    mt, jt = s.meet, s.join
    k = len(d.blocks)
    # topological order of S/D: fewer classes below first
    order = sorted(range(k), key=lambda i: (sum(leq[j][i] for j in range(k)), i))
    classes = [sorted(d.blocks[i]) for i in order]
    # rank of each element's D-class in the search order; a product is only
    # constrained once its class has been decided (meets always have been,
    # joins may come later)
    rank_of_class = {c: i for i, c in enumerate(order)}
    elem_rank = [rank_of_class[d.block_of[x]] for x in range(s.n)]
    chosen = []
    if not _search(chosen, classes, elem_rank, mt, jt):
        return Sections(None, None, None, None, None)

    s0 = frozenset(chosen)
    l, r = green_L(s), green_R(s)
    s_l = frozenset().union(*(l.block_containing(e) for e in s0))
    s_r = frozenset().union(*(r.block_containing(e) for e in s0))
    # retractions: pi_L(x) is the unique member of R_x inside S_L,
    # pi_R(x) the unique member of L_x inside S_R
    pi_l, pi_r = [], []
    for e in range(s.n):
        cl = r.block_containing(e) & s_l
        cr = l.block_containing(e) & s_r
        if len(cl) != 1 or len(cr) != 1:
            raise InternalInconsistency(
                "section retraction target not unique"
            )
        pi_l.extend(cl)
        pi_r.extend(cr)
    for e in range(s.n):
        if pi_l[pi_r[e]] != pi_r[pi_l[e]]:
            raise InternalInconsistency("retractions do not commute")
        if pi_l[pi_r[e]] not in s0:
            raise InternalInconsistency("composite retraction misses S0")
    for a in range(s.n):
        for b in range(s.n):
            if (pi_l[a] == pi_l[b]) != r.same(a, b):
                raise InternalInconsistency("ker(pi_L) != R")
            if (pi_r[a] == pi_r[b]) != l.same(a, b):
                raise InternalInconsistency("ker(pi_R) != L")
            if (pi_l[pi_r[a]] == pi_l[pi_r[b]]) != d.same(a, b):
                raise InternalInconsistency("ker(pi_L . pi_R) != D")
    return Sections(s0, s_l, s_r, tuple(pi_l), tuple(pi_r))


@_cached
def skew_diamonds(s: SkewLattice):
    """All (J, A, B, M) with A, B incomparable, J their join and M their
    meet in S/D, as a tuple; classes are frozensets of elements."""
    d, leq = dclass_order(s)
    t = kimura(s).base.quotient
    k = len(d.blocks)
    out = []
    for a in range(k):
        for b in range(a + 1, k):
            if leq[a][b] or leq[b][a]:
                continue
            jcls = t.join[a][b]
            mcls = t.meet[a][b]
            A, B = d.blocks[a], d.blocks[b]
            Jc, Mc = d.blocks[jcls], d.blocks[mcls]
            _verify_diamond_classes(s, A, B, Jc, Mc)
            out.append((Jc, A, B, Mc))
    return tuple(out)


def _verify_diamond_classes(s, A, B, Jc, Mc):
    join_commuting = {
        s.j(a, b)
        for a in A
        for b in B
        if s.j(a, b) == s.j(b, a)
    }
    meet_commuting = {
        s.m(a, b)
        for a in A
        for b in B
        if s.m(a, b) == s.m(b, a)
    }
    if join_commuting != Jc:
        raise InternalInconsistency(
            "join class is not the set of commuting joins"
        )
    if meet_commuting != Mc:
        raise InternalInconsistency(
            "meet class is not the set of commuting meets"
        )


def sections_to_json(sec: Sections):
    as_list = lambda v: sorted(v) if v is not None else None
    return {
        "lattice_section": as_list(sec.lattice_section),
        "left_section": as_list(sec.left_section),
        "right_section": as_list(sec.right_section),
        "pi_L": list(sec.pi_L) if sec.pi_L else None,
        "pi_R": list(sec.pi_R) if sec.pi_R else None,
    }


def kimura_to_json(dec: KimuraDecomposition):
    return {
        "left_factor": to_json_dict(dec.left_factor.quotient),
        "right_factor": to_json_dict(dec.right_factor.quotient),
        "base": to_json_dict(dec.base.quotient),
        "fibered": to_json_dict(dec.fibered),
        "pairs": [list(p) for p in dec.pairs],
        "iso": list(dec.iso),
    }
