"""Green's relations, natural and flat preorders, quotients, eggboxes.

An equivalence on an n-element algebra is a `Partition`: its blocks are
frozensets of elements ordered by least element.  Each of R, L, D and H is
read off its definition by labelling every x with a representative of its
class.  A preorder is an n-tuple of frozensets: ``rel[x]`` holds every y
that x is related to.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import SkewLattice, _cached
from .errors import (
    ElementOutOfRange,
    InternalInconsistency,
    NotACongruence,
)


@dataclass(frozen=True)
class Partition:
    """A partition of 0..n-1: ``blocks`` are frozensets ordered by least
    element, and ``block_of[x]`` is the index of the block that holds x."""

    n: int
    block_of: tuple
    blocks: tuple

    @classmethod
    def from_block_of(cls, labels):
        """The partition in which x and y share a block iff labels[x] ==
        labels[y]; any hashable labels will do."""
        by_label = {}
        for x, b in enumerate(labels):
            by_label.setdefault(b, []).append(x)
        # labels are met in increasing order of their least element
        blocks = tuple(map(frozenset, by_label.values()))
        block_of = [0] * len(labels)
        for i, blk in enumerate(blocks):
            for x in blk:
                block_of[x] = i
        return cls(len(labels), tuple(block_of), blocks)

    def block_containing(self, x):
        return self.blocks[self.block_of[x]]

    def same(self, x, y):
        return self.block_of[x] == self.block_of[y]

    def to_json_blocks(self):
        return [sorted(b) for b in self.blocks]


@dataclass(frozen=True)
class QuotientMap:
    quotient: SkewLattice
    class_of: tuple


@dataclass(frozen=True)
class Eggbox:
    """One D-class laid out with R-classes as rows, L-classes as columns."""

    dclass: frozenset
    rows: tuple  # R-classes, each a tuple of elements, ordered by least
    cols: tuple  # L-classes likewise
    grid: tuple  # grid[r][c] = the unique element in rows[r] & cols[c]


@_cached
def green_R(s: SkewLattice) -> Partition:
    """x R y iff x^y = y and y^x = x; x is labelled by the least such y."""
    mt = s.meet
    return Partition.from_block_of([
        next(y for y in range(x + 1) if mt[x][y] == y and mt[y][x] == x)
        for x in range(s.n)
    ])


@_cached
def green_L(s: SkewLattice) -> Partition:
    """x L y iff x^y = x and y^x = y; x is labelled by the least such y."""
    mt = s.meet
    return Partition.from_block_of([
        next(y for y in range(x + 1) if mt[x][y] == x and mt[y][x] == y)
        for x in range(s.n)
    ])


@_cached
def green_D(s: SkewLattice) -> Partition:
    """D as R o L, cross-checked against x^y^x = x.

    R and L commute in any semigroup, so their join D is R o L: x D y iff
    x R z L y for some z (J. M. Howie, Fundamentals of Semigroup Theory,
    1995, section 2.1).  The D-class of x is therefore the union of the
    L-classes of the members of x's R-class, and x is labelled by its
    least element."""
    n = s.n
    mt = s.meet
    r, l = green_R(s), green_L(s)
    l_least = [min(b) for b in l.blocks]
    d = Partition.from_block_of([
        min(l_least[l.block_of[z]] for z in r.block_containing(x))
        for x in range(n)
    ])

    # Independent path: the direct band characterization.
    for x in range(n):
        for y in range(n):
            direct = mt[mt[x][y]][x] == x and mt[mt[y][x]][y] == y
            if direct != d.same(x, y):
                raise InternalInconsistency(
                    f"D disagreement at ({x}, {y}): closure={d.same(x, y)}, "
                    f"direct={direct}"
                )
    return d


@_cached
def green_H(s: SkewLattice) -> Partition:
    """x H y iff x R y and x L y; x is labelled by its (R, L) blocks."""
    r, l = green_R(s), green_L(s)
    return Partition.from_block_of(list(zip(r.block_of, l.block_of)))


@_cached
def natural_preorder(s: SkewLattice):
    """rel[x] holds y iff x >~ y in the natural preorder."""
    n, mt = s.n, s.meet
    return tuple(
        frozenset(y for y in range(n) if mt[mt[y][x]][y] == y)
        for x in range(n)
    )


@_cached
def natural_order(s: SkewLattice):
    """rel[x] holds y iff x >= y in the natural order."""
    n, mt = s.n, s.meet
    return tuple(
        frozenset(y for y in range(n) if mt[x][y] == y and mt[y][x] == y)
        for x in range(n)
    )


@_cached
def flat_preorder_L(s: SkewLattice):
    """rel[x] holds y iff x <=_L y, i.e. x = x^y."""
    n, mt = s.n, s.meet
    return tuple(
        frozenset(y for y in range(n) if mt[x][y] == x) for x in range(n)
    )


@_cached
def flat_preorder_R(s: SkewLattice):
    """rel[x] holds y iff x <=_R y, i.e. x = y^x."""
    n, mt = s.n, s.meet
    return tuple(
        frozenset(y for y in range(n) if mt[y][x] == x) for x in range(n)
    )


def principal_ideals(s: SkewLattice, y: int):
    """(y^S, S^y): the principal ideals below y on each flat side."""
    if not (0 <= y < s.n):
        raise ElementOutOfRange(y)
    mt = s.meet
    down = frozenset(mt[y][x] for x in range(s.n))
    left = frozenset(mt[x][y] for x in range(s.n))
    return down, left


def quotient(s: SkewLattice, p: Partition) -> QuotientMap:
    """Quotient by a congruence; raises NotACongruence with a witness."""
    n = s.n
    mt, jt = s.meet, s.join
    bo = p.block_of
    for blk in p.blocks:
        xs = sorted(blk)
        x = xs[0]
        for y in xs[1:]:
            for z in range(n):
                for t in (mt, jt):
                    if bo[t[x][z]] != bo[t[y][z]]:
                        raise NotACongruence((x, y, z, "right"))
                    if bo[t[z][x]] != bo[t[z][y]]:
                        raise NotACongruence((x, y, z, "left"))
    k = len(p.blocks)
    reps = [min(blk) for blk in p.blocks]
    qmeet = [[bo[mt[reps[i]][reps[j]]] for j in range(k)] for i in range(k)]
    qjoin = [[bo[jt[reps[i]][reps[j]]] for j in range(k)] for i in range(k)]
    return QuotientMap(SkewLattice(qmeet, qjoin), tuple(bo))


def eggboxes(s: SkewLattice):
    """One Eggbox per D-class; cells are the (trivial) H-classes."""
    r, l, d = green_R(s), green_L(s), green_D(s)
    out = []
    for dclass in d.blocks:
        rows = sorted({r.block_containing(x) for x in dclass}, key=min)
        cols = sorted({l.block_containing(x) for x in dclass}, key=min)
        grid = []
        for rb in rows:
            row = []
            for cb in cols:
                cell = rb & cb
                if len(cell) != 1:
                    raise InternalInconsistency(
                        "H-class not a singleton inside a D-class"
                    )
                row.extend(cell)
            grid.append(tuple(row))
        out.append(
            Eggbox(
                dclass=dclass,
                rows=tuple(tuple(sorted(rb)) for rb in rows),
                cols=tuple(tuple(sorted(cb)) for cb in cols),
                grid=tuple(grid),
            )
        )
    return out


@_cached
def dclass_order(s: SkewLattice):
    """(D, leq) where leq[i][j] iff class i <= class j in S/D."""
    d = green_D(s)
    pre = natural_preorder(s)
    k = len(d.blocks)
    reps = [min(blk) for blk in d.blocks]
    leq = tuple(
        tuple(reps[i] in pre[reps[j]] for j in range(k)) for i in range(k)
    )
    return d, leq


def _dot_escape(text: str) -> str:
    """text as the body of a quoted DOT string: backslashes, quotes and
    newlines escaped, so a name cannot end the string early."""
    return text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def to_dot(s: SkewLattice, names=None) -> str:
    """DOT rendering: one cluster per D-class (eggbox grid), dashed Hasse
    edges between D-classes."""
    label = (lambda x: _dot_escape(names[x])) if names else str
    d, leq = dclass_order(s)
    boxes = eggboxes(s)
    lines = ["digraph eggboxes {", "  rankdir=BT;", "  node [shape=box];"]
    for i, box in enumerate(boxes):
        lines.append(f"  subgraph cluster_{i} {{")
        lines.append(f'    label="D{i}";')
        for row in box.grid:
            for x in row:
                lines.append(f'    e{x} [label="{label(x)}"];')
        for row in box.grid:
            for a, b in zip(row, row[1:]):
                lines.append(f"    e{a} -> e{b} [style=invis];")
        lines.append("  }")
    k = len(boxes)
    for i in range(k):
        for j in range(k):
            if i == j or not leq[i][j]:
                continue
            # Hasse edge: no intermediate class strictly between.
            if any(
                leq[i][m] and leq[m][j] and m not in (i, j) for m in range(k)
            ):
                continue
            a = min(boxes[i].dclass)
            b = min(boxes[j].dclass)
            lines.append(
                f"  e{a} -> e{b} [style=dashed, ltail=cluster_{i}, "
                f"lhead=cluster_{j}];"
            )
    lines.append("}")
    return "\n".join(lines) + "\n"
