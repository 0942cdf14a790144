"""Green's relations, natural and flat preorders, quotients, eggboxes.

Relations on an n-element algebra are stored as n-tuples of bitmasks:
``rel[x]`` has bit y set iff x is related to y.  Containment checks between
preorders are then word operations per row.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._bits import bits, least, mask_of
from .core import SkewLattice, _cached
from .errors import (
    ElementOutOfRange,
    InternalInconsistency,
    NotACongruence,
)


@dataclass(frozen=True)
class Partition:
    """Blocks as bitmasks, ordered by least element; block_of maps back."""

    n: int
    block_of: tuple
    blocks: tuple

    @classmethod
    def from_block_of(cls, labels):
        n = len(labels)
        by_label = {}
        for x, b in enumerate(labels):
            by_label.setdefault(b, 0)
            by_label[b] |= 1 << x
        blocks = sorted(by_label.values(), key=least)
        block_of = [0] * n
        for i, m in enumerate(blocks):
            for x in bits(m):
                block_of[x] = i
        return cls(n, tuple(block_of), tuple(blocks))

    def block_mask_of(self, x):
        return self.blocks[self.block_of[x]]

    def same(self, x, y):
        return self.block_of[x] == self.block_of[y]

    def to_json_blocks(self):
        return [sorted(bits(m)) for m in self.blocks]


@dataclass(frozen=True)
class QuotientMap:
    source: SkewLattice
    quotient: SkewLattice
    class_of: tuple


@dataclass(frozen=True)
class Eggbox:
    """One D-class laid out with R-classes as rows, L-classes as columns."""

    dclass: frozenset
    rows: tuple  # R-classes, each a tuple of elements, ordered by least
    cols: tuple  # L-classes likewise
    grid: tuple  # grid[r][c] = the unique element in rows[r] & cols[c]


def _partition_from_pairs(n, related):
    labels = list(range(n))

    def find(x):
        while labels[x] != x:
            labels[x] = labels[labels[x]]
            x = labels[x]
        return x

    for x in range(n):
        for y in range(x + 1, n):
            if related(x, y):
                rx, ry = find(x), find(y)
                if rx != ry:
                    labels[max(rx, ry)] = min(rx, ry)
    return Partition.from_block_of([find(x) for x in range(n)])


@_cached
def green_R(s: SkewLattice) -> Partition:
    mt = s.meet.entries
    return _partition_from_pairs(
        s.n, lambda x, y: mt[x][y] == y and mt[y][x] == x
    )


@_cached
def green_L(s: SkewLattice) -> Partition:
    mt = s.meet.entries
    return _partition_from_pairs(
        s.n, lambda x, y: mt[x][y] == x and mt[y][x] == y
    )


@_cached
def green_D(s: SkewLattice) -> Partition:
    """D as the join of R and L, cross-checked against x^y^x = x."""
    n = s.n
    mt = s.meet.entries
    r, l = green_R(s), green_L(s)
    d = _partition_from_pairs(n, lambda x, y: r.same(x, y) or l.same(x, y))

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
    r, l = green_R(s), green_L(s)
    return _partition_from_pairs(
        s.n, lambda x, y: r.same(x, y) and l.same(x, y)
    )


@_cached
def natural_preorder(s: SkewLattice):
    """Row masks for x >= y in the preorder sense: rel[x] bit y iff x >~ y."""
    n, mt = s.n, s.meet.entries
    return tuple(
        mask_of(y for y in range(n) if mt[mt[y][x]][y] == y) for x in range(n)
    )


@_cached
def natural_order(s: SkewLattice):
    n, mt = s.n, s.meet.entries
    return tuple(
        mask_of(y for y in range(n) if mt[x][y] == y and mt[y][x] == y)
        for x in range(n)
    )


def flat_preorder_L(s: SkewLattice):
    """rel[x] bit y iff x <=_L y, i.e. x = x^y."""
    n, mt = s.n, s.meet.entries
    return tuple(
        mask_of(y for y in range(n) if mt[x][y] == x) for x in range(n)
    )


def flat_preorder_R(s: SkewLattice):
    """rel[x] bit y iff x <=_R y, i.e. x = y^x."""
    n, mt = s.n, s.meet.entries
    return tuple(
        mask_of(y for y in range(n) if mt[y][x] == x) for x in range(n)
    )


def principal_ideals(s: SkewLattice, y: int):
    """(y^S, S^y): the principal ideals below y on each flat side."""
    if not (0 <= y < s.n):
        raise ElementOutOfRange(y)
    mt = s.meet.entries
    down = frozenset(mt[y][x] for x in range(s.n))
    left = frozenset(mt[x][y] for x in range(s.n))
    return down, left


def quotient(s: SkewLattice, p: Partition) -> QuotientMap:
    """Quotient by a congruence; raises NotACongruence with a witness."""
    n = s.n
    mt, jt = s.meet.entries, s.join.entries
    bo = p.block_of
    for m in p.blocks:
        xs = list(bits(m))
        x = xs[0]
        for y in xs[1:]:
            for z in range(n):
                for t in (mt, jt):
                    if bo[t[x][z]] != bo[t[y][z]]:
                        raise NotACongruence((x, y, z, "right"))
                    if bo[t[z][x]] != bo[t[z][y]]:
                        raise NotACongruence((x, y, z, "left"))
    k = len(p.blocks)
    reps = [least(m) for m in p.blocks]
    qmeet = [[bo[mt[reps[i]][reps[j]]] for j in range(k)] for i in range(k)]
    qjoin = [[bo[jt[reps[i]][reps[j]]] for j in range(k)] for i in range(k)]
    return QuotientMap(s, SkewLattice(qmeet, qjoin), tuple(bo))


def eggboxes(s: SkewLattice):
    """One Eggbox per D-class; cells are the (trivial) H-classes."""
    r, l, d = green_R(s), green_L(s), green_D(s)
    out = []
    for dm in d.blocks:
        rows = sorted(
            {r.block_mask_of(x) for x in bits(dm)}, key=least
        )
        cols = sorted(
            {l.block_mask_of(x) for x in bits(dm)}, key=least
        )
        grid = []
        for rm in rows:
            row = []
            for cm in cols:
                cell = rm & cm
                if cell == 0 or cell & (cell - 1):
                    raise InternalInconsistency(
                        "H-class not a singleton inside a D-class"
                    )
                row.append(least(cell))
            grid.append(tuple(row))
        out.append(
            Eggbox(
                dclass=frozenset(bits(dm)),
                rows=tuple(tuple(bits(rm)) for rm in rows),
                cols=tuple(tuple(bits(cm)) for cm in cols),
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
    reps = [least(m) for m in d.blocks]
    leq = tuple(
        tuple(bool(pre[reps[j]] >> reps[i] & 1) for j in range(k))
        for i in range(k)
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
