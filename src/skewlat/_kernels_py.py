"""Pure-Python kernels for the hot loops, re-exported by `skewlat.kernels`.
Tables are flat tuples of length n*n, row-major.

The search fills the meet table cell by cell, keeping only the D-ordered
labellings of each band (labels rise along the D-order and each D-class is
a contiguous label range, see `meet_tables`), then completes the join
table from the absorption pins, filtering candidates by the two
meet-absorption laws.  The meet cells are filled in pairs, each (i, j)
directly followed by (j, i) (see `_cells`), so the D-order between i and
j, which reads both, is decided as early as it can be.  Associativity and
the D-order are re-checked only on what the cell just assigned can decide;
associativity by a straight-line kernel compiled on first use, once per
(order, cell) (`_assoc_kernel`).  `canonical_pair` abandons a relabeling at
the first row that exceeds the best key so far.
"""

from functools import lru_cache
from itertools import permutations

from .core import _regular


def assoc_witness(flat, n):
    """First (x, y, z) violating associativity, or None, by a scalar scan
    of a flat table.  No library code calls it: `core.validate` scans its
    nested rows a row at a time instead.  The benchmark's kernel loop
    times it."""
    for x in range(n):
        row_x = x * n
        for y in range(n):
            a = flat[row_x + y]
            for z in range(n):
                if flat[a * n + z] != flat[row_x + flat[y * n + z]]:
                    return (x, y, z)
    return None


# The source of `_assoc_kernel(n, pos)`: one block per family of triples
# reading cell (i, j) = divmod(pos, n), with v = t[pos] and -1 for unknown
# (a triple touching an unknown entry is skipped).
#   _ROW, for each z: (i.j).z against i.(j.z);
#   _COLUMN, for each x: (x.i).j against x.(i.j);
#   _HOLDS, for each cell (x, y): if it holds i, (x.y).j = v against
#   x.(y.j); if it holds j, i.(x.y) = v against (i.x).y.  Both tests run,
#   so a diagonal cell (i = j) is checked in full.
_ROW = """\
    b = t[{jz}]
    if b >= 0:
        lhs = t[rv + {z}]
        rhs = t[{ri} + b]
        if lhs != rhs and lhs >= 0 and rhs >= 0:
            return False
"""
_COLUMN = """\
    a = t[{xi}]
    if a >= 0:
        lhs = t[a * {n} + {j}]
        rhs = t[{rx} + v]
        if lhs != rhs and lhs >= 0 and rhs >= 0:
            return False
"""
_HOLDS = """\
    a = t[{p}]
    if a == {i}:
        b = t[{yj}]
        if b >= 0:
            rhs = t[{rx} + b]
            if rhs != v and rhs >= 0:
                return False
    if a == {j}:
        c = t[{ix}]
        if c >= 0:
            lhs = t[c * {n} + {y}]
            if lhs != v and lhs >= 0:
                return False
"""


@lru_cache(maxsize=None)
def _assoc_kernel(n, pos):
    """ok(t): associativity of every known triple of the n-table t that
    reads cell `pos`, as straight-line code with the cell's indices as
    constants.  Called right after `pos` is assigned, on a table whose
    other known triples already pass, so the rest of the table need not be
    rescanned.  Built from source on first use, once per (n, pos), the way
    `matrix_rings._kernel` is."""
    i, j = divmod(pos, n)
    parts = [f"def ok(t):\n    v = t[{pos}]\n    rv = v * {n}\n"]
    parts += [_ROW.format(jz=j * n + z, z=z, ri=i * n) for z in range(n)]
    parts += [_COLUMN.format(xi=x * n + i, n=n, j=j, rx=x * n) for x in range(n)]
    for p in range(n * n):
        x, y = divmod(p, n)
        parts.append(
            _HOLDS.format(p=p, i=i, j=j, yj=y * n + j, rx=x * n, ix=i * n + x, n=n, y=y)
        )
    parts.append("    return True\n")
    source = "".join(parts)
    namespace = {}
    exec(compile(source, f"<associativity kernel {n}:{pos}>", "exec"), namespace)
    return namespace["ok"]


def _d_ordered_pair(t, n, x, y):
    """False when the larger of the labels x, y is strictly D-below the
    smaller, read off t through z <=_D w iff z.w.z = z; True while x.y.x or
    y.x.y is unknown (-1)."""
    xy, yx = t[x * n + y], t[y * n + x]
    if xy < 0 or yx < 0:
        return True
    xyx, yxy = t[xy * n + x], t[yx * n + y]
    if xyx < 0 or yxy < 0:
        return True
    if x > y:
        return xyx != x or yxy == y
    return yxy != y or xyx == x


def _d_ordered_at(t, n, pos):
    """Condition (A) of `meet_tables` on every pair that assigning cell
    `pos` = (i, j) can have made decidable.  The pair {x, y} reads the
    cells (x, y), (y, x), (x.y, x) and (y.x, y); (i, j) is one of them only
    for {i, j} itself and for {j, y} with j.y = i."""
    i, j = divmod(pos, n)
    if not _d_ordered_pair(t, n, i, j):
        return False
    rj = j * n
    for y in range(n):
        if t[rj + y] == i and not _d_ordered_pair(t, n, j, y):
            return False
    return True


def _d_contiguous(t, n):
    """Condition (B) of `meet_tables` on a full band: each D-class is a
    contiguous label range.  A class is contiguous iff for x < y in it,
    y - 1 is in it as well."""

    def d(x, y):
        return t[t[x * n + y] * n + x] == x and t[t[y * n + x] * n + y] == y

    for y in range(2, n):
        if not d(y - 1, y):
            for x in range(y - 1):
                if d(x, y):
                    return False
    return True


def _cells(n):
    """The fill order of `meet_tables`: the off-diagonal cells in pairs,
    (0, 1), (1, 0), (0, 2), (2, 0), ..., (0, n-1), (n-1, 0), (1, 2), ...,
    so that condition (A) on {i, j} is decidable right after the pair."""
    return [c for i in range(n) for j in range(i + 1, n) for c in ((i, j), (j, i))]


def meet_tables(n, prefix=None):
    """Every D-ordered band of order n: the idempotent, associative,
    regular n-tables, as flat tuples, whose labels satisfy

    (A) order: no element is strictly D-below an element with a smaller
        label, where x <=_D y iff x.y.x = x;
    (B) contiguity: each D-class is a contiguous label range, so x < z < y
        and x D y imply z D x.

    Soundness: sort the classes of S/D along any linear extension of its
    order and number their elements class by class.  That labelling of the
    band satisfies (A) and (B), so every band keeps at least one labelling
    up to isomorphism.  A skew lattice has the D-classes of its meet band,
    so relabelling it the same way gives a meet table listed here whose
    `join_completions` include the relabelled join.  `canonical_pair` is
    the minimum over all relabelings, so a catalog built from these tables
    is the one built from all labellings.

    The cells are filled in the order of `_cells`.  (A) is checked after
    each cell on the pairs that cell can decide, (B) at the leaf.
    `prefix`, when given, is a tuple of values that fixes the first cells
    of that order (n-1 of them to split the search across workers): each
    such cell has its one value as its only candidate, under the same
    checks.
    """
    prefix = prefix or ()
    cands = [(v,) for v in prefix] + [range(n)] * (n * n - n - len(prefix))
    steps = [
        (i * n + j, vals, _assoc_kernel(n, i * n + j))
        for (i, j), vals in zip(_cells(n), cands)
    ]
    t = [-1] * (n * n)
    for i in range(n):
        t[i * n + i] = i
    out = []
    _fill_meet(t, n, steps, 0, out)
    return out


def _fill_meet(t, n, steps, k, out):
    """Fill `meet_tables`' cells steps[k:] in every way that passes the
    checks, appending each band that completes to `out`."""
    if k == len(steps):
        band = tuple(t)
        rows = [band[r : r + n] for r in range(0, n * n, n)]
        if _d_contiguous(t, n) and _regular(rows, n):
            out.append(band)
        return
    pos, vals, ok = steps[k]
    for v in vals:
        t[pos] = v
        if ok(t) and _d_ordered_at(t, n, pos):
            _fill_meet(t, n, steps, k + 1, out)
    t[pos] = -1


def join_completions(meet, n):
    """All join tables turning the given meet band into a skew lattice."""
    # Absorption pins every cell of the form (a, a^b) and (b^a, a); b = a
    # pins the diagonal.  No two pins of a band disagree: two row pins or
    # two column pins of one cell share its row or column, and a row pin
    # (a, a^b) on the column pin (b'^a', a') gives a = b'^a' and a^b = a',
    # so a^a' = a^a^b = a' and a^a' = b'^a'^a' = a, hence a = a'.
    pins = {}
    for a in range(n):
        for b in range(n):
            pins[a * n + meet[a * n + b]] = a
            pins[meet[b * n + a] * n + a] = a
    # x^(xvy)=x and (xvy)^y=y restrict the remaining cells.  Most bands
    # fail here, so this runs before the pins' associativity check.  A
    # pinned cell passes by idempotency and associativity alone: (a, a^b)
    # with z = a has a^a = a and a^(a^b) = a^b, and (b^a, a) with z = a
    # has (b^a)^a = b^a and a^a = a.
    cand = {}
    for x in range(n):
        for y in range(n):
            pos = x * n + y
            if pos in pins:
                continue
            cs = [
                z
                for z in range(n)
                if meet[x * n + z] == x and meet[z * n + y] == y
            ]
            if not cs:
                return []
            cand[pos] = cs
    # Place the pins one new cell at a time, each checked incrementally.
    jt = [-1] * (n * n)
    for i in range(n):
        jt[i * n + i] = i
    for pos, val in pins.items():
        if jt[pos] < 0:
            jt[pos] = val
            if not _assoc_kernel(n, pos)(jt):
                return []
    out = []
    steps = [(pos, cs, _assoc_kernel(n, pos)) for pos, cs in sorted(cand.items())]
    _fill_join(jt, n, steps, 0, out)
    return out


def _fill_join(jt, n, steps, k, out):
    """Fill `join_completions`' free cells steps[k:], each from its
    candidates, in every associative way, appending each complete table to
    `out`."""
    if k == len(steps):
        out.append(tuple(jt))
        return
    pos, vals, ok = steps[k]
    for v in vals:
        jt[pos] = v
        if ok(jt):
            _fill_join(jt, n, steps, k + 1, out)
    jt[pos] = -1


def relabel(flat, n, perm):
    """Apply a relabeling: out[p(i)][p(j)] = p(flat[i][j])."""
    out = [0] * (n * n)
    for i in range(n):
        for j in range(n):
            out[perm[i] * n + perm[j]] = perm[flat[i * n + j]]
    return tuple(out)


def canonical_pair(meet, join, n):
    """Minimum of (meet, join) over all relabelings.

    Returns (canon_meet, canon_join, perm) where perm is the first
    lexicographic permutation achieving the minimum.
    """
    best = None
    best_perm = None
    for perm in permutations(range(n)):
        inv = [0] * n
        for a, b in enumerate(perm):
            inv[b] = a
        # Row p of relabel(table, n, perm) is the source row inv[p], read
        # in the order inv and mapped through perm.
        key = []
        tied = best is not None
        for table, r in [(meet, a * n) for a in inv] + [(join, a * n) for a in inv]:
            row = [perm[table[r + q]] for q in inv]
            if tied:
                ref = best[len(key)]
                if row > ref:
                    break
                tied = row == ref
            key.append(row)
        else:
            if not tied:
                best, best_perm = key, perm
    return (
        tuple(v for row in best[:n] for v in row),
        tuple(v for row in best[n:] for v in row),
        best_perm,
    )
