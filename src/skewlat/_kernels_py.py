"""Pure-Python kernels for the hot loops, re-exported by `skewlat.kernels`.
Tables are flat tuples of length n*n, row-major.

The search fills the meet table cell by cell, keeping only the D-ordered
labellings of each band (labels rise along the D-order and each D-class is
a contiguous label range, see `meet_tables`), then completes the join
table from the absorption pins, filtering candidates by the two
meet-absorption laws.  The meet cells are filled in pairs, each (i, j)
directly followed by (j, i) (see `_cells`), so the D-order between i and
j, which reads both, is decided as early as it can be.  Associativity and
the D-order are re-checked only on what the cell just assigned can decide,
and `canonical_pair` abandons a relabeling at the first row that exceeds
the best key so far.
"""

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


def _assoc_ok_at(t, n, pos):
    """Associativity of every known triple that reads cell `pos`.

    Called right after `pos` is assigned, on a table whose other known
    triples already pass, so the rest of the table need not be rescanned.
    t uses -1 for unknown; a triple touching an unknown entry is skipped.
    """
    i, j = divmod(pos, n)
    v = t[pos]
    ri, rj, rv = i * n, j * n, v * n
    # (x, y) = (i, j): (i.j).z against i.(j.z)
    for z in range(n):
        b = t[rj + z]
        if b >= 0:
            lhs = t[rv + z]
            rhs = t[ri + b]
            if lhs >= 0 and rhs >= 0 and lhs != rhs:
                return False
    # (y, z) = (i, j): (x.i).j against x.(i.j)
    for x in range(n):
        a = t[x * n + i]
        if a >= 0:
            lhs = t[a * n + j]
            rhs = t[x * n + v]
            if lhs >= 0 and rhs >= 0 and lhs != rhs:
                return False
    for p, a in enumerate(t):
        # lhs cell: x.y = i and z = j, so (x.y).z is v
        if a == i:
            x, y = divmod(p, n)
            b = t[y * n + j]
            if b >= 0:
                rhs = t[x * n + b]
                if rhs >= 0 and rhs != v:
                    return False
        # rhs cell: x = i and y.z = j, so x.(y.z) is v
        if a == j:
            y, z = divmod(p, n)
            c = t[ri + y]
            if c >= 0:
                lhs = t[c * n + z]
                if lhs >= 0 and lhs != v:
                    return False
    return True


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
    steps = [(i * n + j, vals) for (i, j), vals in zip(_cells(n), cands)]
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
    pos, vals = steps[k]
    for v in vals:
        t[pos] = v
        if _assoc_ok_at(t, n, pos) and _d_ordered_at(t, n, pos):
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
            if not _assoc_ok_at(jt, n, pos):
                return []
    out = []
    _fill_join(jt, n, sorted(cand.items()), 0, out)
    return out


def _fill_join(jt, n, steps, k, out):
    """Fill `join_completions`' free cells steps[k:], each from its
    candidates, in every associative way, appending each complete table to
    `out`."""
    if k == len(steps):
        out.append(tuple(jt))
        return
    pos, vals = steps[k]
    for v in vals:
        jt[pos] = v
        if _assoc_ok_at(jt, n, pos):
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
