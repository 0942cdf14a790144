"""Pure-Python kernels for the hot loops.

Same API and identical output as the compiled extension `_kernels_c`;
`skewlat.kernels` picks whichever is available at import time.  Tables are
flat tuples of length n*n, row-major.

The search fills the meet table cell by cell, then completes the join table
from the absorption pins, filtering candidates by the two meet-absorption
laws.  Unlike the compiled twin, which rescans every triple after each
assignment, this path re-checks associativity only on the triples that read
the cell just assigned, and `canonical_pair` abandons a relabeling at the
first row that exceeds the best key so far.
"""

from itertools import permutations


def assoc_witness(flat, n):
    """First (x, y, z) violating associativity, or None.  No library code
    calls it (`core.validate` keeps a nested-row copy, faster there); the
    benchmark's kernel loop times it."""
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


def _is_regular(t, n):
    for x in range(n):
        for y in range(n):
            xy = t[x * n + y]
            xyx = t[xy * n + x]
            for z in range(n):
                if t[t[xyx * n + z] * n + x] != t[t[xy * n + z] * n + x]:
                    return False
    return True


def meet_tables(n, prefix=None):
    """All idempotent, associative, regular n-tables, as flat tuples.

    `prefix`, when given, fixes the off-diagonal cells of row 0 (a tuple of
    n-1 values); used to split the search across workers.
    """
    cells = [(i, j) for i in range(n) for j in range(n) if i != j]
    t = [-1] * (n * n)
    for i in range(n):
        t[i * n + i] = i
    start = 0
    if prefix is not None:
        for k, v in enumerate(prefix):
            i, j = cells[k]
            t[i * n + j] = v
            if not _assoc_ok_at(t, n, i * n + j):
                return []
        start = len(prefix)
    out = []

    def fill(k):
        if k == len(cells):
            if _is_regular(t, n):
                out.append(tuple(t))
            return
        i, j = cells[k]
        pos = i * n + j
        for v in range(n):
            t[pos] = v
            if _assoc_ok_at(t, n, pos):
                fill(k + 1)
        t[pos] = -1

    fill(start)
    return out


def join_completions(meet, n):
    """All join tables turning the given meet band into a skew lattice."""
    # Absorption pins every cell of the form (a, a^b) and (b^a, a); b = a
    # pins the diagonal.
    pins = {}
    for a in range(n):
        for b in range(n):
            for pos in (a * n + meet[a * n + b], meet[b * n + a] * n + a):
                if pins.setdefault(pos, a) != a:
                    return []
    # x^(xvy)=x and (xvy)^y=y restrict the remaining cells.  Most bands
    # fail here, so this runs before the pins' associativity check.
    cand = {}
    for x in range(n):
        for y in range(n):
            pos = x * n + y
            if pos in pins:
                z = pins[pos]
                if meet[x * n + z] != x or meet[z * n + y] != y:
                    return []
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
    free = sorted(cand)
    out = []

    def fill(k):
        if k == len(free):
            out.append(tuple(jt))
            return
        pos = free[k]
        for v in cand[pos]:
            jt[pos] = v
            if _assoc_ok_at(jt, n, pos):
                fill(k + 1)
        jt[pos] = -1

    fill(0)
    return out


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
