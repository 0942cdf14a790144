"""Each kernel checked against a brute-force reference, the search sizes
it must reproduce, and the binding of the kernels in `skewlat.kernels`."""

import random
from functools import cache
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewlat import _kernels_py, catalog, kernels
from skewlat.catalog import _naive_bands, _prefixes, nc5
from skewlat.core import chain, direct_product, rectangular

IMPLS = [_kernels_py]
KERNEL_NAMES = (
    "assoc_witness", "meet_tables", "join_completions", "relabel", "canonical_pair"
)


def _flat(s):
    return catalog._flat(s.meet), catalog._flat(s.join), s.n


def test_backend_selected():
    # one object per kernel: a wrapper installed on it reaches every caller
    assert kernels.BACKEND == "python"
    for name in KERNEL_NAMES:
        assert getattr(kernels, name) is getattr(_kernels_py, name)


def test_canonical_pair_is_minimal_over_relabelings():
    s = rectangular(2, 2)
    mt, jt, n = _flat(s)
    cm, cj, _ = kernels.canonical_pair(mt, jt, n)
    for perm in permutations(range(n)):
        relab = (kernels.relabel(mt, n, perm), kernels.relabel(jt, n, perm))
        assert (cm, cj) <= relab


@cache
def _bands(n, impl=_kernels_py):
    return impl.meet_tables(n)


def _labelled_bands(n, impl=_kernels_py):
    """The search's bands closed under relabeling, as flat tables."""
    perms = list(permutations(range(n)))
    return {impl.relabel(mt, n, p) for mt in _bands(n, impl) for p in perms}


@pytest.mark.parametrize("impl", IMPLS, ids=lambda m: m.__name__)
@pytest.mark.parametrize(
    "order,bands,completions",
    [(1, 1, 1), (2, 4, 4), (3, 35, 20), (4, 604, 180), (5, 16607, 1862)],
)
def test_search_size(impl, order, bands, completions):
    # The search keeps only D-ordered labellings, at least one per band;
    # closing its output under relabeling gives back the numbers of all
    # labelled bands and of all labelled (meet, join) pairs.
    n = order
    perms = list(permutations(range(n)))
    tables = _bands(n, impl)
    relabel = impl.relabel
    assert len(_labelled_bands(n, impl)) == bands
    pairs = {
        (relabel(mt, n, p), relabel(jt, n, p))
        for mt in tables
        for jt in impl.join_completions(mt, n)
        for p in perms
    }
    assert len(pairs) == completions


@pytest.mark.parametrize("order,bands", [(1, 1), (2, 4), (3, 35)])
def test_naive_oracle_bands_match_the_search(order, bands):
    # The naive oracle's pre-filter scans every idempotent table for
    # associativity; the search builds D-ordered regular bands cell by cell.
    # Every band of order <= 3 is regular, so the two must list the same
    # labelled bands, each found without the other's method.
    naive = [tuple(v for row in t for v in row) for t in _naive_bands(order)]
    assert len(naive) == len(set(naive)) == bands
    assert set(naive) == _labelled_bands(order)


@pytest.mark.parametrize("impl", IMPLS, ids=lambda m: m.__name__)
@pytest.mark.parametrize(
    "order,bands,completions",
    [(1, 1, 1), (2, 3, 3), (3, 12, 7), (4, 91, 28)],
)
def test_d_ordered_search_size(impl, order, bands, completions):
    tables = _bands(order, impl)
    found = sum(len(impl.join_completions(mt, order)) for mt in tables)
    assert (len(tables), found) == (bands, completions)


def _d_leq(t, n, x, y):
    """x <=_D y in the band t, read as x.y.x = x."""
    return t[t[x * n + y] * n + x] == x


def _d_ordered_labelling(t, n):
    """(A) and (B) of `meet_tables` on a full band, written from x.y.x
    alone: a labelled cross-check that shares no code with the search."""
    for x, y in product(range(n), repeat=2):
        if x > y and _d_leq(t, n, x, y) and not _d_leq(t, n, y, x):
            return False
        if x < y and _d_leq(t, n, x, y) and _d_leq(t, n, y, x):
            for z in range(x + 1, y):
                if not (_d_leq(t, n, z, x) and _d_leq(t, n, x, z)):
                    return False
    return True


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
def test_search_output_is_d_ordered(order):
    for t in _bands(order):
        assert _d_ordered_labelling(t, order), t


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
def test_search_finds_every_d_ordered_labelling(order):
    # Completeness whatever the fill order: of all labelled bands, the
    # search must keep exactly the labellings that satisfy (A) and (B).  A
    # search that lost one labelling of a band but kept another would still
    # pass the orbit counts of test_search_size.
    n = order
    wanted = {t for t in _labelled_bands(n) if _d_ordered_labelling(t, n)}
    assert wanted == set(_bands(n))


@pytest.mark.parametrize("order", [2, 3, 4, 5])
def test_worker_prefixes_partition_the_search(order):
    # `prefix` fixes the first n - 1 cells of the fill order: the prefixed
    # searches list each band exactly once, under its own values there.
    n = order
    head = [i * n + j for i, j in _kernels_py._cells(n)[: n - 1]]
    seen = {}
    for p in _prefixes(n):
        for t in _kernels_py.meet_tables(n, p):
            assert t not in seen, (t, seen.get(t), p)
            assert tuple(t[pos] for pos in head) == p, (t, p)
            seen[t] = p
    assert set(seen) == set(_bands(n))


@pytest.mark.parametrize("order,nodes", [(4, 898), (5, 16792)])
def test_search_node_count(order, nodes, monkeypatch):
    # A node is the root plus each cell assignment that passes both checks;
    # `_d_ordered_at` runs only after the cell's associativity kernel has
    # passed, so its True returns count the nodes.  This gate fixes the size
    # of the search tree, which the fill order decides, where
    # test_search_size fixes its output.
    passed = []
    d_ordered_at = _kernels_py._d_ordered_at

    def counted(t, n, pos):
        ok = d_ordered_at(t, n, pos)
        passed.append(ok)
        return ok

    monkeypatch.setattr(_kernels_py, "_d_ordered_at", counted)
    _kernels_py.meet_tables(order)
    assert 1 + sum(passed) == nodes


def _assoc_ok_at(t, n, pos):
    """Associativity of every known triple that reads cell `pos`, by loops:
    the labelled reference that `_kernels_py._assoc_kernel(n, pos)`, its
    straight-line form, is checked against, as `_ref_mul` is for the GF(p)
    product kernels.  t uses -1 for unknown; a triple touching an unknown
    entry is skipped."""
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


def _partial_table(data, n):
    """A partial n-table on which both answers are common: uniform noise,
    or a band (a chain, a left- or right-zero band, or for n <= 4 any band
    the search lists) under a random relabeling, with random cells unknown
    and one cell overwritten."""
    if data.draw(st.booleans(), label="noise"):
        cells = st.lists(st.integers(-1, n - 1), min_size=n * n, max_size=n * n)
        return data.draw(cells, label="table")
    pairs = list(product(range(n), repeat=2))
    bands = [
        tuple(min(x, y) for x, y in pairs),
        tuple(x for x, _ in pairs),
        tuple(y for _, y in pairs),
    ]
    band = data.draw(st.sampled_from(bands + (_bands(n) if n <= 4 else [])))
    perm = data.draw(st.permutations(range(n)), label="perm")
    t = list(_kernels_py.relabel(band, n, perm))
    for pos in data.draw(st.sets(st.integers(0, n * n - 1)), label="unknown"):
        t[pos] = -1
    pos = data.draw(st.integers(0, n * n - 1), label="overwritten")
    t[pos] = data.draw(st.integers(-1, n - 1), label="value")
    return t


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_assoc_kernel_matches_reference(data):
    # Every assigned cell of the table, the diagonal included: the searches
    # never check a diagonal cell, but the kernel must be right on it too.
    n = data.draw(st.integers(1, 7), label="n")
    t = _partial_table(data, n)
    for pos in range(n * n):
        if t[pos] >= 0:
            kernel = _kernels_py._assoc_kernel(n, pos)
            assert kernel(t) == _assoc_ok_at(t, n, pos), (n, pos, t)


def _assoc_ok_rescan(t, n):
    """Full O(n^3) rescan of every known triple: a deliberate, independent
    cross-check of the incremental associativity kernels, kept only in the
    tests."""
    for x, y, z in product(range(n), repeat=3):
        a, b = t[x * n + y], t[y * n + z]
        if a < 0 or b < 0:
            continue
        lhs, rhs = t[a * n + z], t[x * n + b]
        if lhs >= 0 and rhs >= 0 and lhs != rhs:
            return False
    return True


def _any_band(data):
    """(n, band): a D-ordered band of order <= 4 under a random relabeling,
    so every labelling of every band can be drawn."""
    n = data.draw(st.integers(1, 4), label="n")
    band = data.draw(st.sampled_from(_bands(n)), label="band")
    perm = data.draw(st.permutations(range(n)), label="perm")
    return n, _kernels_py.relabel(band, n, perm)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_incremental_assoc_matches_rescan(data):
    # Fill cells in a random order, each with either the value of a real
    # band (so the table can fill up) or a random one; an assignment that
    # fails is undone, so every check starts from a table that passes.
    n, band = _any_band(data)
    t = [-1] * (n * n)
    for pos in data.draw(st.permutations(range(n * n)), label="cells"):
        t[pos] = data.draw(
            st.one_of(st.just(band[pos]), st.integers(0, n - 1)), label="value"
        )
        ok = _kernels_py._assoc_kernel(n, pos)(t)
        assert ok == _assoc_ok_rescan(t, n)
        if not ok:
            t[pos] = -1


def _d_ordered_rescan(t, n):
    """Condition (A) on every decidable pair of t, rescanned: a deliberate,
    independent cross-check of the incremental `_d_ordered_at`."""
    for x, y in product(range(n), repeat=2):
        xy, yx = t[x * n + y], t[y * n + x]
        if xy < 0 or yx < 0:
            continue
        xyx, yxy = t[xy * n + x], t[yx * n + y]
        if xyx < 0 or yxy < 0:
            continue
        # y is strictly D-below x although it has the larger label
        if y > x and yxy == y and xyx != x:
            return False
    return True


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_incremental_d_order_matches_rescan(data):
    # as for associativity: cells in a random order, real or random values,
    # a failing assignment undone
    n, band = _any_band(data)
    t = [-1] * (n * n)
    for pos in data.draw(st.permutations(range(n * n)), label="cells"):
        t[pos] = data.draw(
            st.one_of(st.just(band[pos]), st.integers(0, n - 1)), label="value"
        )
        ok = _kernels_py._d_ordered_at(t, n, pos)
        assert ok == _d_ordered_rescan(t, n)
        if not ok:
            t[pos] = -1


def _canonical_brute_force(mt, jt, n):
    best = None
    for perm in permutations(range(n)):
        key = (_kernels_py.relabel(mt, n, perm), _kernels_py.relabel(jt, n, perm))
        if best is None or key < best[0]:
            best = key, perm
    (cm, cj), perm = best
    return cm, cj, perm


@pytest.mark.parametrize("impl", IMPLS, ids=lambda m: m.__name__)
def test_canonical_pair_matches_brute_force(impl, catalogs):
    algebras = [s for order in sorted(catalogs) for s in catalogs[order].algebras]
    algebras += [nc5("right"), nc5("left"), direct_product(chain(3), rectangular(2, 1))]
    rng = random.Random(2014)
    for s in algebras:
        mt, jt, n = _flat(s)
        for _ in range(3):
            perm = list(range(n))
            rng.shuffle(perm)
            rm, rj = _kernels_py.relabel(mt, n, perm), _kernels_py.relabel(jt, n, perm)
            assert impl.canonical_pair(rm, rj, n) == _canonical_brute_force(rm, rj, n)
