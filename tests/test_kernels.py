"""Each kernel checked against a brute-force reference, the search sizes
it must reproduce, and the binding of the kernels in `skewlat.kernels`."""

import random
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewlat import _kernels_py, kernels
from skewlat.catalog import nc5
from skewlat.core import chain, direct_product, rectangular

IMPLS = [_kernels_py]
KERNEL_NAMES = (
    "assoc_witness", "meet_tables", "join_completions", "relabel", "canonical_pair"
)


def _flat(s):
    return s.meet.flat(), s.join.flat(), s.n


def test_backend_selected():
    # one object per kernel: a wrapper installed on it reaches every caller
    assert kernels.BACKEND == "python"
    for name in KERNEL_NAMES:
        assert getattr(kernels, name) is getattr(_kernels_py, name)


def test_canonical_pair_is_minimal_over_relabelings():
    from itertools import permutations

    s = rectangular(2, 2)
    mt, jt, n = _flat(s)
    cm, cj, _ = kernels.canonical_pair(mt, jt, n)
    for perm in permutations(range(n)):
        relab = (kernels.relabel(mt, n, perm), kernels.relabel(jt, n, perm))
        assert (cm, cj) <= relab


@pytest.mark.parametrize("impl", IMPLS, ids=lambda m: m.__name__)
@pytest.mark.parametrize(
    "order,bands,completions",
    [(1, 1, 1), (2, 4, 4), (3, 35, 20), (4, 604, 180)],
)
def test_search_size(impl, order, bands, completions):
    tables = impl.meet_tables(order)
    found = sum(len(impl.join_completions(mt, order)) for mt in tables)
    assert (len(tables), found) == (bands, completions)


def _assoc_ok_rescan(t, n):
    """Full O(n^3) rescan of every known triple: a deliberate, independent
    cross-check of the incremental `_assoc_ok_at`, kept only in the tests."""
    for x, y, z in product(range(n), repeat=3):
        a, b = t[x * n + y], t[y * n + z]
        if a < 0 or b < 0:
            continue
        lhs, rhs = t[a * n + z], t[x * n + b]
        if lhs >= 0 and rhs >= 0 and lhs != rhs:
            return False
    return True


_BANDS = {n: _kernels_py.meet_tables(n) for n in range(1, 5)}


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_incremental_assoc_matches_rescan(data):
    # Fill cells in a random order, each with either the value of a real
    # band (so the table can fill up) or a random one; an assignment that
    # fails is undone, so every check starts from a table that passes.
    n = data.draw(st.integers(1, 4), label="n")
    band = data.draw(st.sampled_from(_BANDS[n]), label="band")
    t = [-1] * (n * n)
    for pos in data.draw(st.permutations(range(n * n)), label="cells"):
        t[pos] = data.draw(
            st.one_of(st.just(band[pos]), st.integers(0, n - 1)), label="value"
        )
        ok = _kernels_py._assoc_ok_at(t, n, pos)
        assert ok == _assoc_ok_rescan(t, n)
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
