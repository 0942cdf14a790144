"""Parity between the compiled kernels and the pure-Python fallback, and
checks of each kernel against a brute-force reference."""

import contextlib
import importlib
import random
import sys
import types
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import skewlat
from skewlat import _kernels_py, kernels
from skewlat.catalog import nc5
from skewlat.core import chain, direct_product, rectangular

try:
    from skewlat import _kernels_c
except ImportError:
    _kernels_c = None

needs_compiled = pytest.mark.skipif(
    _kernels_c is None, reason="compiled extension not built"
)
IMPLS = [_kernels_py] + ([_kernels_c] if _kernels_c is not None else [])
KERNEL_NAMES = (
    "assoc_witness", "meet_tables", "join_completions", "relabel", "canonical_pair"
)


def _flat(s):
    return s.meet.flat(), s.join.flat(), s.n


def test_backend_selected():
    assert kernels.BACKEND in ("compiled", "python")
    assert callable(kernels.canonical_pair)


@needs_compiled
def test_assoc_witness_parity():
    good = direct_product(chain(2), rectangular(2, 2))
    mt, jt, n = _flat(good)
    assert _kernels_c.assoc_witness(mt, n) is None
    assert _kernels_py.assoc_witness(mt, n) is None
    bad = list(mt)
    bad[1] = (bad[1] + 1) % n
    bad = tuple(bad)
    assert _kernels_c.assoc_witness(bad, n) == _kernels_py.assoc_witness(bad, n)


@needs_compiled
@pytest.mark.parametrize("order", [1, 2, 3])
def test_enumeration_kernel_parity(order):
    def harvest(impl):
        out = set()
        for mt in impl.meet_tables(order):
            for jt in impl.join_completions(mt, order):
                out.add((tuple(mt), tuple(jt)))
        return out

    assert harvest(_kernels_c) == harvest(_kernels_py)


@needs_compiled
def test_canonical_pair_parity(samples):
    for s in samples.values():
        if s.n > 5:
            continue
        mt, jt, n = _flat(s)
        assert _kernels_c.canonical_pair(mt, jt, n) == _kernels_py.canonical_pair(
            mt, jt, n
        )


@needs_compiled
def test_relabel_parity():
    s = rectangular(2, 2)
    mt, _, n = _flat(s)
    perm = (2, 0, 3, 1)
    assert _kernels_c.relabel(mt, n, perm) == _kernels_py.relabel(mt, n, perm)


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


@contextlib.contextmanager
def _stubbed_backend(monkeypatch, stub):
    """A monkeypatch context with `stub` standing in for the compiled twin;
    on exit the patches are undone and `skewlat.kernels` is re-imported."""
    try:
        with monkeypatch.context() as mp:
            mp.setitem(sys.modules, "skewlat._kernels_c", stub)
            mp.setattr(skewlat, "_kernels_c", stub, raising=False)
            mp.delenv("SKEWLAT_PURE", raising=False)
            yield mp
    finally:
        importlib.reload(kernels)


def _recorder(label, name):
    return lambda *args: (label, name, args)


def test_compiled_backend_routes_large_orders_to_pure_path(monkeypatch):
    stub = types.ModuleType("skewlat._kernels_c")
    with _stubbed_backend(monkeypatch, stub) as mp:
        for name in KERNEL_NAMES:
            setattr(stub, name, _recorder("compiled", name))
            mp.setattr(_kernels_py, name, _recorder("pure", name))
        k = importlib.reload(kernels)
        assert k.BACKEND == "compiled"
        for n, label in ((1, "compiled"), (k.MAXN, "compiled"), (k.MAXN + 1, "pure")):
            flat = (0,) * (n * n)
            perm = tuple(range(n))
            calls = {
                "assoc_witness": (flat, n),
                "meet_tables": (n, None),
                "join_completions": (flat, n),
                "relabel": (flat, n, perm),
                "canonical_pair": (flat, flat, n),
            }
            for name, args in calls.items():
                assert getattr(k, name)(*args) == (label, name, args)


def test_pure_backend_binds_kernels_directly(monkeypatch):
    with _stubbed_backend(monkeypatch, types.ModuleType("skewlat._kernels_c")) as mp:
        mp.setenv("SKEWLAT_PURE", "1")
        k = importlib.reload(kernels)
        assert k.BACKEND == "python"
        for name in KERNEL_NAMES:
            assert getattr(k, name) is getattr(_kernels_py, name)
