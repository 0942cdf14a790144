import hashlib
import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewlat import cli
from skewlat.catalog import (
    CosetData,
    canonical,
    enumerate_catalog,
    load_catalog,
    nc5,
    primitive_from_coset_data,
    save_catalog,
)
from skewlat.core import chain, mirror, rectangular, validate
from skewlat.errors import InconsistentCosetData, OrderTooLarge
from skewlat.varieties import classify, is_quasi_distributive, is_right_handed

KNOWN_COUNTS = {1: 1, 2: 2 + 1, 3: 7, 4: 21}


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_counts_up_to_isomorphism(order, catalogs):
    assert len(catalogs[order].algebras) == KNOWN_COUNTS[order]


# sha256 of `skewlat enumerate --order 6 --workers 1`'s stdout
ORDER6_STDOUT_SHA256 = (
    "c8de1ecc9caf2c30fc1faa63e1daf138a1d09cbdc3864b6d433ca0141fdd4739"
)


def test_order6_catalog_is_pinned(catalog6, capsys, monkeypatch):
    # Tier-1's one order-6 search, the fixture, through the CLI's printing:
    # a search fault that shows only at order 6 moves the count or a byte
    def searched(order, method, workers):
        assert (order, method, workers) == (6, "pruned-search", 1)
        return catalog6

    monkeypatch.delenv("SKEWLAT_CACHE_DIR", raising=False)
    monkeypatch.setattr(cli._catalog, "enumerate_catalog", searched)
    assert cli.main(["enumerate", "--order", "6", "--workers", "1"]) == 0
    out = capsys.readouterr().out
    assert len(catalog6.algebras) == 173
    assert hashlib.sha256(out.encode()).hexdigest() == ORDER6_STDOUT_SHA256


def test_order2_is_chain_and_both_rectangulars(catalogs):
    expected = {
        canonical(chain(2)),
        canonical(rectangular(1, 2)),
        canonical(rectangular(2, 1)),
    }
    assert set(catalogs[2].algebras) == expected


def test_catalog_entries_are_valid_and_canonical(catalogs):
    for cat in catalogs.values():
        for s in cat.algebras:
            assert validate(s.meet, s.join).valid
            assert canonical(s) == s


def test_catalog_entries_pairwise_non_isomorphic(catalogs):
    # isomorphic algebras share a canonical form, and every entry is its
    # own canonical form (test_catalog_entries_are_valid_and_canonical), so
    # distinct entries are non-isomorphic
    for cat in catalogs.values():
        keys = [(s.meet, s.join) for s in cat.algebras]
        assert len(set(keys)) == len(keys)


def test_canonical_is_isomorphism_invariant(catalogs):
    for s in catalogs[3].algebras:
        assert canonical(mirror(mirror(s))) == canonical(s)


def test_naive_oracle_matches_pruned_search():
    for order in (1, 2):
        pruned = enumerate_catalog(order, method="pruned-search")
        naive = enumerate_catalog(order, method="naive-oracle")
        assert set(pruned.algebras) == set(naive.algebras)


def test_order_cap():
    with pytest.raises(OrderTooLarge):
        enumerate_catalog(7)
    with pytest.raises(OrderTooLarge):
        enumerate_catalog(4, method="naive-oracle")


def test_worker_count_does_not_change_the_catalog(catalog5):
    a = enumerate_catalog(4, workers=1)
    b = enumerate_catalog(4, workers=4)
    assert a.algebras == b.algebras
    # one worker searches the whole tree at once, a pool searches it one
    # prefix at a time; at order 5, 612 of the 625 prefixes yield no band,
    # so the split is uneven, and the union must still be the serial search
    assert enumerate_catalog(5, workers=2).algebras == catalog5.algebras


def test_save_load_round_trip(tmp_path, catalogs):
    d = str(tmp_path / "cat3")
    save_catalog(catalogs[3], d)
    loaded = load_catalog(d)
    assert loaded.algebras == catalogs[3].algebras
    with open(os.path.join(d, "index.json")) as f:
        index = json.load(f)
    assert index["count"] == 7
    assert all(set(e) == {"file"} for e in index["algebras"])
    # an index written with the classification fingerprints that earlier
    # versions stored still loads
    for e in index["algebras"]:
        e["classification"] = {"chain": True}
    with open(os.path.join(d, "index.json"), "w") as f:
        json.dump(index, f)
    assert load_catalog(d).algebras == catalogs[3].algebras


def test_resave_cut_short_leaves_no_index(tmp_path, catalogs, monkeypatch):
    import skewlat.catalog

    d = str(tmp_path / "cat3")
    save_catalog(catalogs[3], d)
    written = []
    to_json = skewlat.catalog.to_json

    def cut_short(s):
        written.append(s)
        if len(written) == 2:
            raise KeyboardInterrupt
        return to_json(s)

    monkeypatch.setattr(skewlat.catalog, "to_json", cut_short)
    with pytest.raises(KeyboardInterrupt):
        save_catalog(catalogs[3], d)
    assert not os.path.exists(os.path.join(d, "index.json"))


def test_nc5_construction():
    for handed in ("right", "left"):
        s = nc5(handed)
        assert s.n == 5
        assert validate(s.meet, s.join).valid
        assert is_quasi_distributive(s)[0]
        res = classify(s).results
        assert not res["simply-cancellative"][0]
    assert is_right_handed(nc5("right"))[0]
    assert canonical(nc5("left")) == canonical(mirror(nc5("right")))


def test_nc5_appears_in_the_order5_catalog(catalog5):
    assert len(catalog5.algebras) == 53
    assert canonical(nc5("right")) in set(catalog5.algebras)
    assert canonical(nc5("left")) in set(catalog5.algebras)


def test_primitive_from_coset_data_round_trip(nc5_right):
    # rebuild a primitive algebra from explicit coset data: one coset on
    # each side, identity bijection
    d = CosetData(
        upper_shape=(1, 2),
        lower_shape=(1, 1),
        upper_cosets=((0,), (1,)),
        lower_cosets=((0,),),
        bijections={(0, 0): {0: 0}, (1, 0): {1: 0}},
    )
    s = primitive_from_coset_data(d)
    assert validate(s.meet, s.join).valid
    assert s.n == 3


def test_primitive_from_coset_data_rejects_garbage():
    with pytest.raises(InconsistentCosetData):
        primitive_from_coset_data(
            CosetData(
                upper_shape=(1, 2),
                lower_shape=(1, 1),
                upper_cosets=((0, 1),),
                lower_cosets=((0,),),
                bijections={},
            )
        )


@given(st.integers(1, 3), st.integers(1, 3))
@settings(max_examples=9, deadline=None)
def test_rectangulars_all_appear(l, r):
    cat = enumerate_catalog(l * r) if l * r <= 4 else None
    if cat is not None:
        assert canonical(rectangular(l, r)) in set(cat.algebras)
