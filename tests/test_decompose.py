import random
from itertools import product

from skewlat.catalog import _flat, _from_flat
from skewlat.core import SkewLattice, chain, direct_product, rectangular, validate
from skewlat.decompose import (
    find_lattice_section,
    kimura,
    kimura_to_json,
    skew_diamonds,
)
from skewlat.greens import green_D
from skewlat.kernels import relabel
from skewlat.varieties import is_left_handed, is_right_handed


def _is_isomorphism(src, dst, mapping):
    if sorted(mapping) != list(range(dst.n)):
        return False
    for x, y in product(range(src.n), repeat=2):
        if mapping[src.m(x, y)] != dst.m(mapping[x], mapping[y]):
            return False
        if mapping[src.j(x, y)] != dst.j(mapping[x], mapping[y]):
            return False
    return True


def test_kimura_factors_have_the_right_handedness(samples):
    for s in samples.values():
        dec = kimura(s)
        assert is_left_handed(dec.left_factor.quotient)[0]
        assert is_right_handed(dec.right_factor.quotient)[0]


def test_kimura_iso_is_an_isomorphism(catalogs, samples):
    algebras = [s for c in catalogs.values() for s in c.algebras]
    algebras += list(samples.values())
    for s in algebras:
        dec = kimura(s)
        assert dec.fibered.n == s.n
        assert _is_isomorphism(s, dec.fibered, list(dec.iso))


def test_kimura_fibered_elements_agree_over_the_base(samples):
    for s in samples.values():
        dec = kimura(s)
        base_of_left = {}
        base_of_right = {}
        for e in range(s.n):
            base_of_left[dec.left_factor.class_of[e]] = dec.base.class_of[e]
            base_of_right[dec.right_factor.class_of[e]] = dec.base.class_of[e]
        for u, v in dec.pairs:
            assert base_of_left[u] == base_of_right[v]


def test_kimura_json_round_trip_fields(samples):
    d = kimura_to_json(kimura(samples["rect22"]))
    assert set(d) == {
        "left_factor",
        "right_factor",
        "base",
        "fibered",
        "pairs",
        "iso",
    }


def test_skew_diamonds_on_nc5(nc5_right):
    ds = skew_diamonds(nc5_right)
    assert len(ds) == 1
    Jc, A, B, Mc = ds[0]
    assert {len(Jc), len(Mc)} == {1}
    assert {A, B} == {frozenset({1, 2}), frozenset({3})}


def test_skew_diamonds_absent_without_incomparable_classes(samples):
    assert skew_diamonds(samples["chain3"]) == ()
    assert skew_diamonds(samples["rect22"]) == ()


def test_lattice_section_of_products():
    s = direct_product(chain(2), rectangular(2, 2))
    sec = find_lattice_section(s)
    assert sec.lattice_section is not None
    assert len(sec.lattice_section) == len(green_D(s).blocks)
    # a section picks one element per D-class
    d = green_D(s)
    assert len({d.block_of[x] for x in sec.lattice_section}) == len(
        sec.lattice_section
    )


def test_flat_sections_exist_on_small_algebras(catalogs):
    for s in catalogs[3].algebras:
        sec = find_lattice_section(s)
        assert sec.left_section is not None
        assert sec.right_section is not None


def test_nc5_has_a_lattice_section(nc5_right):
    # {v, x1, y, u} and {v, x2, y, u} are both candidate images
    sec = find_lattice_section(nc5_right)
    assert sec.lattice_section is not None
    assert len(sec.lattice_section) == 4


def _assert_lattice_section(s, section):
    d = green_D(s)
    assert sorted(d.block_of[x] for x in section) == list(range(len(d.blocks)))
    for a, b in product(section, repeat=2):
        assert s.m(a, b) in section and s.j(a, b) in section


# o5.28 relabelled: classes {1} < {0, 4} < {2, 3}, and
# the least element of each, {0, 1, 2}, is not closed, since 0 ^ 2 = 4
_LEAST_NOT_CLOSED = SkewLattice(
    [[0, 1, 4, 0, 4], [1, 1, 1, 1, 1], [0, 1, 2, 3, 4], [0, 1, 2, 3, 4],
     [0, 1, 4, 0, 4]],
    [[0, 0, 3, 3, 0], [0, 1, 2, 3, 4], [2, 2, 2, 2, 2], [3, 3, 3, 3, 3],
     [4, 4, 2, 2, 4]],
)


def _relabelled(s, perm):
    return _from_flat(relabel(_flat(s.meet), s.n, perm),
                      relabel(_flat(s.join), s.n, perm), s.n)


def test_lattice_section_search_backtracks(
    catalogs, catalog5, nc5_right, nc5_left, non_symmetric7
):
    # catalogs are canonical, so their least elements tend to form a
    # section at once; relabelled copies make the search reject candidates.
    # On the relabelled o7.112 every candidate of some class is rejected,
    # so the search also returns to an earlier class.
    assert validate(_LEAST_NOT_CLOSED.meet, _LEAST_NOT_CLOSED.join).valid
    rng = random.Random(1)
    inputs = [
        _LEAST_NOT_CLOSED,
        _relabelled(non_symmetric7["o7.112"], (6, 5, 0, 1, 2, 4, 3)),
    ]
    for s in [*(t for n in range(1, 5) for t in catalogs[n].algebras),
              *catalog5.algebras, nc5_right, nc5_left]:
        for _ in range(5):
            perm = list(range(s.n))
            rng.shuffle(perm)
            inputs.append(_relabelled(s, perm))
    rejected = 0
    for s in inputs:
        section = find_lattice_section(s).lattice_section
        _assert_lattice_section(s, section)
        # the search takes each class's least element unless it is rejected
        rejected += section != {min(b) for b in green_D(s).blocks}
    assert find_lattice_section(_LEAST_NOT_CLOSED).lattice_section == {0, 1, 3}
    assert rejected > 1
