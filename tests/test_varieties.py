from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewlat.core import chain, direct_product, mirror, rectangular
from skewlat.decompose import kimura
from skewlat.errors import ArityTooLarge
from skewlat.varieties import (
    PREDICATES,
    Identity,
    J,
    M,
    V,
    center,
    check_identity,
    classify,
    commutation_classes,
    eval_term,
    is_cancellative,
    is_left_handed,
    is_quasi_distributive,
    is_rectangular,
    is_right_handed,
    is_symmetric,
    left_center,
    right_center,
)


def test_term_evaluation_matches_tables(samples):
    s = samples["nc5-right"]
    t = M(V(0), J(V(1), V(2)))  # x ^ (y v z)
    for a in product(range(s.n), repeat=3):
        assert eval_term(s, t, a) == s.m(a[0], s.j(a[1], a[2]))


def test_check_identity_brute_force_equivalence(samples):
    s = samples["chain2xrect22"]
    ident = Identity(2, M(V(0), V(1)), M(V(1), V(0)), "meet-commutes")
    holds, witness = check_identity(s, ident)
    brute = all(s.m(x, y) == s.m(y, x) for x in range(s.n) for y in range(s.n))
    assert holds == brute
    if not holds:
        x, y = witness
        assert s.m(x, y) != s.m(y, x)


def test_identity_arity_cap(samples):
    ident = Identity(5, M(V(0), V(1)), M(V(2), M(V(3), V(4))), "too-wide")
    with pytest.raises(ArityTooLarge):
        check_identity(samples["chain3"], ident)


def test_chain_classification():
    res = classify(chain(3)).results
    # a chain satisfies every identity in the battery except rectangularity
    assert not res["rectangular"][0]
    assert all(holds for name, (holds, _) in res.items() if name != "rectangular")


def test_rectangular_handedness():
    assert is_rectangular(rectangular(2, 3))[0]
    assert is_right_handed(rectangular(1, 4))[0]
    assert is_left_handed(rectangular(4, 1))[0]
    assert not is_right_handed(rectangular(2, 2))[0]
    assert not is_left_handed(rectangular(2, 2))[0]


def test_mirror_swaps_handedness(nc5_right, nc5_left):
    assert is_right_handed(nc5_right)[0]
    assert not is_left_handed(nc5_right)[0]
    assert is_left_handed(nc5_left)[0]
    assert not is_right_handed(nc5_left)[0]


def test_nc5_flags(nc5_right):
    res = classify(nc5_right).results
    assert res["quasi-distributive"][0]
    assert res["symmetric"][0]
    assert not res["simply-cancellative"][0]
    assert not res["cancellative"][0]


def test_cancellative_requires_symmetric_and_quasi_distributive(catalogs):
    for cat in catalogs.values():
        for s in cat.algebras:
            if is_cancellative(s)[0]:
                assert is_symmetric(s)[0]
                assert is_quasi_distributive(s)[0]


def test_predicate_battery_respects_kimura_factors(catalogs):
    # P(S) iff P(S/R) and P(S/L), for every identity predicate
    for cat in catalogs.values():
        for s in cat.algebras:
            dec = kimura(s)
            sr = dec.left_factor.quotient
            sl = dec.right_factor.quotient
            for name, pred in PREDICATES.items():
                assert (
                    pred(s)[0] == (pred(sr)[0] and pred(sl)[0])
                ), f"{name} disagrees with its factors"


def test_witness_is_reported_and_real(samples):
    s = samples["rect22"]
    holds, witness = PREDICATES["right-handed"](s)
    assert not holds and witness is not None


def test_centers():
    s = direct_product(chain(2), rectangular(2, 2))
    # central elements commute with everything under both operations
    for e in center(s):
        for y in range(s.n):
            assert s.m(e, y) == s.m(y, e)
            assert s.j(e, y) == s.j(y, e)
    assert center(s) == left_center(s) & right_center(s)


def test_center_of_lattice_is_everything():
    s = chain(4)
    assert center(s) == frozenset(range(4))


def test_commutation_classes(samples):
    s = samples["nc5-right"]
    for a in range(s.n):
        for b in range(s.n):
            flags = commutation_classes(s, a, b)
            assert flags["meet_commute"] == (s.m(a, b) == s.m(b, a))
            assert flags["join_commute"] == (s.j(a, b) == s.j(b, a))
            assert flags["right_meet"] == (s.m(a, b) == s.m(a, b, a))
            assert flags["left_join"] == (s.j(a, b) == s.j(a, b, a))


@given(st.integers(1, 3), st.integers(1, 3))
@settings(max_examples=9, deadline=None)
def test_rectangular_product_predicates(l, r):
    s = rectangular(l, r)
    assert is_rectangular(s)[0]
    assert is_symmetric(s)[0] or (l > 1 and r > 1)


def test_left_center_is_right_center_of_mirror(catalogs, nc5_right, nc5_left):
    algebras = [s for cat in catalogs.values() for s in cat.algebras]
    for s in algebras + [nc5_right, nc5_left]:
        assert left_center(s) == right_center(mirror(s))
        assert right_center(s) == left_center(mirror(s))
