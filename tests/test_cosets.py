import re
from itertools import product

import pytest

from skewlat import cosets, laws
from skewlat.cosets import (
    DClassPair,
    _is_partition,
    comparable_pairs,
    coset_map,
    coset_system_to_json,
    flat_cosets,
    full_coset_meet,
    left_coset_meet,
    right_coset_meet,
    sides,
)
from skewlat.core import SkewLattice, chain, direct_product, rectangular
from skewlat.errors import InternalInconsistency
from skewlat.laws import check_coset_structure_laws


def _all_algebras(catalogs, samples):
    out = [s for c in catalogs.values() for s in c.algebras]
    out += list(samples.values())
    return out


def test_flat_cosets_verify_on_every_comparable_pair(catalogs, samples):
    # flat_cosets performs its own partition/refinement/transversal audit
    # and raises on any inconsistency
    total = 0
    for s in _all_algebras(catalogs, samples):
        for pair in comparable_pairs(s):
            flat_cosets(s, pair)
            total += 1
    assert total > 0


def test_is_partition_rejects_overlaps_and_gaps():
    universe = frozenset(range(4))
    assert _is_partition([frozenset({0, 1}), frozenset({2, 3})], universe)
    assert not _is_partition([frozenset({0, 1}), frozenset({1, 2, 3})], universe)
    assert not _is_partition([frozenset({0, 1}), frozenset({2})], universe)


def test_coset_blocks_within_a_side_are_equipotent(samples):
    for s in samples.values():
        for pair in comparable_pairs(s):
            sys = flat_cosets(s, pair)
            assert len(sys.blocks) == 6
            for blocks in sys.blocks.values():
                assert len({len(b) for b in blocks}) == 1


def _split_off_top(real):
    # the top of each coset as a block of its own: still a partition, but
    # of unequal blocks once a coset has three elements
    def wrong(s, C, x):
        coset = real(s, C, x)
        top = max(coset)
        return frozenset({x}) if x == top else coset - {top}

    return wrong


# (comprehension, a wrong one made from it, the check it trips).  On
# rectangular(3, 1) x chain(2), with (i, c) encoded as 2i + c, the upper
# class is {1, 3, 5} and the lower {0, 2, 4}; each flavor's cosets are
# singletons or the whole class, and (x + 2) % 6 is the next lower
# element.  Dropping min(C) changes only cosets that lie in C itself:
# B ^ a and b v A, which only the image-set and b v A checks read, while
# the six partitions take their cosets in the other class.
WRONG_COSETS = [
    pytest.param("right_coset_join", lambda real: lambda s, C, x: frozenset(C),
                 "coset blocks do not partition", id="partition"),
    pytest.param("full_coset_join", _split_off_top,
                 "coset blocks not equipotent", id="equipotence"),
    pytest.param("full_coset_join", lambda real: lambda s, C, x: frozenset({x}),
                 "left-join cosets do not refine full cosets", id="refinement"),
    pytest.param("right_coset_meet", lambda real: lambda s, C, x: real(s, C, (x + 2) % 6),
                 "right coset membership law fails", id="membership"),
    pytest.param("left_coset_meet", lambda real: lambda s, C, x: real(s, C, x) - {min(C)},
                 "right image set not a transversal", id="transversal"),
    pytest.param("left_coset_join", lambda real: lambda s, C, x: real(s, C, x) - {min(C)},
                 "b v A mismatch with >=_L description", id="join-description"),
]


@pytest.mark.parametrize("name, make_wrong, message", WRONG_COSETS)
def test_flat_cosets_catch_a_wrong_comprehension(monkeypatch, name, make_wrong, message):
    monkeypatch.setattr(cosets, name, make_wrong(getattr(cosets, name)))
    # a fresh instance, so its coset store starts empty
    s = direct_product(rectangular(3, 1), chain(2))
    (pair,) = comparable_pairs(s)
    assert pair == DClassPair(frozenset({1, 3, 5}), frozenset({0, 2, 4}))
    with pytest.raises(InternalInconsistency, match=f"^{re.escape(message)}$"):
        flat_cosets(s, pair)


def _theorems(s):
    """The coset-structure family's records on s, by theorem."""
    return {r.instance[0]: r for r in check_coset_structure_laws(s).records}


def _holds(s, *names):
    records = _theorems(s)
    return all(records[n].lhs and records[n].rhs for n in names)


def test_full_coset_size_is_product_of_flat_sizes(catalogs, samples):
    # delta_x maps each full coset onto the product of its two flat ones
    for s in _all_algebras(catalogs, samples):
        assert _holds(
            s, "delta-bijective-onto-flat-product", "delta-rectangular-homomorphism"
        )
        for pair in comparable_pairs(s):
            for kind in ("meet", "join"):
                C, X = sides(kind, pair.upper, pair.lower)
                full, right, left = (
                    coset_map(s, f"{side}-{kind}", C, X)
                    for side in ("full", "right", "left")
                )
                for x in X:
                    assert len(full[x]) == len(right[x]) * len(left[x])


@pytest.mark.parametrize("kind", ["full", "right", "left"])
def test_coset_bijections_cover_every_pair(samples, kind):
    for s in samples.values():
        assert _holds(
            s,
            "coset-bijections-onto",
            "coset-bijections-homomorphisms",
            "flat-coset-bijections-inverses",
        )
        for pair in comparable_pairs(s):
            doms = coset_map(s, f"{kind}-join", pair.lower, pair.upper)
            cods = coset_map(s, f"{kind}-meet", pair.upper, pair.lower)
            for a, b in product(doms, cods):
                assert len(doms[a]) == len(cods[b])


def test_full_bijection_pairs_by_natural_order(samples):
    for s in samples.values():
        assert _holds(s, "coset-bijections-order-pairing")
        leq = [
            [s.m(x, y) == y and s.m(y, x) == y for y in range(s.n)]
            for x in range(s.n)
        ]
        for pair in comparable_pairs(s):
            doms = coset_map(s, "full-join", pair.lower, pair.upper)
            for a, b in product(doms, sorted(pair.lower)):
                for x in doms[a]:
                    assert leq[x][s.m(x, b, x)]  # x ^ b ^ x <= x


def test_coset_intersection(samples):
    for s in samples.values():
        assert _holds(s, "flat-coset-intersections")
        for pair in comparable_pairs(s):
            A = pair.upper
            for x, xp in product(sorted(pair.lower), repeat=2):
                same_full = full_coset_meet(s, A, x) == full_coset_meet(s, A, xp)
                # the two flat cosets meet exactly in x ^ x' iff the full
                # cosets coincide
                inter = right_coset_meet(s, A, x) & left_coset_meet(s, A, xp)
                assert inter == ({s.m(x, xp)} if same_full else set())


def test_image_sets_transversal(samples):
    for s in samples.values():
        assert _holds(s, "image-set-is-order-description", "image-set-is-transversal")
        for pair in comparable_pairs(s):
            for a in pair.upper:
                assert {s.m(a, b, a) for b in pair.lower} <= pair.lower
            for b in pair.lower:
                assert {s.j(b, a, b) for a in pair.upper} <= pair.upper


def test_kimura_diagram_commutes_everywhere(catalogs, samples):
    for s in _all_algebras(catalogs, samples):
        record = _theorems(s)["kimura-diagram"]
        assert record.agree, record


def test_kimura_diagram_reports_its_least_failing_element(monkeypatch):
    # unvalidated tables: x v y = y, and x ^ y = x except in row 0, where
    # 0 ^ 3 = 0 but 0 ^ x = x on {1, 2}.  B v 3 v B is {0, 1, 2}; at x the
    # diagram compares b ^ (x v a) = 0 ^ 3 with b ^ x = 0 ^ x, which holds
    # at x = 0 and fails at 1 and 2.  The tables have no D-classes to read,
    # so the pair is given.
    n = 4
    meet = [[0, 1, 2, 0]] + [[x] * n for x in range(1, n)]
    join = [list(range(n))] * n
    s = SkewLattice(meet, join)
    pair = DClassPair(upper=frozenset({3}), lower=frozenset({0, 1, 2}))
    monkeypatch.setattr(laws, "comparable_pairs", lambda s: [pair])
    record = _theorems(s)["kimura-diagram"]
    # pair 0, a = 3, b = 0, x = 1
    assert record.instance == ("kimura-diagram", 0, 3, 0, 1)
    assert (record.lhs, record.rhs) == (True, False)


def test_linking_elements(samples):
    for s in samples.values():
        assert _holds(s, "linking-elements")
        for pair in comparable_pairs(s):
            A = pair.upper
            for x, y in product(sorted(pair.lower), repeat=2):
                if full_coset_meet(s, A, x) == full_coset_meet(s, A, y):
                    b, c = s.m(x, y), s.m(y, x)
                    assert left_coset_meet(s, A, b) == left_coset_meet(s, A, y)
                    assert right_coset_meet(s, A, c) == right_coset_meet(s, A, y)


def test_flat_vs_full_correspondence_concordant(catalogs, samples):
    # every flat-vs-full clause, direct and factor-wise, on every pair of
    # elements of one class of every comparable pair
    from skewlat.laws import check_decomposition_laws

    for s in _all_algebras(catalogs, samples):
        rep = check_decomposition_laws(s)
        assert rep.verdict == "concordant", rep.witness
        assert len(rep.records) == 5 * sum(
            len(pair.lower) ** 2 + len(pair.upper) ** 2
            for pair in comparable_pairs(s)
        )


def test_coset_system_json_shape(nc5_right):
    sys = flat_cosets(nc5_right, comparable_pairs(nc5_right)[0])
    d = coset_system_to_json(sys)
    assert {
        "upper",
        "lower",
        "full_cosets_in_lower",
        "right_cosets_in_upper",
    } <= set(d)
