import re
from itertools import product

import pytest

from skewlat import cosets
from skewlat.cosets import (
    DClassPair,
    _is_partition,
    comparable_pairs,
    coset_bijection,
    coset_intersection,
    coset_system_to_json,
    delta_decomposition,
    delta_decomposition_up,
    flat_cosets,
    full_coset_join,
    full_coset_meet,
    image_sets,
    induced_subalgebra,
    kimura_diagram_check,
    left_coset_meet,
    linking_elements,
    right_coset_meet,
)
from skewlat.core import SkewLattice, chain, direct_product, rectangular, validate
from skewlat.errors import ElementNotInClass, InternalInconsistency


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


def test_full_coset_size_is_product_of_flat_sizes(catalogs, samples):
    for s in _all_algebras(catalogs, samples):
        for pair in comparable_pairs(s):
            for x in sorted(pair.lower):
                dec = delta_decomposition(s, pair, x)
                assert len(dec.domain) == len(dec.left_block) * len(
                    dec.right_block
                )
            for y in sorted(pair.upper):
                dec = delta_decomposition_up(s, pair, y)
                assert len(dec.domain) == len(dec.left_block) * len(
                    dec.right_block
                )


def test_delta_rejects_misplaced_element(nc5_right):
    pair = comparable_pairs(nc5_right)[0]
    outside = next(iter(pair.upper))
    with pytest.raises(ElementNotInClass):
        delta_decomposition(nc5_right, pair, outside)


@pytest.mark.parametrize("kind", ["full", "right", "left"])
def test_coset_bijections_cover_every_pair(samples, kind):
    for s in samples.values():
        for pair in comparable_pairs(s):
            for a in sorted(pair.upper):
                for b in sorted(pair.lower):
                    bij = coset_bijection(s, pair, a, b, kind)
                    assert bij.kind == kind
                    xs = [x for x, _ in bij.mapping]
                    ys = [y for _, y in bij.mapping]
                    assert sorted(set(xs)) == sorted(xs)
                    assert sorted(set(ys)) == sorted(ys)


def test_full_bijection_pairs_by_natural_order(samples):
    for s in samples.values():
        leq = [
            [s.m(x, y) == y and s.m(y, x) == y for y in range(s.n)]
            for x in range(s.n)
        ]
        for pair in comparable_pairs(s):
            for a in sorted(pair.upper):
                for b in sorted(pair.lower):
                    bij = coset_bijection(s, pair, a, b, "full")
                    for x, y in bij.mapping:
                        assert leq[x][y]  # y <= x


def test_coset_intersection(samples):
    for s in samples.values():
        for pair in comparable_pairs(s):
            lower = sorted(pair.lower)
            for x, xp in product(lower, repeat=2):
                inter = coset_intersection(s, pair, x, xp)
                same_full = full_coset_meet(s, pair.upper, x) == full_coset_meet(
                    s, pair.upper, xp
                )
                # the two flat cosets meet exactly in x ^ x' iff the full
                # cosets coincide (verified internally); None otherwise
                assert inter == (s.m(x, xp) if same_full else None)


def test_image_sets_transversal(samples):
    # image_sets internally audits both the order description and the
    # one-point-per-coset transversal law; here we check types and sides
    for s in samples.values():
        for pair in comparable_pairs(s):
            for b in sorted(pair.lower):
                img = image_sets(s, pair, b)
                assert img <= pair.upper
            for a in sorted(pair.upper):
                img = image_sets(s, pair, a)
                assert img <= pair.lower


def test_kimura_diagram_commutes_everywhere(catalogs, samples):
    for s in _all_algebras(catalogs, samples):
        for pair in comparable_pairs(s):
            for a in sorted(pair.upper):
                for b in sorted(pair.lower):
                    ok, witness = kimura_diagram_check(s, pair, a, b)
                    assert ok, (pair, a, b, witness)


def test_kimura_diagram_reports_its_least_failing_element():
    # unvalidated tables: x v y = y, and x ^ y = x except in row 0, where
    # 0 ^ 3 = 0 but 0 ^ x = x on {1, 2}.  B v 3 v B is {0, 1, 2}; at x the
    # diagram compares b ^ (x v a) = 0 ^ 3 with b ^ x = 0 ^ x, which holds
    # at x = 0 and fails at 1 and 2.
    n = 4
    meet = [[0, 1, 2, 0]] + [[x] * n for x in range(1, n)]
    join = [list(range(n))] * n
    s = SkewLattice(meet, join)
    pair = DClassPair(upper=frozenset({3}), lower=frozenset({0, 1, 2}))
    assert kimura_diagram_check(s, pair, 3, 0) == (False, 1)


def test_linking_elements(samples):
    for s in samples.values():
        for pair in comparable_pairs(s):
            lower = sorted(pair.lower)
            for x, y in product(lower, repeat=2):
                link = linking_elements(s, pair, x, y)
                same_full = full_coset_meet(
                    s, pair.upper, x
                ) == full_coset_meet(s, pair.upper, y)
                if same_full:
                    assert link == (s.m(x, y), s.m(y, x))
                else:
                    assert link is None


def test_induced_subalgebra_is_valid(samples):
    s = samples["nc5-right"]
    pair = comparable_pairs(s)[0]
    elems = sorted(pair.upper | pair.lower)
    sub = induced_subalgebra(s, elems)
    assert validate(sub.meet, sub.join).valid
    assert sub.n == len(elems)


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
