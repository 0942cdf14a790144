import hashlib
from itertools import product

import pytest

from skewlat.catalog import nc5
from skewlat.core import chain, rectangular
from skewlat import greens
from skewlat.errors import InternalInconsistency, NotACongruence
from skewlat.greens import (
    Partition,
    dclass_order,
    eggboxes,
    flat_preorder_L,
    flat_preorder_R,
    green_D,
    green_H,
    green_L,
    green_R,
    natural_order,
    natural_preorder,
    principal_ideals,
    quotient,
    to_dot,
)


def _is_congruence(s, p):
    for x, xp, y in product(range(s.n), repeat=3):
        if p.same(x, xp):
            if not p.same(s.m(x, y), s.m(xp, y)):
                return False
            if not p.same(s.m(y, x), s.m(y, xp)):
                return False
            if not p.same(s.j(x, y), s.j(xp, y)):
                return False
            if not p.same(s.j(y, x), s.j(y, xp)):
                return False
    return True


def test_relations_are_congruences(catalogs, samples):
    algebras = [s for c in catalogs.values() for s in c.algebras]
    algebras += list(samples.values())
    for s in algebras:
        for rel in (green_R, green_L, green_D):
            assert _is_congruence(s, rel(s))


def test_d_joins_r_and_l(samples):
    for s in samples.values():
        r, l, d = green_R(s), green_L(s), green_D(s)
        for x, y in product(range(s.n), repeat=2):
            if r.same(x, y) or l.same(x, y):
                assert d.same(x, y)


@pytest.mark.parametrize(
    "relation,l,r",
    [("green_R", 1, 2), ("green_L", 2, 1)],
)
def test_d_cross_check_catches_a_wrong_relation(monkeypatch, relation, l, r):
    # rectangular(l, r) is one D-class; with the relation that joins its two
    # elements replaced by singletons, R o L splits them and the direct
    # x^y^x = x check must object
    s = rectangular(l, r)
    assert len(getattr(greens, relation)(s).blocks) == 1
    singletons = Partition.from_block_of(range(s.n))
    monkeypatch.setattr(greens, relation, lambda _: singletons)
    with pytest.raises(InternalInconsistency, match="D disagreement"):
        green_D(rectangular(l, r))


def test_h_is_trivial_on_bands(catalogs):
    # R-classes and L-classes of an idempotent-only algebra meet in
    # singletons
    for cat in catalogs.values():
        for s in cat.algebras:
            h = green_H(s)
            assert len(h.blocks) == s.n


def test_quotient_by_d_is_a_lattice(samples):
    for s in samples.values():
        q = quotient(s, green_D(s))
        t = q.quotient
        for x, y in product(range(t.n), repeat=2):
            assert t.m(x, y) == t.m(y, x)
            assert t.j(x, y) == t.j(y, x)


def test_quotient_rejects_non_congruence():
    s = chain(3)
    bad = Partition.from_block_of([0, 1, 0])  # merges 0,2 but not 0v1, 2v1
    with pytest.raises(NotACongruence):
        quotient(s, bad)


def test_d_classes_are_rectangular(samples):
    for s in samples.values():
        for block in green_D(s).blocks:
            for x, y in product(block, repeat=2):
                assert s.m(x, y, x) == x


def test_eggbox_grid_consistency(samples):
    for s in samples.values():
        for box in eggboxes(s):
            assert len(box.dclass) == len(box.rows) * len(box.cols)
            seen = {v for row in box.grid for v in row}
            assert seen == box.dclass


def test_natural_order_is_a_partial_order(samples):
    for s in samples.values():
        leq = natural_order(s)
        for x in range(s.n):
            assert x in leq[x]
            for y in range(s.n):
                if x != y and y in leq[x]:
                    assert x not in leq[y]  # antisymmetry
                for z in range(s.n):
                    if x in leq[y] and y in leq[z]:
                        assert x in leq[z]  # transitivity


def test_preorder_intersections(samples):
    # x <= y and y <= x in the natural preorder iff x D y;
    # flat preorders intersect to the natural preorder
    for s in samples.values():
        pre = natural_preorder(s)
        d = green_D(s)
        for x, y in product(range(s.n), repeat=2):
            both = x in pre[y] and y in pre[x]
            assert both == d.same(x, y)
        pl, pr = flat_preorder_L(s), flat_preorder_R(s)
        leq = natural_order(s)
        for x, y in product(range(s.n), repeat=2):
            # x below y on both flat sides iff x <= y in the natural order
            assert (y in pl[x] & pr[x]) == (x in leq[y])


def test_principal_ideals(samples):
    s = samples["nc5-right"]
    for y in range(s.n):
        down, left = principal_ideals(s, y)
        assert down == frozenset(s.m(y, z) for z in range(s.n))
        assert left == frozenset(s.m(z, y) for z in range(s.n))


def test_dclass_order_on_nc5(nc5_right):
    d, leq = dclass_order(nc5_right)
    k = len(d.blocks)
    assert k == 4
    bottoms = [i for i in range(k) if all(leq[i][j] for j in range(k))]
    tops = [i for i in range(k) if all(leq[j][i] for j in range(k))]
    assert len(bottoms) == 1 and len(tops) == 1


def test_dot_plain_names_unchanged_by_escaping():
    # escaping leaves names without quotes, backslashes or newlines as
    # they are: the same bytes as when labels were pasted in raw
    dot = to_dot(nc5("right"), names=["v", "x1", "x2", "y", "u"])
    assert hashlib.sha256(dot.encode()).hexdigest() == (
        "7b59c4f0be41d8eb9d1e777159eaecdf9dbf5a3f2bc624b94dcb9bb8d05e8d2f"
    )


def test_dot_export_structure():
    dot = to_dot(rectangular(2, 2))
    assert dot.startswith("digraph")
    assert "cluster_0" in dot
    assert dot.count("subgraph cluster_") == 1  # one D-class
    dot5 = to_dot(chain(2))
    assert dot5.count("subgraph cluster_") == 2
    assert "style=dashed" in dot5  # the S/D Hasse edge


def test_partition_json_blocks():
    p = Partition.from_block_of([1, 1, 0, 0])
    assert p.to_json_blocks() == [[0, 1], [2, 3]]
