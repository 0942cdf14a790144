import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewlat.core import (
    SkewLattice,
    chain,
    direct_product,
    dual,
    from_json,
    mirror,
    rectangular,
    to_json,
    validate,
)
from skewlat.errors import (
    DimensionMismatch,
    EntryOutOfRange,
    MalformedInput,
    NotASkewLattice,
)


def test_chain_is_valid_and_commutative():
    s = chain(3)
    assert s.n == 3
    for x in range(3):
        for y in range(3):
            assert s.m(x, y) == s.m(y, x) == min(x, y)
            assert s.j(x, y) == s.j(y, x) == max(x, y)


def test_rectangular_tables():
    s = rectangular(2, 3)
    assert s.n == 6
    for x in range(6):
        for y in range(6):
            # meet keeps the row of x and the column of y; join flips
            assert s.m(x, y) == s.j(y, x)
            assert s.m(x, y, x) == x
            assert s.j(x, y, x) == x


def test_validate_rejects_broken_absorption():
    s = chain(2)
    join = [list(r) for r in s.join]
    join[0][1] = 0  # breaks x v (x ^ y) = x at (1, 0)
    rep = validate(s.meet, join)
    assert not rep.valid
    assert rep.failures


def test_validate_rejects_bad_shapes():
    with pytest.raises(DimensionMismatch):
        validate([[0, 0], [0, 1]], [[0]])
    with pytest.raises(EntryOutOfRange):
        validate([[0, 5], [0, 1]], [[0, 1], [1, 1]])


def test_checked_constructor_raises_with_report():
    with pytest.raises(NotASkewLattice):
        SkewLattice.checked([[1, 0], [0, 1]], [[0, 1], [1, 1]])


def test_direct_product_order_and_validity():
    a, b = chain(2), rectangular(2, 2)
    s = direct_product(a, b)
    assert s.n == a.n * b.n
    assert validate(s.meet, s.join).valid


def test_dual_and_mirror_are_involutions(samples):
    for s in samples.values():
        assert dual(dual(s)) == s
        assert mirror(mirror(s)) == s
        assert validate(dual(s).meet, dual(s).join).valid
        assert validate(mirror(s).meet, mirror(s).join).valid


def test_mirror_swaps_argument_order(samples):
    s = samples["nc5-right"]
    t = mirror(s)
    for x in range(s.n):
        for y in range(s.n):
            assert t.m(x, y) == s.m(y, x)
            assert t.j(x, y) == s.j(y, x)


def test_json_round_trip(samples):
    for s in samples.values():
        t, names = from_json(to_json(s))
        assert t == s and names is None
    t, names = from_json(to_json(samples["chain3"], names=["a", "b", "c"]))
    assert names == ["a", "b", "c"]


@pytest.mark.parametrize(
    "text",
    ["[" * 100_000, "{nope", '{"n": 1}', "[]"],
    ids=["deeply-nested", "not-json", "missing-tables", "not-an-object"],
)
def test_from_json_rejects_malformed_text(text):
    # the same MalformedInput that load_algebra raises for the same file
    with pytest.raises(MalformedInput):
        from_json(text)


def test_json_keys_sorted(samples):
    text = to_json(samples["rect22"])
    assert json.loads(text) == json.loads(
        json.dumps(json.loads(text), sort_keys=True)
    )


@given(st.integers(1, 4), st.integers(1, 4))
@settings(max_examples=16, deadline=None)
def test_rectangular_always_validates(l, r):
    s = rectangular(l, r)
    assert validate(s.meet, s.join).valid


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_validate_never_crashes_on_arbitrary_tables(data):
    n = data.draw(st.integers(1, 3))
    table = lambda: [
        [data.draw(st.integers(0, n - 1)) for _ in range(n)] for _ in range(n)
    ]
    rep = validate(table(), table())
    assert isinstance(rep.valid, bool)


def test_regularity_follows_from_axioms(catalogs):
    # the sandwich law x ^ y ^ x ^ z ^ x = x ^ y ^ z ^ x, and dually
    for cat in catalogs.values():
        for s in cat.algebras:
            rep = validate(s.meet, s.join)
            assert rep.valid and rep.meet_regular and rep.join_regular


def _validate_by_triple_loops(mt, jt):
    """validate's report computed by scalar triple loops over every (x, y,
    z): the reference for its row-at-a-time scans."""
    n = len(mt)
    failures = []
    for name, t in (("meet-idempotency", mt), ("join-idempotency", jt)):
        for x in range(n):
            if t[x][x] != x:
                failures.append((name, (x,)))
                break

    def assoc_witness(t):
        for x in range(n):
            for y in range(n):
                for z in range(n):
                    if t[t[x][y]][z] != t[x][t[y][z]]:
                        return (x, y, z)
        return None

    for name, t in (("meet-associativity", mt), ("join-associativity", jt)):
        w = assoc_witness(t)
        if w is not None:
            failures.append((name, w))
    absorptions = (
        ("absorption-meet-left", lambda x, y: mt[x][jt[x][y]] == x),
        ("absorption-meet-right", lambda x, y: mt[jt[y][x]][x] == x),
        ("absorption-join-left", lambda x, y: jt[x][mt[x][y]] == x),
        ("absorption-join-right", lambda x, y: jt[mt[y][x]][x] == x),
    )
    for name, law in absorptions:
        w = next(((x, y) for x in range(n) for y in range(n) if not law(x, y)), None)
        if w is not None:
            failures.append((name, w))

    def regular(t):
        return all(
            t[t[t[t[x][y]][x]][z]][x] == t[t[t[x][y]][z]][x]
            for x in range(n) for y in range(n) for z in range(n)
        )

    return {
        "valid": not failures,
        "failures": [[name, list(w)] for name, w in failures],
        "meet_regular": regular(mt),
        "join_regular": regular(jt),
    }


# operations on 0..n-1; the relabelled cyclic group and multiplicative
# monoid are associative but not regular, the others are bands
_OPERATIONS = (
    lambda x, y, n: (x + y) % n,
    lambda x, y, n: x * y % n,
    lambda x, y, n: min(x, y),
    lambda x, y, n: max(x, y),
    lambda x, y, n: x,
    lambda x, y, n: y,
    lambda x, y, n: 0,
)


@st.composite
def _table_pairs(draw):
    n = draw(st.integers(1, 6))
    entry = st.integers(0, n - 1)

    def relabelled(op):
        perm = draw(st.permutations(range(n)))
        t = [[0] * n for _ in range(n)]
        for x in range(n):
            for y in range(n):
                t[perm[x]][perm[y]] = perm[op(x, y, n)]
        return t

    kind = draw(st.sampled_from(["random", "operations", "algebra"]))
    if kind == "random":
        meet, join = ([[draw(entry) for _ in range(n)] for _ in range(n)]
                      for _ in range(2))
    elif kind == "operations":
        meet, join = (relabelled(draw(st.sampled_from(_OPERATIONS)))
                      for _ in range(2))
    else:
        l = draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]))
        s = draw(st.sampled_from([chain(n), rectangular(l, n // l)]))
        meet, join = ([list(r) for r in t] for t in (s.meet, s.join))
    for _ in range(draw(st.integers(0, 2))):
        t = draw(st.sampled_from([meet, join]))
        t[draw(entry)][draw(entry)] = draw(entry)
    return meet, join


@given(_table_pairs())
@settings(max_examples=300, deadline=None)
def test_validate_matches_the_triple_loops(tables):
    meet, join = tables
    assert validate(meet, join).to_dict() == _validate_by_triple_loops(meet, join)
