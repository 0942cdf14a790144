from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewlat.core import chain, direct_product, dual, mirror, rectangular, validate
from skewlat.decompose import kimura
from skewlat.errors import ArityMismatch, ArityTooLarge
from skewlat.greens import green_D, green_L, green_R
from skewlat.laws import check_center_laws
from skewlat.catalog import nc5
from skewlat.varieties import (
    FLAVORED_SYMMETRY_PAIRS,
    JOIN,
    MEET,
    PREDICATES,
    Identity,
    J,
    M,
    Term,
    V,
    check_identity,
    classify,
    eval_term,
    is_cancellative,
    is_left_cancellative,
    is_left_handed,
    is_lower_symmetric,
    is_quasi_distributive,
    is_right_cancellative,
    is_right_handed,
    is_simply_cancellative,
    is_upper_symmetric,
    predicate,
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


def test_eval_term_rejects_a_short_assignment(samples):
    with pytest.raises(ArityMismatch):
        eval_term(samples["chain3"], M(V(0), J(V(1), V(2))), (0, 1))


def test_identity_rejects_a_variable_at_the_arity():
    with pytest.raises(ArityMismatch):
        Identity(2, M(V(0), V(1)), M(V(0), V(2)), "x2-at-arity-2")


def _terms(arity):
    return st.recursive(
        st.integers(0, arity - 1).map(V),
        lambda sub: st.builds(
            lambda op, a, b: Term(op, left=a, right=b),
            st.sampled_from((MEET, JOIN)),
            sub,
            sub,
        ),
        max_leaves=6,
    )


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_check_identity_matches_an_eval_term_scan(catalogs, samples, data):
    # eval_term, one assignment at a time in itertools.product order, is the
    # reference for the holds flag and the first counterexample; arity 4,
    # the cap, is drawn on algebras of order <= 4 only, to keep the
    # reference scan small
    algebras = [s for cat in catalogs.values() for s in cat.algebras]
    s = data.draw(st.sampled_from(algebras + list(samples.values())))
    arity = data.draw(st.integers(1, 4 if s.n <= 4 else 3))
    lhs, rhs = data.draw(_terms(arity)), data.draw(_terms(arity))
    expected = next(
        (
            (False, a)
            for a in product(range(s.n), repeat=arity)
            if eval_term(s, lhs, a) != eval_term(s, rhs, a)
        ),
        (True, None),
    )
    assert check_identity(s, Identity(arity, lhs, rhs, "drawn")) == expected


def _classify_corpus(catalogs, nc5_right, nc5_left):
    named = [
        (f"order{n}-{i}", s)
        for n, cat in sorted(catalogs.items())
        for i, s in enumerate(cat.algebras)
    ]
    named += [("nc5-right", nc5_right), ("nc5-left", nc5_left)]
    # each fails several of normal, conormal and the (quasi-)normal
    # identities, so arity-3 and arity-4 witnesses of order 12 and 16 count
    named += [
        (
            f"order{n}-{i}x{m}-{j}",
            direct_product(catalogs[n].algebras[i], catalogs[m].algebras[j]),
        )
        for n, i, m, j in (
            (3, 1, 4, 7),
            (3, 2, 4, 9),
            (4, 5, 4, 16),
            (4, 7, 4, 8),
            (4, 11, 4, 15),
        )
    ]
    return named


# sha256 of classify(s).to_dict(), every predicate's verdict and witness,
# over the corpus above; a change to identity checking must not move one
CLASSIFY_SHA256 = (
    "4801c8f82d4f0a9280b5242323f6a1d8aa813c4eed41bde4b31cf12ecf9e92b3"
)


def test_classify_reports_match_golden_digest(catalogs, nc5_right, nc5_left):
    import hashlib
    import json

    docs = [
        [name, classify(s).to_dict()]
        for name, s in _classify_corpus(catalogs, nc5_right, nc5_left)
    ]
    text = json.dumps(docs, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == CLASSIFY_SHA256


def test_chain_classification():
    res = classify(chain(3)).results
    # a chain satisfies every identity in the battery except rectangularity
    assert not res["rectangular"][0]
    assert all(holds for name, (holds, _) in res.items() if name != "rectangular")


def test_rectangular_handedness():
    assert predicate(rectangular(2, 3), "rectangular")[0]
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
                assert predicate(s, "symmetric")[0]
                assert is_quasi_distributive(s)[0]


def test_predicate_battery_respects_kimura_factors(catalogs):
    # P(S) iff P(S/R) and P(S/L), for every identity predicate
    for cat in catalogs.values():
        for s in cat.algebras:
            dec = kimura(s)
            sr = dec.left_factor.quotient
            sl = dec.right_factor.quotient
            for name in PREDICATES:
                assert predicate(s, name)[0] == (
                    predicate(sr, name)[0] and predicate(sl, name)[0]
                ), f"{name} disagrees with its factors"


def test_unknown_predicate_name_raises_key_error():
    s = chain(2)
    with pytest.raises(KeyError, match="unknown predicate 'no-such'"):
        classify(s, ["no-such"])
    with pytest.raises(KeyError, match="unknown predicate 'no-such'"):
        predicate(s, "no-such")


def test_witness_is_reported_and_real(samples):
    s = samples["rect22"]
    holds, witness = predicate(s, "right-handed")
    assert not holds and witness is not None


CENTER_LAWS = (
    "right-center-ii",
    "right-center-iii",
    "right-center-iv",
    "right-center-v",
    "left-center-vii",
    "left-center-viii",
    "left-center-ix",
    "left-center-x",
    "center-is-both-one-sided-centers",
    "center-commutes",
)


def test_centers():
    # the D-classes of chain(2) x rectangular(2, 2) have four elements
    # each, so no element is central: for every a, each characterization
    # fails at some b, and some y does not commute with a
    s = direct_product(chain(2), rectangular(2, 2))
    assert all(len(b) == 4 for b in green_D(s).blocks)
    rep = check_center_laws(s, "c2xr22")
    assert [r.instance for r in rep.records] == [(n,) for n in CENTER_LAWS]
    assert rep.verdict == "concordant"


def test_center_of_lattice_is_everything():
    # every Green's class of a lattice is a singleton, so every element
    # satisfies every characterization and commutes with everything
    s = chain(4)
    assert all(len(b) == 1 for b in green_D(s).blocks)
    rep = check_center_laws(s, "chain4")
    assert [r.instance for r in rep.records] == [(n,) for n in CENTER_LAWS]
    assert rep.verdict == "concordant"


@given(st.integers(1, 3), st.integers(1, 3))
@settings(max_examples=9, deadline=None)
def test_rectangular_product_predicates(l, r):
    s = rectangular(l, r)
    assert predicate(s, "rectangular")[0]
    assert predicate(s, "symmetric")[0] or (l > 1 and r > 1)


# the right- and left-center characterizations, each at one (a, b)
ONE_SIDED_CENTER = {
    "ii": lambda s, a, b: s.j(b, a) == s.j(a, b, a),
    "iii": lambda s, a, b: s.j(a, b) == s.j(b, a, b),
    "iv": lambda s, a, b: s.m(a, b) == s.m(a, b, a),
    "v": lambda s, a, b: s.m(b, a) == s.m(b, a, b),
    "vii": lambda s, a, b: s.j(a, b) == s.j(a, b, a),
    "viii": lambda s, a, b: s.j(b, a) == s.j(b, a, b),
    "ix": lambda s, a, b: s.m(a, b) == s.m(b, a, b),
    "x": lambda s, a, b: s.m(b, a) == s.m(a, b, a),
}


def test_left_center_is_right_center_of_mirror(catalogs, nc5_right, nc5_left):
    # mirroring reverses both operations, so it swaps R and L: a's L-class
    # in s is {a} iff its R-class in mirror(s) is, and at every (a, b) it
    # carries (ii) b v a = a v b v a onto (vii) a v b = a v b v a, (iii)
    # onto (viii), (iv) onto (x) and (v) onto (ix).  At each (a, b) the
    # four right characterizations agree with one another on these
    # algebras, as do the four left ones, so the pairing is fixed only up
    # to the side; a right one on s read against a right one on mirror(s)
    # fails.
    onto = {"ii": "vii", "iii": "viii", "iv": "x", "v": "ix"}
    swap = {**onto, **{l: r for r, l in onto.items()}}
    algebras = [s for cat in catalogs.values() for s in cat.algebras]
    for s in algebras + [nc5_right, nc5_left]:
        t = mirror(s)
        singletons = {
            (name, side): {
                a for a in range(x.n) if len(rel(x).block_containing(a)) == 1
            }
            for name, x in (("s", s), ("t", t))
            for side, rel in (("R", green_R), ("L", green_L))
        }
        assert singletons["s", "L"] == singletons["t", "R"]
        assert singletons["s", "R"] == singletons["t", "L"]
        for a, b in product(range(s.n), repeat=2):
            at = {k: holds(s, a, b) for k, holds in ONE_SIDED_CENTER.items()}
            for k, v in at.items():
                assert v == ONE_SIDED_CENTER[swap[k]](t, a, b), (k, a, b)
            left = swap.keys() - onto.keys()
            assert len({at[k] for k in onto}) == len({at[k] for k in left}) == 1
        for k, holds in ONE_SIDED_CENTER.items():
            central = {a for a in range(s.n) if all(holds(s, a, b) for b in range(s.n))}
            assert central == singletons["s", "R" if k in onto else "L"], k


def test_alternative_symmetry_axioms_agree(catalogs, catalog5):
    # each flavored-symmetry identity and its published alternative define
    # the same class, so they hold on exactly the same algebras
    algebras = [s for c in catalogs.values() for s in c.algebras]
    algebras += list(catalog5.algebras) + [nc5("right"), nc5("left")]
    for s in algebras:
        for primary, alternative in FLAVORED_SYMMETRY_PAIRS:
            assert (
                check_identity(s, primary)[0]
                == check_identity(s, alternative)[0]
            ), (primary.name, s)


def _has_m3_or_n5(t):
    """Whether the lattice t has a five-element sublattice that breaks
    distributivity, by a scan over every 5-subset of its elements.

    The reference for is_quasi_distributive, kept as an independent
    cross-check: by the M3-N5 theorem of Dedekind and Birkhoff, a lattice
    is distributive iff it has no M3 or N5 sublattice, and both have five
    elements.
    """
    for sub in combinations(range(t.n), 5):
        if all(
            t.meet[a][b] in sub and t.join[a][b] in sub
            for a in sub
            for b in sub
        ) and any(
            t.meet[a][t.join[b][c]] != t.join[t.meet[a][b]][t.meet[a][c]]
            for a, b, c in product(sub, repeat=3)
        ):
            return True
    return False


def test_quasi_distributive_agrees_with_the_sublattice_scan(catalogs, catalog5):
    lattices = [s for s in catalog5.algebras if kimura(s).base.quotient.n == 5]
    algebras = [s for c in catalogs.values() for s in c.algebras]
    algebras += list(catalog5.algebras)
    algebras += [
        direct_product(s, t)
        for s in lattices
        for t in (rectangular(1, 2), chain(2), nc5("right"))
    ]
    failing = 0
    for s in algebras:
        holds = is_quasi_distributive(s)[0]
        assert holds != _has_m3_or_n5(kimura(s).base.quotient)
        failing += not holds
    # o5.0 and o5.1, and the three products of each
    assert failing == 2 + 2 * 3


def test_quasi_distributive_witnesses_of_order_5(catalog5):
    # o5.0 is M3: 0 < 1, 2, 3 < 4, with 1 ^ (2 v 3) = 1 ^ 4 = 1 and
    # (1 ^ 2) v (1 ^ 3) = 0 v 0 = 0.  Each a = 0 gives 0 on both sides.
    # For a = 1 both sides are 1 when b or c is 1 or 4, and 0 when b and c
    # both lie in {0, 2} or both in {0, 3}; (1, 2, 3) is the least triple
    # left.
    m3, n5 = catalog5.algebras[:2]
    assert m3.meet[1][m3.join[2][3]] == 1
    assert m3.join[m3.meet[1][2]][m3.meet[1][3]] == 0
    # o5.1 is N5: 0 < 1 < 4 and 0 < 2 < 3 < 4, with 3 ^ (1 v 2) = 3 ^ 4 = 3
    # and (3 ^ 1) v (3 ^ 2) = 0 v 2 = 2.  Each a = 0 gives 0 on both sides.
    # For a = 1 and a = 2, both sides are a when b or c lies above a, and
    # 0 otherwise; for a = 3, b = 0, and b = 1 with c < 2, give 3 ^ c on
    # both sides.
    assert n5.meet[3][n5.join[1][2]] == 3
    assert n5.join[n5.meet[3][1]][n5.meet[3][2]] == 2
    for s in (m3, n5):
        assert kimura(s).base.quotient.meet == s.meet
    assert is_quasi_distributive(m3) == (False, (1, 2, 3))
    assert is_quasi_distributive(n5) == (False, (3, 1, 2))


def _least_collision(s, key):
    """The cancellation definitions read directly: the least (a, b, c),
    a != b, with key(a, c) == key(b, c), or None."""
    rng = range(s.n)
    return next(
        ((a, b, c) for a, b, c in product(rng, repeat=3)
         if a != b and key(a, c) == key(b, c)),
        None,
    )


def test_cancellation_witnesses_are_the_least_triples(catalogs, samples):
    for s in [*(t for cat in catalogs.values() for t in cat.algebras),
              *samples.values()]:
        m, j = s.meet, s.join
        left = _least_collision(s, lambda a, c: (j[c][a], m[c][a]))
        right = _least_collision(s, lambda a, c: (j[a][c], m[a][c]))
        simple = _least_collision(
            s, lambda a, c: (j[j[a][c]][a], m[m[a][c]][a])
        )
        sides = [w for w in (left, right) if w is not None]
        for pred, least in (
            (is_left_cancellative, left),
            (is_right_cancellative, right),
            (is_simply_cancellative, simple),
            (is_cancellative, min(sides) if sides else None),
        ):
            assert pred(s) == (least is None, least), pred.__name__


# the failing half of each fixture and the least pair that breaks it;
# its dual fails the other half at the same pair
_SYMMETRY_FAILURES = {
    "o7.60": ("lower", (1, 4)),
    "o7.112": ("upper", (1, 3)),
    "o7.138": ("upper", (1, 3)),
    "o7.510": ("lower", (1, 5)),
}


def test_non_symmetric_order7_symmetry_verdicts(non_symmetric7):
    for name, s in non_symmetric7.items():
        assert validate(s.meet, s.join).valid, name
        side, pair = _SYMMETRY_FAILURES[name]
        other = {"upper": "lower", "lower": "upper"}[side]
        for t, failing in ((s, side), (dual(s), other)):
            # upper: a^b = b^a but avb != bva; lower: the other way round
            commuting, differing = (
                (t.meet, t.join) if failing == "upper" else (t.join, t.meet)
            )
            broken = [
                (a, b) for a, b in product(range(t.n), repeat=2)
                if commuting[a][b] == commuting[b][a]
                and differing[a][b] != differing[b][a]
            ]
            assert broken[0] == pair, name
            upper = is_upper_symmetric(t)
            lower = is_lower_symmetric(t)
            assert (upper, lower) == (
                ((False, pair), (True, None)) if failing == "upper"
                else ((True, None), (False, pair))
            ), name
            assert predicate(t, "symmetric") == (False, pair), name
            # upper- and lower-cancellative require their symmetry half
            # first and report its witness when it fails
            assert is_simply_cancellative(t) == (True, None), name
            assert predicate(t, "upper-cancellative") == upper, name
            assert predicate(t, "lower-cancellative") == lower, name
