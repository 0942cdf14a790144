import pytest

from skewlat.core import chain, rectangular
from skewlat.laws import (
    ALL_LAW_CHECKS,
    check_cancellation_laws,
    check_center_laws,
    check_coset_structure_laws,
    check_decomposition_laws,
    check_flat_symmetry_laws,
    check_normality_laws,
    check_symmetry_laws,
)
from skewlat.reports import ConcordanceReport, Record


def test_record_agreement():
    assert Record(("x",), True, True).agree
    assert not Record(("x",), True, False).agree


def test_report_verdict_and_witness():
    good = ConcordanceReport("l", "a", (Record(("i",), True, True),))
    bad = ConcordanceReport(
        "l", "a", (Record(("i",), True, True), Record(("j",), False, True))
    )
    assert good.verdict == "concordant" and good.witness is None
    assert bad.verdict == "discordant"
    assert bad.witness.instance == ("j",)
    d = bad.to_json_dict()
    assert d["verdict"] == "discordant" and d["witness"]["instance"] == ["j"]


def test_all_checks_registered():
    assert set(ALL_LAW_CHECKS) == {
        "symmetry",
        "flat-symmetry",
        "normality",
        "cancellation",
        "decomposition",
        "coset-structure",
        "center",
    }


@pytest.mark.parametrize("law", sorted(ALL_LAW_CHECKS))
def test_trivial_algebras_concordant(law, samples):
    for name in ("chain3", "rect22", "rect31"):
        rep = ALL_LAW_CHECKS[law](samples[name], name)
        assert rep.verdict == "concordant", (law, name, rep.witness)


@pytest.mark.parametrize("law", sorted(ALL_LAW_CHECKS))
def test_catalog_concordant_through_order_4(law, catalogs):
    for order, cat in catalogs.items():
        for i, s in enumerate(cat.algebras):
            rep = ALL_LAW_CHECKS[law](s, f"order{order}-{i}")
            assert rep.verdict == "concordant", (law, rep.algebra, rep.witness)


@pytest.mark.parametrize("law", sorted(ALL_LAW_CHECKS))
def test_nc5_concordant(law, nc5_right, nc5_left):
    for name, s in (("nc5-right", nc5_right), ("nc5-left", nc5_left)):
        rep = ALL_LAW_CHECKS[law](s, name)
        assert rep.verdict == "concordant", (law, name, rep.witness)


def test_cancellation_gating_notes_on_hypothesis_failure(catalog5):
    # algebras failing the symmetry/quasi-distributivity hypotheses must be
    # reported "not applicable" rather than evaluated (the smallest such
    # algebras have order 5)
    from skewlat.varieties import is_quasi_distributive, is_symmetric

    seen = 0
    for s in catalog5.algebras:
        if not (is_symmetric(s)[0] and is_quasi_distributive(s)[0]):
            rep = check_cancellation_laws(s, "x")
            assert any("not applicable" in n for n in rep.notes)
            seen += 1
    assert seen == 2


def test_cancellation_checks_run_on_nc5(nc5_right):
    # nc5 is symmetric and quasi-distributive, so the gated equivalences
    # are evaluated (and concordant: nc5 is not cancellative, and its
    # families detect that)
    rep = check_cancellation_laws(nc5_right, "nc5")
    names = {r.instance[0] for r in rep.records}
    assert "cancellative-iff-full-join-family" in names
    assert "unconditional-downward-implications" in names
    assert rep.verdict == "concordant"


def test_normality_reports_the_empirical_quasi_normal_pairing(samples):
    rep = check_normality_laws(samples["chain3"], "chain3")
    names = {r.instance[0] for r in rep.records}
    assert "right-quasi-normal-iff-ideal-L-trivial" in names
    assert "left-quasi-normal-iff-ideal-R-trivial" in names


def test_symmetry_law_families_present(nc5_right):
    rep = check_symmetry_laws(nc5_right, "nc5")
    names = {r.instance[0] for r in rep.records}
    assert "symmetric-iff-intersections" in names


def test_flat_symmetry_notes_a_non_symmetric_algebra(non_symmetric7):
    for name, s in non_symmetric7.items():
        rep = check_flat_symmetry_laws(s, name)
        assert rep.notes[-1] == (
            "not applicable: symmetric-flat-intersections (not symmetric)"
        )
        assert "symmetric-flat-intersections" not in {
            r.instance[0] for r in rep.records
        }


def test_decomposition_vacuous_without_comparable_pairs():
    rep = check_decomposition_laws(rectangular(3, 2), "rect32")
    assert rep.verdict == "concordant"


def test_both_families_record_reads_the_families(monkeypatch, non_symmetric7):
    # o7.60 is upper symmetric and not lower symmetric.  With the lower
    # predicate read wrong, symmetric-iff-both-families still reads the
    # failing full-meet family, so it is discordant
    import skewlat.laws

    monkeypatch.setattr(skewlat.laws, "is_lower_symmetric", lambda s: (True, None))
    rep = check_symmetry_laws(non_symmetric7["o7.60"], "o7.60")
    (record,) = (
        r for r in rep.records if r.instance[0] == "symmetric-iff-both-families"
    )
    assert record == Record(("symmetric-iff-both-families",), True, False)


def test_single_factor_flat_law_fails_on_nc5(nc5_right, nc5_left):
    # the reason the cancellation harness uses the conjunction form: one
    # coset-cancellative identity alone does not match one flat family
    from skewlat.laws import _cancellation_maps, _equivalence_families
    from skewlat.varieties import (
        is_left_coset_cancellative,
        is_right_coset_cancellative,
    )

    for s in (nc5_right, nc5_left):
        lcc = is_left_coset_cancellative(s)[0]
        rcc = is_right_coset_cancellative(s)[0]
        assert lcc != rcc  # each variant satisfies exactly one
        single = lcc or rcc
        families = {
            flavor: all(each)
            for flavor, each in _equivalence_families(_cancellation_maps(s)).items()
        }
        # no single flat family is equivalent to the single identity
        assert not any(families[f] == single for f in families if single)


def _law_corpus(catalogs, nc5_right, nc5_left):
    from skewlat.core import direct_product

    named = [
        (f"order{n}-{i}", s)
        for n, cat in sorted(catalogs.items())
        for i, s in enumerate(cat.algebras)
    ]
    named += [("nc5-right", nc5_right), ("nc5-left", nc5_left)]
    named += [
        (f"order3-{i}x{j}", direct_product(a, b))
        for i, a in enumerate(catalogs[3].algebras)
        for j, b in enumerate(catalogs[2].algebras)
    ]
    return named


# sha256 of every record, witness and note of the five law families that
# are not coset-structure, over the order <= 4 catalog, nc5 both ways and
# the order-3 x order-2 products; a change to the law harness must not move
# a single instance tuple
LAW_REPORTS_SHA256 = (
    "3c9d2429bd8c88042c3f9621e7a84e9d1b73091db538c974588afcdb1ac0154b"
)
FIVE_FAMILIES = (
    "cancellation", "decomposition", "flat-symmetry", "normality", "symmetry",
)

# the same for coset-structure on the same corpus: eleven records per
# algebra, all concordant
COSET_STRUCTURE_SHA256 = (
    "e9e520a2c0ed181b61b70c314eb388757c0220d03d78ff65d5f422f784df4912"
)


# the same for center on the same corpus: ten records per algebra, all
# concordant
CENTER_SHA256 = (
    "e6fbdc5cd929b338b8e9d94637a890967c957ba1c673e3b1c68d7ab13a94821d"
)


def _reports_sha256(named, laws):
    """sha256 of every report of `laws` on each (name, algebra) of `named`,
    with every record's instance tuple."""
    import hashlib
    import json

    docs = []
    for name, s in named:
        for law in laws:
            rep = ALL_LAW_CHECKS[law](s, name)
            doc = rep.to_json_dict()
            doc["records"] = [[list(r.instance), r.lhs, r.rhs] for r in rep.records]
            docs.append(doc)
    text = json.dumps(docs, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def test_law_reports_match_golden_digest(catalogs, nc5_right, nc5_left):
    named = _law_corpus(catalogs, nc5_right, nc5_left)
    assert _reports_sha256(named, FIVE_FAMILIES) == LAW_REPORTS_SHA256
    assert _reports_sha256(named, ("coset-structure",)) == COSET_STRUCTURE_SHA256
    assert _reports_sha256(named, ("center",)) == CENTER_SHA256


# sha256 of the symmetry and flat-symmetry reports on the four
# non-symmetric order-7 fixtures, each as itself, mirrored, dualised, both,
# and times chain(2): 40 reports, all concordant.  The golden corpus above
# is all symmetric, so its records of these two families carry no diamond
# index; here 80 records name diamonds 0 and 6.
NON_SYMMETRIC_SYMMETRY_SHA256 = (
    "a6fc4dc155c83e0456c36ce1abceaad636972f81be445296d66a41ac6cf19f96"
)


def test_non_symmetric_symmetry_reports_match_golden_digest(
    non_symmetric7_variants,
):
    assert _reports_sha256(
        non_symmetric7_variants, ("symmetry", "flat-symmetry")
    ) == NON_SYMMETRIC_SYMMETRY_SHA256


# the same for normality, cancellation and decomposition on the same 20
# algebras.  Each is quasi-distributive and exactly one of lower and upper
# symmetric, so these reports take the cancellation gates that the
# symmetric golden corpus never reaches: the lower- or the
# upper-cancellative law alone, with cancellative-iff-families not
# applicable.  60 reports: every normality and decomposition report is
# concordant, and every cancellation report is discordant on
# full-family-iff-flat-families.
NON_SYMMETRIC_GATED_SHA256 = (
    "a6adfe9bbc9afdc3561604dec163f4689b9134be1896cf566f23bf5aa9faea3f"
)


def test_non_symmetric_gated_reports_match_golden_digest(
    non_symmetric7_variants,
):
    assert _reports_sha256(
        non_symmetric7_variants, ("normality", "cancellation", "decomposition")
    ) == NON_SYMMETRIC_GATED_SHA256


def test_symmetric_families_form_each_map_once(monkeypatch, nc5_right):
    # symmetry reads the full-meet and full-join maps of C, A and B on each
    # skew diamond, and flat-symmetry the four flat ones: 6 and 12 maps
    # per diamond, one coset per element of X each.  Diamonds that share
    # classes share maps in the coset store, so fewer cosets are formed,
    # and none twice.
    from collections import Counter

    from skewlat import cosets
    from skewlat.core import direct_product
    from skewlat.decompose import skew_diamonds

    calls = Counter()
    for name in cosets.COSET_FLAVORS:
        side, kind = name.split("-")
        fn = getattr(cosets, f"{side}_coset_{kind}")

        def counting(s, C, x, fn=fn, name=name):
            calls[name, frozenset(C), x] += 1
            return fn(s, C, x)

        monkeypatch.setattr(cosets, fn.__name__, counting)
    for law, flavors, formed, worth in (
        ("symmetry", ("full-meet", "full-join"), 38, 60),
        ("flat-symmetry", ("right-meet", "right-join", "left-meet", "left-join"), 76, 120),
    ):
        s = direct_product(nc5_right, chain(2))
        diamonds = skew_diamonds(s)
        assert len(diamonds) == 9
        calls.clear()
        assert ALL_LAW_CHECKS[law](s, "nc5xc2").verdict == "concordant"
        assert sum(calls.values()) == formed, law
        assert max(calls.values()) == 1, law
        # 6k and 12k maps' worth of cosets
        assert worth == sum(
            3 * len(cosets.sides(f, Jc, Mc)[1])
            for Jc, _, _, Mc in diamonds
            for f in flavors
        )


def test_order6_witness_families_by_hand():
    # o3.1 x o2.0, the smallest of the order-6 algebras on which the flat
    # cancellation laws come out discordant.  Each coset family is computed
    # here straight from the tables; only the comparison with the harness
    # calls into it.  This pins the witness and decides nothing about it.
    from itertools import product

    from skewlat.catalog import enumerate_catalog
    from skewlat.core import direct_product
    from skewlat.cosets import COSET_FLAVORS
    from skewlat.decompose import skew_diamonds
    from skewlat.laws import _cancellation_maps, _equivalence_families

    s = direct_product(
        enumerate_catalog(3).algebras[1], enumerate_catalog(2).algebras[0]
    )
    m, j = s.meet, s.join
    els = range(s.n)

    # the definitions: cancellative on both sides, symmetric, and S/D
    # distributive, with D read as x ^ y ^ x = x and y ^ x ^ y = y
    for x, y, z in product(els, repeat=3):
        if y != z:
            assert (j[x][y], m[x][y]) != (j[x][z], m[x][z])
            assert (j[y][x], m[y][x]) != (j[z][x], m[z][x])
    for x, y in product(els, repeat=2):
        assert (m[x][y] == m[y][x]) == (j[x][y] == j[y][x])
    same_d = lambda u, v: m[m[u][v]][u] == u and m[m[v][u]][v] == v
    for x, y, z in product(els, repeat=3):
        assert same_d(m[x][j[y][z]], j[m[x][y]][m[x][z]])

    Jc, A, B, Mc = map(frozenset, ({3, 5}, {2, 4}, {1}, {0}))
    assert skew_diamonds(s) == ((Jc, B, A, Mc),)
    coset = {
        "right-meet": lambda C, x: {m[x][c] for c in C},
        "left-meet": lambda C, x: {m[c][x] for c in C},
        "full-meet": lambda C, x: {m[m[c][x]][c] for c in C},
        "right-join": lambda C, x: {j[c][x] for c in C},
        "left-join": lambda C, x: {j[x][c] for c in C},
        "full-join": lambda C, x: {j[j[c][x]][c] for c in C},
    }
    # the harness's table: the one diamond oriented (B, A), then (A, B)
    table = _cancellation_maps(s)
    families = _equivalence_families(table)
    for di, (des, near) in enumerate(((B, A), (A, B))):
        assert table[di][0] == sorted(des)
        maps = {f: (cf, cn) for f, cf, cn in table[di][1]}
        for flavor, fn in coset.items():
            far = Jc if flavor.endswith("meet") else Mc
            value = all(
                (fn(far, x) == fn(far, xp)) == (fn(near, x) == fn(near, xp))
                for x, xp in product(des, repeat=2)
            )
            assert value == families[flavor][di]
            # the maps the harness reads hold the cosets computed here
            assert maps[flavor] == tuple(
                {x: fn(K, x) for x in des} for K in (far, near)
            )
            # the one failing family: right-meet through A = {2, 4}
            assert value == ((flavor, des) != ("right-meet", A))
    assert set(coset) == set(COSET_FLAVORS) == set(families)
    fn = coset["right-meet"]
    assert (fn(Jc, 2), fn(Jc, 4)) == ({2}, {4})
    assert fn(B, 2) == fn(B, 4) == {0}


def test_coset_structure_forms_no_new_coset(monkeypatch, nc5_right):
    # every map the coset-structure family reads is one the decomposition
    # family has already put in the coset store
    from skewlat import cosets
    from skewlat.core import SkewLattice, direct_product

    formed = []
    for flavor in cosets.COSET_FLAVORS:
        side, kind = flavor.split("-")
        name = f"{side}_coset_{kind}"

        def counting(s, C, x, fn=getattr(cosets, name), name=name):
            formed.append(name)
            return fn(s, C, x)

        monkeypatch.setattr(cosets, name, counting)
    for s in (nc5_right, direct_product(nc5_right, chain(2))):
        s = SkewLattice(s.meet, s.join)  # an empty coset store
        check_decomposition_laws(s)
        assert formed
        formed.clear()
        assert check_coset_structure_laws(s).verdict == "concordant"
        assert formed == []


def test_coset_structure_concordant_on_non_symmetric_fixtures(
    non_symmetric7_variants,
):
    for name, a in non_symmetric7_variants:
        rep = check_coset_structure_laws(a, name)
        assert rep.verdict == "concordant", (rep.algebra, rep.witness)
        assert len(rep.records) == 11


# how many of the watched predicates each law check reads, on both
# algebras of the test below
PREDICATES_READ = {
    "symmetry": 2,  # the two commutation scans
    "flat-symmetry": 6,  # and the four flavored symmetry identities
    "normality": 4,  # the (co)normal and quasi-normal identities
    "cancellation": 5,  # the scans, S/D distributive, simply cancellative
    "decomposition": 0,
    "coset-structure": 0,
    "center": 0,
}


@pytest.mark.parametrize("law", sorted(ALL_LAW_CHECKS))
def test_each_check_evaluates_each_predicate_once(law, nc5_right, non_symmetric7):
    # lower and upper symmetry are one _commutation_implies scan each, in
    # the two orders of the tables, and is_symmetric is their conjunction:
    # a check that reads all three runs the two scans once each.  The
    # second algebra is quasi-distributive and upper symmetric only.
    import sys
    from collections import Counter

    from skewlat import varieties
    from skewlat.core import SkewLattice, direct_product

    for s in (direct_product(nc5_right, chain(2)), non_symmetric7["o7.60"]):
        s = SkewLattice(s.meet, s.join)
        keys = {
            varieties._commutation_implies.__code__:
                lambda f: "meet-first" if f.f_locals["t"] is s.meet else "join-first",
            varieties.check_identity.__code__: lambda f: f.f_locals["ident"].name,
            varieties.is_simply_cancellative.__code__: lambda f: "simply-cancellative",
            varieties.is_quasi_distributive.__code__: lambda f: "quasi-distributive",
        }
        counts = Counter()

        def profile(frame, event, arg):
            if event == "call" and frame.f_code in keys:
                counts[keys[frame.f_code](frame)] += 1

        sys.setprofile(profile)
        try:
            ALL_LAW_CHECKS[law](s)
        finally:
            sys.setprofile(None)
        assert len(counts) == PREDICATES_READ[law], counts
        assert max(counts.values(), default=1) == 1, counts
