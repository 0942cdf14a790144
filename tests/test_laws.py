import pytest

from skewlat.core import chain, rectangular
from skewlat.laws import (
    ALL_LAW_CHECKS,
    check_cancellation_laws,
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


def test_flat_symmetry_notes_when_not_symmetric():
    rep = check_flat_symmetry_laws(rectangular(2, 2), "rect22")
    assert rep.verdict == "concordant"


def test_decomposition_vacuous_without_comparable_pairs():
    rep = check_decomposition_laws(rectangular(3, 2), "rect32")
    assert rep.verdict == "concordant"


def test_single_factor_flat_law_fails_on_nc5(nc5_right, nc5_left):
    # the reason the cancellation harness uses the conjunction form: one
    # coset-cancellative identity alone does not match one flat family
    from skewlat.laws import _FAMILY_OPS, _diamond_family, _oriented_diamonds
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
            flavor: all(_diamond_family(s, d, flavor) for d in _oriented_diamonds(s))
            for flavor in _FAMILY_OPS
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


# sha256 of every record, witness and note of the five law families over
# the order <= 4 catalog, nc5 both ways and the order-3 x order-2 products;
# a change to the law harness must not move a single instance tuple
LAW_REPORTS_SHA256 = (
    "3c9d2429bd8c88042c3f9621e7a84e9d1b73091db538c974588afcdb1ac0154b"
)


def test_law_reports_match_golden_digest(catalogs, nc5_right, nc5_left):
    import hashlib
    import json

    docs = []
    for name, s in _law_corpus(catalogs, nc5_right, nc5_left):
        for law in sorted(ALL_LAW_CHECKS):
            rep = ALL_LAW_CHECKS[law](s, name)
            doc = rep.to_json_dict()
            doc["records"] = [[list(r.instance), r.lhs, r.rhs] for r in rep.records]
            docs.append(doc)
    text = json.dumps(docs, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == LAW_REPORTS_SHA256
