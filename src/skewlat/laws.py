"""Executable coset-law checks: each structural law about symmetry,
normality, cancellation, or decomposition is evaluated on a concrete
algebra by computing both sides of its equivalence and reporting
agreement.  Hypothesis-gated laws note "not applicable" rather than
silently skipping."""

from __future__ import annotations

from itertools import product

from .cosets import COSET_FLAVORS as _FAMILY_OPS
from .cosets import comparable_pairs, flat_vs_full_correspondence
from .core import SkewLattice
from .decompose import skew_diamonds
from .greens import green_L, green_R
from .reports import ConcordanceReport, Record
from .varieties import (
    LEFT_LOWER_SYMMETRIC,
    LEFT_QUASI_NORMAL,
    LEFT_UPPER_SYMMETRIC,
    RIGHT_LOWER_SYMMETRIC,
    RIGHT_QUASI_NORMAL,
    RIGHT_UPPER_SYMMETRIC,
    check_identity,
    is_cancellative,
    is_conormal,
    is_left_coset_cancellative,
    is_lower_symmetric,
    is_normal,
    is_quasi_distributive,
    is_right_coset_cancellative,
    is_simply_cancellative,
    is_symmetric,
    is_upper_symmetric,
)


def _oriented_diamonds(s):
    """Each skew diamond in both (A, B) orientations, since several laws
    quantify over elements of one designated incomparable class."""
    out = []
    for Jc, A, B, Mc in skew_diamonds(s):
        out.append((Jc, A, B, Mc))
        out.append((Jc, B, A, Mc))
    return out


def _all(pairs):
    """(all hold, least failing instance)."""
    for instance, value in pairs:
        if not value:
            return False, instance
    return True, None


def _aggregate(name, predicate_value, instances):
    holds, witness = _all(instances)
    inst = (name,) if witness is None else (name,) + tuple(witness)
    return Record(instance=inst, lhs=predicate_value, rhs=holds)


def _sides(upper, lower, kind):
    """(C, X) for a flavor kind: meet cosets are taken of the upper class C
    through elements x of the lower class X, join cosets the other way."""
    return (upper, lower) if kind == "meet" else (lower, upper)


def _coset_equivalences(s, diamonds, flavor):
    """Per pair (x, x') of X: equal cosets of the far class C through x
    and x' iff equal cosets of both incomparable classes A and B."""
    fn, kind = _FAMILY_OPS[flavor]
    for di, (Jc, A, B, Mc) in enumerate(diamonds):
        C, X = _sides(Jc, Mc, kind)
        for x, xp in product(sorted(X), repeat=2):
            lhs = fn(s, C, x) == fn(s, C, xp)
            rhs = fn(s, A, x) == fn(s, A, xp) and fn(s, B, x) == fn(s, B, xp)
            yield (di, x, xp), lhs == rhs


def _inclusions(s, diamonds, flavor):
    """Per x in X: the cosets of A and B through x meet inside the coset
    of the far class C through x."""
    fn, kind = _FAMILY_OPS[flavor]
    for di, (Jc, A, B, Mc) in enumerate(diamonds):
        C, X = _sides(Jc, Mc, kind)
        for x in sorted(X):
            yield (di, x), (fn(s, A, x) & fn(s, B, x)) <= fn(s, C, x)


def _intersections(s, diamonds, labelled):
    """Per x in X: the coset of the far class C through x is the
    intersection of those of A and B.  `labelled` holds (instance label,
    flavor) pairs; on each diamond the meet flavors run over every element
    of Mc before the join flavors run over Jc."""
    for di, (Jc, A, B, Mc) in enumerate(diamonds):
        for kind in ("meet", "join"):
            C, X = _sides(Jc, Mc, kind)
            for x in sorted(X):
                for label, flavor in labelled:
                    fn, fkind = _FAMILY_OPS[flavor]
                    if fkind == kind:
                        yield (di, label, x), fn(s, C, x) == (
                            fn(s, A, x) & fn(s, B, x)
                        )


def check_symmetry_laws(s: SkewLattice, algebra: str = "?") -> ConcordanceReport:
    """Symmetry against the full-coset intersection and coset-equality
    families over all skew diamonds."""
    diamonds = _oriented_diamonds(s)
    sym = is_symmetric(s)[0]
    lower = is_lower_symmetric(s)[0]
    upper = is_upper_symmetric(s)[0]
    intersections = _intersections(
        s, diamonds, (("meet", "full-meet"), ("join", "full-join"))
    )
    records = [
        _aggregate("symmetric-iff-intersections", sym, intersections),
        _aggregate(
            "lower-symmetric-iff-meet-inclusion",
            lower,
            _inclusions(s, diamonds, "full-meet"),
        ),
        _aggregate(
            "upper-symmetric-iff-join-inclusion",
            upper,
            _inclusions(s, diamonds, "full-join"),
        ),
        _aggregate(
            "lower-symmetric-iff-meet-equivalences",
            lower,
            _coset_equivalences(s, diamonds, "full-meet"),
        ),
        _aggregate(
            "upper-symmetric-iff-join-equivalences",
            upper,
            _coset_equivalences(s, diamonds, "full-join"),
        ),
        Record(
            instance=("symmetric-iff-both-families",),
            lhs=sym,
            rhs=lower and upper,
        ),
    ]
    return ConcordanceReport("symmetry-coset-laws", algebra, tuple(records))


def check_flat_symmetry_laws(
    s: SkewLattice, algebra: str = "?"
) -> ConcordanceReport:
    """The four flat-coset equivalence families against the four flavored
    symmetry identities, plus the intersection formulas on symmetric
    algebras."""
    diamonds = _oriented_diamonds(s)
    records = [
        _aggregate(
            name,
            check_identity(s, identity)[0],
            _coset_equivalences(s, diamonds, flavor),
        )
        for name, identity, flavor in (
            ("right-lower-symmetric-iff-clause-a", RIGHT_LOWER_SYMMETRIC, "right-meet"),
            ("right-upper-symmetric-iff-clause-b", RIGHT_UPPER_SYMMETRIC, "right-join"),
            ("left-lower-symmetric-iff-clause-c", LEFT_LOWER_SYMMETRIC, "left-meet"),
            ("left-upper-symmetric-iff-clause-d", LEFT_UPPER_SYMMETRIC, "left-join"),
        )
    ]
    notes = []
    if is_symmetric(s)[0]:
        intersections = _intersections(
            s,
            diamonds,
            (
                ("m-right", "right-meet"),
                ("m-left", "left-meet"),
                ("j-right", "right-join"),
                ("j-left", "left-join"),
            ),
        )
        records.append(
            _aggregate("symmetric-flat-intersections", True, intersections)
        )
    else:
        notes.append("not applicable: symmetric-flat-intersections (not symmetric)")
    return ConcordanceReport(
        "flat-symmetry-coset-laws", algebra, tuple(records), tuple(notes)
    )


def _pair_equalities(s, pairs, flavor, rel=None):
    """Per comparable pair and per (x, x') in X related by `rel` (every
    pair when None): whether the cosets of C through x and x' coincide."""
    fn, kind = _FAMILY_OPS[flavor]
    for pi, pair in enumerate(pairs):
        C, X = _sides(pair.upper, pair.lower, kind)
        for x, xp in product(sorted(X), repeat=2):
            if rel is None or rel.same(x, xp):
                yield (pi, x, xp), fn(s, C, x) == fn(s, C, xp)


def check_normality_laws(s: SkewLattice, algebra: str = "?") -> ConcordanceReport:
    """Normality, conormality, and the quasi-normal variants against
    their coset characterizations."""
    pairs = comparable_pairs(s)
    rrel, lrel = green_R(s), green_L(s)
    records = []
    notes = []

    normal = is_normal(s)[0]
    conormal = is_conormal(s)[0]
    records.append(
        _aggregate(
            "normal-iff-single-full-coset",
            normal,
            _pair_equalities(s, pairs, "full-meet"),
        )
    )
    records.append(
        _aggregate(
            "conormal-iff-single-full-coset",
            conormal,
            _pair_equalities(s, pairs, "full-join"),
        )
    )
    # x L x' implies A ^ x = A ^ x'; x R x' implies x ^ A = x' ^ A
    li, lw = _all(_pair_equalities(s, pairs, "left-meet", lrel))
    ri, rw = _all(_pair_equalities(s, pairs, "right-meet", rrel))
    records.append(
        Record(
            instance=("normal-iff-flat-implications",) + tuple(lw or rw or ()),
            lhs=normal,
            rhs=li and ri,
        )
    )
    # (x, x' in the upper class) x R x' implies B v x = B v x';
    # x L x' implies x v B = x' v B
    ji, _ = _all(_pair_equalities(s, pairs, "right-join", rrel))
    jj, _ = _all(_pair_equalities(s, pairs, "left-join", lrel))
    records.append(
        Record(instance=("conormal-iff-flat-implications",), lhs=conormal, rhs=ji and jj)
    )
    notes.append(
        "conormal flat implications checked as (R implies B v x fixed) and "
        "(L implies x v B fixed); the source pairs the conclusions the other "
        "way round, which fails on conormal four-element algebras"
    )

    # quasi-normality: all four pairings of identity x coset condition,
    # reported empirically (the source labeling is ambiguous)
    lqn = check_identity(s, LEFT_QUASI_NORMAL)[0]
    rqn = check_identity(s, RIGHT_QUASI_NORMAL)[0]
    records.append(
        Record(instance=("left-quasi-normal-iff-R-implies-right-coset",), lhs=lqn, rhs=ri)
    )
    records.append(
        Record(instance=("right-quasi-normal-iff-L-implies-left-coset",), lhs=rqn, rhs=li)
    )
    for name, lhs, rhs in (
        ("left-quasi-normal-vs-L-condition", lqn, li),
        ("right-quasi-normal-vs-R-condition", rqn, ri),
    ):
        notes.append(f"empirical {name}: {'agree' if lhs == rhs else 'differ'}")

    # ideal characterization of the quasi-normal identities: the principal
    # ideal y ^ S meets each L-class at most once iff right quasi-normal,
    # and S ^ y meets each R-class at most once iff left quasi-normal.
    # (The source states these with the two Green's relations exchanged,
    # which fails already at order 2.)
    mt = s.meet.entries

    def ideal_classes_trivial(ideals, rel):
        # ideals[y] lists the principal ideal of y, repeats allowed
        for y, ideal in enumerate(map(set, ideals)):
            for x in sorted(ideal):
                yield (y, x), {z for z in ideal if rel.same(x, z)} == {x}

    records.append(
        _aggregate(
            "right-quasi-normal-iff-ideal-L-trivial",
            rqn,
            ideal_classes_trivial(mt, lrel),  # rows: y ^ S
        )
    )
    records.append(
        _aggregate(
            "left-quasi-normal-iff-ideal-R-trivial",
            lqn,
            ideal_classes_trivial(zip(*mt), rrel),  # columns: S ^ y
        )
    )
    records.append(
        Record(instance=("normal-iff-both-quasi-normal",), lhs=normal, rhs=lqn and rqn)
    )
    return ConcordanceReport("normality-coset-laws", algebra, tuple(records), tuple(notes))


def _diamond_family(s, diamond, flavor):
    """Whether, on one oriented diamond, the flat/full coset equality
    against the far class is equivalent to the one against the near class
    for every pair of the designated incomparable class."""
    fn, kind = _FAMILY_OPS[flavor]
    Jc, A, B, Mc = diamond
    C, _ = _sides(Jc, Mc, kind)
    for x, xp in product(sorted(A), repeat=2):
        if (fn(s, C, x) == fn(s, C, xp)) != (fn(s, B, x) == fn(s, B, xp)):
            return False
    return True


def check_cancellation_laws(
    s: SkewLattice, algebra: str = "?"
) -> ConcordanceReport:
    """Cancellation-related coset laws: unconditional one-directional
    implications on every algebra, and hypothesis-gated equivalences on
    quasi-distributive/symmetric algebras."""
    diamonds = _oriented_diamonds(s)
    records = []
    notes = []

    def unconditional():
        for di, (Jc, A, B, Mc) in enumerate(diamonds):
            for x, xp in product(sorted(A), repeat=2):
                for flavor, (fn, kind) in _FAMILY_OPS.items():
                    C, _ = _sides(Jc, Mc, kind)
                    if fn(s, C, x) == fn(s, C, xp):
                        yield (di, flavor, x, xp), fn(s, B, x) == fn(s, B, xp)

    holds, witness = _all(unconditional())
    records.append(
        Record(
            instance=("unconditional-downward-implications",)
            + tuple(witness or ()),
            lhs=True,
            rhs=holds,
        )
    )

    qd = is_quasi_distributive(s)[0]
    sym = is_symmetric(s)[0]
    lower = is_lower_symmetric(s)[0]
    upper = is_upper_symmetric(s)[0]

    fam = lambda flavor: all(_diamond_family(s, d, flavor) for d in diamonds)

    if qd and sym:
        canc = is_cancellative(s)[0]
        records.append(
            Record(("cancellative-iff-full-join-family",), canc, fam("full-join"))
        )
        records.append(
            Record(("cancellative-iff-full-meet-family",), canc, fam("full-meet"))
        )
        records.append(
            Record(
                ("cancellative-iff-flat-join-families",),
                canc,
                fam("right-join") and fam("left-join"),
            )
        )
        records.append(
            Record(
                ("cancellative-iff-flat-meet-families",),
                canc,
                fam("right-meet") and fam("left-meet"),
            )
        )
        records.append(
            Record(
                ("cancellative-iff-both-coset-cancellative",),
                canc,
                is_left_coset_cancellative(s)[0]
                and is_right_coset_cancellative(s)[0],
            )
        )
        notes.append(
            "single-factor flat law (one coset-cancellative factor alone "
            "equivalent to one flat family) is not checked: it fails on the "
            "five-element non-cancellative witness; the conjunction form "
            "above is what holds"
        )
    else:
        notes.append(
            "not applicable: cancellative-iff-families "
            "(needs quasi-distributive and symmetric)"
        )

    if qd:
        # per diamond, the full-coset family is equivalent to the
        # conjunction of its two flat families
        def full_vs_flat():
            for di, d in enumerate(diamonds):
                for kind in ("join", "meet"):
                    yield (di, kind), _diamond_family(s, d, f"full-{kind}") == (
                        _diamond_family(s, d, f"right-{kind}")
                        and _diamond_family(s, d, f"left-{kind}")
                    )

        records.append(_aggregate("full-family-iff-flat-families", True, full_vs_flat()))
    else:
        notes.append(
            "not applicable: full-vs-flat family equivalences "
            "(needs quasi-distributive)"
        )

    if qd and lower:
        records.append(
            Record(
                ("lower-cancellative-iff-full-join-family",),
                is_simply_cancellative(s)[0],
                fam("full-join"),
            )
        )
    else:
        notes.append(
            "not applicable: lower-cancellative law "
            "(needs quasi-distributive and lower symmetric)"
        )
    if qd and upper:
        records.append(
            Record(
                ("upper-cancellative-iff-full-meet-family",),
                is_simply_cancellative(s)[0],
                fam("full-meet"),
            )
        )
    else:
        notes.append(
            "not applicable: upper-cancellative law "
            "(needs quasi-distributive and upper symmetric)"
        )
    return ConcordanceReport(
        "cancellation-coset-laws", algebra, tuple(records), tuple(notes)
    )


def check_decomposition_laws(
    s: SkewLattice, algebra: str = "?"
) -> ConcordanceReport:
    """Flat-vs-full coset correspondences, directly and through the
    fibered-product projections, over every comparable class pair."""
    records = []
    for pi, pair in enumerate(comparable_pairs(s)):
        for side in (pair.lower, pair.upper):
            for x, y in product(sorted(side), repeat=2):
                result = flat_vs_full_correspondence(s, pair, x, y)
                for clause, d in sorted(result.items()):
                    records.append(
                        Record(
                            instance=(pi, clause, x, y),
                            lhs=d["flat"],
                            rhs=d["full_and_green"],
                        )
                    )
    return ConcordanceReport(
        "decomposition-coset-laws", algebra, tuple(records)
    )


ALL_LAW_CHECKS = {
    "symmetry": check_symmetry_laws,
    "flat-symmetry": check_flat_symmetry_laws,
    "normality": check_normality_laws,
    "cancellation": check_cancellation_laws,
    "decomposition": check_decomposition_laws,
}
