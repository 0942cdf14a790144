"""Executable coset-law checks: each structural law about symmetry,
normality, cancellation, decomposition, coset structure or the centers is
evaluated on a concrete algebra by computing both sides of its equivalence
and reporting agreement.  Hypothesis-gated laws note "not applicable"
rather than silently skipping.

Every family is a table of statements, rows of (name, lhs, instances) with
one record each, built by `ConcordanceReport.from_rows`."""

from __future__ import annotations

from itertools import chain, product
from operator import getitem

from .cosets import COSET_FLAVORS, comparable_pairs, coset_map, sides
from .core import SkewLattice
from .decompose import kimura, skew_diamonds
from .greens import (
    flat_preorder_L,
    flat_preorder_R,
    green_D,
    green_L,
    green_R,
    natural_order,
    principal_ideals,
)
from .reports import ConcordanceReport, _all, _statement
from .varieties import predicate


def _diamond_maps(s, diamonds, flavor):
    """Per skew diamond (Jc, A, B, Mc) in turn: its index 2k among the
    oriented diamonds, and the flavor's maps of the far class C, of A and
    of B through the class X on its side.  The laws that read these are
    symmetric in A and B, so they read each diamond once."""
    for k, (Jc, A, B, Mc) in enumerate(diamonds):
        C, X = sides(flavor, Jc, Mc)
        yield (2 * k, *(coset_map(s, flavor, K, X) for K in (C, A, B)))


def _coset_equivalences(s, diamonds, flavor):
    """Per pair (x, x') of X: equal cosets of the far class C through x
    and x' iff equal cosets of both incomparable classes A and B."""
    for k, far, ma, mb in _diamond_maps(s, diamonds, flavor):
        for x, xp in product(far, repeat=2):
            lhs = far[x] == far[xp]
            rhs = ma[x] == ma[xp] and mb[x] == mb[xp]
            yield (k, x, xp), lhs == rhs


def _inclusions(s, diamonds, flavor):
    """Per x in X: the cosets of A and B through x meet inside the coset
    of the far class C through x."""
    for k, far, ma, mb in _diamond_maps(s, diamonds, flavor):
        for x in far:
            yield (k, x), (ma[x] & mb[x]) <= far[x]


def _intersections(s, diamonds, labelled):
    """Per x in X: the coset of the far class C through x is the
    intersection of those of A and B.  `labelled` holds (instance label,
    flavor) pairs; on each diamond the meet flavors run over every element
    of Mc before the join flavors run over Jc."""
    for row in zip(*(_diamond_maps(s, diamonds, f) for _, f in labelled)):
        for kind in ("meet", "join"):
            kinded = [(lb, *m) for (lb, f), m in zip(labelled, row) if f.endswith(kind)]
            for x in kinded[0][2]:  # every map of one kind is keyed by X
                for label, k, far, ma, mb in kinded:
                    yield (k, label, x), far[x] == (ma[x] & mb[x])


def check_symmetry_laws(s: SkewLattice, algebra: str = "?") -> ConcordanceReport:
    """Symmetry against the full-coset intersection and coset-equality
    families over all skew diamonds.  symmetric-iff-both-families ties the
    predicate to both equivalence families, the full-meet one that lower
    symmetry reads and the full-join one that upper symmetry reads."""
    diamonds = skew_diamonds(s)
    lower = predicate(s, "lower-symmetric")[0]
    upper = predicate(s, "upper-symmetric")[0]
    meets, joins = (
        tuple(_coset_equivalences(s, diamonds, f)) for f in ("full-meet", "full-join")
    )
    intersections = _intersections(
        s, diamonds, (("meet", "full-meet"), ("join", "full-join"))
    )
    rows = (
        ("symmetric-iff-intersections", lower and upper, intersections),
        (
            "lower-symmetric-iff-meet-inclusion",
            lower,
            _inclusions(s, diamonds, "full-meet"),
        ),
        (
            "upper-symmetric-iff-join-inclusion",
            upper,
            _inclusions(s, diamonds, "full-join"),
        ),
        ("lower-symmetric-iff-meet-equivalences", lower, meets),
        ("upper-symmetric-iff-join-equivalences", upper, joins),
        (
            "symmetric-iff-both-families",
            lower and upper,
            _statement(_all(chain(meets, joins))[0]),
        ),
    )
    return ConcordanceReport.from_rows("symmetry-coset-laws", algebra, rows)


def check_flat_symmetry_laws(
    s: SkewLattice, algebra: str = "?"
) -> ConcordanceReport:
    """The four flat-coset equivalence families against the four flavored
    symmetry identities, plus the intersection formulas on symmetric
    algebras."""
    diamonds = skew_diamonds(s)
    rows = [
        (
            f"{name}-iff-clause-{clause}",
            predicate(s, name)[0],
            _coset_equivalences(s, diamonds, flavor),
        )
        for name, clause, flavor in (
            ("right-lower-symmetric", "a", "right-meet"),
            ("right-upper-symmetric", "b", "right-join"),
            ("left-lower-symmetric", "c", "left-meet"),
            ("left-upper-symmetric", "d", "left-join"),
        )
    ]
    notes = []
    if predicate(s, "symmetric")[0]:
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
        rows.append(("symmetric-flat-intersections", True, intersections))
    else:
        notes.append("not applicable: symmetric-flat-intersections (not symmetric)")
    return ConcordanceReport.from_rows("flat-symmetry-coset-laws", algebra, rows, notes)


def _pair_equalities(s, pairs, flavor, rel=None):
    """Per comparable pair and per (x, x') in X related by `rel` (every
    pair when None): whether the cosets of C through x and x' coincide."""
    for pi, pair in enumerate(pairs):
        C, X = sides(flavor, pair.upper, pair.lower)
        cosets = coset_map(s, flavor, C, X)
        for x, xp in product(sorted(X), repeat=2):
            if rel is None or rel.same(x, xp):
                yield (pi, x, xp), cosets[x] == cosets[xp]


def check_normality_laws(s: SkewLattice, algebra: str = "?") -> ConcordanceReport:
    """Normality, conormality, and the quasi-normal variants against
    their coset characterizations."""
    pairs = comparable_pairs(s)
    rrel, lrel = green_R(s), green_L(s)
    normal, conormal, lqn, rqn = (
        predicate(s, name)[0]
        for name in ("normal", "conormal", "left-quasi-normal", "right-quasi-normal")
    )
    # x L x' implies A ^ x = A ^ x'; x R x' implies x ^ A = x' ^ A
    left_meets = tuple(_pair_equalities(s, pairs, "left-meet", lrel))
    right_meets = tuple(_pair_equalities(s, pairs, "right-meet", rrel))
    li, ri = _all(left_meets)[0], _all(right_meets)[0]
    # (x, x' in the upper class) x R x' implies B v x = B v x';
    # x L x' implies x v B = x' v B
    joins = chain(
        _pair_equalities(s, pairs, "right-join", rrel),
        _pair_equalities(s, pairs, "left-join", lrel),
    )
    # ideal characterization of the quasi-normal identities: the principal
    # ideal y ^ S meets each L-class at most once iff right quasi-normal,
    # and S ^ y meets each R-class at most once iff left quasi-normal.
    # (The source states these with the two Green's relations exchanged,
    # which fails already at order 2.)
    ideals = [principal_ideals(s, y) for y in range(s.n)]
    rows = (
        (
            "normal-iff-single-full-coset",
            normal,
            _pair_equalities(s, pairs, "full-meet"),
        ),
        (
            "conormal-iff-single-full-coset",
            conormal,
            _pair_equalities(s, pairs, "full-join"),
        ),
        ("normal-iff-flat-implications", normal, chain(left_meets, right_meets)),
        ("conormal-iff-flat-implications", conormal, joins),
        # quasi-normality: all four pairings of identity x coset condition,
        # reported empirically (the source labeling is ambiguous)
        ("left-quasi-normal-iff-R-implies-right-coset", lqn, _statement(ri)),
        ("right-quasi-normal-iff-L-implies-left-coset", rqn, _statement(li)),
        (
            "right-quasi-normal-iff-ideal-L-trivial",
            rqn,
            (
                ((y, x), {z for z in down if lrel.same(x, z)} == {x})
                for y, (down, _) in enumerate(ideals)  # y ^ S
                for x in sorted(down)
            ),
        ),
        (
            "left-quasi-normal-iff-ideal-R-trivial",
            lqn,
            (
                ((y, x), {z for z in left if rrel.same(x, z)} == {x})
                for y, (_, left) in enumerate(ideals)  # S ^ y
                for x in sorted(left)
            ),
        ),
        ("normal-iff-both-quasi-normal", normal, _statement(lqn and rqn)),
    )
    notes = (
        "conormal flat implications checked as (R implies B v x fixed) and "
        "(L implies x v B fixed); the source pairs the conclusions the other "
        "way round, which fails on conormal four-element algebras",
        *(
            f"empirical {name}: {'agree' if lhs == rhs else 'differ'}"
            for name, lhs, rhs in (
                ("left-quasi-normal-vs-L-condition", lqn, li),
                ("right-quasi-normal-vs-R-condition", rqn, ri),
            )
        ),
    )
    return ConcordanceReport.from_rows("normality-coset-laws", algebra, rows, notes)


def _cancellation_maps(s):
    """The coset maps that the cancellation laws read, per oriented skew
    diamond: index 2k is (A, B) of the k-th skew diamond (Jc, A, B, Mc),
    and 2k + 1 is (B, A).  Each entry holds the designated class A,
    ascending, and per flavor, in COSET_FLAVORS order, the flavor with its
    maps through A of the far class C on its side and of the near class
    B."""
    table = []
    for Jc, A, B, Mc in skew_diamonds(s):
        for des, near in ((A, B), (B, A)):
            maps = tuple(
                (f, *(coset_map(s, f, K, des) for K in (sides(f, Jc, Mc)[0], near)))
                for f in COSET_FLAVORS
            )
            table.append((sorted(des), maps))
    return table


def _equivalence_families(table):
    """Per flavor, and per entry of a `_cancellation_maps` table in turn:
    whether any two elements of A share a far coset exactly when they
    share a near one."""
    families = {f: [] for f in COSET_FLAVORS}
    for A, maps in table:
        for f, far, near in maps:
            families[f].append(all(
                (far[x] == far[xp]) == (near[x] == near[xp])
                for x, xp in product(A, repeat=2)
            ))
    return families


def check_cancellation_laws(
    s: SkewLattice, algebra: str = "?"
) -> ConcordanceReport:
    """Cancellation-related coset laws: unconditional one-directional
    implications on every algebra, and hypothesis-gated equivalences on
    quasi-distributive/symmetric algebras.  Both read one table of coset
    maps, `_cancellation_maps`."""
    table = _cancellation_maps(s)
    # per flavor: equal far cosets imply equal near cosets
    downward = (
        ((di, f, x, xp), near[x] == near[xp])
        for di, (A, maps) in enumerate(table)
        for x, xp in product(A, repeat=2)
        for f, far, near in maps
        if far[x] == far[xp]
    )
    rows = [("unconditional-downward-implications", True, downward)]
    notes = []

    qd = predicate(s, "quasi-distributive")[0]
    lower = predicate(s, "lower-symmetric")[0]
    upper = predicate(s, "upper-symmetric")[0]
    # every law that reads the families needs quasi-distributivity
    families = _equivalence_families(table) if qd else {}
    holds = {f: all(each) for f, each in families.items()}

    if qd and lower and upper:
        canc = predicate(s, "cancellative")[0]
        coset_canc = (
            predicate(s, "left-coset-cancellative")[0]
            and predicate(s, "right-coset-cancellative")[0]
        )
        rows += [
            ("cancellative-iff-full-join-family", canc, _statement(holds["full-join"])),
            ("cancellative-iff-full-meet-family", canc, _statement(holds["full-meet"])),
            (
                "cancellative-iff-flat-join-families",
                canc,
                _statement(holds["right-join"] and holds["left-join"]),
            ),
            (
                "cancellative-iff-flat-meet-families",
                canc,
                _statement(holds["right-meet"] and holds["left-meet"]),
            ),
            ("cancellative-iff-both-coset-cancellative", canc, _statement(coset_canc)),
        ]
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
        full_vs_flat = (
            (
                (di, kind),
                families[f"full-{kind}"][di]
                == (families[f"right-{kind}"][di] and families[f"left-{kind}"][di]),
            )
            for di in range(len(table))
            for kind in ("join", "meet")
        )
        rows.append(("full-family-iff-flat-families", True, full_vs_flat))
    else:
        notes.append(
            "not applicable: full-vs-flat family equivalences "
            "(needs quasi-distributive)"
        )

    for bound, symmetric, flavor in (
        ("lower", lower, "full-join"),
        ("upper", upper, "full-meet"),
    ):
        if qd and symmetric:
            rows.append((
                f"{bound}-cancellative-iff-{flavor}-family",
                predicate(s, f"{bound}-cancellative")[0],
                _statement(holds[flavor]),
            ))
        else:
            notes.append(
                f"not applicable: {bound}-cancellative law "
                f"(needs quasi-distributive and {bound} symmetric)"
            )
    return ConcordanceReport.from_rows("cancellation-coset-laws", algebra, rows, notes)


def _factor_map(factor, flavor, C, X):
    """coset_map in the quotient algebra of a Kimura factor, on the
    classes of C and of X."""
    cls = factor.class_of
    return coset_map(
        factor.quotient, flavor, {cls[e] for e in C}, {cls[e] for e in X}
    )


def check_decomposition_laws(
    s: SkewLattice, algebra: str = "?"
) -> ConcordanceReport:
    """Flat-vs-full coset correspondences over every comparable class pair,
    for each pair (x, y) of one of its classes X: meet cosets of the upper
    class when X is the lower one, join cosets of the lower class when X
    is the upper one.  Each flat equality is checked against the full one
    with the Green's relation, and each coset equality against its
    factor-wise form through the fibered decomposition S/R x_{S/D} S/L.
    One record per clause and kind, whose instances (pair index, x, y) hold
    when the two sides agree."""
    dec = kimura(s)
    xl, xr = dec.left_factor.class_of, dec.right_factor.class_of
    rrel, lrel = green_R(s), green_L(s)
    checks = {name: [] for name in (
        "factor-full-meet", "factor-left-meet", "factor-right-meet",
        "factor-full-join", "factor-left-join", "factor-right-join",
        "left-meet", "right-meet", "left-join", "right-join",
    )}
    for pi, pair in enumerate(comparable_pairs(s)):
        for kind in ("meet", "join"):
            C, X = sides(kind, pair.upper, pair.lower)
            full, right, left = (
                coset_map(s, f"{side}-{kind}", C, X)
                for side in ("full", "right", "left")
            )
            lfull, lleft = (
                _factor_map(dec.left_factor, f"{side}-{kind}", C, X)
                for side in ("full", "left")
            )
            rfull, rright = (
                _factor_map(dec.right_factor, f"{side}-{kind}", C, X)
                for side in ("full", "right")
            )
            for x, y in product(sorted(X), repeat=2):
                lx, ly, rx, ry = xl[x], xl[y], xr[x], xr[y]
                same_full, same_right, same_left = (
                    m[x] == m[y] for m in (full, right, left)
                )
                for clause, lhs, rhs in (
                    ("factor-full",
                     lfull[lx] == lfull[ly] and rfull[rx] == rfull[ry],
                     same_full),
                    ("factor-left", rx == ry and lleft[lx] == lleft[ly], same_left),
                    ("factor-right", lx == ly and rright[rx] == rright[ry], same_right),
                    ("left", same_left, same_full and lrel.same(x, y)),
                    ("right", same_right, same_full and rrel.same(x, y)),
                ):
                    checks[f"{clause}-{kind}"].append(((pi, x, y), lhs == rhs))
    rows = ((name, True, found) for name, found in checks.items())
    return ConcordanceReport.from_rows("decomposition-coset-laws", algebra, rows)


# --- the coset theorems ---------------------------------------------------
# J. Leech, "The geometric structure of skew lattices", Trans. AMS 335
# (1993): the cosets between comparable D-classes, their bijections, image
# sets, intersections and linking elements, and the decomposition of each
# full coset as the product of its flat ones.  N. Kimura, "The structure of
# idempotent semigroups I", Pacific J. Math. 8 (1958): the diagram that
# fibers the full coset bijection over the flat ones.


_COSET_THEOREMS = (
    "delta-bijective-onto-flat-product",
    "delta-rectangular-homomorphism",
    "coset-bijections-onto",
    "coset-bijections-order-pairing",
    "flat-coset-bijections-inverses",
    "coset-bijections-homomorphisms",
    "image-set-is-order-description",
    "image-set-is-transversal",
    "flat-coset-intersections",
    "linking-elements",
    "kimura-diagram",
)


def _side_theorems(checks, s, pi, pair, kind):
    """The theorems of one kind of a comparable pair, read through the
    duality that swaps meet and join: `op` is the kind's table and `co` the
    other one, and, writing x.y for op, `full`, `xC` and `Cx` map each x in
    X to C.x.C, x.C and C.x.  For meet, x.C is the right coset x ^ C; for
    join, it is the left coset x v C."""
    op, co = (s.meet, s.join) if kind == "meet" else (s.join, s.meet)
    C, X = sides(kind, pair.upper, pair.lower)
    flats = ("right", "left") if kind == "meet" else ("left", "right")
    full, xC, Cx = (coset_map(s, f"{f}-{kind}", C, X) for f in ("full", *flats))
    order, side = natural_order(s), (pi, kind)
    for x, dom in full.items():
        # delta_x, z -> (z.x, x.z): a bijection onto C.x times x.C, and a
        # homomorphism onto that rectangular product
        delta = {z: (op[z][x], op[x][z]) for z in sorted(dom)}
        image = set(delta.values())
        checks["delta-bijective-onto-flat-product"].append((
            side + (x,),
            image == set(product(Cx[x], xC[x])) and len(image) == len(delta),
        ))
        for (z, (u, t)), (w, (u2, t2)) in product(delta.items(), repeat=2):
            checks["delta-rectangular-homomorphism"].append((
                side + (x, z, w),
                delta.get(op[z][w]) == (u, t2) and delta.get(co[z][w]) == (u2, t),
            ))
    # the image set c.X.c is X below c (meet) or above c (join), and meets
    # each full coset once
    blocks = set(full.values())
    for c in sorted(C):
        image = frozenset(op[op[c][x]][c] for x in X)
        if kind == "meet":
            described = X & order[c]
        else:
            described = frozenset(x for x in X if c in order[x])
        checks["image-set-is-order-description"].append(
            (side + (c,), image == described)
        )
        checks["image-set-is-transversal"].append(
            (side + (c,), all(len(image & block) == 1 for block in blocks))
        )
    for x, y in product(full, repeat=2):
        same = full[x] == full[y]
        # x.C meets C.y in {x.y} when x and y share a full coset, else nowhere
        checks["flat-coset-intersections"].append(
            (side + (x, y), xC[x] & Cx[y] == ({op[x][y]} if same else set()))
        )
        if same:  # b = x.y and c = y.x link the flat cosets of x and y
            b, c = op[x][y], op[y][x]
            checks["linking-elements"].append((
                side + (x, y),
                (Cx[b], xC[b], xC[c], Cx[c]) == (Cx[y], xC[x], xC[y], Cx[x]),
            ))


def _bijection_theorems(checks, s, pi, pair):
    """The coset bijections of a comparable pair A > B: for each side full,
    right and left and each (a, b), x -> x ^ b ^ x, b ^ x or x ^ b from the
    join coset of B through a onto the meet coset of A through b.  The map
    depends on a only through that domain, so the checks that do not read
    a run once per (domain, b), at its least a."""
    A, B, mt, jt = pair.upper, pair.lower, s.meet, s.join
    order, pl, pr = natural_order(s), flat_preorder_L(s), flat_preorder_R(s)
    for side in ("full", "right", "left"):
        doms = coset_map(s, f"{side}-join", B, A)
        cods = coset_map(s, f"{side}-meet", A, B)
        built = {}
        for a, b in product(doms, cods):
            inst, key = (pi, side, a, b), (doms[a], b)
            if key not in built:
                fwd = built[key] = {
                    x: mt[mt[x][b]][x] if side == "full"
                    else mt[b][x] if side == "right" else mt[x][b]
                    for x in sorted(doms[a])
                }
                image = set(fwd.values())
                checks["coset-bijections-onto"].append(
                    (inst, image == cods[b] and len(image) == len(fwd))
                )
                # y <= x in the natural order (full), <=_L (right), <=_R (left)
                for x, y in fwd.items():
                    checks["coset-bijections-order-pairing"].append((
                        inst + (x,),
                        y in order[x] if side == "full"
                        else x in (pl if side == "right" else pr)[y],
                    ))
                for (x, fx), (y, fy) in product(fwd.items(), repeat=2):
                    checks["coset-bijections-homomorphisms"].append((
                        inst + (x, y),
                        fwd.get(mt[x][y]) == mt[fx][fy]
                        and fwd.get(jt[x][y]) == jt[fx][fy],
                    ))
            fwd = built[key]
            for x, y in fwd.items():
                if side == "full":
                    # the flat maps commute with the full bijection
                    checks["kimura-diagram"].append((
                        (pi, a, b, x),
                        (mt[jt[a][x]][b], mt[b][jt[x][a]]) == (mt[x][b], mt[b][x]),
                    ))
                else:  # undone by y -> y v a (right) or a v y (left)
                    checks["flat-coset-bijections-inverses"].append(
                        (inst + (x,), (jt[y][a] if side == "right" else jt[a][y]) == x)
                    )


def check_coset_structure_laws(
    s: SkewLattice, algebra: str = "?"
) -> ConcordanceReport:
    """The coset theorems (Leech 1993; Kimura 1958, for the diagram) over
    every comparable pair, one record each.  Every theorem holds on every
    skew lattice, so a record's lhs is True; its rhs is whether each
    instance's value, read off the definition, equals the theorem's
    description.  The witness is the least failing instance: pairs in
    `comparable_pairs` order, then the meet side before the join side, or
    the full, right and left bijections in turn, then elements ascending.
    Every coset is looked up in the coset store, under keys that the
    decomposition family reads too."""
    checks = {name: [] for name in _COSET_THEOREMS}
    for pi, pair in enumerate(comparable_pairs(s)):
        for kind in ("meet", "join"):
            _side_theorems(checks, s, pi, pair, kind)
        _bijection_theorems(checks, s, pi, pair)
    rows = ((name, True, found) for name, found in checks.items())
    return ConcordanceReport.from_rows("coset-structure-laws", algebra, rows)


# --- the centers ----------------------------------------------------------


def check_center_laws(s: SkewLattice, algebra: str = "?") -> ConcordanceReport:
    """The characterizations of the centers, one record each with one
    instance per element a, so the witness is the least failing a.

    a's R-class is {a} iff, for every b, (ii) b v a = a v b v a,
    (iii) a v b = b v a v b, (iv) a ^ b = a ^ b ^ a and
    (v) b ^ a = b ^ a ^ b.  a's L-class is {a} iff, for every b,
    (vii) a v b = a v b v a, (viii) b v a = b v a v b,
    (ix) a ^ b = b ^ a ^ b and (x) b ^ a = a ^ b ^ a.  a's D-class is {a}
    iff its R-class and its L-class are, and iff a ^ y = y ^ a and
    a v y = y v a for every y.

    Proof of the last.  If a commutes with everything and y D a, then
    a = a ^ y ^ a = a ^ y = y ^ a ^ y = y.  Conversely, let a's D-class
    be {a}.  a ^ y lies in the class [a] ^ [y] of S/D, and so does y ^ a.
    If that class is [a], both products are a.  Otherwise it is a class B
    below {a}.  The full meet coset of {a} through each x in B is
    {a ^ x ^ a}, and these cosets partition B (J. Leech, "The geometric
    structure of skew lattices", Trans. AMS 335, 1993; `flat_cosets`
    checks this).  So x -> a ^ x ^ a is an idempotent map of B onto B,
    which makes it the identity.  Every x in B therefore lies below a, and
    a ^ y = a ^ y ^ a = y ^ a.  The proof for v is dual.

    Each characterization is read a row at a time over b, from the rows
    and columns of the tables."""
    mt, jt = s.meet, s.join
    mcol, jcol = tuple(zip(*mt)), tuple(zip(*jt))
    r, l, d = (
        [len(rel.block_containing(a)) == 1 for a in range(s.n)]
        for rel in (green_R(s), green_L(s), green_D(s))
    )
    checks = {}
    for a in range(s.n):
        # over every b: a ^ b, b ^ a, a v b and b v a; then a ^ b ^ a,
        # a v b v a, b ^ a ^ b and b v a v b
        am, ma, aj, ja = mt[a], mcol[a], jt[a], jcol[a]
        ama, aja = tuple(map(ma.__getitem__, am)), tuple(map(ja.__getitem__, aj))
        mam, jaj = tuple(map(getitem, mcol, ma)), tuple(map(getitem, jcol, ja))
        for name, central, holds in (
            ("right-center-ii", r[a], ja == aja),
            ("right-center-iii", r[a], aj == jaj),
            ("right-center-iv", r[a], am == ama),
            ("right-center-v", r[a], ma == mam),
            ("left-center-vii", l[a], aj == aja),
            ("left-center-viii", l[a], ja == jaj),
            ("left-center-ix", l[a], am == mam),
            ("left-center-x", l[a], ma == ama),
            ("center-is-both-one-sided-centers", d[a], r[a] and l[a]),
            ("center-commutes", d[a], am == ma and aj == ja),
        ):
            checks.setdefault(name, []).append(((a,), central == holds))
    rows = ((name, True, found) for name, found in checks.items())
    return ConcordanceReport.from_rows("center-laws", algebra, rows)


ALL_LAW_CHECKS = {
    "symmetry": check_symmetry_laws,
    "flat-symmetry": check_flat_symmetry_laws,
    "normality": check_normality_laws,
    "cancellation": check_cancellation_laws,
    "decomposition": check_decomposition_laws,
    "coset-structure": check_coset_structure_laws,
    "center": check_center_laws,
}
