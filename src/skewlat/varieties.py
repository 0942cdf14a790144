"""Term evaluation, identity checking, and the named predicate battery.

Every predicate returns ``(holds, witness)`` where the witness is the
lexicographically least violating assignment (None when the predicate
holds, or when it is not identity-shaped).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

from .core import SkewLattice
from .errors import (
    ArityMismatch,
    ArityTooLarge,
    ElementOutOfRange,
    InternalInconsistency,
)
from .decompose import kimura
from .greens import green_D, green_L, green_R

ARITY_CAP = 4

# --- terms ----------------------------------------------------------------

MEET = "meet"
JOIN = "join"


@dataclass(frozen=True)
class Term:
    """A tree over variables and the two operations.

    ``op`` is None for a variable (with ``var`` set), or MEET/JOIN with
    ``left`` and ``right`` subterms.
    """

    op: str | None
    var: int | None = None
    left: "Term | None" = None
    right: "Term | None" = None

    def max_var(self):
        if self.op is None:
            return self.var
        return max(self.left.max_var(), self.right.max_var())

    def __str__(self):
        if self.op is None:
            return "xyzw"[self.var] if self.var < 4 else f"x{self.var}"
        sym = "^" if self.op == MEET else "v"
        return f"({self.left}{sym}{self.right})"


def V(i):
    return Term(None, var=i)


def M(a, b, *rest):
    t = Term(MEET, left=a, right=b)
    for r in rest:
        t = Term(MEET, left=t, right=r)
    return t


def J(a, b, *rest):
    t = Term(JOIN, left=a, right=b)
    for r in rest:
        t = Term(JOIN, left=t, right=r)
    return t


@dataclass(frozen=True)
class Identity:
    arity: int
    lhs: Term
    rhs: Term
    name: str

    def __post_init__(self):
        used = max(self.lhs.max_var(), self.rhs.max_var())
        if used >= self.arity:
            raise ArityMismatch(
                f"{self.name}: variable x{used} exceeds arity {self.arity}"
            )


def eval_term(s: SkewLattice, t: Term, assignment) -> int:
    if t.op is None:
        if t.var >= len(assignment):
            raise ArityMismatch(
                f"term uses x{t.var}, assignment has {len(assignment)} values"
            )
        return assignment[t.var]
    a = eval_term(s, t.left, assignment)
    b = eval_term(s, t.right, assignment)
    table = s.meet.entries if t.op == MEET else s.join.entries
    return table[a][b]


def check_identity(s: SkewLattice, ident: Identity):
    """Exhaustive check; returns (holds, first counterexample or None)."""
    if ident.arity > ARITY_CAP:
        raise ArityTooLarge(f"arity {ident.arity} exceeds cap {ARITY_CAP}")
    for assignment in product(range(s.n), repeat=ident.arity):
        if eval_term(s, ident.lhs, assignment) != eval_term(
            s, ident.rhs, assignment
        ):
            return False, assignment
    return True, None


# --- identity definitions -------------------------------------------------

x, y, z, w = V(0), V(1), V(2), V(3)

RECTANGULAR = Identity(2, M(x, y), J(y, x), "rectangular")
NORMAL = Identity(4, M(x, y, z, w), M(x, z, y, w), "normal")
CONORMAL = Identity(4, J(x, y, z, w), J(x, z, y, w), "conormal")
LEFT_NORMAL = Identity(3, M(x, y, z), M(x, z, y), "left-normal")
RIGHT_NORMAL = Identity(3, M(y, z, x), M(z, y, x), "right-normal")
# y^x^a = y^a^x^a and a^x^y = a^x^a^y, with a as the third variable.
RIGHT_QUASI_NORMAL = Identity(3, M(y, x, z), M(y, z, x, z), "right-quasi-normal")
LEFT_QUASI_NORMAL = Identity(3, M(z, x, y), M(z, x, z, y), "left-quasi-normal")
RIGHT_QUASI_CONORMAL = Identity(
    3, J(y, x, z), J(y, z, x, z), "right-quasi-conormal"
)
LEFT_QUASI_CONORMAL = Identity(
    3, J(z, x, y), J(z, x, z, y), "left-quasi-conormal"
)

# Flavored symmetry, primary axiomatization.
RIGHT_UPPER_SYMMETRIC = Identity(
    2, J(x, y, x), J(M(y, x), y, x), "right-upper-symmetric"
)
LEFT_UPPER_SYMMETRIC = Identity(
    2, J(x, y, x), J(x, y, M(x, y)), "left-upper-symmetric"
)
RIGHT_LOWER_SYMMETRIC = Identity(
    2, M(x, y, x), M(x, y, J(x, y)), "right-lower-symmetric"
)
LEFT_LOWER_SYMMETRIC = Identity(
    2, M(x, y, x), M(J(y, x), y, x), "left-lower-symmetric"
)

# Alternative (published) axiomatization of the same four classes.
RIGHT_UPPER_SYMMETRIC_ALT = Identity(
    2, J(x, y, x), J(M(x, y, x), y, x), "right-upper-symmetric-alt"
)
LEFT_UPPER_SYMMETRIC_ALT = Identity(
    2, J(x, y, x), J(x, y, M(x, y, x)), "left-upper-symmetric-alt"
)
RIGHT_LOWER_SYMMETRIC_ALT = Identity(
    2, M(x, y, x), M(x, y, J(x, y, x)), "right-lower-symmetric-alt"
)
LEFT_LOWER_SYMMETRIC_ALT = Identity(
    2, M(x, y, x), M(J(x, y, x), y, x), "left-lower-symmetric-alt"
)

FLAVORED_SYMMETRY_PAIRS = (
    (RIGHT_UPPER_SYMMETRIC, RIGHT_UPPER_SYMMETRIC_ALT),
    (LEFT_UPPER_SYMMETRIC, LEFT_UPPER_SYMMETRIC_ALT),
    (RIGHT_LOWER_SYMMETRIC, RIGHT_LOWER_SYMMETRIC_ALT),
    (LEFT_LOWER_SYMMETRIC, LEFT_LOWER_SYMMETRIC_ALT),
)


# --- predicates -----------------------------------------------------------

def _identity_predicate(ident):
    def pred(s):
        return check_identity(s, ident)

    return pred


def is_rectangular(s):
    return check_identity(s, RECTANGULAR)


def _handed(s, rel):
    """rel = D; witness is the least pair D-related but not rel-related."""
    d = green_D(s)
    for a in range(s.n):
        for b in range(a + 1, s.n):
            if d.same(a, b) and not rel.same(a, b):
                return False, (a, b)
    return True, None


def is_right_handed(s):
    """R = D."""
    return _handed(s, green_R(s))


def is_left_handed(s):
    """L = D."""
    return _handed(s, green_L(s))


def _commutation_implies(t, u):
    """Every pair that commutes in table t commutes in table u; the
    witness is the least pair (a, b) that does not."""
    for a in range(len(t)):
        for b in range(len(t)):
            if t[a][b] == t[b][a] and u[a][b] != u[b][a]:
                return False, (a, b)
    return True, None


def is_upper_symmetric(s):
    """x^y = y^x implies xvy = yvx, checked over all pairs."""
    return _commutation_implies(s.meet.entries, s.join.entries)


def is_lower_symmetric(s):
    """xvy = yvx implies x^y = y^x, checked over all pairs."""
    return _commutation_implies(s.join.entries, s.meet.entries)


def is_symmetric(s):
    ok, w = is_upper_symmetric(s)
    if not ok:
        return ok, w
    return is_lower_symmetric(s)


def _cancellative(s, left, right):
    """Least (a, b, c) with a != b that c fails to tell apart: on the left,
    cva=cvb & c^a=c^b; on the right, avc=bvc & a^c=b^c."""
    mt, jt = s.meet.entries, s.join.entries
    for a in range(s.n):
        for b in range(s.n):
            if a == b:
                continue
            for c in range(s.n):
                if left and jt[c][a] == jt[c][b] and mt[c][a] == mt[c][b]:
                    return False, (a, b, c)
                if right and jt[a][c] == jt[b][c] and mt[a][c] == mt[b][c]:
                    return False, (a, b, c)
    return True, None


def is_cancellative(s):
    """zvx=zvy & z^x=z^y force x=y, and the mirrored version."""
    return _cancellative(s, left=True, right=True)


def is_right_cancellative(s):
    return _cancellative(s, left=False, right=True)


def is_left_cancellative(s):
    return _cancellative(s, left=True, right=False)


def is_simply_cancellative(s):
    for a in range(s.n):
        for b in range(s.n):
            if a == b:
                continue
            for c in range(s.n):
                if s.j(a, c, a) == s.j(b, c, b) and s.m(a, c, a) == s.m(b, c, b):
                    return False, (a, b, c)
    return True, None


def is_quasi_distributive(s):
    """S/D is a distributive lattice: no M3 or N5 five-element sublattice.

    Distributivity is decided on the quotient order by an exhaustive scan
    over 5-subsets; witness is the offending subset of S/D classes.
    """
    t = kimura(s).base.quotient
    k = t.n
    if k < 5:
        return True, None
    for sub in combinations(range(k), 5):
        idx = {e: i for i, e in enumerate(sub)}
        # closed under meet and join?
        closed = all(
            t.meet[a][b] in idx and t.join[a][b] in idx
            for a in sub
            for b in sub
        )
        if not closed:
            continue
        mtab = [[idx[t.meet[a][b]] for b in sub] for a in sub]
        jtab = [[idx[t.join[a][b]] for b in sub] for a in sub]
        for a in range(5):
            for b in range(5):
                for c in range(5):
                    if mtab[a][jtab[b][c]] != jtab[mtab[a][b]][mtab[a][c]]:
                        return False, sub
    return True, None


def is_left_coset_cancellative(s):
    """S/R is cancellative."""
    return is_cancellative(kimura(s).left_factor.quotient)


def is_right_coset_cancellative(s):
    """S/L is cancellative."""
    return is_cancellative(kimura(s).right_factor.quotient)


def is_upper_cancellative(s):
    ok, w = is_upper_symmetric(s)
    if not ok:
        return ok, w
    return is_simply_cancellative(s)


def is_lower_cancellative(s):
    ok, w = is_lower_symmetric(s)
    if not ok:
        return ok, w
    return is_simply_cancellative(s)


is_normal = _identity_predicate(NORMAL)
is_conormal = _identity_predicate(CONORMAL)
is_left_normal = _identity_predicate(LEFT_NORMAL)
is_right_normal = _identity_predicate(RIGHT_NORMAL)
is_right_quasi_normal = _identity_predicate(RIGHT_QUASI_NORMAL)
is_left_quasi_normal = _identity_predicate(LEFT_QUASI_NORMAL)
is_right_quasi_conormal = _identity_predicate(RIGHT_QUASI_CONORMAL)
is_left_quasi_conormal = _identity_predicate(LEFT_QUASI_CONORMAL)
is_right_upper_symmetric = _identity_predicate(RIGHT_UPPER_SYMMETRIC)
is_left_upper_symmetric = _identity_predicate(LEFT_UPPER_SYMMETRIC)
is_right_lower_symmetric = _identity_predicate(RIGHT_LOWER_SYMMETRIC)
is_left_lower_symmetric = _identity_predicate(LEFT_LOWER_SYMMETRIC)


PREDICATES = {
    "rectangular": is_rectangular,
    "right-handed": is_right_handed,
    "left-handed": is_left_handed,
    "symmetric": is_symmetric,
    "upper-symmetric": is_upper_symmetric,
    "lower-symmetric": is_lower_symmetric,
    "right-upper-symmetric": is_right_upper_symmetric,
    "left-upper-symmetric": is_left_upper_symmetric,
    "right-lower-symmetric": is_right_lower_symmetric,
    "left-lower-symmetric": is_left_lower_symmetric,
    "normal": is_normal,
    "conormal": is_conormal,
    "left-normal": is_left_normal,
    "right-normal": is_right_normal,
    "right-quasi-normal": is_right_quasi_normal,
    "left-quasi-normal": is_left_quasi_normal,
    "right-quasi-conormal": is_right_quasi_conormal,
    "left-quasi-conormal": is_left_quasi_conormal,
    "cancellative": is_cancellative,
    "left-cancellative": is_left_cancellative,
    "right-cancellative": is_right_cancellative,
    "simply-cancellative": is_simply_cancellative,
    "quasi-distributive": is_quasi_distributive,
    "left-coset-cancellative": is_left_coset_cancellative,
    "right-coset-cancellative": is_right_coset_cancellative,
    "upper-cancellative": is_upper_cancellative,
    "lower-cancellative": is_lower_cancellative,
}


@dataclass
class ClassificationReport:
    results: dict  # name -> (holds, witness)

    def to_dict(self):
        return {
            name: {
                "holds": holds,
                "witness": list(w) if w is not None else None,
            }
            for name, (holds, w) in self.results.items()
        }


def classify(s: SkewLattice, names=None) -> ClassificationReport:
    chosen = names if names is not None else list(PREDICATES)
    results = {}
    for name in chosen:
        if name not in PREDICATES:
            raise KeyError(f"unknown predicate {name!r}")
        results[name] = PREDICATES[name](s)
    return ClassificationReport(results)


# --- centers and commutation ----------------------------------------------

def _one_sided_center(s, rel, side, first, characterizations):
    """Elements with a singleton `rel`-class.  Each characterization
    (a, b) -> bool, quantified over every b, must agree with that; the
    i-th one is reported as number `first + i` when it does not."""
    rng = range(s.n)
    out = set()
    for a in rng:
        central = rel.block_mask_of(a).bit_count() == 1
        for i, law in enumerate(characterizations):
            if all(law(a, b) for b in rng) != central:
                raise InternalInconsistency(
                    f"{side}-center characterization {i + first} disagrees at a={a}"
                )
        if central:
            out.add(a)
    return frozenset(out)


def right_center(s: SkewLattice) -> frozenset:
    """Elements with a singleton R-class; the characterizations (ii)-(v)
    of right-centrality are verified along the way."""
    return _one_sided_center(
        s,
        green_R(s),
        "right",
        2,
        (
            lambda a, b: s.j(b, a) == s.j(a, b, a),
            lambda a, b: s.j(a, b) == s.j(b, a, b),
            lambda a, b: s.m(a, b) == s.m(a, b, a),
            lambda a, b: s.m(b, a) == s.m(b, a, b),
        ),
    )


def left_center(s: SkewLattice) -> frozenset:
    """Elements with a singleton L-class; the characterizations (vii)-(x)
    of left-centrality are verified along the way."""
    return _one_sided_center(
        s,
        green_L(s),
        "left",
        7,
        (
            lambda a, b: s.j(a, b) == s.j(a, b, a),
            lambda a, b: s.j(b, a) == s.j(b, a, b),
            lambda a, b: s.m(a, b) == s.m(b, a, b),
            lambda a, b: s.m(b, a) == s.m(a, b, a),
        ),
    )


def center(s: SkewLattice) -> frozenset:
    d = green_D(s)
    z = frozenset(
        a for a in range(s.n) if d.block_mask_of(a).bit_count() == 1
    )
    if z != right_center(s) & left_center(s):
        raise InternalInconsistency("Z != Z_L intersect Z_R")
    return z


def commutation_classes(s: SkewLattice, a: int, b: int):
    """Six commutation flags for the pair (a, b)."""
    if not (0 <= a < s.n and 0 <= b < s.n):
        raise ElementOutOfRange((a, b))
    return {
        "meet_commute": s.m(a, b) == s.m(b, a),
        "join_commute": s.j(a, b) == s.j(b, a),
        "right_meet": s.m(a, b) == s.m(a, b, a),
        "right_join": s.j(a, b) == s.j(b, a, b),
        "left_meet": s.m(a, b) == s.m(b, a, b),
        "left_join": s.j(a, b) == s.j(a, b, a),
    }
