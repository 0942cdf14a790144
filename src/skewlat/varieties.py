"""Term evaluation, identity checking, and the named predicate battery.

Every predicate returns ``(holds, witness)`` where the witness is the
lexicographically least violating assignment (None when the predicate
holds, or when it is not identity-shaped).

An identity is checked by one loop over ``itertools.product(range(n),
repeat=top)``, where x_top is the highest variable either side reads.  Its
two sides are compiled once, per ``Identity`` object, into a plan that
lists each distinct subterm once, operands first.  For each prefix
x_0..x_{top-1}, the subterms that do not read x_top are formed one table
lookup each; the subterms that read it are formed a row at a time over all
its values, and the first index where the two sides' rows differ completes
the witness.  :func:`eval_term` evaluates a term at a single assignment; it
is the reference the check is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from operator import eq, getitem

from .core import SkewLattice, _cached
from .errors import ArityMismatch, ArityTooLarge
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
    """The value of ``t`` at one assignment, by recursion over the tree.

    This is the single-assignment reference: the product loop in
    :func:`check_identity` is tested against it.
    """
    if t.op is None:
        if t.var >= len(assignment):
            raise ArityMismatch(
                f"term uses x{t.var}, assignment has {len(assignment)} values"
            )
        return assignment[t.var]
    a = eval_term(s, t.left, assignment)
    b = eval_term(s, t.right, assignment)
    table = s.meet if t.op == MEET else s.join
    return table[a][b]


def _slot(t, slots, reads, subterms):
    """The slot of term t.  t and each of its subterms not yet in `slots`
    take the next free slot after their operands; `reads[slot]` is the
    highest variable the slot reads, and `subterms` gets
    ``(slot, op, a, b)`` for each new compound one, operands first."""
    if t not in slots:
        a = _slot(t.left, slots, reads, subterms)
        b = _slot(t.right, slots, reads, subterms)
        slot = slots[t] = len(reads)
        reads.append(max(reads[a], reads[b]))
        subterms.append((slot, int(t.op == JOIN), a, b))
    return slots[t]


@_cached
def _staged_plan(ident: Identity):
    """The distinct subterms of both sides, split by whether they read the
    highest variable.

    Slot k holds x_k and every compound subterm takes the next free slot
    after its operands.  Returns ``(top, outer, inner, lhs, rhs)``: ``top``
    is the highest variable either side reads; ``outer`` lists
    ``(slot, op, a, b)`` for the subterms that do not read x_top, in
    dependency order; ``inner`` lists ``(slot, op, a, a_is_row, b,
    b_is_row)`` for those that do, each held as its row of values over
    every x_top; ``lhs`` and ``rhs`` are ``(slot, is_row)`` for the two
    sides.  ``op`` is 0 for meet and 1 for join.
    """
    top = max(ident.lhs.max_var(), ident.rhs.max_var())
    slots = {V(k): k for k in range(top + 1)}
    reads = list(range(top + 1))  # slot -> highest variable it reads
    subterms = []
    lhs = _slot(ident.lhs, slots, reads, subterms)
    rhs = _slot(ident.rhs, slots, reads, subterms)
    return (
        top,
        tuple(sub for sub in subterms if reads[sub[0]] < top),
        tuple(
            (slot, op, a, reads[a] == top, b, reads[b] == top)
            for slot, op, a, b in subterms
            if reads[slot] == top
        ),
        (lhs, reads[lhs] == top),
        (rhs, reads[rhs] == top),
    )


@_cached
def _columns(s: SkewLattice):
    """The meet and join tables transposed: ``_columns(s)[op][b][a]`` is
    ``a op b``."""
    return tuple(tuple(zip(*t)) for t in (s.meet, s.join))


def check_identity(s: SkewLattice, ident: Identity):
    """Exhaustive check; returns (holds, first counterexample or None).

    Assignments are visited in ``itertools.product`` order, so the witness
    is the lexicographically least counterexample.  For each prefix
    x_0..x_{top-1}, the subterms that do not read x_top are formed one
    value each, and those that do a row at a time over all its values.
    """
    if ident.arity > ARITY_CAP:
        raise ArityTooLarge(f"arity {ident.arity} exceeds cap {ARITY_CAP}")
    top, outer, inner, (lhs, lhs_is_row), (rhs, rhs_is_row) = _staged_plan(
        ident
    )
    n = s.n
    tables = (s.meet, s.join)
    columns = _columns(s)
    env = [0] * (top + 1 + len(outer) + len(inner))
    # a table row or column taken at x_top is the subterm's row as it stands
    env[top] = tuple(range(n))
    for prefix in product(range(n), repeat=top):
        env[:top] = prefix
        for slot, op, a, b in outer:
            env[slot] = tables[op][env[a]][env[b]]
        for slot, op, a, a_is_row, b, b_is_row in inner:
            if not b_is_row:
                row = columns[op][env[b]]
                env[slot] = row if a == top else tuple(map(row.__getitem__, env[a]))
            elif not a_is_row:
                row = tables[op][env[a]]
                env[slot] = row if b == top else tuple(map(row.__getitem__, env[b]))
            else:
                env[slot] = tuple(
                    map(getitem, map(tables[op].__getitem__, env[a]), env[b])
                )
        left = env[lhs] if lhs_is_row else (env[lhs],) * n
        right = env[rhs] if rhs_is_row else (env[rhs],) * n
        if left != right:
            # neither side reads a variable past x_top: the least
            # counterexample sets each one to 0
            found = next(i for i in range(n) if left[i] != right[i])
            return False, (*prefix, found) + (0,) * (ident.arity - top - 1)
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
# read on S/D by is_quasi_distributive
DISTRIBUTIVE = Identity(3, M(x, J(y, z)), J(M(x, y), M(x, z)), "distributive")

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

# Alternative (published) axiomatization of the same four classes, kept as
# a deliberate cross-check of the primary one: the tests require each pair
# in FLAVORED_SYMMETRY_PAIRS to hold on exactly the same algebras.
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


def _all_of(*preds):
    """The conjunction of preds; its witness is that of the first one that
    fails, and the ones after it are not run."""

    def pred(s):
        for p in preds:
            ok, w = p(s)
            if not ok:
                return ok, w
        return True, None

    return pred


def is_upper_symmetric(s):
    """x^y = y^x implies xvy = yvx, checked over all pairs."""
    return _commutation_implies(s.meet, s.join)


def is_lower_symmetric(s):
    """xvy = yvx implies x^y = y^x, checked over all pairs."""
    return _commutation_implies(s.join, s.meet)


is_symmetric = _all_of(is_upper_symmetric, is_lower_symmetric)


def _separated(keys):
    """Every c tells every a != b apart: keys[a][c] != keys[b][c].  The
    witness is the least (a, b, c), a != b, with keys[a][c] == keys[b][c].

    The condition is symmetric in a and b, so a failing (a, b, c) with
    b < a has the lesser (b, a, c) beside it, and the least one has a < b:
    only those pairs are compared, two rows at a time."""
    n = len(keys)
    for a in range(n):
        row = keys[a]
        for b in range(a + 1, n):
            same = tuple(map(eq, row, keys[b]))
            if True in same:
                return False, (a, b, same.index(True))
    return True, None


def is_left_cancellative(s):
    """cva=cvb & c^a=c^b force a=b."""
    meet_col, join_col = _columns(s)
    return _separated([tuple(zip(j, m)) for j, m in zip(join_col, meet_col)])


def is_right_cancellative(s):
    """avc=bvc & a^c=b^c force a=b."""
    return _separated([tuple(zip(j, m)) for j, m in zip(s.join, s.meet)])


def is_cancellative(s):
    """Left- and right-cancellative.  The witness is the lesser of the two
    sides' witnesses: the least (a, b, c) that either side fails on."""
    failed = [
        w for ok, w in (is_left_cancellative(s), is_right_cancellative(s))
        if not ok
    ]
    return (False, min(failed)) if failed else (True, None)


def is_simply_cancellative(s):
    """avcva=bvcvb & a^c^a=b^c^b force a=b."""
    mt, jt = s.meet, s.join
    rng = range(s.n)
    return _separated(
        [[(jt[jt[a][c]][a], mt[mt[a][c]][a]) for c in rng] for a in rng]
    )


def is_quasi_distributive(s):
    """S/D is a distributive lattice: x^(yvz) = (x^y)v(x^z) holds on it.

    The identity implies its dual, and by the M3-N5 theorem of Dedekind
    and Birkhoff it holds iff S/D has no M3 or N5 sublattice.  The witness
    is the least triple of S/D classes that breaks it.
    """
    return check_identity(kimura(s).base.quotient, DISTRIBUTIVE)


def is_left_coset_cancellative(s):
    """S/R is cancellative."""
    return is_cancellative(kimura(s).left_factor.quotient)


def is_right_coset_cancellative(s):
    """S/L is cancellative."""
    return is_cancellative(kimura(s).right_factor.quotient)


is_upper_cancellative = _all_of(is_upper_symmetric, is_simply_cancellative)
is_lower_cancellative = _all_of(is_lower_symmetric, is_simply_cancellative)
is_rectangular = _identity_predicate(RECTANGULAR)
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

