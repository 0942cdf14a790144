"""Finite double-band algebras given by operation tables.

Elements are always 0..n-1; any naming lives in the I/O layer.  A
:class:`SkewLattice` is a meet table and a join table of equal size, each
a tuple of row tuples, so ``s.meet[x][y]`` is x ^ y.
Construction helpers (`rectangular`, `direct_product`, `dual`) and the axiom
checker (`validate`) live here too.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import wraps
from itertools import product
from operator import itemgetter

from .errors import (
    CapExceeded,
    DimensionMismatch,
    EntryOutOfRange,
    MalformedInput,
    NotASkewLattice,
    SkewLatticeError,
)

# The largest order that `rectangular`, `chain` and `direct_product` build:
# it bounds the n-by-n tables they fill.
CAP = 64


def _rows(table):
    """`table` as a tuple of row tuples, checked to be n-by-n with every
    entry in 0..n-1; DimensionMismatch or EntryOutOfRange otherwise."""
    rows = tuple(map(tuple, table))
    n = len(rows)
    for i, row in enumerate(rows):
        if len(row) != n:
            raise DimensionMismatch(f"row {i} has length {len(row)}, expected {n}")
        for j, v in enumerate(row):
            if not (0 <= v < n):
                raise EntryOutOfRange((i, j), v)
    return rows


@dataclass(frozen=True)
class SkewLattice:
    """A pair of operation tables on the same element set 0..n-1.

    `meet` and `join` are tuples of row tuples: ``s.meet[x][y]`` is x ^ y
    and ``s.join[x][y]`` is x v y.  Construction accepts any nested
    sequences and checks only that both tables are n-by-n over 0..n-1; it
    does not re-check the axioms.  Use :func:`validate` or
    :meth:`checked` when the input is untrusted.
    """

    meet: tuple
    join: tuple

    def __post_init__(self):
        meet, join = _rows(self.meet), _rows(self.join)
        if len(meet) != len(join):
            raise DimensionMismatch(
                f"meet has n={len(meet)}, join has n={len(join)}"
            )
        object.__setattr__(self, "meet", meet)
        object.__setattr__(self, "join", join)

    @classmethod
    def checked(cls, meet, join):
        s = cls(meet, join)
        report = validate(s.meet, s.join)
        if not report.valid:
            raise NotASkewLattice(report)
        return s

    @property
    def n(self):
        return len(self.meet)

    def m(self, *xs):
        """Left-to-right meet fold: m(a, b, c) = (a ^ b) ^ c."""
        t = self.meet
        acc = xs[0]
        for x in xs[1:]:
            acc = t[acc][x]
        return acc

    def j(self, *xs):
        """Left-to-right join fold."""
        t = self.join
        acc = xs[0]
        for x in xs[1:]:
            acc = t[acc][x]
        return acc


def _cached(fn):
    """Compute ``fn(s)`` once per instance of a frozen dataclass (a
    :class:`SkewLattice`, a ``PrimeFieldMatrix``, an ``Identity``) and
    keep it in the instance's ``__dict__``.  The value is shared by every
    caller, so it must be immutable; it is not part of ``==`` or ``hash``."""
    key = f"{fn.__module__}.{fn.__qualname__}"

    @wraps(fn)
    def cached(s):
        facts = s.__dict__
        if key not in facts:
            facts[key] = fn(s)
        return facts[key]

    return cached


@dataclass
class ValidationReport:
    valid: bool
    failures: list = field(default_factory=list)
    # the checked tables, as tuples of row tuples
    meet: tuple = field(default=(), repr=False)
    join: tuple = field(default=(), repr=False)

    # Informational, and scanned only when read: regularity must hold
    # whenever all axioms do.
    meet_regular = property(lambda self: _regular(self.meet, len(self.meet)))
    join_regular = property(lambda self: _regular(self.join, len(self.join)))

    def to_dict(self):
        return {
            "valid": self.valid,
            "failures": [[name, list(w)] for name, w in self.failures],
            "meet_regular": self.meet_regular,
            "join_regular": self.join_regular,
        }


def _assoc_witness(t, n):
    """The lexicographically first (x, y, z) with (xy)z != x(yz), or None.

    t has tuple rows and is scanned a row at a time: for each (x, y), row
    xy is compared with z -> x(yz), which the getter of row y reads out of
    row x, and z is scanned only for a pair whose rows differ.  (At n = 1
    a getter returns a bare entry, so that pair is always rescanned.)
    `_kernels_py.assoc_witness` is the flat-table scalar scan that the
    benchmark's kernel loop times."""
    gets = [itemgetter(*row) for row in t]
    for x in range(n):
        tx = t[x]
        for y in range(n):
            row = t[tx[y]]
            if row != gets[y](tx):
                ty = t[y]
                for z in range(n):
                    if row[z] != tx[ty[z]]:
                        return (x, y, z)
    return None


def _regular(t, n):
    """Whether xyxzx = xyzx for all x, y, z, a row at a time: for each
    (x, y), rows xyx and xy of t, each mapped through column x, must be
    equal; a pair with xyx == xy holds trivially."""
    gets = [itemgetter(*row) for row in t]
    for x in range(n):
        tx = t[x]
        col = tuple(row[x] for row in t)
        for y in range(n):
            xy = tx[y]
            xyx = t[xy][x]
            if xyx != xy and gets[xyx](col) != gets[xy](col):
                return False
    return True


def validate(meet, join) -> ValidationReport:
    """Check every skew-lattice axiom, reporting a minimal witness per axiom.

    Raises DimensionMismatch / EntryOutOfRange before any axiom check; the
    returned report then lists each violated axiom among idempotency (x2),
    associativity (x2) and the four absorption laws.
    """
    s = SkewLattice(meet, join)
    n, mt, jt = s.n, s.meet, s.join
    rng = range(n)
    pairs = list(product(rng, rng))
    witnesses = (
        ("meet-idempotency", next(((x,) for x in rng if mt[x][x] != x), None)),
        ("join-idempotency", next(((x,) for x in rng if jt[x][x] != x), None)),
        ("meet-associativity", _assoc_witness(mt, n)),
        ("join-associativity", _assoc_witness(jt, n)),
        ("absorption-meet-left",
         next(((x, y) for x, y in pairs if mt[x][jt[x][y]] != x), None)),
        ("absorption-meet-right",
         next(((x, y) for x, y in pairs if mt[jt[y][x]][x] != x), None)),
        ("absorption-join-left",
         next(((x, y) for x, y in pairs if jt[x][mt[x][y]] != x), None)),
        ("absorption-join-right",
         next(((x, y) for x, y in pairs if jt[mt[y][x]][x] != x), None)),
    )
    failures = [(name, w) for name, w in witnesses if w is not None]
    return ValidationReport(not failures, failures, mt, jt)


def require_valid(s: SkewLattice, label: str) -> SkewLattice:
    """s itself if it satisfies every axiom; otherwise SkewLatticeError
    naming `label` and the first violated axiom."""
    rep = validate(s.meet, s.join)
    if not rep.valid:
        raise SkewLatticeError(f"{label}: not a skew lattice: {rep.failures[0]}")
    return s


def rectangular(l: int, r: int) -> SkewLattice:
    """The l*r-element rectangular algebra on pairs (i, j) = i*r + j.

    Meet keeps the left coordinate of the left argument, join the reverse:
    (i,j) ^ (i',j') = (i,j') and (i,j) v (i',j') = (i',j).
    """
    if l < 1 or r < 1:
        raise ValueError("factors must be positive")
    n = l * r
    if n > CAP:
        raise CapExceeded(f"{l}*{r} exceeds cap {CAP}")
    meet = [[0] * n for _ in range(n)]
    join = [[0] * n for _ in range(n)]
    for i in range(l):
        for j in range(r):
            a = i * r + j
            for i2 in range(l):
                for j2 in range(r):
                    b = i2 * r + j2
                    meet[a][b] = i * r + j2
                    join[a][b] = i2 * r + j
    return SkewLattice(meet, join)


def chain(k: int) -> SkewLattice:
    """The k-element chain lattice 0 < 1 < ... < k-1."""
    if k > CAP:
        raise CapExceeded(f"chain length {k} exceeds cap {CAP}")
    meet = [[min(i, j) for j in range(k)] for i in range(k)]
    join = [[max(i, j) for j in range(k)] for i in range(k)]
    return SkewLattice(meet, join)


def direct_product(a: SkewLattice, b: SkewLattice) -> SkewLattice:
    """Componentwise product; pair (x, y) is encoded as x*|b| + y."""
    n = a.n * b.n
    if n > CAP:
        raise CapExceeded(f"{a.n}*{b.n} exceeds cap {CAP}")
    nb = b.n
    meet = [[0] * n for _ in range(n)]
    join = [[0] * n for _ in range(n)]
    for x1 in range(a.n):
        for y1 in range(nb):
            p = x1 * nb + y1
            for x2 in range(a.n):
                for y2 in range(nb):
                    q = x2 * nb + y2
                    meet[p][q] = a.meet[x1][x2] * nb + b.meet[y1][y2]
                    join[p][q] = a.join[x1][x2] * nb + b.join[y1][y2]
    return SkewLattice(meet, join)


def dual(s: SkewLattice) -> SkewLattice:
    """Swap meet and join; the axioms are self-dual so validity is preserved."""
    return SkewLattice(s.join, s.meet)


def mirror(s: SkewLattice) -> SkewLattice:
    """Transpose both tables (x <op> y becomes y <op> x).

    Swaps left- and right-handedness while preserving validity.
    """
    n = s.n
    meet = [[s.meet[j][i] for j in range(n)] for i in range(n)]
    join = [[s.join[j][i] for j in range(n)] for i in range(n)]
    return SkewLattice(meet, join)


# --- JSON algebra format (shared with the CLI) ---------------------------

def to_json_dict(s: SkewLattice, names=None):
    d = {
        "n": s.n,
        "meet": [list(row) for row in s.meet],
        "join": [list(row) for row in s.join],
    }
    if names is not None:
        if len(names) != s.n:
            raise DimensionMismatch("names length differs from n")
        d["names"] = list(names)
    return d


def to_json(s: SkewLattice, names=None) -> str:
    return json.dumps(to_json_dict(s, names), sort_keys=True, indent=2) + "\n"


def from_json_dict(d):
    n = d["n"]
    meet, join = d["meet"], d["join"]
    if len(meet) != n or len(join) != n:
        raise DimensionMismatch("table size differs from declared n")
    for row in (*meet, *join):
        if any(type(v) is not int for v in row):
            raise TypeError("table entries must be integers")
    names = d.get("names")
    if names is not None:
        if type(names) is not list or any(type(v) is not str for v in names):
            raise TypeError("names must be a list of strings")
        if len(names) != n:
            raise DimensionMismatch("names length differs from n")
    return SkewLattice(meet, join), names


def _parse_algebra(load, source):
    """(algebra, names-or-None) from the JSON value that load() returns;
    MalformedInput naming `source` if that value cannot be parsed, also
    when it nests too deeply, or is not in the algebra format."""
    try:
        d = load()
    except (ValueError, RecursionError) as e:
        raise MalformedInput(f"{source} is not valid JSON: {e}") from None
    try:
        return from_json_dict(d)
    except (KeyError, TypeError, SkewLatticeError) as e:
        raise MalformedInput(
            f"{source} does not match the algebra format: {e}"
        ) from None


def from_json(text: str):
    """Parse the JSON algebra format; returns (algebra, names-or-None).
    MalformedInput if `text` is not an algebra in that format."""
    return _parse_algebra(lambda: json.loads(text), "algebra text")


def read_json(path):
    """The JSON value in file `path`; MalformedInput if it cannot be read
    or parsed, also when it nests too deeply for the parser."""
    try:
        with open(path) as f:
            return json.load(f)
    except OSError as e:
        raise MalformedInput(f"cannot read {path}: {e}") from None
    except (ValueError, RecursionError) as e:
        raise MalformedInput(f"{path} is not valid JSON: {e}") from None


def load_algebra(path):
    """(algebra, names-or-None) from the JSON algebra file `path`;
    MalformedInput if it is not in that format.  The axioms are not
    checked here (see require_valid)."""
    return _parse_algebra(lambda: read_json(path), path)
