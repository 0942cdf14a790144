"""Skew lattices of idempotent matrices over GF(p), p an odd prime.

Meet is matrix multiplication; join is the quadratic nabla operation
x nabla y = (x + y - xy)^2.  Includes the primitive block-form
constructors, triangular factorizations, and the block-entry coset
criteria checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from operator import mul

from . import cosets
from .core import SkewLattice, _cached, to_json_dict
from .errors import (
    ClosureExceedsCap,
    DimensionMismatch,
    FieldMismatch,
    InternalInconsistency,
    NotAPrimeField,
    NotIdempotent,
    NotInStandardForm,
)
from .greens import dclass_order
from .reports import ConcordanceReport, Record
from .varieties import is_left_handed, is_right_handed

DEFAULT_MODULUS_CAP = 97
DEFAULT_CLOSURE_CAP = 512


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


@lru_cache(maxsize=None)
def _field(p: int) -> None:
    """Check that p is an odd prime up to the cap, once per modulus; a
    rejected modulus is not cached, so it raises NotAPrimeField every time."""
    if not _is_prime(p):
        raise NotAPrimeField(f"{p} is not prime")
    if p == 2:
        raise NotAPrimeField("modulus 2 not supported (characteristic 2)")
    if p > DEFAULT_MODULUS_CAP:
        raise NotAPrimeField(f"modulus {p} exceeds cap {DEFAULT_MODULUS_CAP}")


@dataclass(frozen=True)
class PrimeFieldMatrix:
    p: int
    entries: tuple  # tuple of row tuples, residues mod p

    def __post_init__(self):
        _field(self.p)
        n = len(self.entries)
        rows = tuple(tuple(v % self.p for v in row) for row in self.entries)
        for row in rows:
            if len(row) != n:
                raise DimensionMismatch("matrix must be square")
        object.__setattr__(self, "entries", rows)

    @property
    def dim(self) -> int:
        return len(self.entries)

    @classmethod
    def identity(cls, p, n):
        return cls(p, tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))

    def _compat(self, other):
        if self.p != other.p:
            raise FieldMismatch(f"GF({self.p}) vs GF({other.p})")
        if self.dim != other.dim:
            raise DimensionMismatch(f"{self.dim} vs {other.dim}")

    def __add__(self, other):
        self._compat(other)
        return _matrix(self.p, self.dim, _add(_flat(self), _flat(other), self.p))

    def __sub__(self, other):
        self._compat(other)
        return _matrix(self.p, self.dim, _sub(_flat(self), _flat(other), self.p))

    def __matmul__(self, other):
        self._compat(other)
        n, p = self.dim, self.p
        return _matrix(p, n, _mul(_flat(self), _flat(other), n, p))

    @_cached
    def is_idempotent(self) -> bool:
        return self @ self == self

    def block(self, row_range, col_range):
        return tuple(
            tuple(self.entries[i][j] for j in col_range) for i in row_range
        )

    def to_json_dict(self):
        return {"p": self.p, "dim": self.dim, "rows": [list(r) for r in self.entries]}


# --- residue kernels -------------------------------------------------------
# The one implementation of GF(p) arithmetic.  A matrix is a flat row-major
# tuple of its n*n residues mod p, and every kernel returns reduced residues.


def _flat(m: PrimeFieldMatrix) -> tuple:
    return tuple(chain.from_iterable(m.entries))


def _matrix(p, n, flat) -> PrimeFieldMatrix:
    """The PrimeFieldMatrix of the reduced residues `flat`, built without
    the constructor's checks: callers have checked modulus and shape."""
    m = object.__new__(PrimeFieldMatrix)
    object.__setattr__(m, "p", p)
    object.__setattr__(
        m, "entries", tuple(flat[i:i + n] for i in range(0, n * n, n))
    )
    return m


def _add(a, b, p):
    return tuple([(u + v) % p for u, v in zip(a, b)])


def _sub(a, b, p):
    return tuple([(u - v) % p for u, v in zip(a, b)])


def _mul(a, b, n, p):
    cols = [b[j::n] for j in range(n)]
    return tuple(
        [sum(map(mul, a[i:i + n], c)) % p for i in range(0, n * n, n) for c in cols]
    )


def _nablas(x, y, xy, yx, check, n, p):
    """(nabla(x, y), nabla(y, x)) of flat x and y, from their products
    xy and yx.  If `check`, each is cross-checked against its quintic form,
    nabla(x, y) = x + y + yx - xyx - yxy, in one pass over the entries; the
    two checks share xyx and yxy.  The form holds when x, y, xy and yx are
    idempotent: squaring x + y - xy leaves x + y + yx - xyx - yxy plus
    xyxy - xy."""
    s = _add(x, y, p)
    cxy, cyx = _sub(s, xy, p), _sub(s, yx, p)  # x + y - xy, x + y - yx
    sq_xy, sq_yx = _mul(cxy, cxy, n, p), _mul(cyx, cyx, n, p)
    if check:
        xyx, yxy = _mul(xy, x, n, p), _mul(yx, y, n, p)
        for sq, other in ((sq_xy, yx), (sq_yx, xy)):
            if any(
                (a + b - c - d - e) % p
                for a, b, c, d, e in zip(s, other, xyx, yxy, sq)
            ):
                raise InternalInconsistency("nabla expansion mismatch")
    return sq_xy, sq_yx


def nabla(x: PrimeFieldMatrix, y: PrimeFieldMatrix) -> PrimeFieldMatrix:
    """(x + y - xy)^2, cross-checked against its expanded quintic form
    x + y + yx - xyx - yxy (valid when x, y, xy and yx are idempotent)."""
    x._compat(y)
    n, p = x.dim, x.p
    fx, fy = _flat(x), _flat(y)
    xy, yx = _mul(fx, fy, n, p), _mul(fy, fx, n, p)
    check = all(_mul(f, f, n, p) == f for f in (fx, fy, xy, yx))
    return _matrix(p, n, _nablas(fx, fy, xy, yx, check, n, p)[0])


@dataclass(frozen=True)
class MatrixSkewLattice:
    elements: tuple  # PrimeFieldMatrix, index order matches `abstract`
    abstract: SkewLattice
    origin: str

    def to_json_dict(self):
        return {
            "origin": self.origin,
            "matrices": [m.to_json_dict() for m in self.elements],
            "abstract": to_json_dict(self.abstract),
        }


def closure(
    generators, origin: str = "closure", cap: int = DEFAULT_CLOSURE_CAP
) -> MatrixSkewLattice:
    """Least set of matrices containing the generators and closed under
    multiplication and nabla, validated as a skew lattice.  Each round
    visits each unordered pair once and forms each of its products, x @ y,
    y @ x, nabla(x, y) and nabla(y, x), exactly once, on flat residue
    tuples.  ClosureExceedsCap as soon as more than `cap` elements are
    found."""
    gens = list(generators)
    if not gens:
        raise DimensionMismatch("need at least one generator")
    n, p = gens[0].dim, gens[0].p
    elems = []  # flat residue tuples, in the order found
    idem = []  # whether elems[i] is idempotent, decided once per element
    index = {}

    def index_of(f):
        i = index.get(f)
        if i is None:
            i = index[f] = len(elems)
            elems.append(f)
            idem.append(_mul(f, f, n, p) == f)
            if len(elems) > cap:
                raise ClosureExceedsCap(f"closure exceeds {cap} elements")
        return i

    for k, g in enumerate(gens):
        gens[0]._compat(g)
        if not idem[index_of(_flat(g))]:
            raise NotIdempotent(f"generator {k} is not idempotent")
    # Breadth-first: each round visits every unordered pair {x, y} whose
    # later element was found in the previous round (lo..hi) once, and
    # forms both products and both nablas of it, so each product is formed
    # in the round where the later of its factors is new.  Its index is
    # recorded then; the tables need no second pass.  A pair of two new
    # elements j < i is visited as (j, i) only: visiting it again as
    # (i, j) would find nothing new, so skipping it keeps the numbering.
    meet, join = {}, {}
    lo = 0
    while lo < len(elems):
        hi = len(elems)
        for i in range(lo, hi):
            x = elems[i]
            for j in chain(range(lo), range(i, hi)):
                y = elems[j]
                xy, yx = _mul(x, y, n, p), _mul(y, x, n, p)
                ixy = meet[i, j] = index_of(xy)
                iyx = meet[j, i] = index_of(yx)
                check = idem[i] and idem[j] and idem[ixy] and idem[iyx]
                nxy, nyx = _nablas(x, y, xy, yx, check, n, p)
                join[i, j] = index_of(nxy)
                join[j, i] = index_of(nyx)
        lo = hi
    size = len(elems)
    meet = [[meet[i, j] for j in range(size)] for i in range(size)]
    join = [[join[i, j] for j in range(size)] for i in range(size)]
    return MatrixSkewLattice(
        elements=tuple(_matrix(p, n, f) for f in elems),
        abstract=SkewLattice.checked(meet, join),
        origin=origin,
    )


# --- primitive block constructions ---------------------------------------


def _ranges(block_dims):
    n1, n2, n3 = block_dims
    if min(n1, n2, n3) < 0:
        raise DimensionMismatch("block sizes must be nonnegative")
    r1 = range(0, n1)
    r2 = range(n1, n1 + n2)
    r3 = range(n1 + n2, n1 + n2 + n3)
    return r1, r2, r3


def _as_block(p, rows, cols, data):
    _field(p)  # a bad modulus raises NotAPrimeField here, before v % p
    if data is None:
        data = tuple((0,) * cols for _ in range(rows))
    data = tuple(tuple(v % p for v in row) for row in data)
    if len(data) != rows or any(len(r) != cols for r in data):
        raise DimensionMismatch(f"block must be {rows}x{cols}")
    return data


def _assemble(p, block_dims, blocks):
    """Build the full matrix from a dict {(i, j): block} of 1-based block
    positions; missing blocks are zero."""
    n1, n2, n3 = block_dims
    dims = (n1, n2, n3)
    n = sum(dims)
    rows = [[0] * n for _ in range(n)]
    starts = (0, n1, n1 + n2)
    for (bi, bj), data in blocks.items():
        data = _as_block(p, dims[bi - 1], dims[bj - 1], data)
        for i, row in enumerate(data):
            for j, v in enumerate(row):
                rows[starts[bi - 1] + i][starts[bj - 1] + j] = v
    return PrimeFieldMatrix(p, tuple(tuple(r) for r in rows))


def _eye(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def upper_class_matrix(p, block_dims, a13=None, a23=None) -> PrimeFieldMatrix:
    """[[I,0,a13],[0,I,a23],[0,0,0]] — the right-handed upper-class form."""
    n1, n2, _ = block_dims
    return _assemble(
        p, block_dims, {(1, 1): _eye(n1), (2, 2): _eye(n2), (1, 3): a13, (2, 3): a23}
    )


def lower_class_matrix(p, block_dims, b12=None, b13=None) -> PrimeFieldMatrix:
    """[[I,b12,b13],[0,0,0],[0,0,0]] — the right-handed lower-class form."""
    n1, _, _ = block_dims
    return _assemble(
        p, block_dims, {(1, 1): _eye(n1), (1, 2): b12, (1, 3): b13}
    )


def upper_class_matrix_left(p, block_dims, a31=None, a32=None) -> PrimeFieldMatrix:
    """[[I,0,0],[0,I,0],[a31,a32,0]] — the left-handed upper-class form."""
    n1, n2, _ = block_dims
    return _assemble(
        p, block_dims, {(1, 1): _eye(n1), (2, 2): _eye(n2), (3, 1): a31, (3, 2): a32}
    )


def lower_class_matrix_left(p, block_dims, b21=None, b31=None) -> PrimeFieldMatrix:
    """[[I,0,0],[b21,0,0],[b31,0,0]] — the left-handed lower-class form."""
    n1, _, _ = block_dims
    return _assemble(
        p, block_dims, {(1, 1): _eye(n1), (2, 1): b21, (3, 1): b31}
    )


def _check_primitive(msl: MatrixSkewLattice):
    """The (upper, lower) classes of a primitive algebra."""
    d, _ = dclass_order(msl.abstract)
    if len(d.blocks) != 2:
        raise InternalInconsistency(
            f"expected exactly 2 classes, found {len(d.blocks)}"
        )
    pairs = cosets.comparable_pairs(msl.abstract)
    if not pairs:
        raise InternalInconsistency("the two classes are not comparable")
    return pairs[0].upper, pairs[0].lower


def _primitive(p, block_dims, a_params, b_params, handed):
    """Closure of the two diagonal idempotents and the `handed` upper and
    lower block forms of each parameter pair, verified primitive and
    `handed`."""
    upper, lower, is_handed = {
        "right": (upper_class_matrix, lower_class_matrix, is_right_handed),
        "left": (upper_class_matrix_left, lower_class_matrix_left, is_left_handed),
    }[handed]
    gens = [upper(p, block_dims), lower(p, block_dims)]
    gens += [upper(p, block_dims, u, v) for u, v in a_params]
    gens += [lower(p, block_dims, u, v) for u, v in b_params]
    msl = closure(
        gens, origin=f"primitive-{handed}-handed GF({p}) {tuple(block_dims)}"
    )
    _check_primitive(msl)
    if not is_handed(msl.abstract)[0]:
        raise InternalInconsistency(f"constructed algebra is not {handed}-handed")
    return msl


def primitive_right_handed(
    p: int, block_dims, a_params, b_params
) -> MatrixSkewLattice:
    """Closure of matrices in the right-handed block forms: each a-param is
    an (a13, a23) pair, each b-param a (b12, b13) pair; the diagonal
    idempotents a0, b0 are always included.  Verified primitive (two
    comparable classes) and right-handed."""
    msl = _primitive(p, block_dims, a_params, b_params, "right")
    # in the right-handed case nabla reduces to circle x + y - xy; the
    # meet and join tables already hold the indices of xy and nabla(x, y)
    elems = [_flat(m) for m in msl.elements]
    meet, join = msl.abstract.meet, msl.abstract.join
    for i, x in enumerate(elems):
        for j, y in enumerate(elems):
            if elems[join[i][j]] != _sub(_add(x, y, p), elems[meet[i][j]], p):
                raise InternalInconsistency("nabla differs from circle")
    return msl


def primitive_left_handed(
    p: int, block_dims, a_params, b_params
) -> MatrixSkewLattice:
    """Mirror of the right-handed constructor: a-params are (a31, a32)
    pairs, b-params are (b21, b31) pairs."""
    return _primitive(p, block_dims, a_params, b_params, "left")


# --- triangular factorization --------------------------------------------


def triangular_factorization(m: PrimeFieldMatrix, block_dims):
    """Split m into its lower- and upper-triangular block factors,
    m = m_L @ m_R, according to which standard form m matches."""
    r1, r2, r3 = _ranges(block_dims)
    p = m.p
    if m.dim != len(r1) + len(r2) + len(r3):
        raise DimensionMismatch("block sizes do not sum to matrix dimension")
    e1, e2 = _eye(len(r1)), _eye(len(r2))
    zero12 = _as_block(p, len(r1), len(r2), None)

    if m.block(r1, r1) == e1 and m.block(r2, r2) == e2 and m.block(r1, r2) == zero12 and m.block(r2, r1) == _as_block(p, len(r2), len(r1), None):
        # upper-class form: check the (3,3) consistency block
        a13, a23 = m.block(r1, r3), m.block(r2, r3)
        a31, a32 = m.block(r3, r1), m.block(r3, r2)
        m_l = upper_class_matrix_left(p, block_dims, a31, a32)
        m_r = upper_class_matrix(p, block_dims, a13, a23)
        if m != m_l @ m_r:
            raise NotInStandardForm("corner block is not a31*a13 + a32*a23")
    elif m.block(r1, r1) == e1:
        # lower-class form: rows 2 and 3 must be b21/b31 multiples of row 1
        b12, b13 = m.block(r1, r2), m.block(r1, r3)
        b21, b31 = m.block(r2, r1), m.block(r3, r1)
        m_l = lower_class_matrix_left(p, block_dims, b21, b31)
        m_r = lower_class_matrix(p, block_dims, b12, b13)
        if m != m_l @ m_r:
            raise NotInStandardForm("off-diagonal blocks are not rank-one products")
    else:
        raise NotInStandardForm("diagonal blocks match neither standard form")
    if not (m_l.is_idempotent() and m_r.is_idempotent()):
        raise InternalInconsistency("triangular factor is not idempotent")
    return m_l, m_r


# --- block-entry coset criteria ------------------------------------------


def matrix_coset_remark_check(
    msl: MatrixSkewLattice, block_dims
) -> ConcordanceReport:
    """Compare abstract coset equalities with the stated block-entry
    equalities, for every pair in each class."""
    r1, r2, r3 = _ranges(block_dims)
    for m in msl.elements:
        if m.dim != len(r1) + len(r2) + len(r3):
            raise NotInStandardForm("block sizes do not sum to matrix dimension")
    upper, lower = _check_primitive(msl)
    s = msl.abstract
    # per kind, the criteria (name, coset flavor, the blocks whose equality
    # it states); each runs over every pair of the class X whose elements
    # the flavor's cosets are taken through
    kinds = (
        ("meet", (
            ("full-lower", "full-meet", ((r2, r1), (r1, r2))),
            ("right-lower", "right-meet", ((r2, r1), (r3, r1), (r1, r2))),
            ("left-lower", "left-meet", ((r2, r1), (r1, r2), (r1, r3))),
        )),
        ("join", (
            ("full-upper", "full-join", ((r3, r2), (r2, r3))),
            ("right-upper", "right-join", ((r3, r1), (r3, r2), (r2, r3))),
            ("left-upper", "left-join", ((r3, r2), (r1, r3), (r2, r3))),
        )),
    )
    records = []
    for kind, criteria in kinds:
        C, X = cosets.sides(kind, upper, lower)
        members = sorted(X)
        checks = [
            (name, cosets.coset_map(s, flavor, C, X),
             {x: tuple(msl.elements[x].block(rr, cc) for rr, cc in blocks)
              for x in members})
            for name, flavor, blocks in criteria
        ]
        for x in members:
            for y in members:
                for name, cx, bx in checks:
                    records.append(Record((name, x, y), cx[x] == cx[y], bx[x] == bx[y]))
    return ConcordanceReport(
        law="matrix-block-coset-criteria",
        algebra=msl.origin,
        records=tuple(records),
    )
