from collections import Counter
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewlat import cosets, matrix_rings

from skewlat.errors import (
    ClosureExceedsCap,
    DimensionMismatch,
    FieldMismatch,
    InternalInconsistency,
    NotAPrimeField,
    NotASkewLattice,
    NotIdempotent,
    NotInStandardForm,
)
from skewlat.matrix_rings import (
    PrimeFieldMatrix,
    closure,
    lower_class_matrix,
    matrix_coset_remark_check,
    nabla,
    primitive_left_handed,
    primitive_right_handed,
    triangular_factorization,
    upper_class_matrix,
)
from skewlat.varieties import is_left_handed, is_right_handed

DIMS = (1, 1, 1)


def _scalar_pairs(p):
    return [(((x,),), ((y,),)) for x in range(p) for y in range(p)]


# reference GF(p) arithmetic on nested lists, sharing no code with the
# library's residue kernels
def _ref_mul(a, b, p):
    n = len(a)
    return [
        [sum(a[i][k] * b[k][j] for k in range(n)) % p for j in range(n)]
        for i in range(n)
    ]


def _ref_lin(a, b, sign, p):
    return [[(u + sign * v) % p for u, v in zip(ra, rb)] for ra, rb in zip(a, b)]


def _rows(m):
    return tuple(tuple(r) for r in m)


def _counting_mul(monkeypatch):
    """Count the calls of the flat matrix-product kernel."""
    calls = []
    kernel = matrix_rings._mul

    def counting(*args):
        calls.append(None)
        return kernel(*args)

    monkeypatch.setattr(matrix_rings, "_mul", counting)
    return calls


def test_prime_field_rejects_composites():
    with pytest.raises(NotAPrimeField):
        matrix_rings._field(6)
    with pytest.raises(NotAPrimeField):
        matrix_rings._field(1)
    assert matrix_rings._field(7) is None


def test_matrix_entries_normalized():
    m = PrimeFieldMatrix(3, ((4, -1), (0, 5)))
    assert m.entries == ((1, 2), (0, 2))


def test_circle_identities():
    p = 5
    a = upper_class_matrix(p, DIMS, ((2,),), ((3,),))
    b = lower_class_matrix(p, DIMS, ((1,),), ((4,),))
    # on idempotents that multiply to an idempotent both ways, nabla is
    # the square of the circle product x o y = x + y - xy
    circle = a + b - a @ b
    assert nabla(a, b) == circle @ circle


def test_standard_forms_are_idempotent():
    for p in (3, 5):
        for x, y in product(range(p), repeat=2):
            assert upper_class_matrix(p, DIMS, ((x,),), ((y,),)).is_idempotent()
            assert lower_class_matrix(p, DIMS, ((x,),), ((y,),)).is_idempotent()


@pytest.mark.parametrize("idempotent", [True, False])
def test_is_idempotent_multiplies_once_per_instance(monkeypatch, idempotent):
    calls = []
    matmul = PrimeFieldMatrix.__matmul__

    def counting_matmul(x, y):
        calls.append((x, y))
        return matmul(x, y)

    monkeypatch.setattr(PrimeFieldMatrix, "__matmul__", counting_matmul)
    m = PrimeFieldMatrix(3, ((1, 0), (0, 0)) if idempotent else ((1, 1), (1, 1)))
    assert m.is_idempotent() is idempotent
    assert len(calls) == 1
    assert m.is_idempotent() is idempotent
    assert len(calls) == 1


def test_closure_rejects_non_idempotent():
    bad = PrimeFieldMatrix(3, ((1, 1), (1, 1)))
    with pytest.raises(NotIdempotent):
        closure([bad])


def test_closure_cap(monkeypatch):
    gens = [upper_class_matrix(5, DIMS), lower_class_matrix(5, DIMS)]
    for x, y in product(range(5), repeat=2):
        gens.append(upper_class_matrix(5, DIMS, ((x,),), ((y,),)))
        gens.append(lower_class_matrix(5, DIMS, ((x,),), ((y,),)))
    calls = _counting_mul(monkeypatch)
    with pytest.raises(ClosureExceedsCap, match="closure exceeds 3 elements"):
        closure(gens, cap=3)
    # it fails as soon as the count passes the cap: one idempotency test
    # for each of the cap + 1 elements found, and no pair multiplied
    assert len(calls) == 4


def test_closure_rejects_mixed_moduli_and_sizes():
    with pytest.raises(FieldMismatch):
        closure([upper_class_matrix(3, DIMS), upper_class_matrix(5, DIMS)])
    with pytest.raises(DimensionMismatch):
        closure([upper_class_matrix(3, DIMS), upper_class_matrix(3, (1, 1, 2))])


def test_closure_with_a_non_idempotent_product_is_not_a_skew_lattice():
    # both generators are idempotent, their product e @ g is not; the
    # quintic cross-check does not apply to it, and the closure fails
    # validation instead of reporting an internal inconsistency
    e = PrimeFieldMatrix(3, ((1, 0), (0, 0)))
    g = PrimeFieldMatrix(3, ((2, 2), (2, 2)))
    assert e.is_idempotent() and g.is_idempotent()
    assert not (e @ g).is_idempotent()
    with pytest.raises(NotASkewLattice):
        closure([e, g])


def test_quintic_cross_check_catches_a_wrong_nabla():
    p, n = 3, 3
    a = matrix_rings._flat(upper_class_matrix(p, DIMS, ((1,),), ((2,),)))
    b = matrix_rings._flat(lower_class_matrix(p, DIMS, ((2,),), ((1,),)))
    ab, ba = matrix_rings._mul(a, b, n, p), matrix_rings._mul(b, a, n, p)
    matrix_rings._nablas(a, b, ab, ba, True, n, p)
    wrong = ((ab[0] + 1) % p,) + ab[1:]
    with pytest.raises(InternalInconsistency):
        matrix_rings._nablas(a, b, wrong, ba, True, n, p)
    matrix_rings._nablas(a, b, wrong, ba, False, n, p)


def _entries(n):
    return st.lists(
        st.lists(st.integers(-20, 20), min_size=n, max_size=n),
        min_size=n, max_size=n,
    )


@given(st.sampled_from([3, 5, 7]), st.integers(1, 4), st.data())
@settings(max_examples=40, deadline=None)
def test_operators_match_the_checked_constructor(p, n, data):
    a, b = data.draw(_entries(n)), data.draw(_entries(n))
    x, y = PrimeFieldMatrix(p, _rows(a)), PrimeFieldMatrix(p, _rows(b))
    for got, ref in (
        (x @ y, _ref_mul(a, b, p)),
        (x + y, _ref_lin(a, b, 1, p)),
        (x - y, _ref_lin(a, b, -1, p)),
    ):
        want = PrimeFieldMatrix(p, _rows(ref))
        assert got == want and hash(got) == hash(want)
        assert got.entries == want.entries == _rows(ref)


def test_right_handed_model_gf3():
    msl = primitive_right_handed(3, DIMS, _scalar_pairs(3), _scalar_pairs(3))
    assert is_right_handed(msl.abstract)[0]
    assert len(msl.elements) == 18  # 9 upper + 9 lower forms
    report = matrix_coset_remark_check(msl, DIMS)
    assert report.verdict == "concordant"


def test_left_handed_model_gf3():
    msl = primitive_left_handed(3, DIMS, _scalar_pairs(3), _scalar_pairs(3))
    assert is_left_handed(msl.abstract)[0]
    report = matrix_coset_remark_check(msl, DIMS)
    assert report.verdict == "concordant"


def test_triangular_factorization_on_standard_forms():
    p = 3
    for x, y in product(range(p), repeat=2):
        for m in (
            upper_class_matrix(p, DIMS, ((x,),), ((y,),)),
            lower_class_matrix(p, DIMS, ((x,),), ((y,),)),
        ):
            lo, hi = triangular_factorization(m, DIMS)
            assert lo @ hi == m
            assert lo.is_idempotent() and hi.is_idempotent()


def test_triangular_factorization_rejects_off_pattern():
    m = PrimeFieldMatrix(3, ((0, 0, 0), (0, 0, 0), (0, 0, 1)))
    with pytest.raises(NotInStandardForm):
        triangular_factorization(m, DIMS)


def test_block_dim_mismatch():
    m = upper_class_matrix(3, DIMS)
    with pytest.raises(DimensionMismatch):
        triangular_factorization(m, (1, 1, 2))


def test_nontrivial_blocks():
    # 2x1 third block: upper-class a13 is 1x2, a23 is 1x2
    dims = (1, 1, 2)
    msl = primitive_right_handed(
        3,
        dims,
        [(((1, 0),), ((0, 1),))],
        [(((1,),), ((2, 0),))],
    )
    assert is_right_handed(msl.abstract)[0]
    assert matrix_coset_remark_check(msl, dims).verdict == "concordant"


@given(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2), st.integers(0, 2))
@settings(max_examples=20, deadline=None)
def test_meet_of_standard_forms_stays_in_class(a13, a23, x13, x23):
    p = 3
    a = upper_class_matrix(p, DIMS, ((a13,),), ((a23,),))
    x = upper_class_matrix(p, DIMS, ((x13,),), ((x23,),))
    prod_ = a @ x
    assert prod_.is_idempotent()
    # the product of two upper-class forms is again an upper-class form
    assert prod_.entries[2] == (0, 0, 0)
    assert prod_.entries[0][0] == 1 and prod_.entries[1][1] == 1


@pytest.mark.parametrize("build", [primitive_right_handed, primitive_left_handed])
def test_closure_tables_index_the_products(build):
    # reference: recompute every product directly (the closure records
    # them during its search instead)
    msl = build(3, DIMS, _scalar_pairs(3), _scalar_pairs(3))
    elems = msl.elements
    idx = {m: i for i, m in enumerate(elems)}
    for i, x in enumerate(elems):
        for j, y in enumerate(elems):
            assert msl.abstract.meet[i][j] == idx[x @ y]
            assert msl.abstract.join[i][j] == idx[nabla(x, y)]


# a generating set whose closure takes several rounds: 4 generators, 12
# elements
_GROWING = ([(((1,),), ((1,),))], [(((1,),), ((2,),))])


@pytest.mark.parametrize("build", [primitive_right_handed, primitive_left_handed])
@pytest.mark.parametrize(
    "params", [(_scalar_pairs(3), _scalar_pairs(3)), _GROWING], ids=["sweep", "growing"]
)
def test_closure_join_table_squares_the_circle(build, params):
    # reference independent of nabla and of the residue kernels: square
    # x + y - xy inline, in nested-list arithmetic mod p
    p = 3
    msl = build(p, DIMS, *params)
    elems = [m.entries for m in msl.elements]
    idx = {m: i for i, m in enumerate(elems)}
    for i, x in enumerate(elems):
        for j, y in enumerate(elems):
            xy = _ref_mul(x, y, p)
            c = _ref_lin(_ref_lin(x, y, 1, p), xy, -1, p)
            assert msl.abstract.meet[i][j] == idx[_rows(xy)]
            assert msl.abstract.join[i][j] == idx[_rows(_ref_mul(c, c, p))]


@pytest.mark.parametrize("build", [primitive_right_handed, primitive_left_handed])
def test_gf5_sweep_forms_each_product_once(monkeypatch, build):
    calls = _counting_mul(monkeypatch)
    pairs = _scalar_pairs(5)
    msl = build(5, DIMS, pairs, pairs)
    n, gens = len(msl.elements), 2 + 2 * len(pairs)
    assert n == 50
    # per unordered pair: x @ y, y @ x, the two nabla squares and the xyx
    # and yxy their quintic checks share; one idempotency test per element,
    # so at most one per generator (the sweep's generators are all its
    # elements)
    assert len(calls) <= 3 * n * (n + 1) + gens


@pytest.mark.parametrize("build", [primitive_right_handed, primitive_left_handed])
def test_coset_check_forms_each_coset_once(monkeypatch, build):
    msl = build(3, DIMS, _scalar_pairs(3), _scalar_pairs(3))
    calls = Counter()
    for name in (
        "right_coset_meet", "left_coset_meet", "full_coset_meet",
        "right_coset_join", "left_coset_join", "full_coset_join",
    ):
        def counting(s, C, x, fn=getattr(cosets, name), name=name):
            calls[name, x] += 1
            return fn(s, C, x)

        monkeypatch.setattr(cosets, name, counting)
    assert matrix_coset_remark_check(msl, DIMS).verdict == "concordant"
    # three meet cosets of each lower element, three join cosets of each
    # upper one, each formed once
    assert len(calls) == 3 * len(msl.elements)
    assert max(calls.values()) == 1


@pytest.mark.parametrize("p", [4, 2, 101])
def test_matrix_rejects_bad_modulus_every_time(p):
    for _ in range(2):
        with pytest.raises(NotAPrimeField):
            PrimeFieldMatrix(p, ((1,),))
        with pytest.raises(NotAPrimeField):
            PrimeFieldMatrix.identity(p, 2)
