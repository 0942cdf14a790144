from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewlat.errors import (
    ClosureExceedsCap,
    DimensionMismatch,
    NotAPrimeField,
    NotIdempotent,
    NotInStandardForm,
)
from skewlat.matrix_rings import (
    PrimeField,
    PrimeFieldMatrix,
    circle,
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


def test_prime_field_rejects_composites():
    with pytest.raises(NotAPrimeField):
        PrimeField(6)
    with pytest.raises(NotAPrimeField):
        PrimeField(1)
    assert PrimeField(7).p == 7


def test_matrix_entries_normalized():
    m = PrimeFieldMatrix(3, ((4, -1), (0, 5)))
    assert m.entries == ((1, 2), (0, 2))


def test_circle_identities():
    p = 5
    a = upper_class_matrix(p, DIMS, ((2,),), ((3,),))
    b = lower_class_matrix(p, DIMS, ((1,),), ((4,),))
    # x o y = x + y - xy
    assert circle(a, b) == a + b - a @ b
    # on idempotents that multiply to an idempotent both ways, nabla is
    # the square of circle
    assert nabla(a, b) == circle(a, b) @ circle(a, b)


def test_standard_forms_are_idempotent():
    for p in (3, 5):
        for x, y in product(range(p), repeat=2):
            assert upper_class_matrix(p, DIMS, ((x,),), ((y,),)).is_idempotent()
            assert lower_class_matrix(p, DIMS, ((x,),), ((y,),)).is_idempotent()


def test_closure_rejects_non_idempotent():
    bad = PrimeFieldMatrix(3, ((1, 1), (1, 1)))
    with pytest.raises(NotIdempotent):
        closure([bad])


def test_closure_cap():
    gens = [upper_class_matrix(5, DIMS), lower_class_matrix(5, DIMS)]
    for x, y in product(range(5), repeat=2):
        gens.append(upper_class_matrix(5, DIMS, ((x,),), ((y,),)))
        gens.append(lower_class_matrix(5, DIMS, ((x,),), ((y,),)))
    with pytest.raises(ClosureExceedsCap):
        closure(gens, cap=3)


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


@pytest.mark.parametrize("p", [4, 2, 101])
def test_matrix_rejects_bad_modulus_every_time(p):
    for _ in range(2):
        with pytest.raises(NotAPrimeField):
            PrimeFieldMatrix(p, ((1,),))
        with pytest.raises(NotAPrimeField):
            PrimeFieldMatrix.identity(p, 2)
