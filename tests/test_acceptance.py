"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The lines are written to the real stdout so they appear even under
pytest's output capture.
"""

import json
import sys
import time
from itertools import product

from skewlat.catalog import enumerate_catalog, nc5
from skewlat.cli import main as cli_main
from skewlat.core import validate
from skewlat.cosets import comparable_pairs, flat_cosets, full_coset_join
from skewlat.decompose import kimura
from skewlat.greens import green_D, green_L, green_R, quotient
from skewlat.laws import ALL_LAW_CHECKS
from skewlat.matrix_rings import (
    matrix_coset_remark_check,
    nabla,
    primitive_left_handed,
    primitive_right_handed,
    triangular_factorization,
)
from skewlat.varieties import (
    PREDICATES,
    classify,
    is_left_handed,
    is_quasi_distributive,
    is_right_handed,
    predicate,
)


def _report(num, title, ok):
    import conftest

    line = f"ACCEPTANCE {num} ({title}): {'PASS' if ok else 'FAIL'}"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line, file=sys.stderr)
    assert ok, f"acceptance criterion {num} failed"


def test_acceptance_1_axiom_foundation(catalogs, catalog5):
    start = time.perf_counter()
    ok = True
    algebras = [s for c in catalogs.values() for s in c.algebras]
    algebras += list(catalog5.algebras)
    for s in algebras:
        rep = validate(s.meet, s.join)
        ok &= rep.valid and rep.meet_regular and rep.join_regular
        # quotient() raises unless the partition is a congruence; the
        # D-quotient must be commutative (a lattice)
        for relation in (green_R, green_L, green_D):
            quotient(s, relation(s))
        q = quotient(s, green_D(s)).quotient
        ok &= all(
            q.m(x, y) == q.m(y, x) and q.j(x, y) == q.j(y, x)
            for x in range(q.n)
            for y in range(q.n)
        )
        for block in (frozenset(b) for b in green_D(s).to_json_blocks()):
            ok &= all(s.m(x, y, x) == x for x in block for y in block)
    ok &= time.perf_counter() - start < 600
    _report(1, "axiom/foundation suite, orders 1-5", ok)


def test_acceptance_2_kimura(catalogs, catalog5):
    start = time.perf_counter()
    ok = True
    order4_time = None
    for order in range(1, 6):
        cat = catalogs.get(order) or catalog5
        t0 = time.perf_counter()
        for s in cat.algebras:
            dec = kimura(s)  # verifies the isomorphism internally
            sr = dec.left_factor.quotient
            sl = dec.right_factor.quotient
            iso = list(dec.iso)
            ok &= sorted(iso) == list(range(s.n))
            for name in PREDICATES:
                ok &= predicate(s, name)[0] == (
                    predicate(sr, name)[0] and predicate(sl, name)[0]
                )
        if order == 4:
            order4_time = time.perf_counter() - t0
    ok &= order4_time is not None and order4_time <= 60
    _report(2, "Kimura suite, reconstruction + predicate battery", ok)


def test_acceptance_3_cosets(catalogs, catalog5):
    ok = True
    algebras = [s for c in catalogs.values() for s in c.algebras]
    algebras += list(catalog5.algebras)
    for s in algebras:
        for pair in comparable_pairs(s):
            flat_cosets(s, pair)  # partitions/refinement/transversal audit
        # the flat decomposition, coset bijections, image sets,
        # intersection and linking laws and the Kimura diagram
        rep = ALL_LAW_CHECKS["coset-structure"](s)
        ok &= rep.verdict == "concordant" and len(rep.records) == 11
    _report(3, "coset suite, partitions/bijections/diagram", ok)


def test_acceptance_4_concordance(catalogs, catalog5):
    ok = True
    algebras = [s for c in catalogs.values() for s in c.algebras]
    algebras += list(catalog5.algebras)
    algebras += [nc5("right"), nc5("left")]
    for i, s in enumerate(algebras):
        for law, check in ALL_LAW_CHECKS.items():
            rep = check(s, f"a{i}")
            ok &= rep.verdict == "concordant"
    _report(4, "law concordance, orders 1-5", ok)


def test_acceptance_5_nc5():
    right = nc5("right")
    left = nc5("left")
    ok = True
    for s in (right, left):
        ok &= validate(s.meet, s.join).valid
        ok &= is_quasi_distributive(s)[0]
        ok &= not classify(s).results["simply-cancellative"][0]
    ok &= is_right_handed(right)[0]
    ok &= is_left_handed(left)[0]
    # with classes {u} > {x1, x2}, {y} > {v}: the cosets of B = {y} cannot
    # separate x1 from x2, while the cosets of M = {v} do
    x1, x2, y, v = 1, 2, 3, 0
    for s in (right, left):
        ok &= full_coset_join(s, frozenset({y}), x1) == full_coset_join(
            s, frozenset({y}), x2
        )
        ok &= full_coset_join(s, frozenset({v}), x1) != full_coset_join(
            s, frozenset({v}), x2
        )
    _report(5, "NC5 reproduction, both variants", ok)


def test_acceptance_6_matrix_models():
    ok = True
    dims = (1, 1, 1)
    for p in (3, 5):
        t0 = time.perf_counter()
        pairs = [
            (((x,),), ((y,),)) for x in range(p) for y in range(p)
        ]
        right = primitive_right_handed(p, dims, pairs, pairs)
        ok &= is_right_handed(right.abstract)[0]
        for a, b in product(right.elements, repeat=2):
            ok &= nabla(a, b) == a + b - a @ b
        ok &= matrix_coset_remark_check(right, dims).verdict == "concordant"
        left = primitive_left_handed(p, dims, pairs, pairs)
        ok &= is_left_handed(left.abstract)[0]
        ok &= matrix_coset_remark_check(left, dims).verdict == "concordant"
        for msl in (right, left):
            for m in msl.elements:
                lo, hi = triangular_factorization(m, dims)
                ok &= lo @ hi == m
        ok &= time.perf_counter() - t0 <= 120
    _report(6, "matrix suite over GF(3) and GF(5)", ok)


def test_acceptance_7_oracle_equivalence():
    start = time.perf_counter()
    ok = True
    for order in (1, 2, 3):
        pruned = enumerate_catalog(order, method="pruned-search")
        naive = enumerate_catalog(order, method="naive-oracle")
        ok &= set(pruned.algebras) == set(naive.algebras)
    ok &= len(enumerate_catalog(2).algebras) == 3
    ok &= time.perf_counter() - start <= 60
    _report(7, "pruned enumeration matches the naive oracle", ok)


def test_acceptance_8_determinism(capsys):
    def run(*argv):
        code = cli_main(list(argv))
        out = capsys.readouterr().out
        return code, out

    ok = True
    c1, e1 = run("enumerate", "--order", "4", "--workers", "1")
    c8, e8 = run("enumerate", "--order", "4", "--workers", "8")
    ok &= c1 == c8 == 0 and e1 == e8
    v1_code, v1 = run("verify", "--order", "4", "--workers", "1")
    v8_code, v8 = run("verify", "--order", "4", "--workers", "8")
    ok &= v1_code == v8_code == 0 and v1 == v8
    ok &= json.loads(v1) == json.loads(v8)
    _report(8, "worker-count determinism, enumerate + verify", ok)
