import pytest

from skewlat.catalog import enumerate_catalog, nc5
from skewlat.core import SkewLattice, chain, direct_product, dual, mirror, rectangular

# one "ACCEPTANCE n (...): PASS/FAIL" line per criterion, printed after the
# run so output capture cannot swallow them
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def catalogs():
    """Catalogs indexed by order, up to order 4."""
    return {n: enumerate_catalog(n) for n in range(1, 5)}


@pytest.fixture(scope="session")
def catalog5():
    return enumerate_catalog(5)


@pytest.fixture(scope="session")
def nc5_right():
    return nc5("right")


@pytest.fixture(scope="session")
def nc5_left():
    return nc5("left")


@pytest.fixture(scope="session")
def samples(nc5_right, nc5_left):
    """A named mix of structurally different small algebras."""
    return {
        "chain3": chain(3),
        "rect22": rectangular(2, 2),
        "rect31": rectangular(3, 1),
        "chain2xrect22": direct_product(chain(2), rectangular(2, 2)),
        "nc5-right": nc5_right,
        "nc5-left": nc5_left,
    }


# The four skew lattices of order 7, up to isomorphism, that are not
# symmetric, in canonical form and named by their index in the order-7
# catalog; every algebra of order <= 6 is symmetric.  They are the
# pruned search's own output: with `catalog.PRUNED_MAX_ORDER` raised to 7,
# `skewlat enumerate --order 7` prints 531 classes (stdout sha256
# 8ed71381cafe4184488c8b90bf0b952ecb933829ba017df2b4b44726ff3cd234), and
# these are the only ones whose commuting pairs differ between meet and
# join.  They are kept out of the law-concordance tests and the digest
# corpora.
NON_SYMMETRIC_ORDER7 = {
    "o7.60": (
        [[0, 0, 0, 0, 0, 0, 0],
         [0, 1, 0, 0, 0, 1, 1],
         [0, 0, 2, 0, 2, 0, 2],
         [3, 3, 3, 3, 3, 3, 3],
         [3, 3, 4, 3, 4, 3, 4],
         [3, 5, 3, 3, 3, 5, 5],
         [0, 1, 2, 3, 4, 5, 6]],
        [[0, 1, 2, 3, 4, 5, 6],
         [1, 1, 6, 5, 6, 5, 6],
         [2, 6, 2, 4, 4, 6, 6],
         [0, 1, 2, 3, 4, 5, 6],
         [2, 6, 2, 4, 4, 6, 6],
         [1, 1, 6, 5, 6, 5, 6],
         [6, 6, 6, 6, 6, 6, 6]],
    ),
    "o7.112": (
        [[0, 0, 0, 0, 0, 0, 0],
         [0, 1, 0, 0, 1, 1, 1],
         [0, 0, 2, 2, 0, 2, 2],
         [0, 0, 3, 3, 0, 3, 3],
         [0, 4, 0, 0, 4, 4, 4],
         [0, 1, 2, 2, 1, 5, 5],
         [0, 4, 3, 3, 4, 6, 6]],
        [[0, 1, 2, 3, 4, 5, 6],
         [1, 1, 5, 6, 4, 5, 6],
         [2, 5, 2, 3, 6, 5, 6],
         [3, 5, 2, 3, 6, 5, 6],
         [4, 1, 5, 6, 4, 5, 6],
         [5, 5, 5, 6, 6, 5, 6],
         [6, 5, 5, 6, 6, 5, 6]],
    ),
    "o7.138": (
        [[0, 0, 0, 0, 0, 0, 0],
         [0, 1, 0, 0, 1, 5, 5],
         [0, 0, 2, 3, 2, 0, 3],
         [0, 0, 2, 3, 2, 0, 3],
         [0, 1, 2, 3, 4, 5, 6],
         [0, 1, 0, 0, 1, 5, 5],
         [0, 1, 2, 3, 4, 5, 6]],
        [[0, 1, 2, 3, 4, 5, 6],
         [1, 1, 4, 4, 4, 1, 4],
         [2, 4, 2, 2, 4, 4, 4],
         [3, 6, 3, 3, 6, 6, 6],
         [4, 4, 4, 4, 4, 4, 4],
         [5, 5, 6, 6, 6, 5, 6],
         [6, 6, 6, 6, 6, 6, 6]],
    ),
    "o7.510": (
        [[0, 0, 0, 0, 4, 4, 4],
         [0, 1, 0, 1, 4, 4, 6],
         [0, 0, 2, 2, 4, 5, 4],
         [0, 1, 2, 3, 4, 5, 6],
         [0, 0, 0, 4, 4, 4, 4],
         [0, 0, 2, 5, 4, 5, 4],
         [0, 1, 0, 6, 4, 4, 6]],
        [[0, 1, 2, 3, 0, 2, 1],
         [1, 1, 3, 3, 1, 3, 1],
         [2, 3, 2, 3, 2, 2, 3],
         [3, 3, 3, 3, 3, 3, 3],
         [4, 6, 5, 3, 4, 5, 6],
         [5, 3, 5, 3, 5, 5, 3],
         [6, 6, 3, 3, 6, 3, 6]],
    ),
}


@pytest.fixture(scope="session")
def non_symmetric7():
    return {
        name: SkewLattice(meet, join)
        for name, (meet, join) in NON_SYMMETRIC_ORDER7.items()
    }


@pytest.fixture(scope="session")
def non_symmetric7_variants(non_symmetric7):
    """(name, algebra) for each non-symmetric order-7 fixture as itself,
    mirrored, dualised, both, and times chain(2): 20 algebras, none
    symmetric, each quasi-distributive and exactly one of lower and upper
    symmetric."""
    return [
        (name + tag, a)
        for name, s in non_symmetric7.items()
        for tag, a in (
            ("", s),
            ("m", mirror(s)),
            ("d", dual(s)),
            ("md", mirror(dual(s))),
            ("x2", direct_product(s, chain(2))),
        )
    ]
