"""Exhaustive catalogs of skew lattices up to isomorphism, and named
constructions (the five-element non-cancellative algebra, primitive
algebras rebuilt from coset data)."""

from __future__ import annotations

import itertools
import json
import multiprocessing
import os
from dataclasses import dataclass, field

from .core import (
    SkewLattice,
    _assoc_witness,
    load_algebra,
    read_json,
    require_valid,
    to_json,
    validate,
)
from .errors import (
    InconsistentCosetData,
    MalformedInput,
    OrderTooLarge,
    SkewLatticeError,
)
from .kernels import canonical_pair, join_completions, meet_tables

PRUNED_MAX_ORDER = 6
NAIVE_MAX_ORDER = 3


@dataclass(frozen=True)
class Catalog:
    order: int
    algebras: tuple  # SkewLattice, canonical form, sorted
    provenance: str


def _flat(table):
    """A table of row tuples as the row-major flat tuple the kernels read."""
    return tuple(v for row in table for v in row)


def _from_flat(mt, jt, n) -> SkewLattice:
    """The algebra whose row-major flat tables are mt and jt."""
    return SkewLattice(
        [[mt[i * n + j] for j in range(n)] for i in range(n)],
        [[jt[i * n + j] for j in range(n)] for i in range(n)],
    )


def canonical(s: SkewLattice) -> SkewLattice:
    """The least relabeling of s under lexicographic (meet, join) order."""
    cm, cj, _ = canonical_pair(_flat(s.meet), _flat(s.join), s.n)
    return _from_flat(cm, cj, s.n)


_ORDER_CAPS = {"pruned-search": PRUNED_MAX_ORDER, "naive-oracle": NAIVE_MAX_ORDER}


def check_order_cap(order: int, method: str = "pruned-search"):
    """Raise OrderTooLarge when `method` cannot enumerate `order`."""
    cap = _ORDER_CAPS.get(method)
    if cap is not None and order > cap:
        raise OrderTooLarge(f"{method.replace('-', ' ')} capped at order {cap}")


def pool_size(requested: int, tasks: int) -> int:
    """The worker processes to start for `tasks` tasks: no more than
    requested, than the host has CPUs, or than there are tasks.  At 1 or
    less, run the tasks serially."""
    return min(requested, os.cpu_count() or 1, tasks)


def _search_task(args):
    n, prefix = args
    found = set()
    for mt in meet_tables(n, prefix):
        for jt in join_completions(mt, n):
            cm, cj, _ = canonical_pair(mt, jt, n)
            found.add((cm, cj))
    return found


def _prefixes(n):
    return [tuple(p) for p in itertools.product(range(n), repeat=n - 1)]


def _naive_bands(n):
    """Every band on 0..n-1 as a nested table, by full scan: each of the
    n**(n*n - n) tables whose diagonal is the identity (idempotent by
    construction) that `core._assoc_witness` finds associative.

    This is the naive oracle's pre-filter.  `validate` rejects any pair
    whose meet or join is not a band, so pairing only these tables drops
    no skew lattice, and the oracle stays an exhaustive scan that shares
    no code with the pruned search beyond `canonical_pair`."""
    cells = [(i, j) for i in range(n) for j in range(n) if i != j]
    bands = []
    for vals in itertools.product(range(n), repeat=len(cells)):
        t = [[i] * n for i in range(n)]
        for (i, j), v in zip(cells, vals):
            t[i][j] = v
        t = tuple(map(tuple, t))
        if _assoc_witness(t, n) is None:
            bands.append(t)
    return bands


def enumerate_catalog(
    order: int, method: str = "pruned-search", workers: int = 1
) -> Catalog:
    """All skew lattices of the given order, one per isomorphism class,
    in canonical form, sorted; identical output for any worker count."""
    check_order_cap(order, method)
    if method == "pruned-search":
        tasks = [(order, p) for p in _prefixes(order)]
        workers = pool_size(workers, len(tasks))
        if workers <= 1:
            found = _search_task((order, None))
        else:
            with multiprocessing.Pool(workers) as pool:
                found = set()
                for part in pool.imap_unordered(_search_task, tasks, chunksize=64):
                    found |= part
    elif method == "naive-oracle":
        # every pair of bands through the full axiom check; see _naive_bands
        found = set()
        n = order
        bands = _naive_bands(n)
        for meet in bands:
            for join in bands:
                if validate(meet, join).valid:
                    cm, cj, _ = canonical_pair(_flat(meet), _flat(join), n)
                    found.add((cm, cj))
    else:
        raise ValueError(f"unknown enumeration method {method!r}")

    algebras = tuple(_from_flat(mt, jt, order) for mt, jt in sorted(found))
    return Catalog(order=order, algebras=algebras, provenance=method)


# --- named constructions --------------------------------------------------

def nc5(handed: str = "right") -> SkewLattice:
    """Five elements v < {x1, x2}, {y} < u with {x1, x2} a two-element
    rectangular class; `handed` picks x1 ^ x2 = x2 (right) or x1 (left)."""
    if handed not in ("right", "left"):
        raise ValueError(f"handed must be 'right' or 'left', not {handed!r}")
    V, X1, X2, Y, U = range(5)
    meet = [[0] * 5 for _ in range(5)]
    join = [[0] * 5 for _ in range(5)]
    for a in range(5):
        meet[a][a] = join[a][a] = a
        meet[U][a] = meet[a][U] = a
        join[U][a] = join[a][U] = U
        meet[V][a] = meet[a][V] = V
        join[V][a] = join[a][V] = a
    for x in (X1, X2):
        meet[x][Y] = meet[Y][x] = V
        join[x][Y] = join[Y][x] = U
    if handed == "right":
        meet[X1][X2], meet[X2][X1] = X2, X1
        join[X1][X2], join[X2][X1] = X1, X2
    else:
        meet[X1][X2], meet[X2][X1] = X1, X2
        join[X1][X2], join[X2][X1] = X2, X1
    return SkewLattice.checked(meet, join)


# --- primitive algebras from coset data ----------------------------------


@dataclass(frozen=True)
class CosetData:
    """Data determining a primitive algebra with classes A > B.

    Class A has shape (rows, cols) with rows*cols elements numbered
    row-major; likewise B.  `upper_cosets` partitions A's indices,
    `lower_cosets` partitions B's; `bijections[(i, j)]` maps the i-th
    upper coset onto the j-th lower coset.
    """

    upper_shape: tuple
    lower_shape: tuple
    upper_cosets: tuple  # tuple of tuples of A-indices
    lower_cosets: tuple  # tuple of tuples of B-indices
    bijections: dict    # (upper coset idx, lower coset idx) -> dict


def primitive_from_coset_data(d: CosetData) -> SkewLattice:
    """Assemble the operation tables a primitive algebra must have for the
    given coset data, then validate; inconsistent data is rejected with
    the failing axiom witness."""
    la, ra = d.upper_shape
    lb, rb = d.lower_shape
    na, nb = la * ra, lb * rb
    if sorted(i for c in d.upper_cosets for i in c) != list(range(na)):
        raise InconsistentCosetData("upper cosets do not partition the class")
    if sorted(i for c in d.lower_cosets for i in c) != list(range(nb)):
        raise InconsistentCosetData("lower cosets do not partition the class")
    coset_of_a = {}
    for ci, c in enumerate(d.upper_cosets):
        for i in c:
            coset_of_a[i] = ci
    coset_of_b = {}
    for cj, c in enumerate(d.lower_cosets):
        for j in c:
            coset_of_b[j] = cj
    fwd = {}
    for ci in range(len(d.upper_cosets)):
        for cj in range(len(d.lower_cosets)):
            if (ci, cj) not in d.bijections:
                raise InconsistentCosetData(f"missing bijection for pair {(ci, cj)}")
            phi = dict(d.bijections[(ci, cj)])
            if sorted(phi) != sorted(d.upper_cosets[ci]) or sorted(
                phi.values()
            ) != sorted(d.lower_cosets[cj]):
                raise InconsistentCosetData(
                    f"map for pair {(ci, cj)} is not a bijection between its cosets"
                )
            fwd[(ci, cj)] = phi

    # global element numbering: A first, then B
    n = na + nb

    def arow(x):
        return divmod(x, ra)

    def brow(x):
        return divmod(x, rb)

    meet = [[0] * n for _ in range(n)]
    join = [[0] * n for _ in range(n)]
    for x in range(na):
        for y in range(na):
            (i1, j1), (i2, j2) = arow(x), arow(y)
            meet[x][y] = i1 * ra + j2
            join[x][y] = i2 * ra + j1
    for x in range(nb):
        for y in range(nb):
            (i1, j1), (i2, j2) = brow(x), brow(y)
            meet[na + x][na + y] = na + i1 * rb + j2
            join[na + x][na + y] = na + i2 * rb + j1
    for a in range(na):
        for b in range(nb):
            phi = fwd[(coset_of_a[a], coset_of_b[b])]
            abar = phi[a]                     # image of a in b's coset
            bhat = {v: k for k, v in phi.items()}[b]
            (ia, ja) = brow(abar)
            (ib, jb) = brow(b)
            meet[a][na + b] = na + ia * rb + jb   # abar ^ b in B
            meet[na + b][a] = na + ib * rb + ja   # b ^ abar
            (ua, va) = arow(a)
            (ub, vb) = arow(bhat)
            join[a][na + b] = ub * ra + va        # a v bhat in A
            join[na + b][a] = ua * ra + vb        # bhat v a
    rep = validate(meet, join)
    if not rep.valid:
        raise InconsistentCosetData(
            f"coset data yields an invalid table: {rep.failures[0]}"
        )
    return SkewLattice(meet, join)


# --- persistence ---------------------------------------------------------


def save_catalog(cat: Catalog, directory: str):
    """Write one JSON file per algebra plus an index that lists and counts
    them.  An index left by an earlier save is removed before the first
    algebra file is written, and the new one is written last, to a
    temporary file renamed into place: a save cut short leaves no
    index.json, so the directory reads as absent rather than malformed."""
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, "index.json")
    try:
        os.remove(path)
    except FileNotFoundError:
        pass
    index = {"order": cat.order, "provenance": cat.provenance, "algebras": []}
    for i, s in enumerate(cat.algebras):
        name = f"order{cat.order}-{i:04d}.json"
        with open(os.path.join(directory, name), "w") as f:
            f.write(to_json(s))
        index["algebras"].append({"file": name})
    index["count"] = len(cat.algebras)
    with open(path + ".tmp", "w") as f:
        json.dump(index, f, sort_keys=True, indent=2)
        f.write("\n")
    os.replace(path + ".tmp", path)


def load_catalog(directory: str) -> Catalog:
    """The catalog saved in `directory`, each algebra re-validated.  Raises
    MalformedInput when a file is missing, unreadable or not in the saved
    format, and SkewLatticeError when an algebra violates an axiom, has
    another order than the index, or is not in canonical form, or when the
    algebras are not distinct and sorted as `enumerate_catalog` leaves
    them."""
    index_path = os.path.join(directory, "index.json")
    index = read_json(index_path)
    try:
        order, provenance = index["order"], index["provenance"]
        paths = [os.path.join(directory, e["file"]) for e in index["algebras"]]
    except (KeyError, TypeError) as e:
        raise MalformedInput(
            f"{index_path} does not match the catalog format: {e}"
        ) from None
    if type(order) is not int:
        raise MalformedInput(f"{index_path}: order {order!r} is not an integer")
    algebras = tuple(require_valid(load_algebra(p)[0], p) for p in paths)
    for p, s in zip(paths, algebras):
        if s.n != order:
            raise SkewLatticeError(
                f"{p}: an algebra of order {s.n} in a catalog of order {order}"
            )
        if canonical(s) != s:
            raise SkewLatticeError(f"{p}: not in canonical form")
    keys = [(_flat(s.meet), _flat(s.join)) for s in algebras]
    for k in range(1, len(keys)):
        if keys[k - 1] >= keys[k]:
            fault = "repeats" if keys[k - 1] == keys[k] else "sorts before"
            raise SkewLatticeError(f"{paths[k]} {fault} {paths[k - 1]}")
    return Catalog(order=order, algebras=algebras, provenance=provenance)
