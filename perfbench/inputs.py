"""Seeded algebra files for the ``analyze`` workload.

Every algebra is a direct product of small skew lattices: the catalog of
orders 2-4 and the two five-element ``nc5`` variants, frozen in
``factors.json`` so that the inputs do not change when the enumerator's
canonical form or ordering does, plus chains and rectangular bands.  Each is
optionally mirrored (tables transposed) and dualised (meet and join swapped)
and then randomly relabelled.  Products, mirrors, duals and relabelings of
skew lattices are skew lattices, so every input must validate.

The batch holds a fixed list of slots per order band, so that a fresh seed
gives a comparable pass:

* small, orders 4-6: the seed picks the factors.  The order-3 x order-2
  products here are where the law harness reports ``cancellation-coset-laws``
  discordant; they are kept on purpose.
* mid, orders 8-12, and large, orders 16-24: the factors, mirror and dual
  of each slot are fixed, because the cost of ``classify`` and ``verify`` at
  these orders changes several-fold with which identities hold, and these
  slots set the pass time and ``op_p95_ms``.  The seed still picks their
  relabeling.

Nothing here imports skewlat: the tables and the expected facts are built by
the benchmark alone.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

_FACTORS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "factors.json")


def chain(k):
    return ([[min(i, j) for j in range(k)] for i in range(k)],
            [[max(i, j) for j in range(k)] for i in range(k)])


def rect(l, r):
    n = l * r
    return ([[(a // r) * r + b % r for b in range(n)] for a in range(n)],
            [[(b // r) * r + a % r for b in range(n)] for a in range(n)])


def product(a, b):
    na, nb = len(a[0]), len(b[0])
    n = na * nb
    tables = []
    for ta, tb in zip(a, b):
        tables.append([[ta[p // nb][q // nb] * nb + tb[p % nb][q % nb]
                        for q in range(n)] for p in range(n)])
    return tuple(tables)


def mirror(s):
    return tuple([list(col) for col in zip(*t)] for t in s)


def dual(s):
    return (s[1], s[0])


def relabel(s, perm):
    n = len(perm)
    out = []
    for t in s:
        r = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                r[perm[i]][perm[j]] = perm[t[i][j]]
        out.append(r)
    return tuple(out)


def dclass_count(s):
    """D-classes of the meet band, by x D y iff xyx = x and yxy = y."""
    m = s[0]
    n = len(m)
    seen, classes = set(), 0
    for x in range(n):
        if x in seen:
            continue
        classes += 1
        seen.update(y for y in range(n)
                    if m[m[x][y]][x] == x and m[m[y][x]][y] == y)
    return classes


# Recipes are tuples of factor names: "o<k>.<i>" is the i-th catalog member
# of order k, "nc5-right"/"nc5-left", "chain<k>", "rect<l>x<r>".
MID_SLOTS = (
    ("o4.0", "o2.1"), ("o4.7", "o2.2"), ("o4.14", "o2.0"), ("o4.20", "o2.1"),
    ("chain2", "chain2", "o2.2"),
    ("o3.1", "o3.4"), ("o3.2", "o3.6"), ("o3.5", "o3.3"),
    ("nc5-right", "o2.0"), ("nc5-left", "o2.2"), ("nc5-right", "chain2"),
    ("o4.3", "o3.2"), ("o4.10", "o3.5"), ("o4.17", "o3.0"),
    ("rect2x2", "chain3"), ("chain2", "rect2x1", "o3.4"),
)
LARGE_SLOTS = (
    ("o4.5", "o4.12"),
    ("rect2x2", "o4.19"),
    ("o3.3", "o3.6", "o2.1"),
    ("nc5-left", "o4.8"),
    ("o3.1", "o4.16", "chain2"),
)
FIXED_TRANSFORMS = ((), ("mirror",), ("dual",), ("mirror", "dual"))


def _small_slots(rng, counts):
    """Seeded small-band recipes, orders 4-6."""
    pick = lambda k, m: [f"o{k}.{i}" for i in rng.sample(range(counts[k]), m)]
    slots = [(f,) for f in pick(4, 6)]
    slots += [(rng.choice(("nc5-right", "nc5-left")),) for _ in range(4)]
    pairs = rng.sample([(a, b) for a in range(counts[3])
                        for b in range(counts[2])], 10)
    slots += [(f"o3.{a}", f"o2.{b}") for a, b in pairs]
    slots += [("chain3", rng.choice(("rect1x2", "rect2x1"))) for _ in range(2)]
    slots += [("chain2", rng.choice(("rect1x3", "rect3x1"))) for _ in range(2)]
    return slots


@dataclass(frozen=True)
class Algebra:
    name: str          # file stem: slot index, recipe and transforms
    recipe: str
    n: int
    dclasses: int      # expected D-class count: product over the factors
    text: str          # the algebra file's JSON


class FactorBook:
    def __init__(self):
        with open(_FACTORS_PATH) as f:
            raw = json.load(f)
        self.tables = {}
        for key, algebras in raw.items():
            if key.startswith("order"):
                for i, s in enumerate(algebras):
                    self.tables[f"o{key[5:]}.{i}"] = tuple(s)
            else:
                self.tables[key] = tuple(algebras[0])
        self.counts = {int(k[5:]): len(v) for k, v in raw.items()
                       if k.startswith("order")}

    def get(self, name):
        if name in self.tables:
            return self.tables[name]
        if name.startswith("chain"):
            return chain(int(name[5:]))
        if name.startswith("rect"):
            l, r = name[4:].split("x")
            return rect(int(l), int(r))
        raise KeyError(name)


def batch(seed):
    """The analyze batch for one seed: same seed, same algebras, same bytes."""
    rng = random.Random(seed)
    book = FactorBook()
    small = _small_slots(rng, book.counts)
    slots = small + list(MID_SLOTS) + list(LARGE_SLOTS)
    out = []
    for idx, recipe in enumerate(slots):
        factors = [book.get(f) for f in recipe]
        s = factors[0]
        for f in factors[1:]:
            s = product(s, f)
        dclasses = 1
        for f in factors:
            dclasses *= dclass_count(f)
        n = len(s[0])
        if idx < len(small):
            tags = [t for t in ("mirror", "dual") if rng.random() < 0.5]
        else:
            tags = FIXED_TRANSFORMS[idx % len(FIXED_TRANSFORMS)]
        if "mirror" in tags:
            s = mirror(s)
        if "dual" in tags:
            s = dual(s)
        perm = list(range(n))
        rng.shuffle(perm)
        s = relabel(s, perm)
        recipe_name = "*".join(recipe)
        name = f"{idx:02d}-{'_'.join(recipe)}" + "".join(f"-{t}" for t in tags)
        text = json.dumps({"n": n, "meet": s[0], "join": s[1]},
                          separators=(",", ":"))
        out.append(Algebra(name, recipe_name, n, dclasses, text))
    return out
