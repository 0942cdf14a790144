"""Command-line front end.

All machine-readable output goes to stdout as JSON with sorted keys;
human summaries go to stderr.  Exit codes: 0 success, 1 domain finding
(invalid algebra, failed --assert, discordant report), 2 usage or parse
error, 3 internal inconsistency.
"""

from __future__ import annotations

import argparse
import functools
import json
import multiprocessing
import os
import sys

from . import __version__
from . import catalog as _catalog
from . import core, cosets, decompose, greens, laws, matrix_rings, varieties
from .errors import (
    InternalInconsistency,
    MalformedInput,
    NotAPrimeField,
    OrderTooLarge,
    SkewLatticeError,
)

EXIT_OK = 0
EXIT_FINDING = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


class UsageError(Exception):
    pass


def _int_list(text, what):
    try:
        return [int(v) for v in text.split(",")]
    except ValueError:
        raise UsageError(f"{what} must be integers separated by ',': {text!r}")


def _require_positive(**flags):
    for name, value in flags.items():
        if value is not None and value < 1:
            raise UsageError(f"--{name} must be at least 1, got {value}")


def _emit(obj):
    json.dump(obj, sys.stdout, sort_keys=True, indent=2)
    sys.stdout.write("\n")


def _info(msg):
    print(msg, file=sys.stderr)


def _validated(path):
    s, names = core.load_algebra(path)
    return core.require_valid(s, path), names


def cmd_validate(args):
    s, _ = core.load_algebra(args.file)
    rep = core.validate(s.meet, s.join)
    _emit(rep.to_dict())
    _info(f"{args.file}: {'valid' if rep.valid else 'invalid'}")
    return EXIT_OK if rep.valid else EXIT_FINDING


def cmd_classify(args):
    s, _ = _validated(args.file)
    wanted = args.predicates.split(",") if args.predicates else None
    unknown = [p for p in wanted or [] if p not in varieties.PREDICATES]
    if args.assert_true and args.assert_true not in varieties.PREDICATES:
        unknown.append(args.assert_true)
    if unknown:
        raise UsageError(f"unknown predicates: {', '.join(unknown)}")
    out = varieties.classify(s, wanted).to_dict()
    _emit(out)
    _info(
        f"{args.file}: {sum(1 for v in out.values() if v['holds'])}"
        f"/{len(out)} predicates hold"
    )
    name = args.assert_true
    if name:
        # the asserted predicate need not be among the printed ones
        if name in out:
            holds = out[name]["holds"]
        else:
            holds = varieties.PREDICATES[name](s)[0]
        if not holds:
            _info(f"assertion failed: {name} is false")
            return EXIT_FINDING
    return EXIT_OK


def cmd_greens(args):
    s, _ = _validated(args.file)
    d, leq = greens.dclass_order(s)
    boxes = greens.eggboxes(s)
    _emit(
        {
            "R": greens.green_R(s).to_json_blocks(),
            "L": greens.green_L(s).to_json_blocks(),
            "D": d.to_json_blocks(),
            "H": greens.green_H(s).to_json_blocks(),
            "dclass_leq": [[bool(v) for v in row] for row in leq],
            "eggboxes": [
                {
                    "dclass": sorted(b.dclass),
                    "rows": [list(r) for r in b.rows],
                    "cols": [list(c) for c in b.cols],
                    "grid": [list(r) for r in b.grid],
                }
                for b in boxes
            ],
        }
    )
    _info(f"{args.file}: {len(boxes)} D-classes")
    return EXIT_OK


def cmd_cosets(args):
    s, _ = _validated(args.file)
    pairs = cosets.comparable_pairs(s)
    _emit(
        [
            cosets.coset_system_to_json(cosets.flat_cosets(s, pair))
            for pair in pairs
        ]
    )
    _info(f"{args.file}: {len(pairs)} comparable D-class pairs")
    return EXIT_OK


def cmd_decompose(args):
    s, _ = _validated(args.file)
    dec = decompose.kimura(s)
    sec = decompose.find_lattice_section(s)
    _emit(
        {
            "kimura": decompose.kimura_to_json(dec),
            "sections": decompose.sections_to_json(sec),
        }
    )
    _info(
        f"{args.file}: factors of orders "
        f"{dec.left_factor.quotient.n} and {dec.right_factor.quotient.n} "
        f"over a base of order {dec.base.quotient.n}"
    )
    return EXIT_OK


def _save_catalog(cat, directory):
    try:
        _catalog.save_catalog(cat, directory)
    except OSError as e:
        raise UsageError(f"cannot write catalog to {directory}: {e}") from None


def _cached_catalog(order, method, workers):
    cache_dir = os.environ.get("SKEWLAT_CACHE_DIR")
    if cache_dir:
        slot = os.path.join(cache_dir, f"{method}-order{order}-v{__version__}")
        if os.path.exists(os.path.join(slot, "index.json")):
            return _catalog.load_catalog(slot)
        cat = _catalog.enumerate_catalog(order, method=method, workers=workers)
        _save_catalog(cat, slot)
        return cat
    return _catalog.enumerate_catalog(order, method=method, workers=workers)


def cmd_enumerate(args):
    _require_positive(order=args.order, workers=args.workers)
    method = "naive-oracle" if args.oracle else "pruned-search"
    cat = _cached_catalog(args.order, method, args.workers)
    if args.out:
        _save_catalog(cat, args.out)
    _emit(
        {
            "order": cat.order,
            "provenance": cat.provenance,
            "count": len(cat.algebras),
            "algebras": [core.to_json_dict(s) for s in cat.algebras],
        }
    )
    _info(
        f"order {cat.order}: {len(cat.algebras)} algebras "
        f"up to isomorphism ({cat.provenance})"
    )
    return EXIT_OK


def _parse_pairs(text):
    if not text:
        return []
    out = []
    for chunk in text.split(";"):
        parts = _int_list(chunk, "parameter pairs")
        if len(parts) != 2:
            raise UsageError(f"expected 'x,y' pairs separated by ';': {text!r}")
        out.append(tuple(parts))
    return out


def cmd_matrix(args):
    # the parameters are scalars, so every block is 1 x 1
    dims = (1, 1, 1)
    block = lambda v: ((v,),)
    if args.sweep:
        field = range(args.p)
        pairs = [(x, y) for x in field for y in field]
        a_params = pairs
        b_params = pairs
    else:
        a_params = _parse_pairs(args.a_params)
        b_params = _parse_pairs(args.b_params)
    a_params = [(block(x), block(y)) for x, y in a_params]
    b_params = [(block(x), block(y)) for x, y in b_params]
    build = (
        matrix_rings.primitive_right_handed
        if args.construction == "right"
        else matrix_rings.primitive_left_handed
    )
    msl = build(args.p, dims, a_params, b_params)
    report = matrix_rings.matrix_coset_remark_check(msl, dims)
    # raises NotInStandardForm unless m == m_L @ m_R
    for m in msl.elements:
        matrix_rings.triangular_factorization(m, dims)
    _emit(
        {
            "model": msl.to_json_dict(),
            "coset_report": report.to_json_dict(),
            "factorizations_verified": len(msl.elements),
        }
    )
    _info(
        f"GF({args.p}) {args.construction}-handed, blocks {dims}: "
        f"order {len(msl.elements)}, coset report {report.verdict}"
    )
    return EXIT_OK if report.verdict == "concordant" else EXIT_FINDING


def _verify_one(task):
    idx, s, label, selected = task
    return idx, [
        laws.ALL_LAW_CHECKS[name](s, label).to_json_dict() for name in selected
    ]


def cmd_verify(args):
    _require_positive(order=args.order, workers=args.workers)
    if args.order:
        _catalog.check_order_cap(args.order)
    selected = (
        args.laws.split(",") if args.laws else sorted(laws.ALL_LAW_CHECKS)
    )
    unknown = [x for x in selected if x not in laws.ALL_LAW_CHECKS]
    if unknown:
        raise UsageError(f"unknown laws: {', '.join(unknown)}")

    algebras = []
    for path in args.files:
        s, _ = _validated(path)
        algebras.append((s, path))
    if args.catalog:
        cat = _catalog.load_catalog(args.catalog)
        for i, s in enumerate(cat.algebras):
            algebras.append((s, f"catalog-order{cat.order}-{i:04d}"))
    if args.order:
        for n in range(1, args.order + 1):
            cat = _cached_catalog(n, "pruned-search", args.workers)
            for i, s in enumerate(cat.algebras):
                algebras.append((s, f"order{n}-{i:04d}"))
    if not algebras:
        raise UsageError("nothing to verify: give files, --catalog, or --order")

    tasks = [(i, s, label, selected) for i, (s, label) in enumerate(algebras)]
    workers = _catalog.pool_size(args.workers, len(tasks))
    if workers > 1:
        with multiprocessing.Pool(workers) as pool:
            results = dict(pool.imap_unordered(_verify_one, tasks))
    else:
        results = dict(map(_verify_one, tasks))
    reports = [rep for i in range(len(tasks)) for rep in results[i]]

    _emit(reports)
    discordant = [r for r in reports if r["verdict"] != "concordant"]
    _info(
        f"{len(algebras)} algebras x {len(selected)} law families: "
        f"{len(reports) - len(discordant)} concordant, "
        f"{len(discordant)} discordant"
    )
    for r in discordant:
        _info(f"  discordant: {r['algebra']} / {r['law']}: {r['witness']}")
    return EXIT_FINDING if discordant else EXIT_OK


def cmd_export(args):
    s, names = _validated(args.file)
    if args.format == "dot":
        sys.stdout.write(greens.to_dot(s, names))
    else:
        sys.stdout.write(core.to_json(s, names))
    _info(f"{args.file}: exported as {args.format}")
    return EXIT_OK


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a bad command line as every other usage error is reported:
    one "error: ..." line on stderr, and exit 2."""

    def error(self, message):
        _info(f"error: {message}")
        sys.exit(EXIT_USAGE)


def build_parser():
    ap = _ArgumentParser(
        prog="skewlat", description="Compute with finite skew lattices."
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the skew-lattice axioms")
    p.add_argument("file")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("classify", help="evaluate the identity predicates")
    p.add_argument("file")
    p.add_argument("--predicates", help="comma-separated subset to report")
    p.add_argument(
        "--assert", dest="assert_true", help="exit 1 unless this predicate holds"
    )
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("greens", help="Green's relations and eggboxes")
    p.add_argument("file")
    p.set_defaults(fn=cmd_greens)

    p = sub.add_parser("cosets", help="coset systems of comparable D-classes")
    p.add_argument("file")
    p.set_defaults(fn=cmd_cosets)

    p = sub.add_parser("decompose", help="fibered-product decomposition")
    p.add_argument("file")
    p.set_defaults(fn=cmd_decompose)

    p = sub.add_parser("enumerate", help="catalog all algebras of one order")
    p.add_argument("--order", type=int, required=True)
    p.add_argument(
        "--oracle", action="store_true", help="use the naive full-scan method"
    )
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", help="also save the catalog to this directory")
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("matrix", help="matrix models over a prime field")
    p.add_argument("--p", type=int, required=True)
    p.add_argument(
        "--construction", choices=("right", "left"), default="right"
    )
    p.add_argument(
        "--sweep",
        action="store_true",
        help="use every scalar parameter pair over the field",
    )
    p.add_argument("--a-params", help="upper-class pairs 'x,y;x,y;...'")
    p.add_argument("--b-params", help="lower-class pairs 'x,y;x,y;...'")
    p.set_defaults(fn=cmd_matrix)

    p = sub.add_parser("verify", help="run the law-concordance harness")
    p.add_argument("files", nargs="*")
    p.add_argument("--laws", help="comma-separated law families")
    p.add_argument("--catalog", help="saved catalog directory")
    p.add_argument(
        "--order", type=int, help="verify every catalog algebra up to this order"
    )
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("export", help="write DOT or canonical JSON")
    p.add_argument("file")
    p.add_argument("--format", choices=("dot", "json"), default="json")
    p.set_defaults(fn=cmd_export)

    return ap


@functools.cache
def _parser():
    """The parser of every `main` call, built on the first one."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    # an unreadable or malformed input file, an unwritable catalog
    # directory, a non-prime --p or an --order above the method's cap is a
    # usage error
    except (UsageError, MalformedInput, NotAPrimeField, OrderTooLarge) as e:
        _info(f"error: {e}")
        return EXIT_USAGE
    except InternalInconsistency as e:
        _info(f"internal inconsistency: {e}")
        return EXIT_INTERNAL
    except SkewLatticeError as e:
        _info(f"error: {e}")
        return EXIT_FINDING


if __name__ == "__main__":
    sys.exit(main())
