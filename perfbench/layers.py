"""Which skewlat functions the traced run wraps, and the per-layer metrics
computed from what the wrappers recorded.

Metric names are ``<module>.<function>.<what>``: ``calls`` and work counts
are exact, ``s`` is inclusive seconds and ``self_s`` is seconds minus the
time covered by child spans.  ``per_algebra`` divides calls by the number of
algebra files in the pass, or by the number of CLI ops on workloads that
read no algebra files.
"""

from __future__ import annotations

import statistics
import time

LAW_FAMILIES = ("symmetry", "flat-symmetry", "normality", "cancellation",
                "decomposition")
COSET_PRIMITIVES = ("right_coset_meet", "left_coset_meet", "full_coset_meet",
                    "right_coset_join", "left_coset_join", "full_coset_join")


def _add(key, size):
    def count(counts, result):
        counts[key] += size(result)

    return count


def instrument(tracer):
    """Install every wrapper; the caller restores them with tracer.restore()."""
    from skewlat import (catalog, cli, core, cosets, decompose, greens,
                         kernels, laws, matrix_rings, varieties)

    spans = [
        (kernels.meet_tables, "kernels.meet_tables",
         _add("kernels.meet_tables.bands", len)),
        (kernels.join_completions, "kernels.join_completions",
         _add("kernels.join_completions.completions", len)),
        (kernels.canonical_pair, "kernels.canonical_pair", None),
        (catalog.enumerate_catalog, "catalog.enumerate_catalog",
         _add("catalog.classes", lambda c: len(c.algebras))),
        (core.validate, "core.validate",
         _add("core.validate.valid", lambda r: int(r.valid))),
        (greens.green_D, "greens.green_D", None),
        (greens.green_R, "greens.green_R", None),
        (greens.green_L, "greens.green_L", None),
        (greens.quotient, "greens.quotient", None),
        (cosets.flat_cosets, "cosets.flat_cosets", None),
        (decompose.kimura, "decompose.kimura", None),
        (decompose.find_lattice_section, "decompose.find_lattice_section",
         None),
        (decompose.skew_diamonds, "decompose.skew_diamonds", None),
        (varieties.check_identity, "varieties.check_identity", None),
        (varieties.classify, "varieties.classify", None),
        (matrix_rings.closure, "matrix_rings.closure",
         _add("matrix_rings.closure.elements", lambda m: len(m.elements))),
        (matrix_rings.matrix_coset_remark_check,
         "matrix_rings.matrix_coset_remark_check", None),
        (matrix_rings.triangular_factorization,
         "matrix_rings.triangular_factorization", None),
        (cli.main, "cli.main", None),
    ]
    spans += [(laws.ALL_LAW_CHECKS[f], f"laws.{f}", None) for f in LAW_FAMILIES]
    for fn, name, count in spans:
        tracer.install(fn, tracer.span(name, fn, count))
    for attr in COSET_PRIMITIVES:
        fn = getattr(cosets, attr)
        tracer.install(fn, tracer.counter("cosets.coset_primitive", fn))
    tracer.install(matrix_rings.nabla,
                   tracer.counter("matrix_rings.nabla", matrix_rings.nabla))
    m = matrix_rings.PrimeFieldMatrix
    tracer.install_method(
        m, "__matmul__", tracer.counter("matrix_rings.matmul", m.__matmul__))
    tracer.install_method(
        m, "__post_init__",
        tracer.counter("matrix_rings.matrix_new", m.__post_init__))


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(tracer, algebras, untraced_wall_s, traced_wall_s):
    """Every per-layer metric of the traced pass, as name -> (value, unit)."""
    c, s, k = tracer.calls, tracer.seconds, tracer.counts
    self_s = tracer.self_seconds()
    m = {}

    def timed(name):
        m[f"{name}.calls"] = (c[name], "count")
        m[f"{name}.s"] = (s[name], "s")

    timed("kernels.meet_tables")
    m["kernels.meet_tables.bands"] = (k["kernels.meet_tables.bands"], "count")
    timed("kernels.join_completions")
    done = k["kernels.join_completions.completions"]
    m["kernels.join_completions.completions"] = (done, "count")
    m["kernels.join_completions.yield_ratio"] = (
        _ratio(done, c["kernels.join_completions"]), "ratio")
    timed("kernels.canonical_pair")

    m["catalog.enumerate_catalog.s"] = (s["catalog.enumerate_catalog"], "s")
    m["catalog.classes"] = (k["catalog.classes"], "count")
    m["catalog.dedup_ratio"] = (
        _ratio(k["catalog.classes"], c["kernels.canonical_pair"]), "ratio")

    timed("core.validate")
    m["core.validate.valid_ratio"] = (
        _ratio(k["core.validate.valid"], c["core.validate"]), "ratio")

    timed("greens.green_D")
    m["greens.green_D.per_algebra"] = (
        _ratio(c["greens.green_D"], algebras), "calls/algebra")
    m["greens.green_R.calls"] = (c["greens.green_R"], "count")
    m["greens.green_L.calls"] = (c["greens.green_L"], "count")
    timed("greens.quotient")

    timed("cosets.flat_cosets")
    m["cosets.coset_primitive.calls"] = (c["cosets.coset_primitive"], "count")

    timed("decompose.kimura")
    m["decompose.kimura.per_algebra"] = (
        _ratio(c["decompose.kimura"], algebras), "calls/algebra")
    m["decompose.find_lattice_section.s"] = (
        s["decompose.find_lattice_section"], "s")
    m["decompose.skew_diamonds.calls"] = (
        c["decompose.skew_diamonds"], "count")

    timed("varieties.check_identity")
    m["varieties.classify.s"] = (s["varieties.classify"], "s")

    for fam in LAW_FAMILIES:
        m[f"laws.{fam}.s"] = (s[f"laws.{fam}"], "s")

    timed("matrix_rings.closure")
    m["matrix_rings.closure.elements"] = (
        k["matrix_rings.closure.elements"], "count")
    for leaf in ("matmul", "nabla", "matrix_new"):
        m[f"matrix_rings.{leaf}.calls"] = (c[f"matrix_rings.{leaf}"], "count")
    m["matrix_rings.matrix_coset_remark_check.s"] = (
        s["matrix_rings.matrix_coset_remark_check"], "s")
    m["matrix_rings.triangular_factorization.s"] = (
        s["matrix_rings.triangular_factorization"], "s")

    m["cli.main.calls"] = (c["cli.main"], "count")
    m["cli.main.self_s"] = (self_s["cli.main"], "s")

    m["trace.overhead_ratio"] = (
        _ratio(traced_wall_s, untraced_wall_s), "ratio")
    return m


# --- the kernel loops of benchmarks/bench_kernels.py ----------------------

KERNEL_REPEATS = 3


def kernel_backends():
    """Importable kernel backends by name; an unbuilt one maps to None."""
    from skewlat import _kernels_py

    try:
        from skewlat import _kernels_c
    except ImportError:
        _kernels_c = None
    return {"python": _kernels_py, "compiled": _kernels_c}


def _sample_tables():
    # chain(3) x rectangular(2, 1), built here so the loops do not depend
    # on skewlat.core: pair (x, y) is x*2 + y.
    n = 6
    meet, join = [], []
    for p in range(n):
        x1, y1 = divmod(p, 2)
        for q in range(n):
            x2, y2 = divmod(q, 2)
            meet.append(min(x1, x2) * 2 + y1)
            join.append(max(x1, x2) * 2 + y2)
    return tuple(meet), tuple(join), n


def _assoc_x2000(impl):
    mt, _, n = _sample_tables()
    return sum(impl.assoc_witness(mt, n) is None for _ in range(2000))


def _canonical_x20(impl):
    mt, jt, n = _sample_tables()
    return sum(len(impl.canonical_pair(mt, jt, n)) for _ in range(20))


def _enumerate_o4(impl):
    return sum(len(impl.join_completions(mt, 4)) for mt in impl.meet_tables(4))


KERNEL_LOOPS = {
    "assoc_x2000": _assoc_x2000,
    "canonical_x20": _canonical_x20,
    "enumerate_o4": _enumerate_o4,
}


def kernel_loops():
    """Median-of-3 seconds per loop and backend, plus the loops' results,
    which must agree across backends.  Absent backends stay absent."""
    metrics, results, status = {}, {}, {}
    for backend, impl in kernel_backends().items():
        if impl is None:
            status[backend] = "absent"
            continue
        status[backend] = "present"
        for loop, fn in KERNEL_LOOPS.items():
            times = []
            for _ in range(KERNEL_REPEATS):
                t0 = time.perf_counter()
                out = fn(impl)
                times.append(time.perf_counter() - t0)
            metrics[f"kernels.{backend}.{loop}.s"] = (
                statistics.median(times), "s")
            results[f"{backend}.{loop}"] = out
    return metrics, results, status
