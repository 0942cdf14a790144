"""Spans and counters recorded around calls into skewlat, from outside it.

The library is not edited.  Its modules bind names with ``from .x import f``,
so `Tracer.install` replaces each traced function object wherever a
``skewlat.*`` module binds it, as a module attribute or as a value of a
module-level dict (``laws.ALL_LAW_CHECKS``, ``varieties.PREDICATES``), and
`Tracer.restore` puts every original back.

A span records its name, start, end, parent span and the id of the CLI op
that caused it; spans are kept in flat arrays in memory and written once, by
`Tracer.write`.  Hot leaves (matrix products, matrix constructions, coset
primitives, nabla) are counted only, which keeps tracing affordable.
"""

from __future__ import annotations

import gzip
import json
import sys
from array import array
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.op_id = -1
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.calls: dict[str, int] = defaultdict(int)
        # Inclusive seconds, counting only spans not nested in one of the
        # same name, so recursion is not counted twice.
        self.seconds: dict[str, float] = defaultdict(float)
        # Work counts extracted from results (bands, completions, ...).
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._depth: dict[str, int] = defaultdict(int)
        self._undo: list[tuple] = []

    # --- wrappers -----------------------------------------------------

    def span(self, name, fn, count=None):
        """Wrap fn in a span; count(counts, result) adds work counts."""
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        stack, depth = self._stack, self._depth
        calls, seconds, counts = self.calls, self.seconds, self.counts
        s_name, s_start, s_end = self.span_name, self.span_start, self.span_end
        s_parent, s_op = self.span_parent, self.span_op
        tracer = self

        def wrapper(*args, **kwargs):
            i = len(s_start)
            s_name.append(nid)
            s_parent.append(stack[-1] if stack else -1)
            s_op.append(tracer.op_id)
            s_end.append(0.0)
            stack.append(i)
            outer = depth[name] == 0
            depth[name] += 1
            t0 = perf_counter()
            s_start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                s_end[i] = t1
                stack.pop()
                depth[name] -= 1
                calls[name] += 1
                if outer:
                    seconds[name] += t1 - t0
            if count is not None:
                count(counts, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name, fn):
        """Wrap fn so that its calls are counted, without a span."""
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # --- installation -------------------------------------------------

    def install(self, fn, wrapper):
        """Replace fn by wrapper in every skewlat namespace that binds it."""
        found = 0
        for modname, mod in list(sys.modules.items()):
            if modname != "skewlat" and not modname.startswith("skewlat."):
                continue
            for key, val in list(vars(mod).items()):
                if val is fn:
                    self._undo.append((mod, key, fn, False))
                    setattr(mod, key, wrapper)
                    found += 1
                elif type(val) is dict:
                    for k2, v2 in val.items():
                        if v2 is fn:
                            self._undo.append((val, k2, fn, True))
                            val[k2] = wrapper
                            found += 1
        if not found:
            raise LookupError(f"{fn.__qualname__} is bound nowhere in skewlat")

    def install_method(self, cls, attr, wrapper):
        self._undo.append((cls, attr, cls.__dict__[attr], False))
        setattr(cls, attr, wrapper)

    def restore(self):
        for target, key, original, is_dict in reversed(self._undo):
            if is_dict:
                target[key] = original
            else:
                setattr(target, key, original)
        self._undo.clear()

    # --- results ------------------------------------------------------

    def self_seconds(self):
        """Per span name: summed duration minus the time child spans cover."""
        child = array("d", bytes(8 * len(self.span_start)))
        start, end, parent = self.span_start, self.span_end, self.span_parent
        for i in range(len(start)):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        out = defaultdict(float)
        for i, nid in enumerate(self.span_name):
            out[self.names[nid]] += end[i] - start[i] - child[i]
        return out

    def write(self, path):
        """Write every span, column-wise, as gzipped JSON."""
        t0 = self.span_start[0] if self.span_start else 0.0
        doc = {
            "names": self.names,
            "name": self.span_name.tolist(),
            "start_s": [round(t - t0, 7) for t in self.span_start],
            "end_s": [round(t - t0, 7) for t in self.span_end],
            "parent": self.span_parent.tolist(),
            "op": self.span_op.tolist(),
            "counts": dict(self.counts),
            "calls": dict(self.calls),
        }
        with gzip.open(path, "wt", compresslevel=1) as f:
            json.dump(doc, f, separators=(",", ":"))
