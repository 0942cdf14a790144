"""The four workloads: which CLI ops one pass runs, why, what each bypasses,
and the correctness gates on every op's output.

All four drive ``skewlat.cli.main`` in-process, one closed-loop client, no
worker pool.  Left out on purpose:

* ``--workers > 1``: on a host with two shared cores a pool would measure
  the scheduler, not skewlat.
* order-6 enumeration (about 30 min on the pure backend) and the compiled
  backend (``setup.py`` builds ``_kernels_c`` only with Cython): they wait
  for the enumerator rewrite and for a build that compiles the shipped C
  file.
* the ``SKEWLAT_CACHE_DIR`` path: the cache is keyed only by method and
  order and never re-validated; it waits for the cache hardening.  The
  variable is removed from the environment so ``enumerate`` always searches.
* the Tier-1 test suite's wall time: it is a test, not a user workload.

A gate checks only facts known without the code under test.  A failed gate
is a failed op: it counts toward ``failed`` and makes the run exit non-zero.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Callable

import inputs


@dataclass
class Op:
    argv: list
    check: Callable  # (rc, stdout, findings) -> list of problems


@dataclass
class Job:
    ops: list
    algebras: int                 # algebra files the pass reads
    prepare: Callable | None = None   # untimed reference run, before passes
    files: dict = field(default_factory=dict)  # relative path -> JSON text


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    bypasses: str
    build: Callable  # seed -> Job


def _catalog_check(count, reference=None):
    def check(rc, out, findings):
        if rc != 0:
            return [f"exit {rc}"]
        doc = json.loads(out)
        problems = []
        if doc["count"] != count or len(doc["algebras"]) != count:
            problems.append(f"{doc['count']} classes, expected {count}")
        if reference is not None and doc["algebras"] != reference["algebras"]:
            problems.append("naive-oracle catalog differs from pruned search")
        return problems

    return check


def _enumerate(seed):
    return Job([Op(["enumerate", "--order", "5", "--workers", "1"],
                   _catalog_check(53))], algebras=0)


def _oracle(seed):
    reference = {}

    def prepare(run):
        rc, out = run(["enumerate", "--order", "3"])
        reference["algebras"] = json.loads(out)["algebras"] if rc == 0 else None

    return Job([Op(["enumerate", "--order", "3", "--oracle"],
                   _catalog_check(7, reference))],
               algebras=0, prepare=prepare)


def _matrix_check(p):
    order = 2 * p * p

    def check(rc, out, findings):
        if rc != 0:
            return [f"exit {rc}"]
        doc = json.loads(out)
        problems = []
        if len(doc["model"]["matrices"]) != order:
            problems.append(f"closure order {len(doc['model']['matrices'])}, "
                            f"expected {order}")
        if doc["coset_report"]["verdict"] != "concordant":
            problems.append("coset report not concordant")
        if doc["factorizations_verified"] != order:
            problems.append(f"{doc['factorizations_verified']} factorizations"
                            f" verified, expected {order}")
        return problems

    return check


def _matrix(seed):
    return Job([Op(["matrix", "--p", str(p), "--construction", c, "--sweep"],
                   _matrix_check(p))
                for p in (5, 7) for c in ("right", "left")], algebras=0)


# --- analyze -----------------------------------------------------------

def _ok(rc, out, findings):
    return [] if rc == 0 else [f"exit {rc}"]


def _validate_check(rc, out, findings):
    if rc != 0 or not json.loads(out)["valid"]:
        return [f"exit {rc}: a product of skew lattices reported invalid"]
    return []


def _greens_check(alg):
    def check(rc, out, findings):
        if rc != 0:
            return [f"exit {rc}"]
        got = len(json.loads(out)["D"])
        return [] if got == alg.dclasses else [
            f"{got} D-classes, expected {alg.dclasses}"]

    return check


def _decompose_check(alg):
    def check(rc, out, findings):
        if rc != 0:
            return [f"exit {rc}"]
        got = json.loads(out)["kimura"]["fibered"]["n"]
        return [] if got == alg.n else [f"fibered order {got}, expected {alg.n}"]

    return check


def _verify_check(alg):
    # Exit 1 with discordant reports is a finding about the law harness,
    # recorded in findings, not a failed op.
    def check(rc, out, findings):
        if rc not in (0, 1):
            return [f"exit {rc}"]
        bad = [r for r in json.loads(out) if r["verdict"] != "concordant"]
        if (rc == 1) != bool(bad):
            return [f"exit {rc} with {len(bad)} discordant verdicts"]
        for r in bad:
            w = r["witness"]
            findings.append({"recipe": alg.recipe, "file": alg.name,
                             "law": r["law"], "instance": w["instance"],
                             "lhs": w["lhs"], "rhs": w["rhs"]})
        return []

    return check


def _export_check(rc, out, findings):
    if rc != 0 or not out.startswith("digraph eggboxes {"):
        return [f"exit {rc} or not DOT output"]
    return []


def _analyze(seed):
    ops, files = [], {}
    algebras = inputs.batch(seed)
    for alg in algebras:
        path = f"{alg.name}.json"
        files[path] = alg.text
        for argv, check in (
            (["validate", path], _validate_check),
            (["classify", path], _ok),
            (["greens", path], _greens_check(alg)),
            (["cosets", path], _ok),
            (["decompose", path], _decompose_check(alg)),
            (["verify", path], _verify_check(alg)),
            (["export", path, "--format", "dot"], _export_check),
        ):
            ops.append(Op(argv, check))
    return Job(ops, algebras=len(algebras), files=files)


WORKLOADS = {w.name: w for w in (
    Workload(
        "enumerate",
        why="Catalog search: about 75% of the time is the meet-band search "
            "in kernels, the rest canonical_pair.",
        bypasses="greens, varieties, laws, matrix_rings and core.validate.",
        build=_enumerate),
    Workload(
        "oracle",
        why="The naive oracle is core.validate's fast-fail path: 531,441 "
            "nearly all invalid tables, 20 valid; and the only independent "
            "check of the pruned catalog.",
        bypasses="the pruned search (kernels meet bands and join "
                 "completions).",
        build=_oracle),
    Workload(
        "analyze",
        why="Per-algebra analysis over a seeded batch of orders 4-24: "
            "varieties and laws identity scans, decompose, greens and "
            "cosets; algebra order is the working-set knob.",
        bypasses="kernels and the enumerator.",
        build=_analyze),
    Workload(
        "matrix",
        why="GF(5) and GF(7) matrix models, right and left: matrix "
            "arithmetic, plus core.validate on a few large valid tables.",
        bypasses="kernels, the enumerator, varieties and the law harness.",
        build=_matrix),
)}


def write_files(job, directory):
    os.makedirs(directory, exist_ok=True)
    for rel, text in job.files.items():
        with open(os.path.join(directory, rel), "w") as f:
            f.write(text)
