"""skewlat benchmark: one workload per process, one closed-loop client.

Run from the root of a checkout:

    python3 perfbench/run.py --workload analyze --seed 1 --seconds 25 --trace 0

It imports skewlat from ``src/`` and drives ``skewlat.cli.main`` in-process.
With ``--trace 0`` it repeats the workload's pass while another pass fits in
``--seconds`` and reports the end-to-end metrics; with ``--trace 1`` it runs
each op once untraced and once traced, then the kernel loops, and reports
the per-layer metrics.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is the full report (environment, counts, stdout digests, findings).
Outputs go to ``.bench_out/`` and scratch files to ``.bench_work/`` in the
checkout.  A failed correctness gate makes the run exit 1.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# Set-up is repeated and its median reported, so one slow import does not
# decide setup_s.
SETUP_REPEATS = 9


def _purge_skewlat():
    for name in [m for m in sys.modules
                 if m == "skewlat" or m.startswith("skewlat.")]:
        del sys.modules[name]


def _setup(workload, seed, workdir):
    """Import skewlat afresh, build the job and write its input files.
    Returns (seconds, cli module, job)."""
    _purge_skewlat()
    importlib.invalidate_caches()
    t0 = perf_counter()
    cli = importlib.import_module("skewlat.cli")
    job = workload.build(seed)
    workloads.write_files(job, workdir)
    return perf_counter() - t0, cli, job


def _run_op(cli, argv):
    out = io.StringIO()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(argv)
        tb = None
    except Exception:  # an escaped exception is a failed op, not a crash
        rc, tb = None, traceback.format_exc(limit=3)
    return perf_counter() - t0, rc, out.getvalue(), tb


class Pass:
    """One pass over a job's ops: latencies, digest, problems, findings."""

    def __init__(self):
        self._digest = hashlib.sha256()
        self.latencies, self.problems, self.findings = [], [], []

    def add(self, op, result):
        dt, rc, out, tb = result
        self.latencies.append(dt)
        self._digest.update(out.encode())
        self._digest.update(b"\0")
        problems = [tb] if tb else op.check(rc, out, self.findings)
        if problems:
            self.problems.append({"argv": op.argv, "problems": problems})

    @property
    def wall_s(self):
        return sum(self.latencies)

    @property
    def digest(self):
        return self._digest.hexdigest()


def _plain_pass(cli, job):
    p = Pass()
    for op in job.ops:
        p.add(op, _run_op(cli, op.argv))
    return p


def _percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def _git_revision(root):
    """HEAD's commit, read from .git without running git; None outside git."""
    try:
        with open(os.path.join(root, ".git", "HEAD")) as f:
            head = f.read().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            loose = os.path.join(root, ".git", ref)
            if os.path.exists(loose):
                with open(loose) as f:
                    return f.read().strip()
            with open(os.path.join(root, ".git", "packed-refs")) as f:
                for line in f:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
            return None
        return head
    except OSError:
        return None


def _environment(root):
    from skewlat import kernels

    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "git_revision": _git_revision(root),
        "kernels_backend": kernels.BACKEND,
        "machine": platform.machine(),
    }


def _untraced(workload, args, workdir):
    setups = []
    for _ in range(SETUP_REPEATS):
        dt, cli, job = _setup(workload, args.seed, workdir)
        setups.append(dt)
    with _inside(workdir, cli) as run:
        if job.prepare:
            job.prepare(run)
        passes = []
        t0 = perf_counter()
        while True:
            passes.append(_plain_pass(cli, job))
            elapsed = perf_counter() - t0
            if elapsed * (len(passes) + 1) / len(passes) > args.seconds:
                break
    # wall_s sums each op's median over the passes, so that a burst of load
    # from other tenants during one pass moves no op's figure.  The
    # percentiles pool every op sample of every pass.
    per_op = [statistics.median(ts) for ts in zip(*(p.latencies for p in passes))]
    samples = [t for p in passes for t in p.latencies]
    metrics = {
        "wall_s": (sum(per_op), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "op_p50_ms": (statistics.median(samples) * 1e3, "ms"),
        "op_p95_ms": (_percentile(samples, 95) * 1e3, "ms"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    extra = {
        "passes": len(passes),
        "wall_s_per_pass": [p.wall_s for p in passes],
        "setup_s_each": setups,
        "op_samples": len(samples),
    }
    return job, passes, metrics, extra


def _traced(workload, args, workdir, out_dir):
    _, cli, job = _setup(workload, args.seed, workdir)
    tracer = tracing.Tracer()
    plain, traced = Pass(), Pass()
    with _inside(workdir, cli) as run:
        if job.prepare:
            job.prepare(run)
        # Each op runs untraced and then traced, back to back, so that both
        # see the same load from other tenants and overhead_ratio compares
        # like with like.  Wrappers are installed only around the traced run.
        for i, op in enumerate(job.ops):
            plain.add(op, _run_op(cli, op.argv))
            layers.instrument(tracer)
            tracer.op_id = i
            try:
                result = _run_op(cli, op.argv)
            finally:
                tracer.restore()
            traced.add(op, result)
    tracer.write(os.path.join(out_dir, f"{workload.name}-spans.json.gz"))
    metrics = layers.per_layer(
        tracer, job.algebras or len(job.ops), plain.wall_s, traced.wall_s)
    kernel_metrics, kernel_results, backends = layers.kernel_loops()
    metrics.update(kernel_metrics)
    self_s = tracer.self_seconds()
    extra = {
        "spans": len(tracer.span_start),
        "span_summary": {
            name: {"calls": tracer.calls[name], "s": tracer.seconds[name],
                   "self_s": self_s[name]}
            for name in sorted(tracer.names)},
        "call_counts": dict(sorted(tracer.calls.items())),
        "work_counts": dict(sorted(tracer.counts.items())),
        "kernel_backends": backends,
        "kernel_loop_results": kernel_results,
        "untraced_wall_s": plain.wall_s,
        "traced_wall_s": traced.wall_s,
    }
    problems = []
    if traced.digest != plain.digest:
        problems.append("traced stdout differs from untraced stdout")
    problems += _kernel_loop_problems(kernel_results)
    return job, [plain, traced], metrics, extra, problems


def _kernel_loop_problems(results):
    problems = []
    for key, value in results.items():
        loop = key.split(".", 1)[1]
        if loop == "assoc_x2000" and value != 2000:
            problems.append(f"{key}: associative table reported "
                            f"non-associative ({value}/2000)")
        if loop == "canonical_x20" and value != 60:
            problems.append(f"{key}: canonical_pair returned {value}/60 parts")
    by_loop = {}
    for key, value in results.items():
        by_loop.setdefault(key.split(".", 1)[1], set()).add(value)
    problems += [f"backends disagree on {loop}"
                 for loop, vals in by_loop.items() if len(vals) > 1]
    return problems


@contextlib.contextmanager
def _inside(workdir, cli):
    """Make the job's scratch directory the working directory, so that file
    names in stdout do not depend on where the checkout lives.  Yields a
    runner for untimed reference ops."""
    root = os.getcwd()
    os.chdir(workdir)

    def run(argv):
        _, rc, out, _ = _run_op(cli, argv)
        return rc, out

    try:
        yield run
    finally:
        os.chdir(root)


def _declared_metrics(root, trace):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "skewlat", "cli.py")):
        print("error: run from the root of a skewlat checkout "
              "(src/skewlat/cli.py not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    # enumerate must search, never read a cached catalog.
    os.environ.pop("SKEWLAT_CACHE_DIR", None)
    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload]

    workdir = os.path.join(root, ".bench_work", str(os.getpid()))
    try:
        if args.trace:
            job, passes, metrics, extra, problems = _traced(
                workload, args, workdir, out_dir)
        else:
            job, passes, metrics, extra = _untraced(workload, args, workdir)
            problems = []
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))
    digests = sorted({p.digest for p in passes})
    if len(digests) > 1:
        problems.append("stdout differs between passes")
    attempted = sum(len(p.latencies) for p in passes)
    failed = sum(len(p.problems) for p in passes)
    correct = failed == 0 and not problems

    names = _declared_metrics(root, args.trace)
    missing = [n for n in names if n not in metrics]
    if missing:
        raise KeyError(f"declared metrics not measured: {missing}")
    findings = passes[0].findings
    end_to_end = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    if not args.trace:
        end_to_end["fail_ratio"] = {"value": failed / attempted, "unit": "ratio"}
        end_to_end["discordant_verdicts"] = {"value": len(findings),
                                             "unit": "count"}
    report = {
        "workload": workload.name,
        "why": workload.why,
        "bypasses": workload.bypasses,
        "seed": args.seed,
        "trace": args.trace,
        "environment": _environment(root),
        "client": "one closed-loop client, in-process, no worker pool",
        "ops_per_pass": len(job.ops),
        "algebra_files": job.algebras,
        "stdout_sha256": digests[0],
        "discordances": findings,
        "failures": [pr for p in passes for pr in p.problems][:20],
        "run_problems": problems,
        "metrics": end_to_end,
        **extra,
    }
    with open(os.path.join(
            out_dir, f"{workload.name}-seed{args.seed}-trace{args.trace}.json"),
            "w") as f:
        json.dump(report, f, indent=1, sort_keys=True)

    for k, m in end_to_end.items():
        print(f"{k:44s} {m['value']:14.6f} {m['unit']}", file=sys.stderr)
    print(f"ops {attempted} attempted, {failed} failed"
          + ("" if args.trace else
             f"; percentiles over {extra['op_samples']} op samples from "
             f"{extra['passes']} passes"), file=sys.stderr)
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed + len(problems),
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]}
                    for k in names},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
