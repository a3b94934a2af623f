"""Run one workload of the cantordim benchmark and print its metrics.

    python3 perfbench/run.py --workload engine --seed 1 --seconds 55 --trace 0

Run it from the repository root: it imports the package from ``src/`` and
the brute-force oracles from ``tests/oracles.py``, and refuses to run
without them.  One client runs the workload's seeded job list in a closed
loop (a job starts when the previous one returns) for ``--seconds`` and at
least two passes over the job list (100+ jobs), checking every output.
Three fixed reference kernels are timed before every job.  Each job time
is scaled by the median reference time around it to the speed at which the
kernels take ``REF_S``, and a job's latency is the median of its scaled
runs; set-up time is scaled by the reference times around it.  This
keeps the speed drift of a shared machine out of the figures; the unscaled
figures print beside them.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` runs the leading jobs alternately untraced and with the span
wrappers of ``tracer.py`` installed, and prints the per-layer metrics.  The
last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import importlib
import itertools
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from fractions import Fraction
from types import SimpleNamespace

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads as wl  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

SETUP_REPEATS = 9
MIN_PASSES = 2
# The reference time (geometric mean of the kernels) on a quiet 2-vCPU VM
# (Python 3.11.7): timings are reported at the machine speed where it
# takes this long.
REF_S = 0.4e-3
WINDOW = 25             # reference times each side of a job that set its speed
HARD_STOP_S = 150.0     # a much slower build still exits in time
OUT_DIR = ".perfbench"  # work files and span dumps, inside the checkout


class Ctx:
    """What a job sees: the imported modules, set-up inputs, its budgets."""

    def __init__(self, m, gauges, jobs, workdir):
        self.m = m
        self.gauges = gauges
        self.jobs = jobs
        self.workdir = workdir
        self.budgets: list = []
        self.inputs = None

    def budget(self):
        b = self.m.treeset.Budget()
        self.budgets.append(b)
        return b


def import_package():
    """Fresh import of cantordim and the oracles (set-up is timed as such)."""
    for name in list(sys.modules):
        if name in ("cantordim", "oracles") or name.startswith("cantordim."):
            del sys.modules[name]
    importlib.import_module("cantordim")
    m = SimpleNamespace(**{n: importlib.import_module(f"cantordim.{n}") for n in LAYERS})
    m.oracles = importlib.import_module("oracles")
    return m


def setup(name: str, seed: int, workdir: str) -> Ctx:
    m = import_package()
    jobs, files = wl.job_list(name, random.Random(f"{name}:{seed}"), m)
    for fname, obj in files.items():
        with open(os.path.join(workdir, fname), "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
    gauges = wl.build_gauges(m, wl.WORKLOADS[name].gauges)
    return Ctx(m, gauges, jobs, workdir)


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, job, ok, err):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.failed <= 5:
                why = "".join(traceback.format_exception_only(type(err), err)).strip() \
                    if err else "output failed its check"
                print(f"job {job.jid} ({job.kind}) failed: {why}", file=sys.stderr)


def run_job(ctx: Ctx, job, tally: Tally, tracer: Tracer | None = None) -> float:
    """Run one job, time it, check it; returns the job's seconds."""
    prepare, run, check = wl.KINDS[job.kind]
    ctx.inputs = prepare(job.params) if prepare else None
    ctx.budgets = []
    if tracer is not None:
        tracer.begin_job(job.jid)
        tracer.enabled = True
    err = None
    t0 = time.perf_counter()
    try:
        out = run(ctx, job.params)
    except Exception as exc:  # RecursionError too: a failed job, not a crash
        err = exc
    dt = time.perf_counter() - t0
    if tracer is not None:
        tracer.enabled = False
        tracer.end_job(ctx.budgets)
    ok = False
    if err is None:
        try:
            ok = bool(check(ctx, job.params, out))
        except Exception as exc:
            err = exc
    tally.add(job, ok, err)
    return dt


# A shuffled list that the third reference kernel reads with a wide stride,
# so that one of the kernels misses the caches as the engine's big sets do.
SPREAD = list(range(200_000))
random.Random(1).shuffle(SPREAD)
OFFSETS = itertools.count()


def kernel_dict() -> int:
    """Dict, int and str operations, as in the engine's inner loops."""
    d: dict = {}
    for i in range(1500):
        k = (i * 7919) % 1021
        d[k] = d.get(k, 0) + len(str(i))
    return sum(d.values())


def kernel_fraction() -> int:
    """Fraction arithmetic and frozenset building, as in the cover DP."""
    s, sets = Fraction(0), set()
    for i in range(1, 60):
        s += Fraction(1, i * i + 1)
        sets.add(frozenset((i, i * 3 % 17, s.denominator % 97)))
    return len(sets)


def kernel_memory() -> int:
    """Strided reads over a large list of scattered int objects, from a
    new offset on every call so that the reads miss the caches."""
    return sum(SPREAD[j] for j in range(next(OFFSETS) % 97, len(SPREAD), 97))


REFERENCE_KERNELS = (kernel_dict, kernel_fraction, kernel_memory)


def time_reference() -> float:
    """Geometric mean of the three kernels' times: the machine's speed now."""
    logs = 0.0
    for kernel in REFERENCE_KERNELS:
        t0 = time.perf_counter()
        kernel()
        logs += math.log(time.perf_counter() - t0)
    return math.exp(logs / len(REFERENCE_KERNELS))


def local_medians(refs: list, window: int) -> list:
    """Median of refs[k - window : k + window + 1] for every k."""
    return [statistics.median(refs[max(0, k - window):k + window + 1])
            for k in range(len(refs))]


def closed_loop(ctx: Ctx, seconds: float):
    """Passes over the job list until `seconds` have passed (at least two
    whole passes), timing the reference kernels before each job; a job's
    latency is the median of its runs, each scaled to reference speed."""
    tally = Tally()
    runs, refs, failed = [], [], set()
    start = time.perf_counter()
    while True:
        i = len(runs) % len(ctx.jobs)
        elapsed = time.perf_counter() - start
        if len(runs) >= MIN_PASSES * len(ctx.jobs) and (elapsed >= seconds
                                                        or elapsed > HARD_STOP_S):
            break
        refs.append(time_reference())
        before = tally.failed
        runs.append((i, run_job(ctx, ctx.jobs[i], tally)))
        if tally.failed > before:
            failed.add(i)
    scaled = [[] for _ in ctx.jobs]
    raw = [[] for _ in ctx.jobs]
    for (i, dt), ref in zip(runs, local_medians(refs, WINDOW)):
        scaled[i].append(dt * REF_S / ref)
        raw[i].append(dt)
    lat = [statistics.median(v) for v in scaled]
    raw = [statistics.median(v) for v in raw]
    ok = len(lat) - len(failed)

    def figures(lat):
        return (ok / sum(lat), statistics.median(lat) * 1e3,
                statistics.quantiles(lat, n=10, method="inclusive")[8] * 1e3)

    names = (("jobs_per_s", "1/s"), ("job_ms.p50", "ms"), ("job_ms.p90", "ms"))
    metrics = {n: (v, u) for (n, u), v in zip(names, figures(lat))}
    extra = {f"{n}.unscaled": (v, u) for (n, u), v in zip(names, figures(raw))}
    extra.update({"job_ms.samples": (len(lat), "count"),
                  "passes": (len(runs) / len(lat), "count"),
                  "reference_ms.median": (statistics.median(refs) * 1e3, "ms")})
    return tally, metrics, extra


def traced_passes(ctx: Ctx, name: str, seconds: float, spans_path: str):
    """Alternate untraced and traced passes over the leading jobs, starting
    a new pair only while it should end within `seconds`."""
    jobs = ctx.jobs[:wl.WORKLOADS[name].traced]
    tracer = Tracer({n: getattr(ctx.m, n) for n in LAYERS})
    tally, passes = Tally(), []
    start, pair_s = time.perf_counter(), 0.0
    while not passes or time.perf_counter() - start + pair_s < min(seconds, HARD_STOP_S / 2):
        pair_start = time.perf_counter()
        untraced = sum(run_job(ctx, job, tally) for job in jobs)
        tracer.reset_pass()
        tracer.keep_spans = not passes
        tracer.install()
        try:
            traced = sum(run_job(ctx, job, tally, tracer) for job in jobs)
        finally:
            tracer.uninstall()
        passes.append({"overhead": traced - untraced, "self_ns": dict(tracer.self_ns),
                       "calls": dict(tracer.calls), "counts": dict(tracer.counts)})
        pair_s = time.perf_counter() - pair_start
    tracer.write_spans(spans_path)
    repeat = all(p["calls"] == passes[0]["calls"] and p["counts"] == passes[0]["counts"]
                 for p in passes)
    if not repeat:
        print("per-layer counts differ between traced passes", file=sys.stderr)

    first = passes[0]
    counts = first["counts"]
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (
            statistics.median(p["self_ns"].get(layer, 0) for p in passes) / 1e9, "s")
        metrics[f"{layer}.calls"] = (first["calls"].get(layer, 0), "count")
    nodes, scales = counts["treeset.nodes"], counts["measures.scales"]
    checked, distinct = counts["covers.cylinders_checked"], counts["covers.distinct_words"]
    metrics.update({
        "treeset.nodes": (nodes, "count"),
        "hfun.gauges_built": (counts["hfun.gauges_built"], "count"),
        "measures.scales": (scales, "count"),
        "measures.nodes_per_scale": (nodes / scales if scales else 0.0, "nodes/scale"),
        "measures.result_bits": (counts["measures.result_bits"], "bits"),
        "covers.cylinders_checked": (checked, "count"),
        "covers.rebuild_ratio": (checked / distinct if distinct else 0.0, "ratio"),
        "ideals.blocks_checked": (counts["ideals.blocks_checked"], "count"),
        "specio.bytes_in": (counts["specio.bytes_in"], "B"),
        "specio.bytes_out": (counts["specio.bytes_out"], "B"),
        "cli.jobs": (counts["cli.jobs"], "count"),
        "trace.overhead_s": (statistics.median(p["overhead"] for p in passes), "s"),
    })
    extra = {"trace.passes": (len(passes), "count"),
             "trace.spans": (tracer.span_count(), "count")}
    return tally, metrics, extra, repeat


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    src, tests = os.path.join(root, "src"), os.path.join(root, "tests")
    if not (os.path.isfile(os.path.join(src, "cantordim", "__init__.py"))
            and os.path.isfile(os.path.join(tests, "oracles.py"))):
        print("perfbench: src/cantordim and tests/oracles.py not found; "
              "run from the repository root", file=sys.stderr)
        return 2
    sys.path[:0] = [src, tests]
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=os.path.join(root, OUT_DIR))
    try:
        setup_raw, setup_refs = [], [time_reference()]
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            ctx = setup(args.workload, args.seed, workdir)
            setup_raw.append(time.perf_counter() - t0)
            setup_refs.append(time_reference())
        repeat = True
        if args.trace:
            spans = os.path.join(root, OUT_DIR, f"spans-{args.workload}.tsv.gz")
            tally, metrics, extra, repeat = traced_passes(ctx, args.workload,
                                                          args.seconds, spans)
            extra["trace.spans_file"] = (os.path.relpath(spans, root), "path")
        else:
            tally, metrics, extra = closed_loop(ctx, args.seconds)
            # each set-up is scaled by the mean of the reference times taken
            # just before and just after it
            setup_s = statistics.median(
                dt * REF_S * 2 / (before + after)
                for dt, before, after in zip(setup_raw, setup_refs, setup_refs[1:]))
            extra["setup_s.unscaled"] = (statistics.median(setup_raw), "s")
            metrics = {"setup_s": (setup_s, "s"), **metrics,
                       "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                                       / 1024, "MB")}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    extra["fail_rate"] = (tally.failed / tally.attempted, "ratio")
    for key, (value, unit) in {**metrics, **extra}.items():
        print(f"{args.workload:8s} {key:26s} {value} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0 and repeat,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
