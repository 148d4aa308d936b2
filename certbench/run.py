"""Certificate benchmark for cogradedhopf.

Run from the repository root:

    python3 certbench/run.py --workload verify-mix --seed 1 --seconds 30 --trace 0

Each workload is a closed loop with one client: one process, no extra
threads, the next job sent only when the previous one has finished.  An
untraced run (``--trace 0``) repeats the workload's fixed job list until
``--seconds`` have passed and reports the end-to-end metrics; a traced
run (``--trace 1``) makes one untraced pass, one pass with every layer
wrapped in spans and one counting pass under cProfile, and reports the
per-layer metrics.  Every verdict is checked against the known answers in
``known_answers.json``.  The last line of output is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".certbench_work")
KNOWN_ANSWERS = os.path.join(HERE, "known_answers.json")
LIBRARY_MODULES = ("exact", "groups", "algebras", "hopf", "cograded", "double",
                   "specfile", "report", "cli")
SETUP_REPEATS = 5
CALIBRATION_REPEATS = 3
TAIL_BEYOND = 4  # certificates beyond the tail rank: twelve samples in three passes


class Library:
    """The library's modules, as imported by the latest :func:`import_library`."""

    def __init__(self):
        for name in LIBRARY_MODULES:
            setattr(self, name, importlib.import_module("cogradedhopf." + name))


def import_library():
    """Import the package afresh, dropping any earlier import of it."""
    for name in [m for m in sys.modules if m == "cogradedhopf" or m.startswith("cogradedhopf.")]:
        del sys.modules[name]
    importlib.import_module("cogradedhopf")
    return Library()


# ---------------------------------------------------------------------------
# host facts
# ---------------------------------------------------------------------------

def calibrate():
    """A fixed pure-Python Fraction loop; its time tracks the host's speed."""
    start = time.perf_counter()
    acc = 0
    for k in range(15000):
        x = Fraction(k % 13 + 1, k % 11 + 2) * Fraction(k % 7 + 1, k % 5 + 3) + Fraction(1, 2)
        acc += x.numerator
    return time.perf_counter() - start


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

def run_job(job, tracer=None):
    """Run one job; returns a result dict with timings and certificates."""
    certs, latencies = [], []

    def body():
        state = {}
        for fn in job.steps:
            t = time.perf_counter()
            cert = fn(state)
            if cert is not None:
                latencies.append(time.perf_counter() - t)
                certs.append(cert)

    error = None
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        if tracer is None:
            body()
        else:
            tracer.job(job.name, body)
    except Exception as exc:  # a job that raises is an error, never a crash
        error = "%s: %s" % (type(exc).__name__, exc)
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    return {"job": job, "wall": wall, "cpu": cpu, "certs": certs,
            "latencies": latencies, "error": error}


def run_pass(build, lib, plan, workdir, tracer=None):
    jobs = build(lib, plan, workdir)
    gc.collect()
    return [run_job(job, tracer) for job in jobs]


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def end_to_end(passes, setup_times):
    """The end-to-end metrics of an untraced run, with notes for the readable block.

    Each job's wall and CPU time, and each certificate's latency, is first
    reduced to its mean over the run's passes: on a shared host whose speed
    drifts within seconds, the mean weighs every part of the run alike,
    where the median of a few passes follows whichever pass it picks.  The
    certificate metrics are taken over those per-certificate means: the
    median, and the tail at the highest rank that leaves at least ten
    samples beyond it in the three passes a 30-second run makes at least.
    """
    jobs, certs = {}, {}
    for results in passes:
        for r in results:
            jobs.setdefault(r["job"].name, []).append(r)
            for cert, latency in zip(r["certs"], r["latencies"]):
                certs.setdefault((r["job"].name, cert.name), []).append(latency)
    wall = sum(statistics.fmean(r["wall"] for r in rs) for rs in jobs.values())
    cpu = sum(statistics.fmean(r["cpu"] for r in rs) for rs in jobs.values())
    latencies = sorted(statistics.fmean(xs) for xs in certs.values())
    n = len(latencies)
    tail_rank = max(n - TAIL_BEYOND, 1)
    metrics = {
        "wall_s": (wall, "s"),
        "cpu_s": (cpu, "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "cert_p50_s": (statistics.median(latencies), "s"),
        "cert_tail_s": (latencies[tail_rank - 1], "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    samples = sum(len(xs) for xs in certs.values())
    notes = {
        "wall_s": "sum of per-job means over %d passes" % len(passes),
        "cert_p50_s": "median of %d certificates, %d samples" % (n, samples),
        "cert_tail_s": "p%.0f: %d of %d certificates beyond" % (
            100.0 * tail_rank / n, n - tail_rank, n),
    }
    return metrics, notes


def check_known_answers(passes, known):
    """(failed jobs, attempted jobs, digest drift count, messages)."""
    failed, attempted, drift, messages = 0, 0, 0, []
    pinned = known["digests"]
    for results in passes:
        for r in results:
            job = r["job"]
            attempted += 1
            expect = known["expect_status"][job.kind]
            statuses = [c.status for c in r["certs"]]
            if r["error"] or not statuses or any(s != expect for s in statuses):
                failed += 1
                messages.append("job %r: %s" % (job.name, r["error"] or "status %s, expected %d" % (
                    statuses, expect)))
            if job.pinned:
                digests = {c.name: c.digest for c in r["certs"]}
                if digests != pinned.get(job.name):
                    drift += 1
    return failed, attempted, drift, messages


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="cogradedhopf certificate benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def set_up(build, plan, workdir):
    """SETUP_REPEATS set-ups: a fresh import plus building the library-level
    inputs.  Returns (the last import, the set-up times)."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        lib = import_library()
        build(lib, plan, workdir)
        times.append(time.perf_counter() - start)
    return lib, times


def untraced_run(build, lib, plan, workdir, seconds):
    """Whole passes until ``seconds`` have passed; returns the passes."""
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(run_pass(build, lib, plan, workdir))
    return passes


def traced_run(build, lib, plan, workdir, tracing):
    """An untraced, a traced and a counting pass; returns (passes, metrics, tracer)."""
    untraced = run_pass(build, lib, plan, workdir)
    tracer = tracing.SpanTracer(lib)
    tracer.install()
    try:
        traced = run_pass(build, lib, plan, workdir, tracer)
    finally:
        tracer.remove()
    counted, calls = tracing.count_calls(lib, lambda: run_pass(build, lib, plan, workdir))
    per_layer = tracer.metrics()
    per_layer.update(calls)
    per_layer["trace.overhead_ratio"] = (
        sum(r["wall"] for r in traced) / sum(r["wall"] for r in untraced))
    return [untraced, traced, counted], per_layer, tracer


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "cogradedhopf", "__init__.py")):
        print("certbench: no library sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import inputs
    import tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print("certbench: unknown workload %r (have %s)" % (
            args.workload, ", ".join(WORKLOADS)), file=sys.stderr)
        return 2
    build = WORKLOADS[args.workload]
    with open(KNOWN_ANSWERS) as fh:
        known = json.load(fh)

    calib = [calibrate() for _ in range(CALIBRATION_REPEATS)]
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=WORK)
    try:
        lib = import_library()
        plan = inputs.generate(lib, args.seed, os.path.join(workdir, "inputs"))
        lib, setup_times = set_up(build, plan, workdir)
        if args.trace == 0:
            passes = untraced_run(build, lib, plan, workdir, args.seconds)
            # set up again after the passes, so that the median spans the run
            setup_times += set_up(build, plan, workdir)[1]
            metrics, notes = end_to_end(passes, setup_times)
        else:
            passes, per_layer, tracer = traced_run(build, lib, plan, workdir, tracing)
            metrics = {k: (v, tracing.unit_of(k)) for k, v in per_layer.items()}
            notes = {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    calib += [calibrate() for _ in range(CALIBRATION_REPEATS)]

    failed, attempted, drift, messages = check_known_answers(passes, known)
    correct = failed == 0
    if args.trace == 1:
        metrics["cli.digest_drift"] = (drift, "count")
        metrics["host.calib_s"] = (statistics.median(calib), "s")
        if not tracer.self_sums_match():
            correct = False
            messages.append("span self times do not add up to job wall times")

    print("certbench %s seed %d trace %d: %d passes, %d jobs" % (
        args.workload, args.seed, args.trace, len(passes), attempted))
    for message in messages:
        print("  error: %s" % message)
    for name, (value, unit) in sorted(metrics.items()):
        note = notes.get(name)
        print("  %-28s %14.6g %-6s%s" % (name, value, unit, "  (%s)" % note if note else ""))
    print("  %-28s %14.6g %-6s  (%d of %d jobs)" % (
        "error_rate", failed / attempted, "ratio", failed, attempted))
    if args.trace == 0:
        print("  %-28s %14d %-6s  (pinned digests that moved; not gating)" % (
            "cli.digest_drift", drift, "count"))
    print(json.dumps({"host": {
        "nproc": os.cpu_count(), "python": platform.python_version(), "cpu": cpu_model(),
        "calib_before_s": calib[:CALIBRATION_REPEATS],
        "calib_after_s": calib[CALIBRATION_REPEATS:]}}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def ensure_fixed_hash_seed():
    """Re-execute this process with PYTHONHASHSEED=0 unless it already is.

    Set iteration order inside the library depends on string hashing; a
    fixed hash seed makes call counts repeat exactly between runs.
    """
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable] + sys.argv)


if __name__ == "__main__":
    ensure_fixed_hash_seed()
    sys.exit(main())
