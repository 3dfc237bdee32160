#!/usr/bin/env python3
"""augvar benchmark: one workload, one closed-loop client, one result line.

    python3 perfbench/run.py --workload polytope_certify --seed 1 --seconds 30 --trace 0

A single client in this process sends each job only after the previous one
finished (no threads, no worker processes).  Jobs come in passes; pass i
uses inputs generated from (seed, i).  Passes run until ``--seconds`` have
elapsed, and the pass in progress is finished, so every pass counted has
the same mix of rungs.  Each result is checked by the benchmark's own
oracles outside the timed region.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs a fixed
number of passes twice each, untraced and then traced, and prints the
per-layer metrics; a fixed pass count makes every count repeat exactly for
the same seed.  A human-readable report, including a per-rung median
table, goes to stderr; the last line of stdout is the JSON result.

The benchmark imports augvar from ``src/`` next to this directory and
exits with status 2, printing no result, when it is not there.
"""

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import sys
import traceback
from math import ceil
from statistics import median
from time import perf_counter
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

import hostref  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

MODULES = ("rings", "intlin", "laurent", "polytope", "potentials", "augment",
           "localization", "cli")
SETUP_REPEATS = 7
TRACE_PASSES = {"polytope_certify": 2, "series_solve": 3, "cli_requests": 8}


class MissingSource(Exception):
    pass


def import_augvar():
    """A fresh import of augvar from this checkout's ``src``."""
    for name in [m for m in sys.modules if m == "augvar" or m.startswith("augvar.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    try:
        pkg = importlib.import_module("augvar")
    except ImportError as err:
        raise MissingSource("cannot import augvar from %s: %s" % (SRC, err)) from None
    if not os.path.abspath(pkg.__file__).startswith(SRC + os.sep):
        raise MissingSource("augvar was imported from %s, not %s" % (pkg.__file__, SRC))
    mods = {name: importlib.import_module("augvar." + name) for name in MODULES}
    return SimpleNamespace(LaurentPoly=mods["laurent"].LaurentPoly, **mods)


def make_workload(name, aug, workdir):
    cls = workloads.WORKLOADS[name]
    return cls(aug, workdir) if name == "cli_requests" else cls(aug)


def run_job(job):
    """Time one job; returns (seconds, failure reason or None)."""
    t0 = perf_counter()
    try:
        result = job.run()
    except Exception as err:  # a job that raises is a failed job
        elapsed = perf_counter() - t0
        return elapsed, "raised %s: %s" % (type(err).__name__, err)
    elapsed = perf_counter() - t0
    try:
        reason = job.check(result)
    except Exception as err:  # so is one whose result the oracle cannot read
        reason = "oracle raised %s: %s" % (type(err).__name__, err)
    return elapsed, reason


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failures = []

    def record(self, job, reason):
        self.attempted += 1
        if reason is not None:
            self.failures.append("%s: %s" % (job.rung, reason))


def setup(name, workdir, tally):
    """Import, input generation and warm-up, repeated; returns the last
    workload and the median set-up time, rescaled to the nominal host."""
    times = []
    for _ in range(SETUP_REPEATS):
        ref = hostref.measure_ms()
        t0 = perf_counter()
        aug = import_augvar()
        workload = make_workload(name, aug, workdir)
        for job in workloads.warmup_jobs(workload):
            tally.record(job, run_job(job)[1])
        elapsed = perf_counter() - t0
        times.append(elapsed * 2.0 * hostref.NOMINAL_MS / (ref + hostref.measure_ms()))
    return workload, median(times)


def quantile(sorted_values, q):
    """Nearest-rank quantile of a sorted list."""
    return sorted_values[max(0, ceil(q * len(sorted_values)) - 1)]


def measure(workload, seed, seconds, tally):
    """Closed loop until ``seconds`` have passed; returns per-pass records
    of (rung, latency, host-normalised latency, passed) per job."""
    passes = []
    deadline = perf_counter() + seconds
    index = 0
    while True:
        jobs = workloads.pass_jobs(workload, seed, index)
        gc.collect()
        records = []
        ref = hostref.measure_ms()
        for job in jobs:
            elapsed, reason = run_job(job)
            tally.record(job, reason)
            ref_after = hostref.measure_ms()
            normed = elapsed * 2.0 * hostref.NOMINAL_MS / (ref + ref_after)
            records.append((job.rung, elapsed, normed, reason is None))
            ref = ref_after
        passes.append(records)
        index += 1
        if perf_counter() >= deadline:
            return passes


def end_to_end(workload, passes, setup_s):
    """Gated metrics, all on the nominal-host time scale, plus the raw
    (unscaled) figures for the human-readable report."""
    rates, normed = [], []
    for records in passes:
        ok = sum(r[3] for r in records)
        rates.append(ok / sum(r[1] for r in records))
        normed.append(ok / sum(r[2] for r in records))
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {"setup_s": (setup_s, "s"),
               "jobs_per_s_hostnorm": (median(normed), "1/s")}
    raw = {"jobs_per_s": (median(rates), "1/s")}
    for col, out, suffix in ((2, metrics, "_hostnorm"), (1, raw, "")):
        lat = sorted(r[col] for records in passes for r in records)
        top = [r[col] for records in passes for r in records if r[0] == workload.top_rung]
        out["latency_p50_ms" + suffix] = (quantile(lat, 0.50) * 1000.0, "ms")
        out["latency_p95_ms" + suffix] = (quantile(lat, 0.95) * 1000.0, "ms")
        out["top_rung_p50_ms" + suffix] = (median(top) * 1000.0, "ms")
    metrics["peak_rss_mb"] = (rss_kb / 1024.0, "MB")
    return metrics, raw


def traced(workload, seed, tally):
    """Fixed passes, each run untraced and then traced on the same inputs."""
    tracer = Tracer()
    untraced_s = traced_s = 0.0
    refs = []
    for index in range(TRACE_PASSES[workload.name]):
        jobs = workloads.pass_jobs(workload, seed, index)
        gc.collect()
        refs.append(hostref.measure_ms())
        for job in jobs:
            elapsed, reason = run_job(job)
            tally.record(job, reason)
            untraced_s += elapsed
        gc.collect()
        tracer.install()
        if hasattr(workload, "report_bytes"):
            workload.report_bytes = lambda n: tracer.count("cli.report_bytes", n)
        try:
            for j, job in enumerate(jobs):
                tracer.job_id = index * 1000 + j
                elapsed, reason = run_job(job)
                tally.record(job, reason)
                traced_s += elapsed
        finally:
            tracer.uninstall()
            if hasattr(workload, "report_bytes"):
                workload.report_bytes = None
        refs.append(hostref.measure_ms())
    out = tracer.metrics()
    out["host.ref_kernel_ms"] = (median(refs), "ms")
    out["trace.overhead_frac"] = (traced_s / untraced_s - 1.0, "ratio")
    return out, tracer.span_count()


def rung_table(workload, passes):
    by_rung = {}
    for records in passes:
        for rung, t, _, _ in records:
            by_rung.setdefault(rung, []).append(t)
    lines = ["  %-24s %6s %12s" % ("rung", "jobs", "p50_ms")]
    for rung, ts in sorted(by_rung.items(), key=lambda kv: median(kv[1])):
        mark = "  (top rung)" if rung == workload.top_rung else ""
        lines.append("  %-24s %6d %12.3f%s" % (rung, len(ts), median(ts) * 1000.0, mark))
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "augvar", "__init__.py")):
        print("augvar sources not found under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.environ.pop("AUGVAR_ORDER", None)     # reports must not depend on it
    workdir = os.path.join(ROOT, ".perfbench_work", "%d" % os.getpid())
    os.makedirs(workdir)
    cwd = os.getcwd()
    os.chdir(workdir)
    tally = Tally()
    try:
        workload, setup_s = setup(args.workload, workdir, tally)
        if args.trace:
            metrics, spans = traced(workload, args.seed, tally)
            print("traced %d passes, %d spans" % (TRACE_PASSES[args.workload], spans),
                  file=sys.stderr)
        else:
            passes = measure(workload, args.seed, args.seconds, tally)
            metrics, raw = end_to_end(workload, passes, setup_s)
            jobs = sum(len(records) for records in passes)
            print("%s seed %d: %d passes, %d jobs (%d above p95), fail_frac %.4f"
                  % (args.workload, args.seed, len(passes), jobs, jobs - ceil(0.95 * jobs),
                     len(tally.failures) / tally.attempted), file=sys.stderr)
            print(rung_table(workload, passes), file=sys.stderr)
            for key, (value, unit) in raw.items():
                print("  %-48s %16.6f %s  (raw, not rescaled)" % (key, value, unit),
                      file=sys.stderr)
    except MissingSource as err:
        print(str(err), file=sys.stderr)
        return 2
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass
    for reason in tally.failures[:20]:
        print("FAILED %s" % reason, file=sys.stderr)
    for key, (value, unit) in metrics.items():
        print("  %-48s %16.6f %s" % (key, value, unit), file=sys.stderr)
    result = {
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(3)
