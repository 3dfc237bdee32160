#!/usr/bin/env python3
"""Steadiness self-check: do two sets of runs of one commit agree?

    python3 perfbench/steadiness.py                      # every workload, 2 x 10 runs
    python3 perfbench/steadiness.py --workloads series_solve --runs 5 --sets 1
    python3 perfbench/steadiness.py --trace-check        # also: traced counts repeat

Each run is ``run.py`` in a subprocess with its own seed (set s, run r uses
seed ``seed_base + s * runs + r``), one after another.  For every workload
and end-to-end metric it prints each set's median and quartiles and the
quartile spread as a share of the median, and flags a metric when that
spread exceeds the metric's bound in ``BENCHMARK.json`` (``setup_s`` is
exempt) or when the second set's median is worse than the first's by more
than the bound.  ``--trace-check`` runs each workload traced twice with
one seed and flags any count that differs.  Exits 1 when anything is
flagged.  Run it from the root of the checkout.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_once(spec, workload, seed, seconds, trace):
    cmd = [sys.executable if part == "python3" else part for part in spec["command"]]
    cmd += ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit("run failed (%d): %s\n%s" % (proc.returncode, " ".join(cmd),
                                                      proc.stderr[-2000:]))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print("  seed %d: %d of %d jobs FAILED" % (seed, result["failed"], result["attempted"]))
    return result


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med


def worse_by(metric, first, second):
    """Relative amount by which ``second`` is worse than ``first``."""
    change = (second - first) / first
    return change if metric["better"] == "lower" else -change


def check_sets(spec, workload, sets):
    flagged = []
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        medians = []
        for s, results in enumerate(sets):
            values = [r["metrics"][name]["value"] for r in results]
            med, q1, q3, rel = spread(values)
            medians.append(med)
            flag = ""
            if name != "setup_s" and rel > bound:
                flag = "  SPREAD > bound %.2f" % bound
                flagged.append((workload, name, "spread"))
            elif name != "setup_s" and rel > bound / 3:
                flag = "  (spread above bound/3)"
            print("  %-22s set %d  median %12.4f  q1 %12.4f  q3 %12.4f  spread %6.3f%s"
                  % (name, s + 1, med, q1, q3, rel, flag))
        if len(medians) > 1:
            change = worse_by(metric, medians[0], medians[1])
            verdict = "ok" if change <= bound else "WORSE than bound %.2f" % bound
            if change > bound:
                flagged.append((workload, name, "median"))
            print("  %-22s set 2 vs set 1: %+.3f worse  %s" % (name, change, verdict))
    return flagged


def trace_check(spec, workload, seed, seconds):
    a = run_once(spec, workload, seed, seconds, 1)["metrics"]
    b = run_once(spec, workload, seed, seconds, 1)["metrics"]
    counts = [k for k, v in a.items() if v["unit"] in ("count", "bytes")]
    differ = [k for k in counts if a[k]["value"] != b[k]["value"]]
    print("  traced counts: %d compared, %d differ %s" % (len(counts), len(differ), differ or ""))
    for k in sorted(counts):
        if k.endswith(".calls") and a[k]["value"]:
            print("    %-48s %d" % (k, a[k]["value"]))
    return [(workload, k, "trace count") for k in differ]


def main():
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--seed-base", type=int, default=1000)
    parser.add_argument("--trace-check", action="store_true")
    parser.add_argument("--out", help="write every run's result to this JSON file")
    args = parser.parse_args()
    flagged = []
    raw = {}
    for workload in args.workloads.split(","):
        print(workload)
        sets = []
        for s in range(args.sets):
            results = []
            for r in range(args.runs):
                seed = args.seed_base + s * args.runs + r
                results.append(run_once(spec, workload, seed, args.seconds, 0))
            sets.append(results)
        raw[workload] = sets
        flagged += check_sets(spec, workload, sets)
        if args.trace_check:
            flagged += trace_check(spec, workload, args.seed_base, args.seconds)
        sys.stdout.flush()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(raw, fh, indent=1)
    print("FLAGGED: %s" % flagged if flagged else "all metrics within their bounds")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
