"""One fresh benchmark process: import setincl, run the warm-up job, then run
a fixed number of passes of one workload in a closed loop with a single
caller.  Prints one JSON object on stdout.  Started by run.py, which pins
the BLAS threads, points PYTHONPATH at the checkout's sources and sets the
pass count.

Set-up time runs from before ``import setincl`` to the end of the warm-up
job.  The output checks run between jobs, outside every timing.

Job latencies are reported in reference seconds.  On the shared host the
bounds were set on, the same job varies by up to 2x from one second to the
next and the host's speed drifts for minutes, so raw times of identical
runs spread by 20-35%.  A fixed interpreter-bound probe loop, unrelated to
setincl, is timed before the first job and after every job; each latency is
scaled by REFERENCE_PROBE_S over the mean of the two probes around it.  A
probe is the fastest of PROBE_REPEATS runs of the loop, because preemption
only ever slows a run, and a preempted probe would undercount the job.  A
slower setincl still moves every scaled latency, while the host's speed
cancels.  Set-up time is scaled by the mean of a probe before the imports
and one after the warm-up job.  Every job slot recurs in each pass, and
each slot's latency is its best scaled latency over the passes: wall_s is
their sum, and job_p50_ms and job_tail_ms are percentiles of them.  The raw
figures go to the record.
"""

from time import perf_counter

# The probe loop takes about this long on a 2-vCPU Xeon host when quiet,
# so reference seconds are close to that host's seconds.
REFERENCE_PROBE_S = 0.0012
PROBE_REPEATS = 3


def probe_loop() -> float:
    """Time of a fixed interpreter-bound loop that uses no setincl code."""
    start = perf_counter()
    total = 0
    for i in range(20_000):
        total += i * i % 7
    return perf_counter() - start


def probe_seconds() -> float:
    return min(probe_loop() for _ in range(PROBE_REPEATS))


SETUP_PROBE = probe_seconds()
SETUP_START = perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import numpy  # noqa: E402
import setincl.cli  # noqa: E402

import spans  # noqa: E402
from workloads import WARMUP, WORKLOADS, Job  # noqa: E402


def run_job(job: Job, previous):
    """Time one job; returns (seconds, output).  A CLI job's output is
    (exit code, stdout bytes); stdout is captured in memory as bytes because
    ``export`` writes to ``sys.stdout.buffer``."""
    if job.argv:
        raw = io.BytesIO()
        out = io.TextIOWrapper(raw, encoding="utf-8", newline="\n")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            start = perf_counter()
            rc = setincl.cli.main(list(job.argv))
            out.flush()
            elapsed = perf_counter() - start
        return elapsed, (rc, raw.getvalue())
    module, name = job.call.split(".")
    func = getattr(importlib.import_module(f"setincl.{module}"), name)
    args = (previous[1],) if job.feed else job.args
    start = perf_counter()
    result = func(*args)
    return perf_counter() - start, result


def checked(job: Job, out) -> bool:
    try:
        return bool(job.check(out))
    except Exception:
        traceback.print_exc()
        return False


def run_pass(jobs: list[Job], tracer=None) -> dict:
    """Run one pass; latencies are keyed by slot, scaled and raw."""
    latencies, raw, failed, controls, detected = {}, {}, 0, 0, 0
    out = None
    before = probe_seconds()
    for i, job in enumerate(jobs):
        if tracer:
            tracer.request = i
        try:
            elapsed, out = run_job(job, out)
        except Exception:
            traceback.print_exc()
            failed += 1
            out = None
            continue
        finally:
            if tracer:
                tracer.request = None
        after = probe_seconds()
        raw[job.place] = elapsed
        latencies[job.place] = elapsed * REFERENCE_PROBE_S / ((before + after) / 2)
        before = after
        ok = checked(job, out)
        if not ok:
            failed += 1
            print(f"wrong output: {job.label}", file=sys.stderr)
        if job.negative:
            controls += 1
            detected += ok
    return {
        "latencies": latencies,
        "raw": raw,
        "attempted": len(jobs),
        "failed": failed,
        "controls": controls,
        "detected": detected,
        "keys": [job.key for job in jobs],
    }


def best_latencies(passes: list[dict], kind: str = "latencies") -> list[float]:
    """Each slot's lowest latency over the passes."""
    best: dict[str, float] = {}
    for p in passes:
        for place, seconds in p[kind].items():
            best[place] = min(seconds, best.get(place, seconds))
    return list(best.values())


def tail_percentile(samples: int) -> int:
    """Highest whole percentile with at least 10 of the samples beyond it."""
    return max(0, math.floor(100 * (1 - 10 / samples)))


def nearest_rank(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--passes", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    warm = WARMUP[args.workload]
    _, out = run_job(warm, None)
    raw_setup_s = perf_counter() - SETUP_START
    setup_s = raw_setup_s * REFERENCE_PROBE_S / ((SETUP_PROBE + probe_seconds()) / 2)
    if not checked(warm, out):
        print(f"wrong output: {warm.label}", file=sys.stderr)
        return 1
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "raw_setup_s": raw_setup_s}))
        return 0

    # with tracing, untraced and traced passes alternate, as many of each
    jobs_by_pass = WORKLOADS[args.workload](args.seed, args.passes * (1 + args.trace))
    tracer = spans.Tracer() if args.trace else None
    plain, traced = [], []
    # Passes rotate over the allowed CPUs, so that a vCPU slowed by its
    # neighbours on the host leaves each slot a repetition on another one.
    cpus = sorted(os.sched_getaffinity(0))
    start = perf_counter()
    for i, jobs in enumerate(jobs_by_pass):
        os.sched_setaffinity(0, {cpus[i // (1 + args.trace) % len(cpus)]})
        if tracer and i % 2:
            tracer.install()
            try:
                traced.append(run_pass(jobs, tracer))
            finally:
                tracer.uninstall()
        else:
            plain.append(run_pass(jobs))
    passes_s = perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    done = plain + traced
    seen = {warm.key}
    repeats = 0
    for p in done:
        for key in p["keys"]:
            repeats += key in seen
            seen.add(key)
    latencies = best_latencies(plain)
    jobs_per_pass = done[0]["attempted"]
    pct = tail_percentile(len(latencies))
    result = {
        "numpy": numpy.__version__,
        "cpus": cpus,
        "setup_s": setup_s,
        "raw_setup_s": raw_setup_s,
        "passes": len(plain),
        "passes_s": passes_s,
        "jobs_per_pass": jobs_per_pass,
        "attempted": sum(p["attempted"] for p in done),
        "failed": sum(p["failed"] for p in done),
        "controls": sum(p["controls"] for p in done),
        "detected": sum(p["detected"] for p in done),
        "repeat_share": repeats / sum(len(p["keys"]) for p in done),
        "wall_s": math.fsum(latencies),
        "raw_wall_s": math.fsum(best_latencies(plain, "raw")),
        "job_p50_ms": 1e3 * statistics.median(latencies),
        "tail_pct": pct,
        "tail_samples": len(latencies),
        "job_tail_ms": 1e3 * nearest_rank(latencies, pct),
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer:
        # per-layer numbers are means per traced pass
        totals = tracer.layer_totals()
        totals["trace.overhead_s"] = len(traced) * (
            math.fsum(best_latencies(traced)) - result["wall_s"]
        )
        result["traced_passes"] = len(traced)
        result["layers"] = {
            name: {"value": totals[name] / len(traced), "unit": unit}
            for name, unit in spans.metric_names()
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
