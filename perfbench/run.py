"""setincl benchmark: times CLI jobs and public library calls end to end.

    python3 perfbench/run.py --workload oracle|structure|closed-form|all \
        [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a checkout; the setincl sources are taken from the
checkout's ``src``.  Each workload runs in its own fresh process (see
worker.py) with BLAS pinned to one thread.  The run length defaults to
BENCHMARK.json's ``run_seconds`` and sets a fixed pass count per workload
from PASS_SECONDS, so two commits always run the same jobs.  Set-up is
measured in that process and in SETUP_SAMPLES - 1 more fresh ones, half
started before it and half after, and the median is reported.  Times are in
reference seconds (see worker.py).  With ``--trace 1`` the per-layer metrics
are printed instead of the end-to-end ones, from half as many untraced
passes alternating with as many traced ones.  The last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics.  See
README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("oracle", "structure", "closed-form")
SETUP_SAMPLES = 7
# Wall seconds of one pass, checks and probes included, measured on a
# 2-vCPU Xeon host at the commit that defined the benchmark (oracle took
# 7.5-14 s as the host's load varied).  They fix how many passes fill a run,
# so a faster program runs the same passes sooner.
PASS_SECONDS = {"oracle": 10.0, "structure": 7.0, "closed-form": 2.5}
RUN_LIMIT_S = 170  # every run must end within 180 s
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("job_p50_ms", "ms"),
    ("job_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


class BenchError(RuntimeError):
    pass


def worker(argv: list[str], deadline: float) -> dict:
    """Run worker.py in a fresh process and return its JSON result."""
    env = dict(os.environ, **BLAS_PIN)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *argv],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {' '.join(argv)} ran out of time") from exc
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(argv)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def pass_count(name: str, seconds: int, trace: int) -> int:
    passes = max(2, round(seconds / PASS_SECONDS[name]))
    return (passes + 1) // 2 if trace else passes


def run_workload(name: str, seed: int, seconds: int, trace: int, deadline: float) -> dict:
    passes = pass_count(name, seconds, trace)
    common = ["--workload", name, "--seed", str(seed), "--passes", str(passes)]
    extra = 0 if trace else SETUP_SAMPLES - 1
    setups = [worker(common + ["--setup-only"], deadline) for _ in range(extra // 2)]
    res = worker(common + ["--trace", str(trace)], deadline)
    setups.append(res)
    setups += [worker(common + ["--setup-only"], deadline) for _ in range(extra - extra // 2)]
    for key in ("setup_s", "raw_setup_s"):
        res[key] = statistics.median(s[key] for s in setups)
    res["setup_samples"] = len(setups)
    if trace:
        res["metrics"] = res["layers"]
    else:
        res["metrics"] = {k: {"value": res[k], "unit": u} for k, u in END_TO_END}
    return res


def report(name: str, seed: int, res: dict) -> None:
    attempted, failed = res["attempted"], res["failed"]
    print(f"== {name}  seed {seed}  passes {res['passes']} ({res['jobs_per_pass']} jobs each)")
    for key, m in res["metrics"].items():
        print(f"  {key:44s} {m['value']:.6g} {m['unit']}")
    print(f"  {'fail_ratio':44s} {failed / attempted:.6g} ({failed} of {attempted} jobs)")
    print(f"  negative controls: {res['detected']} of {res['controls']} reported as failures")
    if "layers" in res:
        shares = {
            k[: -len(".self_s")]: m["value"]
            for k, m in res["layers"].items()
            if k.endswith(".self_s")
        }
        top = max(shares, key=shares.get)
        total = sum(shares.values())
        print(f"  largest layer self time: {top} ({shares[top] / total:.1%} of traced time)")
    record = {
        "workload": name,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": res["numpy"],
        "nproc": os.cpu_count(),
        "blas_pin": BLAS_PIN,
        "pass_cpus": res["cpus"],
        "seed": seed,
        "jobs": attempted,
        "jobs_per_pass": res["jobs_per_pass"],
        "timed_passes": res["passes"],
        "passes_s": res["passes_s"],
        "traced_passes": res.get("traced_passes", 0),
        "setup_samples": res["setup_samples"],
        "job_tail": f"p{res['tail_pct']} of {res['tail_samples']} job slots, each its best of {res['passes']} passes",
        "raw_wall_s": res["raw_wall_s"],
        "raw_setup_s": res["raw_setup_s"],
        "repeat_share": res["repeat_share"],
    }
    print("record " + json.dumps(record))


def run_seconds() -> int | None:
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    except (OSError, ValueError, KeyError):
        return None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=run_seconds())
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds is None:
        ap.error("--seconds is required when BENCHMARK.json gives no run_seconds")
    if not (ROOT / "src" / "setincl" / "__init__.py").is_file():
        print(f"setincl sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    start = time.monotonic()
    results = {}
    try:
        for name in names:
            deadline = time.monotonic() + RUN_LIMIT_S
            results[name] = run_workload(name, args.seed, args.seconds, args.trace, deadline)
            report(name, args.seed, results[name])
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    prefix = len(names) > 1
    metrics = {
        (f"{name}.{key}" if prefix else key): m
        for name, res in results.items()
        for key, m in res["metrics"].items()
    }
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(f"total {time.monotonic() - start:.1f} s", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
