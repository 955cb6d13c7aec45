"""threshmatch benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; it benchmarks the sources in ``src/`` of the checkout
that holds this script.  Workloads are defined in ``worker.py``; their
reasons are in ``BENCHMARK.json``.

Untraced (``--trace 0``) it measures set-up three times, each in a fresh
process, and then runs one warm-up job and timed jobs back to back for
about S seconds.  It prints the end-to-end metrics.  Traced (``--trace 1``)
every timed job runs both untraced and under the span wrappers of
``tracer.py``; the two outputs must match bit for bit, and it prints the
per-layer metrics with ``trace.overhead_ratio``.

Every job's output is checked (see ``worker.py``).  The next-to-last line
of stdout is a JSON report with the run facts, job count, tail percentile
and failure ratio; the last line is the JSON result.  A checkout without
``src/threshmatch`` exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("csv-study", "bootstrap-12k", "large-3m", "ite-mc-30k")
SETUPS = 3
TIME_LIMIT_S = 170.0
TAIL_BEYOND = 10
TAIL_MIN_PERCENTILE = 90.0


class WorkerFailed(RuntimeError):
    pass


def worker_env() -> dict:
    """Environment for workers: this checkout's sources, BLAS threads <= nproc."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            wanted = int(env.get(var, nproc))
        except ValueError:
            wanted = nproc
        env[var] = str(max(1, min(wanted, nproc)))
    return env


def run_worker(cmd: list[str], env: dict, deadline: float) -> tuple[float, str]:
    """Run one worker to completion; return (seconds until READY, later stdout)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, env=env, cwd=ROOT,
        text=True, start_new_session=True,
    )  # fmt: skip

    def kill_group():
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    watchdog = threading.Timer(max(0.0, deadline - time.monotonic()), kill_group)
    watchdog.start()
    try:
        ready_line = proc.stdout.readline()
        ready_s = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            kill_group()
        proc.wait()
        proc.stdout.close()
    if ready_line.strip() != "READY" or code != 0:
        raise WorkerFailed(f"worker {' '.join(cmd[2:])} exited with {code}")
    return ready_s, rest


def quantile(values: list[float], p: float) -> float:
    """Linear-interpolation percentile ``p`` (0..100) of ``values``."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail(times: list[float]) -> tuple[float, float]:
    """(percentile, value) of the job-time tail.

    The percentile is the highest one with TAIL_BEYOND jobs beyond it, but
    never below p90: under 100 jobs that rule would fall towards the median
    and jump with the job count, so p90 is used and the report states how
    few jobs lie beyond it.
    """
    p = max(TAIL_MIN_PERCENTILE, 100.0 * (1.0 - TAIL_BEYOND / len(times)))
    return p, quantile(times, p)


def main() -> int:
    parser = argparse.ArgumentParser(description="threshmatch benchmark, one workload per run")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for the self-test")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "threshmatch" / "__init__.py").is_file():
        print(f"error: no threshmatch sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # on SIGTERM, unwind so run_worker kills the worker's process group
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = time.monotonic() + TIME_LIMIT_S
    env = worker_env()
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
    ] + (["--tiny"] if args.tiny else [])  # fmt: skip
    try:
        setup_s = []
        if not args.trace:
            for _ in range(SETUPS - 1):
                setup_s.append(run_worker(cmd + ["--setup-only"], env, deadline)[0])
        ready_s, out = run_worker(cmd, env, deadline)
        setup_s.append(ready_s)
        result = json.loads(out.splitlines()[-1])
    except (WorkerFailed, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    jobs = result["jobs"]
    errors = [f"job {j['index']}{' traced' if j['traced'] else ''}: {j['error']}" for j in jobs if j["error"]]
    timed = [j["seconds"] for j in jobs if not j.get("warmup") and not j["traced"]]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "facts": result["facts"],
        "jobs_attempted": len(jobs),
        "jobs_timed": len(timed),
        "timed_job_s": timed,
        "hash_checked": sum(1 for j in jobs if j.get("hash_checked")),
        "ops_failed_ratio": {"value": len(errors) / len(jobs), "unit": "ratio"},
        "errors": errors[:10],
    }
    if args.trace:
        traced = [j["seconds"] for j in jobs if j["traced"]]
        metrics = dict(result["layers"])
        metrics["trace.overhead_ratio"] = {
            "value": statistics.median(traced) / statistics.median(timed) - 1.0,
            "unit": "ratio",
        }
        report["missing_wrap_points"] = result["missing"]
        report["not_called"] = result["not_called"]
        report["spans"] = str(Path(".perfbench_work") / f"spans-{args.workload}.jsonl")
    else:
        tail_p, tail_s = tail(timed)
        metrics = {
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "job_p50_s": {"value": statistics.median(timed), "unit": "s"},
            "job_tail_s": {"value": tail_s, "unit": "s"},
            "pipeline_rows_per_s": {
                "value": result["rows_per_job"] * len(timed) / result["loop_wall_s"],
                "unit": "1/s",
            },
            "peak_rss_mb": {"value": result["peak_rss_kb"] / 1024.0, "unit": "MiB"},
        }
        report["setup_samples_s"] = setup_s
        report["job_tail_percentile"] = tail_p
        report["jobs_beyond_tail"] = len(timed) * (1.0 - tail_p / 100.0)
        report["peak_rss_of"] = result["rss_of"]
    print(json.dumps({"report": report}))
    print(
        json.dumps(
            {"correct": not errors, "attempted": len(jobs), "failed": len(errors), "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
