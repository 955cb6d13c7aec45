"""One benchmark process: build a workload's inputs, then run its jobs back to back.

``run.py`` starts this script; it is not meant to be run by hand, except
to record the expected output hashes after an intended numeric change::

    PYTHONPATH=src python3 perfbench/worker.py --workload NAME --record JOBS [--tiny]

Protocol on stdout: the line ``READY`` as soon as the first job could
start, then (unless ``--setup-only``) one JSON line holding every job's
record.  Load is a closed loop: one client, one job at a time.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
EXPECTED = HERE / "expected_hashes.json"
DEFAULT_SEED = 0

# Documented by threshmatch.simulate for its generator with the "x_and_eta"
# surface: the true ATT, and the variance of the scaled estimation error.
# The band is deliberately wide: it catches a broken estimator, not noise.
TRUE_ATT = 4.0 / 3.0
ZETA_VARIANCE = 11.455
BAND_SD = 8.0
# Per-seed ITE MSE ceiling; the acceptance bound on the median at n=20k is 0.2.
ITE_MSE_MAX = 0.2

MIN_UNITS = 2  # timed jobs (pairs, when traced) run even past the deadline
JOB_TIMEOUT_S = 150

COLUMNS = dict(y_col="y", q_col="q", x_cols=["x1", "x2", "x3"], z_cols=["x1", "x2", "x3", "x4"], tau0=0.0)
BYTES_PER_ROW = 8 * (1 + 3 + 4 + 1)  # float64 y, x (3), z (4), q


def band_error(theta: float, n_eff: int) -> str | None:
    half = BAND_SD * (ZETA_VARIANCE / n_eff) ** 0.5
    if abs(theta - TRUE_ATT) <= half:
        return None
    return f"theta {theta!r} outside 4/3 +- {half:.4g}"


class CsvStudy:
    """``threshmatch estimate --crossfit`` in a fresh process on a written CSV."""

    name = "csv-study"
    in_process = False

    def __init__(self, tiny: bool):
        self.n = 3_000 if tiny else 100_000
        self.rows_per_job = 3 * self.n
        self.path = WORK / f"csv-study-{os.getpid()}.csv"

    def setup(self, tm, seed: int) -> None:
        obs = tm.simulate.generate(tm.simulate.DgpConfig(n=self.n, seed=tm.rng.derive_seed(seed)))
        tm.data_model.write_csv(str(self.path), obs, tm.data_model.ColumnSpec(**COLUMNS))

    @property
    def input_bytes(self) -> int:
        return self.path.stat().st_size

    def job(self, tm, job_seed: int, index: int, tracer: Tracer | None):
        argv = [
            "estimate", "--crossfit", "--data", str(self.path), "--y", "y", "--q", "q",
            "--x", "x1,x2,x3", "--z", "x1,x2,x3,x4", "--tau", "0", "--seed", str(job_seed),
        ]  # fmt: skip
        spans = WORK / f"spans-{os.getpid()}-{index}.jsonl"
        if tracer is None:
            cmd = [sys.executable, "-m", "threshmatch.cli", *argv]
        else:
            cmd = [sys.executable, str(HERE / "trace_cli.py"), str(spans), *argv]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, cwd=ROOT, timeout=JOB_TIMEOUT_S)
        if tracer is not None and spans.exists():
            tracer.merge(spans, index)
            spans.unlink()
        if proc.returncode != 0:
            raise RuntimeError(f"threshmatch estimate exited with {proc.returncode}")
        payload = json.loads(proc.stdout)
        theta = payload["theta_hat"]
        values = [theta, *payload["theta_rotations"], *payload["beta_hat"], *payload["gamma_hat"]]
        return values, band_error(theta, self.n)

    def cleanup(self) -> None:
        self.path.unlink(missing_ok=True)


class InProcess:
    in_process = True

    @property
    def input_bytes(self) -> int:
        return BYTES_PER_ROW * self.n

    def cleanup(self) -> None:
        pass


class Bootstrap12k(InProcess):
    """``bootstrap_att(obs, b=200)`` on generator data built in set-up."""

    name = "bootstrap-12k"

    def __init__(self, tiny: bool):
        self.n = 1_200 if tiny else 12_000
        self.b = 20 if tiny else 200
        self.rows_per_job = self.n * self.b

    def setup(self, tm, seed: int) -> None:
        self.obs = tm.simulate.generate(tm.simulate.DgpConfig(n=self.n, seed=tm.rng.derive_seed(seed)))

    def job(self, tm, job_seed: int, index: int, tracer: Tracer | None):
        res = tm.bootstrap.bootstrap_att(self.obs, b=self.b, seed=job_seed)
        values = [res.sigma2_hat, res.ci_low, res.ci_high, res.b_failed, *res.replicates]
        # replicates are single-run estimates, whose scale is sqrt(n/3)
        error = band_error(float(statistics.median(res.replicates)), self.n // 3)
        if error is None and not 0.0 < res.sigma2_hat < 10 * ZETA_VARIANCE:
            error = f"sigma2_hat {res.sigma2_hat!r} outside (0, {10 * ZETA_VARIANCE})"
        return values, error


class Large3m(InProcess):
    """``estimate_att_crossfit(obs)`` on n=3M generator data built in set-up."""

    name = "large-3m"

    def __init__(self, tiny: bool):
        self.n = 30_000 if tiny else 3_000_000
        self.rows_per_job = 3 * self.n

    def setup(self, tm, seed: int) -> None:
        self.obs = tm.simulate.generate(tm.simulate.DgpConfig(n=self.n, seed=tm.rng.derive_seed(seed)))

    def job(self, tm, job_seed: int, index: int, tracer: Tracer | None):
        cf = tm.att.estimate_att_crossfit(self.obs, seed=job_seed)
        values = [cf.theta_cf, *(r.theta_hat for r in cf.rotations)]
        return values, band_error(cf.theta_cf, self.n)


class IteMc30k(InProcess):
    """One ``monte_carlo_ite`` seed: generate, estimate, fit and score the surface."""

    name = "ite-mc-30k"

    def __init__(self, tiny: bool):
        self.n = 6_000 if tiny else 30_000
        self.rows_per_job = self.n

    def setup(self, tm, seed: int) -> None:
        self.config = tm.simulate.DgpConfig(n=self.n, seed=0, ite_kind="x_and_eta")
        self.spec = tm.ite.SplineBasisSpec(include_eta=True)

    def job(self, tm, job_seed: int, index: int, tracer: Tracer | None):
        mses = tm.simulate.monte_carlo_ite(self.config, self.spec, [job_seed])
        error = None if 0.0 < mses[0] < ITE_MSE_MAX else f"ITE MSE {mses[0]!r} outside (0, {ITE_MSE_MAX})"
        return mses, error


WORKLOADS = {w.name: w for w in (CsvStudy, Bootstrap12k, Large3m, IteMc30k)}


def digest(values) -> str:
    import numpy as np

    return hashlib.sha256(np.asarray(values, dtype=np.float64).tobytes()).hexdigest()[:16]


def run_job(tm, workload, seed: int, index: int, tracer: Tracer | None, expected: list) -> dict:
    """Run and check job ``index``; a job that raises is recorded as failed."""
    job_seed = tm.rng.derive_seed(seed, index)
    if tracer is not None:
        tracer.job = index
        tracer.install()
    start = time.perf_counter()
    try:
        values, error = workload.job(tm, job_seed, index, tracer)
    except Exception as exc:  # the loop keeps running; the failure is counted
        values, error = None, f"{type(exc).__name__}: {exc}"
    finally:
        seconds = time.perf_counter() - start
        if tracer is not None:
            tracer.restore()
            tracer.job = None
    record = {"index": index, "traced": tracer is not None, "seconds": seconds, "digest": None}
    if values is not None:
        record["digest"] = digest(values)
        if index < len(expected):
            record["hash_checked"] = True
            if error is None and record["digest"] != expected[index]:
                error = f"output hash {record['digest']} != recorded {expected[index]}"
    record["error"] = error
    return record


def run_jobs(tm, workload, seed: int, seconds: float, tracer: Tracer | None, expected: list) -> dict:
    """One untimed warm-up job, then timed units until ``seconds`` would be exceeded.

    Untraced, a unit is one job.  Traced, a unit is the same job run untraced
    and traced, in alternating order, and the two outputs must match bit for bit.
    """
    warmup = run_job(tm, workload, seed, 0, None, expected)
    warmup["warmup"] = True
    records = [warmup]
    loop_start = time.perf_counter()
    index, units = 1, 0
    while True:
        unit_start = time.perf_counter()
        if tracer is None:
            records.append(run_job(tm, workload, seed, index, None, expected))
        else:
            first, second = (None, tracer) if index % 2 else (tracer, None)
            pair = [run_job(tm, workload, seed, index, t, expected) for t in (first, second)]
            traced, plain = pair if pair[0]["traced"] else pair[::-1]
            if traced["error"] is None and traced["digest"] != plain["digest"]:
                traced["error"] = f"traced output {traced['digest']} != untraced {plain['digest']}"
            records.extend(pair)
        index += 1
        units += 1
        now = time.perf_counter()
        if units >= MIN_UNITS and (now - loop_start) + (now - unit_start) > seconds:
            break
    usage = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    return {
        "jobs": records,
        "loop_wall_s": time.perf_counter() - loop_start,
        "peak_rss_kb": resource.getrusage(usage).ru_maxrss,
        "rss_of": "worker" if workload.in_process else "cli children",
    }


def _caches() -> dict:
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    return caches


def _size_bytes(text: str | None) -> int | None:
    if not text:
        return None
    units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    return int(text[:-1]) * units[text[-1]] if text[-1] in units else int(text)


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _openblas() -> list[dict]:
    """Version and thread count of every OpenBLAS loaded into this process."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.rsplit("/", 1)[-1].lower()})
    except OSError:
        return []
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if get_config is None or get_threads is None:
                    continue
                get_config.argtypes, get_config.restype = [], ctypes.c_char_p
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                found.append(
                    {
                        "library": Path(path).name,
                        "config": get_config().decode(),
                        "threads": get_threads(),
                    }
                )
    return found


def run_facts(workload) -> dict:
    import numpy
    import scipy

    caches = _caches()
    l3 = _size_bytes(caches.get("L3"))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches_per_instance": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas(),
        "n": workload.n,
        "input_bytes_computed": workload.input_bytes,
        "input_over_l3": workload.input_bytes / l3 if l3 else None,
    }


def load_expected(workload, tiny: bool, seed: int) -> list:
    if seed != DEFAULT_SEED or not EXPECTED.exists():
        return []
    table = json.loads(EXPECTED.read_text())
    return table.get("tiny" if tiny else "full", {}).get(workload.name, [])


def record_expected(tm, workload, tiny: bool, jobs: int) -> None:
    hashes = []
    for index in range(jobs):
        rec = run_job(tm, workload, DEFAULT_SEED, index, None, [])
        if rec["error"] is not None:
            raise SystemExit(f"job {index} failed, nothing recorded: {rec['error']}")
        hashes.append(rec["digest"])
    table = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    table.setdefault("tiny" if tiny else "full", {})[workload.name] = hashes
    EXPECTED.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for the self-test")
    parser.add_argument("--setup-only", action="store_true", help="exit once set-up is done")
    parser.add_argument("--record", type=int, metavar="JOBS", help="record output hashes of jobs 0..JOBS-1 at the default seed")
    args = parser.parse_args()

    import_start = time.perf_counter_ns()
    import threshmatch.cli  # the whole package, as a CLI process loads it
    import_end = time.perf_counter_ns()

    tm = threshmatch
    if not Path(tm.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"threshmatch imported from {tm.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.record("cli.import", import_start, import_end)
    WORK.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.tiny)
    try:
        if tracer is not None:
            tracer.install()
        try:
            workload.setup(tm, args.seed)
        finally:
            if tracer is not None:
                tracer.restore()
        print("READY", flush=True)
        if args.record:
            record_expected(tm, workload, args.tiny, args.record)
            return 0
        if args.setup_only:
            return 0
        expected = load_expected(workload, args.tiny, args.seed)
        result = run_jobs(tm, workload, args.seed, args.seconds, tracer, expected)
        result["rows_per_job"] = workload.rows_per_job
        result["facts"] = run_facts(workload)
    finally:
        workload.cleanup()
    if tracer is not None:
        result["layers"], result["not_called"] = tracer.layer_metrics()
        result["missing"] = tracer.missing
        tracer.dump(WORK / f"spans-{workload.name}.jsonl")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
