"""Quick self-test of the benchmark: every workload at tiny n, untraced and traced.

    python3 perfbench/selftest.py

Checks that every run succeeds with all job outputs correct, that each
metric ``BENCHMARK.json`` names is emitted with its unit, that the traced
run finds every wrap point, and that a directory holding only the
benchmark (no sources) fails without printing a result.  Takes about a
minute.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

from run import HERE, ROOT, WORKLOADS


def check(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def run_bench(cwd, workload: str, seed: int, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=200, check=False,
    )  # fmt: skip


def check_run(spec: dict, workload: str, trace: int) -> None:
    # seed 0 has recorded output hashes; any other seed is checked against the band
    seed = 7 if trace else 0
    label = f"{workload} trace={trace}"
    proc = run_bench(ROOT, workload, seed, trace)
    check(proc.returncode == 0, f"{label}: exit code {proc.returncode}")
    lines = proc.stdout.splitlines()
    report = json.loads(lines[-2])["report"]
    result = json.loads(lines[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: keys {sorted(result)}")
    check(result["correct"] and result["failed"] == 0, f"{label}: failed jobs {report['errors']}")
    check(result["attempted"] >= 3, f"{label}: only {result['attempted']} jobs")
    check(report["ops_failed_ratio"] == {"value": 0.0, "unit": "ratio"}, f"{label}: ops_failed_ratio")
    wanted = spec["per_layer" if trace else "end_to_end"]
    check(
        set(result["metrics"]) == {m["name"] for m in wanted},
        f"{label}: metrics differ: {sorted(set(result['metrics']) ^ {m['name'] for m in wanted})}",
    )
    for metric in wanted:
        got = result["metrics"][metric["name"]]
        check(got["unit"] == metric["unit"], f"{label}: {metric['name']} unit {got['unit']}")
        value = got["value"]
        check(isinstance(value, (int, float)) and math.isfinite(value), f"{label}: {metric['name']} = {value}")
        check(trace or value > 0, f"{label}: {metric['name']} = {value}")
    if trace:
        check(report["missing_wrap_points"] == [], f"{label}: missing {report['missing_wrap_points']}")
    else:
        check(report["hash_checked"] > 0, f"{label}: no output hash checked")
    print(f"ok  {label}: {result['attempted']} jobs")


def check_no_sources() -> None:
    bare = ROOT / ".perfbench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(bare, WORKLOADS[0], 0, 0)
        check(proc.returncode != 0 and proc.stdout == "", "a checkout without sources printed a result")
    finally:
        shutil.rmtree(bare)
    print("ok  no sources: exit code", proc.returncode)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_no_sources()
    for workload in WORKLOADS:
        for trace in (0, 1):
            check_run(spec, workload, trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
