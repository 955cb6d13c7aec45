"""Run every workload once, untraced, and print each end-to-end metric with its unit.

    python3 perfbench/report.py [--seed N] [--seconds S]

Besides the metrics of the result line it prints ``ops_failed_ratio``
(failed jobs / attempted jobs), the timed job count and the percentile
behind ``job_tail_s``.  Exits non-zero if any run fails or any job fails
its correctness check.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from run import HERE, WORKLOADS


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=15)
    args = parser.parse_args()

    ok = True
    print(f"{'workload':<14} {'metric':<20} {'value':>14}  unit")
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            stdout=subprocess.PIPE, text=True, check=False,
        )  # fmt: skip
        if proc.returncode != 0:
            print(f"{workload:<14} run failed with exit code {proc.returncode}")
            ok = False
            continue
        lines = proc.stdout.splitlines()
        report = json.loads(lines[-2])["report"]
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        rows = dict(result["metrics"])
        rows["ops_failed_ratio"] = report["ops_failed_ratio"]
        for name, metric in rows.items():
            print(f"{workload:<14} {name:<20} {metric['value']:>14.6g}  {metric['unit']}")
        print(
            f"{workload:<14} ({report['jobs_timed']} timed jobs, tail = "
            f"p{report['job_tail_percentile']:.4g}, peak RSS of {report['peak_rss_of']})"
        )
        for error in report["errors"]:
            print(f"{workload:<14} FAILED {error}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
