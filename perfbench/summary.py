"""Print every benchmark metric for every workload, with units.

    python3 perfbench/summary.py [--seed 1] [--seconds 38]

Runs ``run.py`` on each workload untraced (end-to-end metrics) and traced
(per-layer split and tracing overhead), one run at a time, and prints one
table.  ``ops_failed_ratio`` is failed over attempted operations, from the
untraced run.  Exits non-zero when a run fails or a check does not pass.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from run import HERE, ROOT, WORKLOADS


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                           "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=200)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} trace={trace}: run.py exited {proc.returncode}")
    return json.loads(lines[-1])


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        default_seconds = json.load(fh)["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=default_seconds)
    args = parser.parse_args()

    all_correct = True
    print(f"{'workload':<11} {'metric':<46} {'value':>14}  unit")
    for workload in WORKLOADS:
        for trace in (0, 1):
            result = run_once(workload, args.seed, args.seconds, trace)
            all_correct &= result["correct"]
            rows = [(name, m["value"], m["unit"]) for name, m in result["metrics"].items()]
            if not trace:
                rows.append(("ops_failed_ratio",
                             result["failed"] / result["attempted"], "1"))
            for name, value, unit in rows:
                print(f"{workload:<11} {name:<46} {value:>14.6g}  {unit}")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
