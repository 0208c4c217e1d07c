"""Run one layersolve benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 38 --trace 0

Run from the root of a checkout.  Set-up is timed SETUP_SAMPLES times, each
in a fresh worker process, from process start to ready; then one more fresh
worker sets up and repeats the workload's operation for ``--seconds``.  The
last line of output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The line before it
records provenance.  Scratch files go to ``.perfbench_runs/`` in the
checkout; a traced run leaves its spans there.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS_DIR = os.path.join(ROOT, ".perfbench_runs")
WORKLOADS = ("sweep", "march-4096", "solve-csv")
SETUP_SAMPLES = 9
TIMEOUT_S = 170  # a run must end within 180 s


class BenchError(RuntimeError):
    pass


def _worker_env() -> dict:
    env = dict(os.environ)
    env.pop("LAYERSOLVE_THREADS", None)
    env.pop("PYTHONPATH", None)
    return env


def _start_worker(args, scratch: str, extra: list[str]):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", scratch, *extra]
    return subprocess.Popen(cmd, cwd=ROOT, env=_worker_env(), stdout=subprocess.PIPE,
                            text=True)


def _run_worker(args, scratch: str, extra: list[str], deadline: float):
    """Start a worker; return (seconds to ready, its last output line)."""
    start = time.perf_counter()
    proc = _start_worker(args, scratch, extra)
    try:
        if not select.select([proc.stdout], [], [], max(0.0, deadline - start))[0]:
            raise subprocess.TimeoutExpired(proc.args, deadline - start)
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        if ready != "ready\n":
            raise BenchError(f"worker did not get ready (got {ready!r})")
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise BenchError("worker timed out") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with status {proc.returncode}")
    lines = out.strip().splitlines()
    return setup_s, lines[-1] if lines else ""


def _git(*cmd: str) -> str | None:
    """Output of a git command on this checkout; None outside a git checkout."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        res = subprocess.run(["git", "-C", ROOT, *cmd], capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def _version(dist: str) -> str | None:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


def provenance(args) -> dict:
    rev = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "git_rev": rev,
            "git_dirty": None if status is None else bool(status),
            "python": platform.python_version(), "numpy": _version("numpy"),
            "scipy": _version("scipy"), "cpu_count": os.cpu_count(),
            "cpu_affinity": sorted(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity") else None,
            "loadavg_start": os.getloadavg(),
            "layersolve_threads_env": os.environ.get("LAYERSOLVE_THREADS")}


def measure(args) -> tuple[dict, dict]:
    """(result line, provenance) for one run."""
    if not os.path.isfile(os.path.join(ROOT, "src", "layersolve", "__init__.py")):
        raise BenchError(f"no layersolve sources under {ROOT}/src")
    info = provenance(args)
    deadline = time.perf_counter() + TIMEOUT_S
    scratch = os.path.join(RUNS_DIR, f"tmp-{os.getpid()}")
    os.makedirs(scratch)
    try:
        setups = [_run_worker(args, scratch, ["--setup-only"], deadline)[0]
                  for _ in range(SETUP_SAMPLES)]
        spans = os.path.join(RUNS_DIR, f"spans-{args.workload}-seed{args.seed}.csv")
        setup_s, line = _run_worker(args, scratch, ["--spans", spans] if args.trace else [],
                                    deadline)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    setups.append(setup_s)
    worker = json.loads(line)
    info.update(loadavg_end=os.getloadavg(), setup_samples_s=setups,
                op_samples_s=worker["op_s"], worker_threads=worker["threads"],
                layersolve_threads_unset_in_worker=worker["layersolve_threads_unset"],
                failures=worker["failures"] + worker["run_failures"])

    if args.trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in worker["per_layer"].items()}
    else:
        op_s = statistics.median(worker["op_s"])
        metrics = {
            "op_s": {"value": op_s, "unit": "s"},
            "node_updates_per_s": {"value": worker["node_updates"] / op_s, "unit": "1/s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": worker["peak_rss_mb"], "unit": "MB"},
        }
    correct = worker["failed"] == 0 and not worker["run_failures"]
    return ({"correct": correct, "attempted": worker["attempted"],
             "failed": worker["failed"], "metrics": metrics}, info)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=38)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, info = measure(args)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        sys.stderr.write(f"run.py: {exc}\n")
        return 1
    for failure in info["failures"]:
        sys.stderr.write(f"run.py: check failed: {failure}\n")
    print(json.dumps({"provenance": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
