"""One benchmark worker process: set up one workload, then time operations.

Started by ``run.py``; not meant to be run by hand.  It imports
``layersolve`` from the checkout's ``src`` directory, builds the workload,
prints ``ready`` and, unless ``--setup-only``, repeats the operation for
``--seconds`` (at least twice), checking each result outside the timed
region.  Its last line of output is one JSON object for ``run.py``.

With ``--trace 1`` operations alternate traced and untraced, starting
traced, so the same run yields the per-layer split and the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import sys
import time
import traceback
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
MIN_OPS = 2  # two results to compare byte for byte, and one untraced op per traced run


def _import_layersolve():
    sys.path.insert(0, SRC)
    import layersolve
    where = os.path.dirname(os.path.abspath(layersolve.__file__))
    if where != os.path.join(SRC, "layersolve"):
        raise ImportError(f"layersolve imported from {where}, not from {SRC}")
    return layersolve


def os_threads() -> int:
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    import threading
    return threading.active_count()


def run_op(wl, tracer, phase: str) -> tuple[float, list[str], int]:
    """One operation: (seconds, failures, CheckWarnings raised)."""
    from layersolve import CheckWarning, LayerSolveError

    out_dir = wl.fresh_dir()
    if tracer is not None:
        tracer.install(phase)
    # stdout carries this worker's protocol; the CLI's table must not reach it
    captured_out, captured_err = io.StringIO(), io.StringIO()
    result = None
    failures: list[str] = []
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(captured_out), \
            contextlib.redirect_stderr(captured_err):
        warnings.simplefilter("always")
        start = time.perf_counter()
        try:
            if tracer is None:
                result = wl.op(out_dir)
            else:
                result = tracer.root(wl.op, out_dir)
        except LayerSolveError as exc:
            failures.append(f"raised {type(exc).__name__}: {exc}")
        elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.uninstall()
    check_warnings = sum(issubclass(w.category, CheckWarning) for w in caught)
    if check_warnings:
        failures.append(f"{check_warnings} CheckWarning(s): {caught[0].message}")
    if captured_err.getvalue():
        failures.append(f"wrote to stderr: {captured_err.getvalue().strip()[:200]}")
    if not failures:
        failures += wl.check(result, out_dir)
    elif out_dir:
        shutil.rmtree(out_dir, ignore_errors=True)
    return elapsed, failures, check_warnings


def run_workload(wl, seconds: float, tracer) -> dict:
    """Repeat the operation for `seconds` (at least MIN_OPS times) and summarise.

    The next operation starts only if it should end within `seconds`,
    judged by the longest one so far.
    """
    durations, untraced, traced_phases, failures = [], [], [], []
    failed = check_warnings = 0
    start = time.perf_counter()
    while len(durations) < MIN_OPS or (
            time.perf_counter() - start + max(durations) <= seconds):
        phase = f"op{len(durations)}"
        traced = tracer is not None and len(durations) % 2 == 0
        elapsed, op_failures, warned = run_op(wl, tracer if traced else None, phase)
        durations.append(elapsed)
        if traced:
            traced_phases.append(phase)
        else:
            untraced.append(elapsed)
        check_warnings += warned
        failed += bool(op_failures)
        failures += [f"{phase}: {f}" for f in op_failures]
    return {"attempted": len(durations), "failed": failed, "failures": failures,
            "untraced_s": untraced, "traced_phases": traced_phases,
            "check_warnings": check_warnings}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--spans", help="where a traced run writes its spans (CSV)")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    if "LAYERSOLVE_THREADS" in os.environ:
        sys.stderr.write("worker: LAYERSOLVE_THREADS must be unset\n")
        return 2
    _import_layersolve()
    import workloads
    from tracing import Tracer, per_layer_metrics, phase_totals, trace_failures

    wl = workloads.WORKLOADS[args.workload](args.seed, True, args.scratch)
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install("setup")
    wl.setup()
    if tracer is not None:
        tracer.uninstall()
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    if args.setup_only:
        return 0

    summary = run_workload(wl, args.seconds, tracer)
    threads = os_threads()
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    run_failures = [] if threads <= nproc else [f"{threads} threads > nproc = {nproc}"]
    result = {"attempted": summary["attempted"], "failed": summary["failed"],
              "failures": summary["failures"][:20],
              "op_s": summary["untraced_s"],
              "node_updates": wl.node_updates(),
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "threads": threads,
              "layersolve_threads_unset": "LAYERSOLVE_THREADS" not in os.environ}
    if tracer is not None:
        tracer.write_csv(args.spans)
        phases = phase_totals(tracer.spans)
        run_failures += trace_failures(phases, summary["traced_phases"], wl.node_updates())
        result["per_layer"] = per_layer_metrics(
            phases, summary["traced_phases"], summary["untraced_s"],
            wl.output_bytes(), summary["check_warnings"])
    result["run_failures"] = run_failures
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
