"""Reduced-size self-check of the benchmark harness; not part of the test suite.

    python3 perfbench/selfcheck.py

Runs every workload at N = 16 through the worker's operation loop, traced
and untraced, and checks the gate, the span accounting and the work
counters.  It also checks the march workload's spec at N = 256 under strict
audits, and that ``run.py`` refuses to run without the library's sources.
Takes a few seconds; prints ``selfcheck: ok`` on success.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys

from worker import HERE, ROOT, _import_layersolve, run_workload
from tracing import Tracer, per_layer_metrics, phase_totals, trace_failures


def check_workload(workloads, name: str, seed: int, scratch: str) -> list[str]:
    wl = workloads.WORKLOADS[name](seed, False, scratch)
    tracer = Tracer()
    tracer.install("setup")
    try:
        wl.setup()
    finally:
        tracer.uninstall()
    summary = run_workload(wl, 0.0, tracer)
    problems = list(summary["failures"])
    if summary["attempted"] != 2 or summary["traced_phases"] != ["op0"]:
        problems.append(f"expected one traced and one untraced op, got {summary}")
    phases = phase_totals(tracer.spans)
    problems += trace_failures(phases, summary["traced_phases"], wl.node_updates())
    metrics = {k: v for k, (v, _unit) in per_layer_metrics(
        phases, summary["traced_phases"], summary["untraced_s"],
        wl.output_bytes(), summary["check_warnings"]).items()}
    audits = 0.0 if name == "march-4096" else 1.0
    expected = {"solver.thomas_solve.per_step": 1.0,
                "discretization.assemble.per_step": 1.0,
                "discretization.m_matrix_check.per_step": audits,
                "solver.check_warnings": 0,
                "trace.self_sum_s": metrics["trace.op_s"]}
    problems += [f"{key} = {metrics[key]}, expected {want}"
                 for key, want in expected.items() if metrics[key] != want]
    if (metrics["cli.self_s"] > 0.0) == (name == "march-4096"):
        problems.append(f"cli.self_s = {metrics['cli.self_s']} on {name}")
    if name == "march-4096" and metrics["problem.validate.s"] <= 0.0:
        problems.append("set-up validate was not traced")
    return [f"{name} (seed {seed}): {p}" for p in problems]


def check_march_spec(layersolve, workloads) -> list[str]:
    spec = workloads.time_dependent_spec()
    regime = layersolve.derive_regime(spec)
    problems = [] if abs(regime.rho - 1.915) < 5e-3 else [f"rho = {regime.rho}"]
    mesh = layersolve.spatial_mesh_for(regime, spec.params, 256, spec.d)
    try:
        layersolve.march(spec, mesh, layersolve.uniform_time_grid(spec.t_final, 256),
                         layersolve.CheckPolicy.strict_policy())
    except layersolve.LayerSolveError as exc:
        problems.append(f"march spec fails strict audits at N=256: {exc!r}")
    pinned = workloads.load_pinned()["march-4096"]
    exact = {"max_abs": pinned["max_abs"], "final": pinned["final"]}
    off = {"max_abs": pinned["max_abs"] * (1.0 + 1e-8),
           "final": [v + 1e-8 * pinned["max_abs"] for v in pinned["final"]]}
    if workloads.pinned_failures(exact, pinned) or \
            len(workloads.pinned_failures(off, pinned)) != 1 + len(pinned["final"]):
        problems.append("the pinned-value gate does not resolve 1e-8 relative changes")
    mus = workloads.sweep_mus(workloads.DEFAULT_SEED)
    if mus != workloads.sweep_mus(workloads.DEFAULT_SEED) or not all(
            1e-12 <= mu <= 1e-7 for mu in mus) or len(set(mus)) != 6:
        problems.append(f"sweep mu values {mus}")
    return problems


def check_bare_directory(scratch: str) -> list[str]:
    """run.py in a directory holding only the benchmark must fail quietly."""
    bare = os.path.join(scratch, "bare")
    shutil.copytree(HERE, os.path.join(bare, os.path.basename(HERE)),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run([sys.executable, os.path.join(os.path.basename(HERE), "run.py"),
                           "--workload", "sweep", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=bare, capture_output=True, text=True,
                          timeout=60)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"run.py in a bare directory: status {proc.returncode}, "
                f"output {proc.stdout!r}"]
    return []


def main() -> int:
    layersolve = _import_layersolve()
    import workloads

    scratch = os.path.join(ROOT, ".perfbench_runs", f"selfcheck-{os.getpid()}")
    problems = []
    try:
        for name in workloads.WORKLOADS:
            for seed in (workloads.DEFAULT_SEED, 7):
                problems += check_workload(workloads, name, seed,
                                           os.path.join(scratch, f"{name}-{seed}"))
        problems += check_march_spec(layersolve, workloads)
        problems += check_bare_directory(scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for problem in problems:
        print(f"selfcheck: {problem}")
    print("selfcheck: ok" if not problems else f"selfcheck: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
