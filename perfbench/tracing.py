"""Spans around calls into each layer of ``layersolve``, from outside it.

``Tracer.install`` replaces each traced public function, in every
``layersolve`` module namespace that holds it, with a wrapper that records a
span.  A call is therefore traced under the name its caller looks it up by:
``march`` finds ``assemble`` as ``layersolve.solver.assemble``.  Spans stay in
memory until ``write_csv``.  Tracing assumes one thread, which the worker
enforces by running with ``LAYERSOLVE_THREADS`` unset.

Self time is a span's duration minus the time its child spans cover, so time
in a call that a later change inlines moves to its caller's self time.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import defaultdict

# canonical name -> (defining module, function)
TRACED = {
    "cli.main": ("layersolve.cli", "main"),
    "cli.run": ("layersolve.cli", "run"),
    "analysis.convergence_study": ("layersolve.analysis", "convergence_study"),
    "analysis.double_mesh_error": ("layersolve.analysis", "double_mesh_error"),
    "problem.validate": ("layersolve.problem", "validate"),
    "problem.derive_regime": ("layersolve.problem", "derive_regime"),
    "mesh.spatial_mesh_for": ("layersolve.mesh", "spatial_mesh_for"),
    "mesh.bisect": ("layersolve.mesh", "bisect"),
    "solver.march": ("layersolve.solver", "march"),
    "solver.thomas_solve": ("layersolve.solver", "thomas_solve"),
    "solver.residual_max_norm": ("layersolve.solver", "residual_max_norm"),
    "discretization.assemble": ("layersolve.discretization", "assemble"),
    "discretization.m_matrix_check": ("layersolve.discretization", "m_matrix_check"),
}


def _march_size(args, kwargs):
    mesh = kwargs["mesh"] if "mesh" in kwargs else args[1]
    grid = kwargs["grid"] if "grid" in kwargs else args[2]
    return (mesh.n + 1, grid.m)


def _system_size(args, kwargs):
    return (kwargs["sys"] if "sys" in kwargs else args[0]).size


# Work counts recorded with the span, from the call's arguments.
_SIZES = {"solver.march": _march_size, "solver.thomas_solve": _system_size}


def thomas_flops(size: int) -> int:
    """Flops of one Thomas solve on `size` unknowns, counted from the algorithm.

    Row 0: two divisions; rows 1..size-1: six each (pivot, c, x); back
    substitution: two per row for size-1 rows.
    """
    return 2 + 6 * (size - 1) + 2 * (size - 1)


def thomas_bytes(size: int) -> int:
    """Compulsory float64 traffic of one solve: four input arrays, one output."""
    return 8 * 5 * size


class Tracer:
    """Records spans (phase, name, start_ns, end_ns, parent, size) in memory."""

    def __init__(self):
        self.spans: list = []
        self.phase = ""
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        sizer = _SIZES.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            size = sizer(args, kwargs) if sizer else None
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (self.phase, name, start, end, parent, size)
        return traced

    def install(self, phase: str) -> None:
        """Trace calls as part of `phase` until ``uninstall``."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        self.phase = phase
        modules = [mod for key, mod in list(sys.modules.items())
                   if key == "layersolve" or key.startswith("layersolve.")]
        for name, (mod_name, attr) in TRACED.items():
            original = getattr(sys.modules[mod_name], attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, value))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, value in reversed(self._patches):
            setattr(mod, key, value)
        self._patches.clear()

    def root(self, fn, *args):
        """Run fn(*args) under a root span named ``op``."""
        return self._wrap("op", fn)(*args)

    def write_csv(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,phase,name,start_ns,end_ns,parent,size\n")
            for idx, (phase, name, start, end, parent, size) in enumerate(self.spans):
                size_txt = "" if size is None else str(size).replace(", ", ";")
                fh.write(f"{idx},{phase},{name},{start},{end},{parent},{size_txt}\n")


def phase_totals(spans: list) -> dict:
    """Per phase: self ns and calls per name, plus work counts.

    Raises ValueError when a child span is not nested inside its parent or
    overlaps a sibling, which would make self times meaningless.
    """
    child_ns = defaultdict(int)
    last_child_end: dict[int, int] = {}
    for idx, (phase, name, start, end, parent, _size) in enumerate(spans):
        if parent < 0:
            continue
        p_phase, _, p_start, p_end, _, _ = spans[parent]
        if p_phase != phase or not (p_start <= start <= end <= p_end):
            raise ValueError(f"span {idx} ({name}) is not nested in its parent")
        if start < last_child_end.get(parent, p_start):
            raise ValueError(f"span {idx} ({name}) overlaps a sibling")
        last_child_end[parent] = end
        child_ns[parent] += end - start
    phases: dict = {}
    for idx, (phase, name, start, end, parent, size) in enumerate(spans):
        acc = phases.setdefault(phase, {
            "self": defaultdict(int),
            "calls": defaultdict(int), "steps": 0, "node_updates": 0,
            "flops": 0, "bytes": 0, "root_ns": 0})
        acc["self"][name] += end - start - child_ns[idx]
        acc["calls"][name] += 1
        if name == "op" and parent < 0:
            acc["root_ns"] += end - start
        elif name == "solver.march":
            acc["steps"] += size[1]
            acc["node_updates"] += size[0] * size[1]
        elif name == "solver.thomas_solve":
            acc["flops"] += thomas_flops(size)
            acc["bytes"] += thomas_bytes(size)
    return phases


def _median_over(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def trace_failures(phases: dict, op_phases: list, node_updates: int) -> list[str]:
    """Self times must add up to each traced operation's duration, and the
    traced marches must do exactly the operation's stated work."""
    failures = []
    for phase in op_phases:
        acc = phases[phase]
        if acc["calls"]["op"] != 1 or sum(acc["self"].values()) != acc["root_ns"]:
            failures.append(f"{phase}: span self times do not add up to the operation")
        if acc["node_updates"] != node_updates:
            failures.append(f"{phase}: {acc['node_updates']} node updates traced, "
                            f"{node_updates} expected")
    return failures


def per_layer_metrics(phases: dict, op_phases: list, untraced_op_s: list[float],
                      output_bytes: int, check_warnings: int) -> dict:
    """The per-layer metrics of one traced run, as name -> (value, unit).

    Times are seconds per phase, the median over the traced phases (set-up
    and each traced operation) in which the function ran at all; counts and
    ratios are per operation.
    """
    ops = [phases[p] for p in op_phases]

    def seconds(*names: str) -> float:
        return _median_over([sum(acc["self"][n] for n in names) / 1e9
                             for acc in phases.values()
                             if any(acc["calls"][n] for n in names)])

    def per_op(fn) -> float:
        return _median_over([fn(acc) for acc in ops])

    def per_step(name: str) -> float:
        return per_op(lambda acc: acc["calls"][name] / acc["steps"] if acc["steps"] else 0.0)

    def thomas_rate(key: str, scale: float) -> float:
        return per_op(lambda acc: acc[key] / (acc["self"]["solver.thomas_solve"] / 1e9)
                      / scale if acc["calls"]["solver.thomas_solve"] else 0.0)

    def per_solve(key: str) -> float:
        return per_op(lambda acc: acc[key] / acc["calls"]["solver.thomas_solve"]
                      if acc["calls"]["solver.thomas_solve"] else 0.0)

    cli_self = seconds("cli.main", "cli.run")
    traced_op = per_op(lambda acc: acc["root_ns"] / 1e9)
    untraced_op = _median_over(untraced_op_s)
    return {
        "solver.thomas_solve.s": (seconds("solver.thomas_solve"), "s"),
        "solver.thomas_solve.per_step": (per_step("solver.thomas_solve"), "calls/step"),
        "solver.thomas_solve.flops_per_solve_computed": (per_solve("flops"), "flop"),
        "solver.thomas_solve.bytes_per_solve_computed": (per_solve("bytes"), "B"),
        "solver.thomas_solve.mflops_computed": (thomas_rate("flops", 1e6), "Mflop/s"),
        "solver.thomas_solve.mb_per_s_computed": (thomas_rate("bytes", 1e6), "MB/s"),
        "discretization.assemble.s": (seconds("discretization.assemble"), "s"),
        "discretization.assemble.per_step": (per_step("discretization.assemble"), "calls/step"),
        "discretization.m_matrix_check.s":
            (seconds("discretization.m_matrix_check"), "s"),
        "discretization.m_matrix_check.per_step":
            (per_step("discretization.m_matrix_check"), "calls/step"),
        "solver.residual_max_norm.s": (seconds("solver.residual_max_norm"), "s"),
        "solver.march.self_s": (seconds("solver.march"), "s"),
        "solver.check_warnings": (check_warnings, "count"),
        "cli.self_s": (cli_self, "s"),
        "cli.output_mb_per_s": (output_bytes / 1e6 / cli_self if cli_self else 0.0, "MB/s"),
        "analysis.convergence_study.self_s":
            (seconds("analysis.convergence_study"), "s"),
        "analysis.double_mesh_error.s": (seconds("analysis.double_mesh_error"), "s"),
        "problem.validate.s": (seconds("problem.validate"), "s"),
        "problem.derive_regime.s": (seconds("problem.derive_regime"), "s"),
        "mesh.spatial_mesh_for.s": (seconds("mesh.spatial_mesh_for"), "s"),
        "mesh.bisect.s": (seconds("mesh.bisect"), "s"),
        "trace.unattributed_s": (per_op(lambda acc: acc["self"]["op"] / 1e9), "s"),
        "trace.self_sum_s": (per_op(lambda acc: sum(acc["self"].values()) / 1e9), "s"),
        "trace.op_s": (traced_op, "s"),
        "trace.untraced_op_s": (untraced_op, "s"),
        "trace.overhead_s": (traced_op - untraced_op if untraced_op_s else 0.0, "s"),
    }
