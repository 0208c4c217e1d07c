"""The benchmark's span accounting holds on every workload at reduced size.

``perfbench`` traces each operation from outside the package and requires
the ``solver.march`` spans to do exactly the operation's node updates and
every span to nest in its parent.  A change that restructures how marches
are called can break that while every value stays right, so the traced run
is repeated here on the small inputs.  Only reads ``perfbench/``.
"""

import importlib
import os

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


@pytest.fixture(scope="module")
def bench():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(PERFBENCH)
        yield tuple(importlib.import_module(name)
                    for name in ("tracing", "worker", "workloads"))


@pytest.mark.parametrize("seed", [1, 7])
@pytest.mark.parametrize("name", ["sweep", "march-4096", "solve-csv"])
def test_traced_run_has_no_failures(bench, name, seed, tmp_path):
    tracing, worker, workloads = bench
    wl = workloads.WORKLOADS[name](seed, False, str(tmp_path))
    tracer = tracing.Tracer()
    tracer.install("setup")
    try:
        wl.setup()
    finally:
        tracer.uninstall()
    summary = worker.run_workload(wl, 0.0, tracer)  # one traced, one untraced op
    assert (summary["failed"], summary["failures"]) == (0, [])
    assert summary["traced_phases"] == ["op0"]
    phases = tracing.phase_totals(tracer.spans)
    assert tracing.trace_failures(phases, summary["traced_phases"], wl.node_updates()) == []
    assert phases["op0"]["node_updates"] == wl.node_updates() > 0
