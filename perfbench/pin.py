"""Regenerate ``pinned.json``: the reference values the correctness gate checks.

    python3 perfbench/pin.py

Runs each workload's operation once at full size and the default seed and
records what its check observes.  Only rerun it for a change that is meant
to alter the computed numbers, and say so in that change.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import warnings

from worker import ROOT, _import_layersolve


def main() -> int:
    layersolve = _import_layersolve()
    import workloads

    scratch = os.path.join(ROOT, ".perfbench_runs", f"pin-{os.getpid()}")
    pinned = {}
    try:
        for name, cls in workloads.WORKLOADS.items():
            wl = cls(workloads.DEFAULT_SEED, True, os.path.join(scratch, name))
            wl.setup()
            out_dir = wl.fresh_dir()
            with warnings.catch_warnings():
                warnings.simplefilter("error", layersolve.CheckWarning)
                result = wl.op(out_dir)
            observed, _, failures = wl.observe(result, out_dir)
            if failures:
                sys.stderr.write(f"pin.py: {name}: {failures}\n")
                return 1
            entry = {"seed": workloads.DEFAULT_SEED} if name == "sweep" else {
                "nodes": workloads.coarse_nodes(wl.n)}
            pinned[name] = {**entry, **observed}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    with open(workloads.PINNED_PATH, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(f" {json.dumps(name)}: {json.dumps(entry)}"
                                    for name, entry in pinned.items()) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
