"""The three benchmark workloads: inputs, one operation, and its correctness gate.

Each workload builds its inputs from the seed and a size, runs one operation
through the public API of ``layersolve`` and checks the result.  The check
runs outside the timed region.  Values pinned in ``pinned.json`` apply only
at full size and, for ``sweep``, only at the default seed; other seeds get
seed-free checks.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import shutil

import numpy as np

from layersolve import analysis, cli, mesh, problem, solver

DEFAULT_SEED = 1
PINNED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pinned.json")
# 1e-9 relative leaves room for a roundoff-level solver swap (LAPACK measured
# about 2e-13) and fails any change to the scheme itself.
PIN_RTOL = 1e-9
SWEEP_MIN_ORDER = 0.85  # the acceptance companion bound, for N >= 128


def load_pinned() -> dict:
    with open(PINNED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def sweep_mus(seed: int, count: int = 6) -> list[float]:
    """Distinct mu values drawn log-uniformly from [1e-12, 1e-7].

    Three significant digits keep the CLI's report file names distinct.
    """
    rng = random.Random(seed)
    mus: list[float] = []
    while len(mus) < count:
        mu = float(f"{10.0 ** rng.uniform(-12.0, -7.0):.3g}")
        if mu not in mus:
            mus.append(mu)
    return mus


def coarse_nodes(n: int) -> list[int]:
    """Indices of the N = 64 coarse nodes (interface N/2 included)."""
    return list(range(0, n + 1, max(1, n // 64)))


def _close(got: float, want: float, scale: float) -> bool:
    return abs(got - want) <= PIN_RTOL * scale


def _digest_files(paths: list[str]) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
    return h.hexdigest()


class Workload:
    """One operation, repeated; subclasses define its inputs and checks."""

    name = ""

    def __init__(self, seed: int, full_size: bool, scratch: str):
        self.seed = seed
        self.full_size = full_size
        self.scratch = scratch
        self._digest: str | None = None
        self._op_count = 0
        self._bytes = 0

    def setup(self) -> None:
        """Build the operation's inputs (part of set-up time)."""

    def fresh_dir(self) -> str:
        """An empty output directory for the next operation."""
        self._op_count += 1
        path = os.path.join(self.scratch, f"op{self._op_count}")
        os.makedirs(path)
        return path

    def op(self, out_dir: str):
        raise NotImplementedError

    def node_updates(self) -> int:
        """Sum of (N+1)*M over the operation's marches."""
        raise NotImplementedError

    def output_bytes(self) -> int:
        """Bytes the last checked operation wrote to files."""
        return self._bytes

    def uses_pins(self) -> bool:
        return self.full_size

    def check(self, result, out_dir: str) -> list[str]:
        """Failures of one completed operation; removes its outputs."""
        try:
            observed, digest, failures = self.observe(result, out_dir)
        except (ValueError, IndexError) as exc:
            observed, digest, failures = {}, "", [f"unreadable output: {exc!r}"]
        finally:
            if out_dir:
                shutil.rmtree(out_dir, ignore_errors=True)
        if not failures and self.uses_pins():
            failures = pinned_failures(observed, load_pinned()[self.name])
        if self._digest is None:
            self._digest = digest
        elif digest != self._digest:
            failures.append("output differs from the first operation's")
        return failures

    def observe(self, result, out_dir: str) -> tuple[dict, str, list[str]]:
        """(values compared with pinned.json, output digest, seed-free failures)."""
        raise NotImplementedError


def pinned_failures(observed: dict, pinned: dict) -> list[str]:
    """E ladders and max|U| to PIN_RTOL of themselves; node values to PIN_RTOL
    of the largest pinned node value, since a small value can move more than
    1e-9 of itself under a roundoff-level change."""
    failures = []
    for mu, want in pinned.get("errors", {}).items():
        got = observed["errors"].get(mu, [])
        if len(got) != len(want) or not all(_close(g, w, w) for g, w in zip(got, want)):
            failures.append(f"mu={mu}: E {got} != pinned {want}")
    if "max_abs" in pinned and not _close(observed["max_abs"], pinned["max_abs"],
                                          pinned["max_abs"]):
        failures.append(f"max|U| {observed['max_abs']!r} != pinned {pinned['max_abs']!r}")
    if "final" in pinned:
        scale = max(abs(w) for w in pinned["final"])
        failures += [f"u(x_{i}, T) = {g!r} != pinned {w!r}"
                     for i, g, w in zip(pinned["nodes"], observed["final"], pinned["final"])
                     if not _close(g, w, scale)]
    return failures


class Sweep(Workload):
    """The mu-uniformity study as users run it: ``converge --mu-list``."""

    name = "sweep"

    def __init__(self, seed: int, full_size: bool, scratch: str):
        super().__init__(seed, full_size, scratch)
        self.mus = sweep_mus(seed)
        self.base_n = 64 if full_size else 16
        self.levels = 4 if full_size else 2

    def argv(self, out_dir: str) -> list[str]:
        return ["converge", "--example", "example2", "--epsilon", "1e-12",
                "--mu-list", ",".join(repr(mu) for mu in self.mus),
                "--N", str(self.base_n), "--levels", str(self.levels),
                "--out", out_dir]

    def op(self, out_dir: str):
        return cli.main(self.argv(out_dir))

    def node_updates(self) -> int:
        per_mu = sum(((self.base_n << k) + 1) * (self.base_n << k)
                     for k in range(self.levels + 1))
        return per_mu * len(self.mus)

    def uses_pins(self) -> bool:
        return self.full_size and self.seed == DEFAULT_SEED

    def observe(self, rc, out_dir):
        failures = [] if rc == 0 else [f"exit status {rc}"]
        paths = [os.path.join(out_dir, analysis.report_filename(1e-12, mu))
                 for mu in self.mus]
        missing = [os.path.basename(p) for p in paths if not os.path.exists(p)]
        if missing:
            return {}, "", failures + [f"missing reports {missing}"]
        self._bytes = sum(os.path.getsize(p) for p in paths)
        errors = {}
        for mu, path in zip(self.mus, paths):
            with open(path, encoding="utf-8") as fh:
                report = analysis.parse_report_csv(fh.read())
            errors[repr(mu)] = [rec.e for rec in report.levels]
            if not all(math.isfinite(e) and e > 0.0 for e in errors[repr(mu)]):
                failures.append(f"mu={mu!r}: E not finite and positive: {errors[repr(mu)]}")
            failures += [f"mu={mu!r}: order {rec.r} < {SWEEP_MIN_ORDER} at N={rec.n}"
                         for rec in report.levels
                         if rec.n >= 128 and rec.r is not None and rec.r < SWEEP_MIN_ORDER]
        return {"errors": errors}, _digest_files(paths), failures


def time_dependent_spec(epsilon: float = 1e-8, mu: float = 1e-6) -> problem.ProblemSpec:
    """example1's data with coefficients that change every time step.

    a*(1 + t/2), b = (1 + e^x)(1 + t), c = 1 + t/2; validates with floors
    alpha1 = alpha2 = 1, beta = 2, eta = 1 and is case (i) with rho ~ 1.915.
    No matrix or factor can be reused from one step to the next.
    """
    return problem.ProblemSpec(
        a=problem.PiecewiseField(
            left=lambda x, t: -(1.0 + x * (1.0 - x)) * (1.0 + 0.5 * t),
            right=lambda x, t: (1.0 + x * (1.0 - x)) * (1.0 + 0.5 * t), d=0.5),
        f=problem.PiecewiseField(
            left=lambda x, t: -2.0 * (1.0 + x * x) * t,
            right=lambda x, t: 2.0 * (1.0 + x * x) * t, d=0.5),
        b=lambda x, t: (1.0 + np.exp(x)) * (1.0 + t),
        c=lambda x, t: 1.0 + 0.5 * t,
        p=lambda t: 0.0, r=lambda t: 0.0, q=lambda x: 0.0 * x,
        d=0.5, t_final=1.0,
        params=problem.PerturbationParams(epsilon=epsilon, mu=mu),
        alpha1=1.0, alpha2=1.0, beta=2.0, eta=1.0)


class March(Workload):
    """One large march with every audit off and t-dependent coefficients."""

    name = "march-4096"

    def __init__(self, seed: int, full_size: bool, scratch: str):
        super().__init__(seed, full_size, scratch)
        self.n = 4096 if full_size else 16

    def setup(self) -> None:
        self.spec = time_dependent_spec()
        problem.validate(self.spec)
        regime = problem.derive_regime(self.spec)
        if regime.case is not problem.RegimeCase.CASE_I:
            raise ValueError(f"march spec is {regime.case}, expected case (i)")
        self.mesh = mesh.spatial_mesh_for(regime, self.spec.params, self.n,
                                          self.spec.d)
        self.grid = mesh.uniform_time_grid(self.spec.t_final, self.n)
        self.checks = solver.CheckPolicy.off()

    def fresh_dir(self) -> str:
        return ""

    def op(self, out_dir: str):
        return solver.march(self.spec, self.mesh, self.grid, self.checks)

    def node_updates(self) -> int:
        return (self.n + 1) * self.n

    def observe(self, sol, out_dir):
        values = sol.values  # checked without a temporary copy, to leave peak RSS alone
        max_abs = float(max(values.max(), -values.min()))
        failures = [] if math.isfinite(max_abs) else ["solution is not finite"]
        observed = {"max_abs": max_abs, "final": values[-1, coarse_nodes(self.n)].tolist()}
        return observed, hashlib.sha256(values).hexdigest(), failures


class SolveCsv(Workload):
    """``solve`` writing the full solution CSV: the output layer's workload."""

    name = "solve-csv"

    def __init__(self, seed: int, full_size: bool, scratch: str):
        super().__init__(seed, full_size, scratch)
        self.n = 1024 if full_size else 16

    def argv(self, out_dir: str) -> list[str]:
        return ["solve", "--example", "example1", "--epsilon", "1e-8",
                "--mu", "1e-6", "--N", str(self.n), "--M", str(self.n),
                "--out", os.path.join(out_dir, "sol.csv")]

    def op(self, out_dir: str):
        return cli.main(self.argv(out_dir))

    def node_updates(self) -> int:
        return (self.n + 1) * self.n

    def observe(self, rc, out_dir):
        """Reads the file in chunks, so checking adds nothing to peak memory."""
        failures = [] if rc == 0 else [f"exit status {rc}"]
        path = os.path.join(out_dir, "sol.csv")
        if not os.path.exists(path):
            return {}, "", failures + ["solution CSV missing"]
        self._bytes = os.path.getsize(path)
        keep = 128 * (self.n + 2)  # bytes that surely hold the last N+1 rows
        digest = hashlib.sha256()
        rows = 0
        tail = b""
        with open(path, "rb") as fh:
            header = fh.readline()
            digest.update(header)
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                digest.update(chunk)
                rows += chunk.count(b"\n")
                tail = (tail + chunk)[-keep:]
        if header != b"t,x,u\n":
            failures.append(f"header {header!r}")
        if rows != (self.n + 1) ** 2:
            failures.append(f"{rows} rows, expected {(self.n + 1) ** 2}")
        last = [line.split(b",") for line in tail.split(b"\n")[-(self.n + 2):-1]]
        if any(float(t) != 1.0 for t, _, _ in last):
            failures.append("the last N+1 rows are not all at t = T")
        final = [float(last[i][2]) for i in coarse_nodes(self.n)]
        return {"final": final}, digest.hexdigest(), failures


WORKLOADS = {cls.name: cls for cls in (Sweep, March, SolveCsv)}
