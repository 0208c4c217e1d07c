"""Command-line front end.

Commands
--------
solve          march one problem and write the solution CSV (or plot data)
converge       run the double-mesh study, write report CSV(s), print the table
temporal       manufactured-solution temporal-order study, write order CSV
dump-mesh      write the spatial mesh in the text dump format

Each command declares only the flags it reads; any other flag is a
configuration error.  ``temporal`` always solves the manufactured sine
problem at eps = mu = 1.  --checks strict|warn|off selects
CheckPolicy.strict_policy(), CheckPolicy() and CheckPolicy.off().

Outputs are written atomically (temp file + rename), so no reader observes
a partial file, and a failed write removes its temp file.  The solution CSV
and the plot data are streamed one time level at a time.  The mu values of a
sweep run one after another.  All numeric flags accept scientific notation.
Exit codes: 0 success, 2 configuration error, 1 computation or output error;
errors print one machine-parsable line to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

from . import analysis, registry
from .errors import LayerSolveError, UnknownExample
from .mesh import ThetaVariant, _check_n, spatial_mesh_for, uniform_time_grid
from .problem import derive_regime, validate
from .solver import CheckPolicy, march

__all__ = ["RunConfig", "run", "main"]

COMMANDS = ("solve", "converge", "temporal", "dump-mesh")

_CHECK_POLICIES = {
    "strict": CheckPolicy.strict_policy(),
    "warn": CheckPolicy(),
    "off": CheckPolicy.off(),
}

_DEFAULT_OUT = {
    "solve": "solution.csv",
    "dump-mesh": "mesh.txt",
    "converge": ".",
    "temporal": "temporal.csv",
}


@dataclass(frozen=True)
class RunConfig:
    """Validated settings for one CLI invocation."""

    command: str
    example: str = "example1"
    epsilon: float = 1e-8
    mu: float = 1e-6
    mu_list: tuple[float, ...] = ()
    n: int = 64
    m: int | None = None
    levels: int = 4
    theta_variant: ThetaVariant = ThetaVariant.SECTION4
    checks: CheckPolicy = field(default_factory=CheckPolicy)
    out_path: str = ""
    plot_data: bool = False


class ConfigError(ValueError):
    pass


def _validate_config(cfg: RunConfig) -> None:
    if cfg.command not in COMMANDS:
        raise ConfigError(f"unknown command {cfg.command!r}")
    if cfg.example == "custom":
        raise ConfigError("custom problems are defined in host code via "
                          "ProblemSpec; the CLI serves the registry only")
    # lookup raises for an unknown key and for eps or mu outside (0, 1]
    try:
        for mu in (cfg.mu, *cfg.mu_list):
            registry.lookup(cfg.example, cfg.epsilon, mu)
        _check_n(cfg.n)
    except (UnknownExample, ValueError) as exc:
        raise ConfigError(str(exc)) from None
    # report_filename keeps 6 significant digits of mu; two values that agree
    # there would silently overwrite one report with the other
    seen: dict[str, float] = {}
    for mu in cfg.mu_list:
        name = analysis.report_filename(cfg.epsilon, mu)
        if name in seen:
            raise ConfigError(f"--mu-list values {seen[name]!r} and {mu!r} "
                              f"both write {name}")
        seen[name] = mu
    if cfg.m is not None and cfg.m < 1:
        raise ConfigError("M must be positive")
    if cfg.command == "converge" and cfg.levels < 2:
        raise ConfigError("levels must be at least 2 for converge")


def _atomic_write(path: str, chunks: Iterable[str]) -> None:
    tmp = f"{path}.tmp{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


# The writers below yield one chunk per time level.  x is formatted once per
# solve and each level's u row with a single % call; '%.17g' % v gives the
# same text as f"{v:.17g}" for every double.

def _solution_csv(sol) -> Iterator[str]:
    yield "t,x,u\n"
    pieces = [f"{x:.17g},%.17g" for x in sol.mesh.points]
    for t, row in zip(sol.grid.times, sol.values):
        prefix = f"{t:.17g},"
        template = prefix + ("\n" + prefix).join(pieces) + "\n"
        yield template % tuple(row.tolist())


def _plot_data(sol) -> Iterator[str]:
    body = "\n".join(f"{x:.17g} %.17g" for x in sol.mesh.points) + "\n"
    sep = ""
    for t, row in zip(sol.grid.times, sol.values):
        yield f"{sep}# t={t:.17g}\n" + body % tuple(row.tolist())
        sep = "\n"


def _mesh_dump(mesh) -> str:
    t1, t2, t3, t4 = mesh.tau
    header = (f"# N={mesh.n} theta1={mesh.layer.theta1:.17g} "
              f"theta2={mesh.layer.theta2:.17g} tau1={t1:.17g} tau2={t2:.17g} "
              f"tau3={t3:.17g} tau4={t4:.17g}")
    lines = [header]
    for i in range(mesh.n + 1):
        h = 0.0 if i == 0 else mesh.h[i]
        lines.append(f"{i} {mesh.points[i]:.17g} {h:.17g} {mesh.segment_label(i)}")
    return "\n".join(lines) + "\n"


def _build_mesh(cfg: RunConfig, spec):
    regime = derive_regime(spec)
    return spatial_mesh_for(regime, spec.params, cfg.n, spec.d, cfg.theta_variant)


def _run_solve(cfg: RunConfig) -> None:
    spec = registry.lookup(cfg.example, cfg.epsilon, cfg.mu)
    validate(spec)
    mesh = _build_mesh(cfg, spec)
    grid = uniform_time_grid(spec.t_final, cfg.m if cfg.m is not None else cfg.n)
    sol = march(spec, mesh, grid, cfg.checks)
    writer = _plot_data if cfg.plot_data else _solution_csv
    _atomic_write(cfg.out_path, writer(sol))


def _run_dump_mesh(cfg: RunConfig) -> None:
    spec = registry.lookup(cfg.example, cfg.epsilon, cfg.mu)
    validate(spec)
    _atomic_write(cfg.out_path, [_mesh_dump(_build_mesh(cfg, spec))])


def _converge_one(cfg: RunConfig, mu: float) -> "analysis.ConvergenceReport":
    spec = registry.lookup(cfg.example, cfg.epsilon, mu)
    base_m = cfg.m if cfg.m is not None else cfg.n
    return analysis.convergence_study(spec, cfg.n, base_m, cfg.levels,
                                      variant=cfg.theta_variant, checks=cfg.checks)


def _run_converge(cfg: RunConfig) -> None:
    mus = cfg.mu_list if cfg.mu_list else (cfg.mu,)
    reports = [_converge_one(cfg, mu) for mu in mus]
    os.makedirs(cfg.out_path, exist_ok=True)
    for rep in reports:
        path = os.path.join(cfg.out_path, analysis.report_filename(rep.epsilon, rep.mu))
        _atomic_write(path, [analysis.render_report_csv(rep)])
    sys.stdout.write(analysis.render_text_table(reports))


def _run_temporal(cfg: RunConfig) -> None:
    man = registry.manufactured_sine()
    m_top = cfg.m if cfg.m is not None else 32
    m_list = []
    m = 4
    while m <= max(4, m_top):
        m_list.append(m)
        m *= 2
    report = analysis.temporal_order_study(man, cfg.n, tuple(m_list), cfg.checks)
    _atomic_write(cfg.out_path, [analysis.render_temporal_csv(report)])


_RUNNERS = {
    "solve": _run_solve,
    "dump-mesh": _run_dump_mesh,
    "converge": _run_converge,
    "temporal": _run_temporal,
}


def run(cfg: RunConfig) -> int:
    """Execute one validated configuration; returns the process exit status."""
    try:
        _validate_config(cfg)
    except ConfigError as exc:
        sys.stderr.write(f"error: config: {exc}\n")
        return 2
    try:
        _RUNNERS[cfg.command](cfg)
    except (LayerSolveError, OSError) as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 1
    return 0


class _Parser(argparse.ArgumentParser):
    """Turns every parse failure into a ConfigError instead of a usage block."""

    def error(self, message):
        raise ConfigError(message)


def _mu_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    """One subparser per command, each declaring only the flags it reads."""
    size = _Parser(add_help=False)
    size.add_argument("--N", dest="n", type=int, default=64,
                      help="spatial intervals (divisible by 8)")
    problem = _Parser(add_help=False, parents=[size])
    problem.add_argument("--example", default="example1",
                         help="registry key (example1, example2)")
    problem.add_argument("--epsilon", type=float, default=1e-8,
                         help="diffusion parameter (scientific notation ok)")
    problem.add_argument("--mu", type=float, default=1e-6,
                         help="convection parameter")
    problem.add_argument("--theta-variant", default="section4",
                         choices=[v.value for v in ThetaVariant])
    steps = _Parser(add_help=False)
    steps.add_argument("--M", dest="m", type=int, default=None,
                       help="time steps (defaults to N; for temporal: largest M)")
    steps.add_argument("--checks", default="warn", choices=sorted(_CHECK_POLICIES))

    parser = _Parser(
        prog="layersolve",
        description="Layer-adapted Crank-Nicolson/upwind solver for "
                    "two-parameter singularly perturbed parabolic problems "
                    "with an interior discontinuity.")
    commands = parser.add_subparsers(dest="command", required=True,
                                     metavar="command")
    solve = commands.add_parser(
        "solve", parents=[problem, steps],
        help="march one problem and write the solution CSV (or plot data)")
    solve.add_argument("--plot-data", action="store_true",
                       help="emit x-u pairs per time slice instead of CSV")
    converge = commands.add_parser(
        "converge", parents=[problem, steps],
        help="run the double-mesh study, write report CSV(s), print the table")
    converge.add_argument("--mu-list", type=_mu_list, default=(),
                          help="comma-separated mu values for a sweep")
    converge.add_argument("--levels", type=int, default=4,
                          help="refinement levels")
    commands.add_parser(
        "temporal", parents=[size, steps],
        help="manufactured-solution temporal-order study, write order CSV")
    commands.add_parser(
        "dump-mesh", parents=[problem],
        help="write the spatial mesh in the text dump format")
    for name, sub in commands.choices.items():
        sub.add_argument("--out", dest="out_path", metavar="OUT",
                         default=_DEFAULT_OUT[name],
                         help="output directory" if name == "converge"
                         else "output file")
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    """RunConfig from parsed flags; flags a command lacks keep their defaults."""
    fields = dict(vars(args))
    if "checks" in fields:
        fields["checks"] = _CHECK_POLICIES[fields["checks"]]
    if "theta_variant" in fields:
        fields["theta_variant"] = ThetaVariant(fields["theta_variant"])
    return RunConfig(**fields)


def main(argv: list[str] | None = None) -> int:
    try:
        cfg = config_from_args(build_parser().parse_args(argv))
    except ConfigError as exc:
        sys.stderr.write(f"error: config: {exc}\n")
        return 2
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
