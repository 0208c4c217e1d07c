"""Command-line front end.

Commands
--------
solve          march one problem and write the solution CSV (or plot data)
converge       run the double-mesh study, write report CSV(s), print the table
temporal       manufactured-solution temporal-order study, write order CSV
dump-mesh      write the spatial mesh in the text dump format

Each command declares only the flags it reads; any other flag is a
configuration error, and so is ``converge --mu`` beside ``--mu-list``.
``temporal`` always solves the manufactured sine problem at eps = mu = 1.
--checks strict|warn|off selects CheckPolicy.strict_policy(), CheckPolicy()
and CheckPolicy.off().  The ranges of eps, mu, N, M and --levels are the
library's own checks, which raise InvalidInput.

Outputs are written atomically (temp file + rename), so no reader observes
a partial file, and a failed write removes its temp file.  The solution CSV
and the plot data are streamed one time level at a time.  The mu values of a
sweep run one after another.  All numeric flags accept scientific notation.
Exit codes: 0 success, 2 configuration error (InvalidInput, including every
parse failure), 1 computation or output error; errors print one
machine-parsable line to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from collections.abc import Iterable, Iterator

from . import analysis, registry
from .errors import InvalidInput, LayerSolveError
from .mesh import ThetaVariant, spatial_mesh_for, uniform_time_grid
from .problem import derive_regime, validate
from .solver import CheckPolicy, march

__all__ = ["build_parser", "run", "main"]

_CHECK_POLICIES = {
    "strict": CheckPolicy.strict_policy(),
    "warn": CheckPolicy(),
    "off": CheckPolicy.off(),
}


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


def _build_mesh(args: argparse.Namespace, spec):
    regime = derive_regime(spec)
    return spatial_mesh_for(regime, spec.params, args.n, spec.d, args.theta_variant)


def _run_solve(args: argparse.Namespace) -> None:
    spec = registry.lookup(args.example, args.epsilon, args.mu)
    validate(spec)
    mesh = _build_mesh(args, spec)
    grid = uniform_time_grid(spec.t_final, args.m if args.m is not None else args.n)
    sol = march(spec, mesh, grid, args.checks)
    writer = _plot_data if args.plot_data else _solution_csv
    _atomic_write(args.out_path, writer(sol))


def _run_dump_mesh(args: argparse.Namespace) -> None:
    spec = registry.lookup(args.example, args.epsilon, args.mu)
    validate(spec)
    _atomic_write(args.out_path, [_mesh_dump(_build_mesh(args, spec))])


def _run_converge(args: argparse.Namespace) -> None:
    mus = args.mu_list or (args.mu,)
    specs = [registry.lookup(args.example, args.epsilon, mu) for mu in mus]
    # report_filename keeps 6 significant digits of mu; two values that agree
    # there would silently overwrite one report with the other
    seen: dict[str, float] = {}
    for mu in mus:
        name = analysis.report_filename(args.epsilon, mu)
        if name in seen:
            raise InvalidInput(f"--mu-list values {seen[name]!r} and {mu!r} "
                               f"both write {name}")
        seen[name] = mu
    base_m = args.m if args.m is not None else args.n
    reports = [analysis.convergence_study(spec, args.n, base_m, args.levels,
                                          variant=args.theta_variant, checks=args.checks)
               for spec in specs]
    os.makedirs(args.out_path, exist_ok=True)
    for rep in reports:
        path = os.path.join(args.out_path, analysis.report_filename(rep.epsilon, rep.mu))
        _atomic_write(path, [analysis.render_report_csv(rep)])
    sys.stdout.write(analysis.render_text_table(reports))


def _run_temporal(args: argparse.Namespace) -> None:
    m_top = 32 if args.m is None else args.m
    if m_top < 4 or m_top & (m_top - 1):
        raise InvalidInput(f"--M={m_top}: the largest M must be on the ladder 4, 8, 16, ...")
    man = registry.manufactured_sine()
    m_list = tuple(4 << k for k in range(m_top.bit_length() - 2))
    report = analysis.temporal_order_study(man, args.n, m_list, args.checks)
    _atomic_write(args.out_path, [analysis.render_temporal_csv(report)])


def _exit_status(exc: Exception) -> int:
    """Write exc as one stderr line; 2 for bad input, 1 for anything else."""
    if isinstance(exc, InvalidInput):
        sys.stderr.write(f"error: config: {exc}\n")
        return 2
    sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
    return 1


def run(args: argparse.Namespace) -> int:
    """Execute one namespace from build_parser(); returns the process exit status."""
    try:
        args.runner(args)
    except (LayerSolveError, OSError) as exc:
        return _exit_status(exc)
    return 0


class _Parser(argparse.ArgumentParser):
    """Turns every parse failure into InvalidInput instead of a usage block."""

    def error(self, message):
        raise InvalidInput(message)


def _mu_list(text: str) -> tuple[float, ...]:
    try:
        mus = tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if not mus:
        raise argparse.ArgumentTypeError(f"no mu values in {text!r}")
    return mus


def _check_policy(text: str) -> CheckPolicy:
    try:
        return _CHECK_POLICIES[text]
    except KeyError:
        raise argparse.ArgumentTypeError(f"invalid choice {text!r}") from None


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
    problem.add_argument("--theta-variant", type=ThetaVariant, default="section4",
                         metavar="{" + ",".join(v.value for v in ThetaVariant) + "}")
    steps = _Parser(add_help=False)
    steps.add_argument("--M", dest="m", type=int, default=None,
                       help="time steps (defaults to N; for temporal: largest M, "
                            "default 32)")
    steps.add_argument("--checks", type=_check_policy, default="warn",
                       metavar="{" + ",".join(_CHECK_POLICIES) + "}")

    parser = _Parser(
        prog="layersolve",
        description="Layer-adapted Crank-Nicolson/upwind solver for "
                    "two-parameter singularly perturbed parabolic problems "
                    "with an interior discontinuity.")
    commands = parser.add_subparsers(required=True, metavar="command")
    solve = commands.add_parser(
        "solve", parents=[problem, steps],
        help="march one problem and write the solution CSV (or plot data)")
    solve.add_argument("--plot-data", action="store_true",
                       help="emit x-u pairs per time slice instead of CSV")
    converge = commands.add_parser(
        "converge", parents=[problem, steps],
        help="run the double-mesh study, write report CSV(s), print the table")
    converge.add_argument("--levels", type=int, default=4,
                          help="refinement levels")
    commands.add_parser(
        "temporal", parents=[size, steps],
        help="manufactured-solution temporal-order study, write order CSV")
    commands.add_parser(
        "dump-mesh", parents=[problem],
        help="write the spatial mesh in the text dump format")
    # command -> (runner, default --out)
    bound = {"solve": (_run_solve, "solution.csv"),
             "converge": (_run_converge, "."),
             "temporal": (_run_temporal, "temporal.csv"),
             "dump-mesh": (_run_dump_mesh, "mesh.txt")}
    for name, sub in commands.choices.items():
        runner, out = bound[name]
        sub.set_defaults(runner=runner)
        sub.add_argument("--out", dest="out_path", metavar="OUT", default=out,
                         help="output directory" if name == "converge"
                         else "output file")
        if name != "temporal":
            mu = sub.add_mutually_exclusive_group()
            mu.add_argument("--mu", type=float, default=1e-6,
                            help="convection parameter")
            if name == "converge":
                mu.add_argument("--mu-list", type=_mu_list, default=(),
                                help="comma-separated mu values for a sweep")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except InvalidInput as exc:
        return _exit_status(exc)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
