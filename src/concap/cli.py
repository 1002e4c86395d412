"""Command-line front end.

Exit codes are stable across subcommands: 0 success (and VALID verdicts),
1 error, 2 INVALID verdict, 3 enumeration budget exceeded (spectrum and
crosscheck).  A command returns its exit code and its report, and ``main``
writes the report in one piece once the command has returned, so an error
leaves stdout empty.

Each command loads only the modules it runs.  Importing this module loads
the core every command uses (``dsl``, ``automata`` and ``genfun``), which is
all that capacity and jk-table need; spectrum and crosscheck import
``spectrum``, and maxent, validate and simulate import ``maxent`` (simulate
also imports numpy, for its draws).  Commands call through the module at
call time (``maxent.solve_rate(...)``), so a function replaced on its
module is the one that runs.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

from . import dsl, genfun

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INVALID = 2
EXIT_BUDGET = 3


def _units_value(x: float, units: str) -> float:
    return x / math.log(2) if units == "bits" else x


def _load_system(args) -> dsl.SystemDef:
    if args.jk is not None:
        return dsl.build_jk_system(*args.jk)
    return dsl.load_system(args.system)


def _read_support(path: str) -> tuple[maxent.WeightedSupport, maxent.Pmf | None]:
    from . import maxent

    return maxent.parse_support_file(dsl.read_text(path))


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _add_system_args(p: argparse.ArgumentParser, required: bool = True) -> None:
    group = p.add_mutually_exclusive_group(required=required)
    group.add_argument("--system", metavar="FILE", help="system definition file")
    group.add_argument(
        "--jk", nargs=2, type=int, metavar=("J", "K"), help="(j,k) run-length preset"
    )


def _add_units(p: argparse.ArgumentParser) -> None:
    p.add_argument("--units", choices=("nats", "bits"), default="nats")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tol", type=float, default=genfun.DEFAULT_TOL)
    _add_units(p)


def cmd_capacity(args) -> tuple[int, str]:
    """The capacity report.  A ``--jk`` preset is solved in closed form
    (``genfun.abscissa_jk``), with no regex, DFA or pivot test; a
    ``--system`` file by ``genfun.abscissa`` on its DFA."""
    if args.jk is not None:
        name, result = dsl.JK_NAME.format(*args.jk), genfun.abscissa_jk(*args.jk, tol=args.tol)
    else:
        system = _load_system(args)
        name, result = system.name, genfun.abscissa(system, tol=args.tol)  # its path
    q, lo, hi, residual = (  # the residual is the bracket's width, a rate too
        _units_value(x, args.units)
        for x in (result.q, result.bracket_lo, result.bracket_hi, result.residual)
    )
    note = "note        finite language; capacity reported as 0\n" if result.finite_language else ""
    return EXIT_OK, (
        f"system      {name}\n"
        f"capacity    {q:.12f} {args.units}\n"
        f"bracket     [{lo:.15g}, {hi:.15g}]\n"
        f"residual    {residual:.3g}\n"
        f"iterations  {result.iterations}\n{note}"
    )


def _enumerate(args, system: dsl.SystemDef | None) -> tuple[spectrum.WeightSpectrum, str]:
    """The spectrum that spectrum and crosscheck read, within ``--max-strings``
    (``spectrum.DEFAULT_MAX_STRINGS`` when it is not given), and its budget
    line: '' when it is complete.  A ``--jk`` preset is counted by
    ``spectrum.jk_spectrum``, from the (j,k) recurrence, and ``system`` is
    not read; a ``--system`` file by ``spectrum.enumerate_spectrum`` on its
    DFA."""
    from . import spectrum

    budget = spectrum.DEFAULT_MAX_STRINGS if args.max_strings is None else args.max_strings
    if args.jk is not None:
        sp = spectrum.jk_spectrum(*args.jk, max_weight=args.max_weight, max_strings=budget)
    else:
        sp = spectrum.enumerate_spectrum(system, max_weight=args.max_weight, max_strings=budget)
    exceeded = f"budget exceeded: spectrum truncated at weight {sp.horizon:g}\n"
    return sp, ("" if sp.complete else exceeded)


def cmd_spectrum(args) -> tuple[int, str]:
    """The spectrum report.  A ``--jk`` preset builds no system: its rows
    come from the (j,k) recurrence (``_enumerate``)."""
    from . import spectrum

    sp, exceeded = _enumerate(args, None if args.jk is not None else _load_system(args))
    density = spectrum.density_check(sp, args.density_l, args.density_k)
    text = spectrum.format_spectrum(sp)
    if args.output:
        _write_text(args.output, text)
        text = ""
    if len(sp.weights) >= 2:
        cap = _units_value(spectrum.capacity_estimate(sp), args.units)
        c0 = _units_value(spectrum.c0_estimate(sp), args.units)
        growth = _units_value(spectrum.growth_rate_estimate(sp), args.units)
        text += (
            f"capacity_estimate     {cap:.6f} {args.units}\n"
            f"c0_estimate           {c0:.6f} {args.units}\n"
            f"growth_rate_estimate  {growth:.6f} {args.units}\n"
        )
    verdict = "satisfied" if density.satisfied else f"violated at n={density.worst_n}"
    text += f"density_check         L={density.L:g} K={density.K:g}: {verdict}\n{exceeded}"
    return (EXIT_BUDGET if exceeded else EXIT_OK), text


def cmd_crosscheck(args) -> tuple[int, str]:
    from . import spectrum

    system = _load_system(args)
    if not genfun.converges(system, args.s):
        q = genfun.abscissa(system)
        raise ValueError(f"s={args.s} is inside the divergence region (Q={q.q:.6f})")
    sp, exceeded = _enumerate(args, system)
    if exceeded:
        return EXIT_BUDGET, exceeded
    check = spectrum.cross_check_gf(sp, system, args.s)
    return (EXIT_INVALID if check.ambiguous else EXIT_OK), (
        f"partial_sum  {check.partial_sum:.9f}\n"
        f"gf_value     {check.gf_value:.9f}\n"
        f"difference   {check.difference:.3g}\n"
        f"tail_bound   {check.tail_bound:.3g}\n"
        f"ambiguous    {'yes' if check.ambiguous else 'no'}\n"
    )


def cmd_maxent(args) -> tuple[int, str]:
    from . import maxent

    support, _ = _read_support(args.support)
    result = maxent.solve_rate(support, tol=args.tol)
    p = maxent.maxentropic_pmf(support, result)
    note = "note        single-item support; rate is 0\n" if result.degenerate else ""
    return EXIT_OK, (
        f"rate        {_units_value(result.rate, args.units):.12f} {args.units}\n"
        f"residual    {result.residual:.3g}\n{note}{maxent.format_pmf(p)}"
    )


def cmd_validate(args) -> tuple[int, str]:
    from . import maxent

    system = _load_system(args)
    support, pmf = _read_support(args.support)
    if pmf is None:  # the verdict reads only which blocks are positive: all of them
        pmf = maxent.Pmf(support, (1.0 / len(support),) * len(support))
    report = maxent.validate_input_process(pmf, system, depth=args.depth)
    text = f"verdict {'VALID' if report.valid else 'INVALID'} depth={report.depth}\n"
    if report.witness:
        text += f"witness {report.witness}\n"
    if report.reason:
        text += f"reason  {report.reason}\n"
    return (EXIT_OK if report.valid else EXIT_INVALID), text


def cmd_simulate(args) -> tuple[int, str]:
    from . import maxent

    system = _load_system(args) if (args.system or args.jk) else None
    if args.support:
        support, pmf = _read_support(args.support)
    elif args.jk:
        support, pmf = maxent.jk_phrase_support(*args.jk), None
    else:
        raise ValueError("--support is required unless --jk is given")
    if pmf is None:
        pmf = maxent.maxentropic_pmf(support)
    report = maxent.sample_process(pmf, n_blocks=args.blocks, seed=args.seed, system=system)
    text = (
        f"blocks           {report.n_blocks}\n"
        f"exact_rate       {_units_value(report.rate, args.units):.9f} {args.units}\n"
        f"empirical_rate   {_units_value(report.empirical_rate, args.units):.9f} {args.units}\n"
        f"mean_weight      {report.mean_weight:.9f}\n"
    )
    if report.accepted is not None:
        text += f"accepted         {'yes' if report.accepted else 'no'}\n"
        if not report.accepted:
            return EXIT_INVALID, text
    if args.output:
        _write_text(args.output, report.string + "\n")
    return EXIT_OK, text


def cmd_jk_table(args) -> tuple[int, str]:
    """The (j,k) capacities, a row per j.  ``capacity_jk`` is symmetric in j
    and k bit for bit, so each unordered pair is solved once and its text
    reused at the mirrored cell: an 8x8 table takes 36 solves."""
    if args.jmax > 64 or args.kmax > 64:
        raise ValueError("table bounds must be <= 64")
    if args.jmax < 1 or args.kmax < 1:
        raise ValueError("table bounds must be >= 1")
    rows = ["j\\k " + " ".join(f"{k:>8d}" for k in range(1, args.kmax + 1))]
    cells: dict[tuple[int, int], str] = {}  # (min(j,k), max(j,k)) -> the cell's text
    for j in range(1, args.jmax + 1):
        row = []
        for k in range(1, args.kmax + 1):
            pair = (j, k) if j <= k else (k, j)
            if pair not in cells:
                cells[pair] = f"{_units_value(genfun.capacity_jk(*pair), args.units):8.5f}"
            row.append(cells[pair])
        rows.append(f"{j:<4d}" + " ".join(row))
    return EXIT_OK, "\n".join(rows) + "\n"


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser, built once per process and shared.  Its
    ``commands`` maps each command name to that command's parser."""
    parser = argparse.ArgumentParser(
        prog="concap",
        description="Capacity and maxentropic input processes of weighted constrained systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices

    p = sub.add_parser("capacity", help="abscissa-of-convergence capacity of a system")
    _add_system_args(p)
    _add_common(p)
    p.set_defaults(func=cmd_capacity)

    p = sub.add_parser("spectrum", help="enumerate the weight spectrum and estimators")
    _add_system_args(p)
    _add_units(p)
    p.add_argument("--max-weight", type=float, required=True)
    p.add_argument("--max-strings", type=int)
    p.add_argument("--density-l", type=float, default=1.0)
    p.add_argument("--density-k", type=float, default=2.0)
    p.add_argument("--output", metavar="FILE")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("crosscheck", help="partial-sum vs generating-function check")
    _add_system_args(p)
    p.add_argument("--s", type=float, required=True, help="evaluation point")
    p.add_argument("--max-weight", type=float, required=True)
    p.add_argument("--max-strings", type=int)
    p.set_defaults(func=cmd_crosscheck)

    p = sub.add_parser("maxent", help="maxentropic rate and PMF of a support file")
    p.add_argument("--support", required=True, metavar="FILE")
    _add_common(p)
    p.set_defaults(func=cmd_maxent)

    p = sub.add_parser("validate", help="input-process validation against a system")
    _add_system_args(p)
    p.add_argument("--support", required=True, metavar="FILE")
    p.add_argument("--depth", type=int, default=4)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("simulate", help="sample an IID block process")
    _add_system_args(p, required=False)
    p.add_argument("--support", metavar="FILE")
    p.add_argument("--blocks", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", metavar="FILE")
    _add_units(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("jk-table", help="capacity grid over (j,k)")
    p.add_argument("--jmax", type=int, default=8)
    p.add_argument("--kmax", type=int, default=8)
    _add_units(p)
    p.set_defaults(func=cmd_jk_table)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command line (``sys.argv[1:]`` if None), parsed once by its
    command's parser; the top-level parser reads it only to report a missing
    or unknown command or a left-over argument, with the top-level usage."""
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser()
    command = parser.commands.get(argv[0]) if argv else None
    try:
        if command is not None:
            args, left = command.parse_known_args(argv[1:])
        if command is None or left:
            args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a bad command line, 0 after --help
        return EXIT_OK if exc.code == 0 else EXIT_ERROR
    try:
        code, report = args.func(args)
    except (ValueError, genfun.SolverError, OSError) as exc:
        # ValueError covers DslError, MaxentError, SpectrumError and bad arguments
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except MemoryError:  # its message is empty
        print("error: out of memory", file=sys.stderr)
        return EXIT_ERROR
    sys.stdout.write(report)  # the one write to stdout, after the command has finished
    return code


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
